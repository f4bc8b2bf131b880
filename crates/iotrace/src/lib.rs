//! # iotrace — I/O traces, collection, and workload generation
//!
//! MHA is trace-driven: the first run of an application is profiled by an
//! IOSIG-like collector, and the resulting trace feeds the layout
//! optimizer. This crate provides:
//!
//! * [`TraceRecord`] / [`Trace`] — the record schema IOSIG captures
//!   (process id, MPI rank, file descriptor, operation, offset, size,
//!   timestamp) plus an explicit I/O *phase* used to compute request
//!   concurrency; a trace stores its records as run-encoded columns and
//!   decodes them by value ([`Trace::records`], [`Trace::phases`]);
//!   [`Trace::phase_windows`] cuts a trace into the phase-run windows the
//!   online re-planner observes,
//! * [`RecordBatch`] / [`BatchSource`] — run-encoded phase batches (the
//!   same encoding, one phase) and streaming trace sources, so huge
//!   synthetic grids never materialize a full trace,
//! * [`Collector`] — the online profiler the middleware drives,
//! * [`gen`] — six workload generators standing in for the paper's
//!   benchmarks and application traces (IOR, HPIO, BTIO, LANL App2,
//!   out-of-core LU, sparse Cholesky),
//! * [`stats`] — trace summaries (size histogram, r_max, byte totals),
//! * [`tsv`] — the line-oriented trace interchange format.

pub mod batch;
pub mod collector;
pub mod error;
pub mod gen;
pub mod record;
pub mod stats;
pub mod trace;
pub mod tsv;

pub use batch::{BatchSource, RecordBatch, TraceBatches};
pub use collector::Collector;
pub use error::TraceError;
pub use record::{FileId, Rank, TenantId, TraceRecord};
pub use stats::TraceStats;
pub use trace::{Phase, Phases, Records, Trace};

pub use storage_model::IoOp;
