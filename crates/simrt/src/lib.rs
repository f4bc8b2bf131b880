//! # simrt — deterministic simulation runtime
//!
//! This crate is the foundation of the MHA reproduction. Replay is
//! analytic: each request's completion time is computed from the state of
//! the FIFO queues it passes through, so there is no event loop. The
//! crate supplies the pieces every simulated subsystem needs:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`resource`] — analytic FIFO resources (server queues) that avoid
//!   per-byte event churn,
//! * [`stats`] — online statistics, histograms and percentile helpers,
//! * [`rng`] — deterministic, splittable seeding for reproducible workloads,
//! * [`arrival`] — seeded open-loop (Poisson) arrival processes,
//! * [`fault`] — server fault plans, device profiles and retry policy,
//! * [`lanes`] — stable lane partitioning and disjoint-write scatter for
//!   sharded (per-server) simulation passes,
//! * [`sched`] — per-server service-latency EWMAs and the dispatch policy
//!   knob for client-side straggler-aware request scheduling.
//!
//! Determinism is a hard requirement: two runs with the same seed must
//! produce bit-identical results, so every tie is broken by a stable
//! index, never by pointer or hash order.

pub mod arrival;
pub mod fault;
#[doc(hidden)]
pub mod heap;
pub mod lanes;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use arrival::ArrivalProcess;
pub use fault::{DeviceProfile, FaultKind, FaultPlan, RetryPolicy, ServerFault, ServerHealth};
pub use lanes::{DisjointSlice, LanePartition};
pub use resource::FifoResource;
pub use rng::SeedSeq;
pub use sched::{SchedPolicy, SchedState, ServerLat};
pub use time::{SimDuration, SimTime};
