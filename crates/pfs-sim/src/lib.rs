//! # pfs-sim — hybrid parallel file system simulator
//!
//! The OrangeFS substitute: a striped parallel file system over a mix of
//! HDD-backed servers (HServers) and SSD-backed servers (SServers),
//! connected to client nodes by a simulated Gigabit-Ethernet fabric.
//!
//! The pieces that matter for the paper's effects are modelled exactly:
//!
//! * **Striping** ([`layout`]): files are distributed round-robin with
//!   either a fixed stripe size or a per-server-class `<h, s>` pair
//!   (variable-size striping is what the AAL/HARL/MHA schemes configure).
//! * **Request decomposition**: a client request is split into per-server
//!   sub-requests by the layout map; the request completes when the
//!   *slowest* sub-request completes — the load-imbalance mechanism that
//!   motivates heterogeneity-aware layouts.
//! * **Queueing** ([`server`]): each server serves sub-requests FIFO
//!   through its stateful device model; each NIC serializes flows.
//! * **Metadata service** ([`mds`]): layout lookups cost a round trip at
//!   file open, as in OrangeFS.
//! * **Replay** ([`session::ReplaySession`]): traces execute
//!   phase-by-phase with barrier semantics (synchronous parallel I/O),
//!   producing aggregate bandwidth and per-server I/O time reports. A
//!   session optionally carries a [`simrt::FaultPlan`] injecting
//!   stragglers, outage windows, permanent server loss and degraded
//!   device profiles; the fault-free path is bit-for-bit identical to a
//!   session with no plan.
//!
//! [`ReplaySession`] is the only replay entry point: it takes a
//! [`ReplayInput`] (trace or stream) plus a [`CoreSel`]. One production
//! core, the per-server-lane core ([`sharded`]), runs every replay
//! under `CoreSel::Auto`; a serial reference loop, reachable only
//! through `CoreSel::Serial`, is what tests and the benchmark compare
//! it against, report for report.
//!
//! On top of single replays, [`service::LayoutService`] runs a
//! long-lived multi-tenant service over one shared cluster: seeded
//! open-loop arrivals, bounded per-tenant admission, and per-tenant
//! layout feedback through [`service::TenantRuntime`].

pub mod cluster;
pub mod error;
mod fault;
pub mod layout;
pub mod mds;
pub mod redundancy;
// The serial reference loop: hidden, and reached only through
// `CoreSel::Serial`.
#[doc(hidden)]
mod reference;
pub mod replay;
mod sched;
pub mod server;
pub mod service;
pub mod session;
pub mod sharded;

pub use cluster::{Cluster, ClusterConfig};
pub use error::ReplayError;
pub use layout::{LayoutSpec, LoadScratch, Placement, ServerId};
pub use replay::{
    Counters, IdentityResolver, PhysExtent, ReplayReport, Resolution, Resolver, ServerIoStat,
};
pub use server::StorageServer;
pub use service::{
    JobRecord, LayoutService, NullRuntime, ServiceConfig, ServiceReport, TenantRuntime,
    TenantSummary,
};
pub use session::{CoreSel, ReplayInput, ReplaySession};
// Tenancy vocabulary, re-exported so service callers don't need a direct
// iotrace dependency for ids alone.
pub use iotrace::TenantId;
// Fault-plan and scheduling vocabulary, re-exported so callers
// describing fault scenarios or dispatch policies against a cluster
// don't need a direct simrt dependency.
pub use simrt::{
    DeviceProfile, FaultKind, FaultPlan, RetryPolicy, SchedPolicy, ServerFault, ServerHealth,
};
