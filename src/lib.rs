//! # mha — Migratory Heterogeneity-Aware data layout for hybrid PFSs
//!
//! Facade crate for the MHA reproduction (He, Sun, Wang & Xu, IPDPS'18):
//! re-exports the full workspace API and provides a [`prelude`] for the
//! common pipeline.
//!
//! ## Quickstart
//!
//! ```
//! use mha::prelude::*;
//!
//! // 1. A hybrid cluster: 6 HDD servers + 2 SSD servers, 8 clients.
//! let cluster = ClusterConfig::paper_default();
//!
//! // 2. An application with heterogeneous I/O (the paper's LANL App2).
//! let trace = mha::iotrace::gen::lanl::generate(
//!     &mha::iotrace::gen::lanl::LanlConfig::paper(8, IoOp::Write),
//! );
//!
//! // 3. Plan and replay under DEF and MHA.
//! let ctx = PlannerContext::for_cluster(&cluster);
//! let def = Evaluation::of(Scheme::Def, &trace, &cluster).context(&ctx).report();
//! let mha = Evaluation::of(Scheme::Mha, &trace, &cluster).context(&ctx).report();
//! assert!(mha.bandwidth_mbps() > def.bandwidth_mbps());
//! ```
//!
//! To study a degraded cluster, attach a [`pfs_sim::FaultPlan`] with
//! [`Evaluation::faults`](mha_core::schemes::Evaluation::faults) and opt
//! into health-aware replanning with `replan_around_faults(true)`.
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`simrt`] | simulated time, analytic resources, faults, stats, seeding |
//! | [`storage_model`] | HDD/SSD service-time models + calibration |
//! | [`netsim`] | Gigabit-Ethernet-class star fabric |
//! | [`pfs_sim`] | the hybrid PFS simulator (OrangeFS substitute) |
//! | [`iotrace`] | traces, collector, six workload generators |
//! | [`kvstore`] | durable hash KV store (Berkeley DB substitute) |
//! | [`mha_core`] | the paper's contribution + DEF/AAL/HARL baselines |
//! | [`mpiio_sim`] | MPI-IO middleware layer + five-phase lifecycle |

pub use iotrace;
pub use kvstore;
pub use mha_core;
pub use mpiio_sim;
pub use netsim;
pub use pfs_sim;
pub use simrt;
pub use storage_model;

/// The common imports for driving the pipeline.
pub mod prelude {
    pub use iotrace::{Collector, Trace, TraceRecord, TraceStats};
    pub use mha_core::schemes::{
        apply_plan, Evaluation, LayoutPlanner, Plan, PlannerContext, Scheme,
    };
    pub use mha_core::dynamic::{run_dynamic, DynamicConfig, DynamicReport};
    pub use mha_core::persist::{recover, PersistError, PipelineStore, TenantStore};
    pub use mha_core::tenant::TenantPipeline;
    pub use mha_core::{
        file_sizes, placement_factors, rebuild_onto_spare, CostParams, DrtResolver,
        GroupingConfig, OnlineConfig, OnlinePlanner, OpFactors, RebuildOutcome, RssdConfig,
    };
    pub use mpiio_sim::{Hints, Middleware, MpiJob};
    pub use pfs_sim::{
        Cluster, ClusterConfig, CoreSel, FaultPlan, IdentityResolver, LayoutService, LayoutSpec,
        NullRuntime, Placement, ReplayError, ReplayInput, ReplaySession, SchedPolicy,
        ServiceConfig, ServiceReport, ServerId, TenantId, TenantRuntime,
    };
    pub use simrt::{SimDuration, SimTime};
    pub use storage_model::IoOp;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let cluster = ClusterConfig::paper_default();
        let mut job = MpiJob::new(2);
        let f = job.open("x");
        job.write_at(0, f, 0, 4096);
        job.write_at(1, f, 4096, 4096);
        job.barrier();
        let trace = job.finish();
        let mut c = Cluster::new(cluster);
        let report = ReplaySession::new()
            .run(ReplayInput::trace(&mut c, &trace, &mut IdentityResolver), CoreSel::Auto)
            .expect("fault-free replay cannot fail");
        assert!(report.bandwidth_mbps() > 0.0);
    }
}
