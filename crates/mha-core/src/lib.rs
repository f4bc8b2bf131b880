//! # mha-core — the paper's contribution
//!
//! MHA (Migratory Heterogeneity-Aware data layout) and its baselines,
//! implemented over the `pfs-sim` substrate:
//!
//! * [`pattern`] — request features and the normalized Euclidean distance
//!   of Eq. 1,
//! * [`grouping`] — Algorithm 1: iterative request grouping (bounded
//!   k-means on (size, concurrency)),
//! * [`cost`] — Table I parameters and the Eq. 2 access cost model,
//!   calibrated from device/network models,
//! * [`rssd`](mod@rssd) — Algorithm 2: Region Stripe Size Determination (exhaustive
//!   `<h, s>` search with adaptive bounds),
//! * [`region`] — region construction, the Data Reordering Table (DRT)
//!   and Region Stripe Table (RST),
//! * [`redirect`] — the runtime I/O redirector (a [`pfs_sim::Resolver`]),
//! * [`schemes`] — the four planners evaluated in the paper: DEF, AAL,
//!   HARL and MHA, behind one [`schemes::LayoutPlanner`] trait,
//! * [`persist`] — crash-consistent pipeline persistence, the one
//!   module that knows an on-disk format: versioned checksummed
//!   DRT/RST/plan generations with atomic commit, the write-ahead
//!   migration journal, and [`persist::recover`], all reached through
//!   one tenant's [`persist::TenantStore`],
//! * [`online`] — the online loop: windowed drift detection,
//!   centroid-seeded incremental regrouping with per-group RSSD reuse,
//! * [`dynamic`] — epoch-driven dynamic optimization and the lazy
//!   on-access migrator ([`dynamic::LazyMigrator`]) that defers each
//!   journaled extent copy to its first replayed access,
//! * [`tenant`] — the per-tenant pipeline ([`tenant::TenantPipeline`])
//!   packaging planner + migrator as a [`pfs_sim::TenantRuntime`] for
//!   the multi-tenant [`pfs_sim::LayoutService`].
//!
//! The intended flow (the paper's five phases):
//!
//! ```text
//! trace (iotrace) ──► planner.plan() ──► Plan { layouts, resolver }
//!                                          │ install into Cluster MDS
//!                                          ▼
//!                    ReplaySession::run(cluster, trace, resolver)
//! ```
//!
//! [`schemes::Evaluation`] wraps the whole flow in one builder — and can
//! inject a [`pfs_sim::FaultPlan`] and re-plan around the degraded
//! servers it implies ([`schemes::PlannerContext::with_health`]).

pub mod cost;
pub mod dynamic;
pub mod grouping;
pub mod online;
pub mod pattern;
pub mod persist;
pub mod rebuild;
pub mod redirect;
pub mod region;
pub mod rssd;
pub mod schemes;
pub mod tenant;

pub use cost::{placement_factors, CostParams, OpFactors, ReqView};
pub use dynamic::{run_dynamic, DynamicConfig, DynamicReport, LazyMigrator};
pub use online::{
    OnlineConfig, OnlineConfigBuilder, OnlineConfigError, OnlinePlanner, Replan, ReplanStats,
    WindowSig,
};
pub use persist::{
    recover, CommitPoint, KillSwitch, PersistError, PipelineStore, RecoveryOutcome, TenantStore,
};
pub use grouping::{
    group_requests, group_requests_parallel, group_requests_seeded, group_requests_serial,
    GroupIndex, Grouping, GroupingConfig,
};
pub use pattern::{FeatureSpace, ReqFeature};
pub use rebuild::{file_sizes, rebuild_onto_spare, RebuildOutcome};
pub use redirect::DrtResolver;
pub use region::{Drt, DrtEntry, Rst};
pub use rssd::{
    region_cost, region_cost_bounded, region_cost_factored, rssd, CostScratch, RssdConfig,
    RssdResult, StripePair,
};
pub use schemes::{apply_plan, Evaluation, LayoutPlanner, Plan, PlanResolver, PlannerContext, Scheme};
pub use tenant::TenantPipeline;
