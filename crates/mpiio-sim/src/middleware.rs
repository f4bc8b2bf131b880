//! The middleware lifecycle: profile → plan → persist → redirect.
//!
//! This is the paper's five-phase flow wired end to end:
//!
//! 1. **Tracing** — the first run executes against the default layout
//!    with the IOSIG-like collector armed (the paper reports 2–6 %
//!    profiling overhead; we charge it as a per-op latency).
//! 2. **Reordering + determination** — off-line planning through the
//!    scheme selected by hints.
//! 3. **Persistence** — the plan (DRT, RST, layouts) commits atomically
//!    through the crash-consistent [`PipelineStore`] in the job's working
//!    directory, as the modified `MPI_Init`/`MPI_Finalize` keep their
//!    Berkeley DB file in the paper — a crash mid-save leaves the
//!    previous committed plan intact.
//! 4. **Placement** — region layouts install into the cluster's MDS.
//! 5. **Redirection** — subsequent runs resolve through the DRT.

use iotrace::{Collector, TenantId, Trace};
use mha_core::persist::{PersistError, PipelineStore};
use mha_core::region::{Drt, Rst};
use mha_core::schemes::{apply_plan, Plan, PlanResolver, PlannerContext, Scheme};
use mha_core::{DrtResolver, GroupingConfig, RssdConfig};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, IdentityResolver, ReplayInput, ReplayReport, ReplaySession,
};
use simrt::SimDuration;
use std::path::{Path, PathBuf};

use crate::hints::Hints;

/// Outcome of one middleware-driven run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Replay measurements.
    pub report: ReplayReport,
    /// Scheme that was active.
    pub scheme: Scheme,
    /// Requests redirected through the DRT (0 for identity plans).
    pub redirected: u64,
}

/// The MHA middleware instance for one application.
pub struct Middleware {
    hints: Hints,
    table_path: Option<PathBuf>,
    plan: Option<Plan>,
    profile: Option<Trace>,
}

impl Middleware {
    /// Middleware with the given hints, keeping tables in memory only.
    pub fn new(hints: Hints) -> Self {
        Middleware { hints, table_path: None, plan: None, profile: None }
    }

    /// Persist the DRT/RST in a kvstore file at `path` (the paper keeps
    /// the Berkeley DB file in the MPI program's directory).
    pub fn with_table_store(mut self, path: impl AsRef<Path>) -> Self {
        self.table_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Phase 1: the application's first run. Executes `trace` against the
    /// cluster's default layout with the collector armed, stores the
    /// captured profile, and returns the (unoptimized) measurements.
    pub fn profile_run(&mut self, cluster_cfg: &ClusterConfig, trace: &Trace) -> RunOutcome {
        let mut cluster = Cluster::new(cluster_cfg.clone());
        // Re-collect through the IOSIG layer: in a real deployment the
        // collector sees the live calls; here the trace *is* the call
        // stream, so collection is a faithful copy with phase inference.
        let mut collector = Collector::with_default_window();
        for r in trace.records() {
            collector.record(r.pid, r.rank, r.file, r.op, r.offset, r.len, r.ts);
        }
        let report = ReplaySession::new()
            .run(ReplayInput::trace(&mut cluster, trace, &mut IdentityResolver), CoreSel::Auto)
            .expect("fault-free replay cannot fail");
        self.profile = Some(collector.finish());
        RunOutcome { report, scheme: Scheme::Def, redirected: 0 }
    }

    /// Phases 2–4: off-line planning from the captured profile, then
    /// persist the tables. Requires a prior [`Middleware::profile_run`].
    pub fn plan_from_profile(&mut self, cluster_cfg: &ClusterConfig) -> &Plan {
        let trace = self.profile.as_ref().expect("profile_run must precede planning");
        let ctx = self.context(cluster_cfg);
        let plan = self.hints.scheme().planner().plan(trace, &ctx);
        if let Some(path) = &self.table_path {
            let store = PipelineStore::open(path).expect("open table store");
            store.tenant(TenantId(0)).save_plan(&plan).expect("persist plan");
        }
        self.plan = Some(plan);
        self.plan.as_ref().expect("just set")
    }

    /// Phase 5: a subsequent run — install the planned layouts and replay
    /// with redirection.
    pub fn optimized_run(&self, cluster_cfg: &ClusterConfig, trace: &Trace) -> RunOutcome {
        let plan = self.plan.as_ref().expect("plan_from_profile must precede optimized_run");
        let mut cluster = Cluster::new(cluster_cfg.clone());
        apply_plan(&mut cluster, plan);
        let lookup = SimDuration::from_micros(self.hints.lookup_us());
        match &plan.resolver {
            PlanResolver::Identity => {
                let report = ReplaySession::new()
                    .run(ReplayInput::trace(&mut cluster, trace, &mut IdentityResolver), CoreSel::Auto)
                    .expect("fault-free replay cannot fail");
                RunOutcome { report, scheme: plan.scheme, redirected: 0 }
            }
            PlanResolver::Drt(drt) => {
                let mut resolver = DrtResolver::new(drt.clone(), lookup);
                let report = ReplaySession::new()
                    .run(ReplayInput::trace(&mut cluster, trace, &mut resolver), CoreSel::Auto)
                    .expect("fault-free replay cannot fail");
                RunOutcome { report, scheme: plan.scheme, redirected: resolver.redirected() }
            }
        }
    }

    /// Reload the committed tables (what the modified `MPI_Init` does at
    /// the start of a subsequent run). `Ok(None)` when the middleware
    /// keeps no table store or no generation has committed; an error
    /// when the store cannot be read or is damaged.
    pub fn load_tables(&self) -> Result<Option<(Drt, Rst)>, PersistError> {
        let Some(path) = &self.table_path else { return Ok(None) };
        PipelineStore::open(path)?.load_tables()
    }

    fn context(&self, cluster_cfg: &ClusterConfig) -> PlannerContext {
        let mut ctx = PlannerContext::for_cluster(cluster_cfg);
        ctx.grouping = GroupingConfig { k: self.hints.group_bound(), ..ctx.grouping };
        ctx.rssd = RssdConfig { step: self.hints.step(), ..ctx.rssd };
        ctx.harl_regions = self.hints.harl_regions();
        ctx.lookup_cost = SimDuration::from_micros(self.hints.lookup_us());
        ctx.selective_min_gain = self.hints.selective_gain();
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MpiJob;
    use iotrace::gen::lanl::LOOP_SIZES;

    fn lanl_job(loops: u32) -> Trace {
        // Build the LANL pattern through the MPI-IO API rather than the
        // generator: exercises the job layer end to end.
        let procs = 8u32;
        let mut job = MpiJob::new(procs);
        let f = job.open("lanl.dat");
        for i in 0..loops {
            let mut rel = 0u64;
            for &size in &LOOP_SIZES {
                for p in 0..procs {
                    let slot = u64::from(i) * u64::from(procs) + u64::from(p);
                    job.write_at(p, f, slot * 262_144 + rel, size);
                }
                job.barrier();
                rel += size;
            }
        }
        job.finish()
    }

    fn table_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mha-mw-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn full_lifecycle_improves_bandwidth() {
        let cfg = ClusterConfig::paper_default();
        let mut mw = Middleware::new(Hints::new());
        let trace = lanl_job(8);
        let first = mw.profile_run(&cfg, &trace);
        mw.plan_from_profile(&cfg);
        let second = mw.optimized_run(&cfg, &trace);
        assert_eq!(second.scheme, Scheme::Mha);
        assert!(second.redirected > 0, "MHA must redirect");
        assert!(
            second.report.bandwidth_mbps() > first.report.bandwidth_mbps(),
            "optimized {} <= first {}",
            second.report.bandwidth_mbps(),
            first.report.bandwidth_mbps()
        );
    }

    #[test]
    fn job_trace_matches_generator_shape() {
        let trace = lanl_job(3);
        let stats = iotrace::TraceStats::of(&trace);
        assert_eq!(stats.distinct_sizes, 3);
        assert_eq!(stats.max_concurrency, 8);
        assert_eq!(stats.requests, 3 * 3 * 8);
    }

    #[test]
    fn tables_persist_and_reload() {
        let cfg = ClusterConfig::paper_default();
        let path = table_path("persist");
        let mut mw = Middleware::new(Hints::new()).with_table_store(&path);
        let trace = lanl_job(4);
        mw.profile_run(&cfg, &trace);
        let plan = mw.plan_from_profile(&cfg);
        let expected_rst = plan.rst.clone();
        let PlanResolver::Drt(expected_drt) = plan.resolver.clone() else {
            panic!("MHA plan must carry a DRT")
        };
        let (drt, rst) = mw.load_tables().expect("tables readable").expect("committed");
        assert_eq!(drt, expected_drt);
        assert_eq!(rst, expected_rst);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restarted_middleware_reproduces_the_optimized_run_bit_for_bit() {
        let cfg = ClusterConfig::paper_default();
        let path = table_path("resume");
        let trace = lanl_job(4);
        let first = {
            let mut mw = Middleware::new(Hints::new()).with_table_store(&path);
            mw.profile_run(&cfg, &trace);
            mw.plan_from_profile(&cfg);
            mw.optimized_run(&cfg, &trace)
        };
        // A fresh middleware (restarted process) adopts the committed
        // plan and must replay identically — the acceptance bar for the
        // persisted format.
        let mut mw2 = Middleware::new(Hints::new()).with_table_store(&path);
        assert!(mw2.profile.is_none(), "fresh middleware has no profile");
        let store = PipelineStore::open(&path).expect("open");
        let plan = store.tenant(TenantId(0)).load_plan().expect("store readable");
        mw2.plan = Some(plan.expect("committed plan must be adoptable"));
        let second = mw2.optimized_run(&cfg, &trace);
        assert_eq!(second.scheme, first.scheme);
        assert_eq!(second.redirected, first.redirected);
        assert_eq!(first.report, second.report);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_damaged_meta_record_is_an_error_not_a_missing_plan() {
        let cfg = ClusterConfig::paper_default();
        let path = table_path("damaged");
        let trace = lanl_job(2);
        let mut mw = Middleware::new(Hints::new()).with_table_store(&path);
        mw.profile_run(&cfg, &trace);
        mw.plan_from_profile(&cfg);
        {
            let store = PipelineStore::open(&path).expect("open");
            let kv = store.store();
            let keys = kv.keys_with_prefix(b"pmeta:");
            assert_eq!(keys.len(), 1, "one committed meta record");
            let mut raw = kv.get(&keys[0]).expect("get").expect("present");
            *raw.last_mut().expect("nonempty record") ^= 0x01;
            kv.put(&keys[0], &raw).expect("flip one byte");
            kv.sync().expect("sync");
        }
        let restarted = Middleware::new(Hints::new()).with_table_store(&path);
        let store = PipelineStore::open(&path).expect("open");
        match store.tenant(TenantId(0)).load_plan() {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("a flipped meta byte must surface as Corrupt, got {other:?}"),
        }
        assert!(restarted.load_tables().is_ok(), "the tables themselves are intact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn def_hints_produce_identity_plan() {
        let cfg = ClusterConfig::paper_default();
        let mut mw = Middleware::new(Hints::new().set("mha_scheme", "def"));
        let trace = lanl_job(2);
        mw.profile_run(&cfg, &trace);
        mw.plan_from_profile(&cfg);
        let run = mw.optimized_run(&cfg, &trace);
        assert_eq!(run.scheme, Scheme::Def);
        assert_eq!(run.redirected, 0);
    }

    #[test]
    #[should_panic(expected = "profile_run must precede")]
    fn planning_without_profile_panics() {
        let cfg = ClusterConfig::paper_default();
        Middleware::new(Hints::new()).plan_from_profile(&cfg);
    }

    #[test]
    fn hints_flow_into_planner() {
        let cfg = ClusterConfig::paper_default();
        let mut mw = Middleware::new(
            Hints::new().set("mha_scheme", "harl").set("mha_harl_regions", "3"),
        );
        let trace = lanl_job(2);
        mw.profile_run(&cfg, &trace);
        let plan = mw.plan_from_profile(&cfg);
        assert_eq!(plan.scheme, Scheme::Harl);
        assert_eq!(plan.regions.len(), 3);
    }
}
