//! Per-tenant online pipeline behind the layout service.
//!
//! [`TenantPipeline`] packages the crate's online machinery — an
//! [`OnlinePlanner`] and a [`LazyMigrator`] over a shared
//! [`PipelineStore`] — as one [`pfs_sim::TenantRuntime`], so a
//! [`pfs_sim::LayoutService`] can run many tenants against one cluster
//! while each keeps its own plan generations, redirect table and
//! migration journal:
//!
//! * **Namespaced region files.** The planner's region-file allocator
//!   is re-based into the tenant's [`iotrace::FileId`] namespace, so
//!   every region file a replan mints — and every DRT entry and MDS
//!   layout referring to it — carries the tenant's high bits and lands
//!   in the tenant's MDS shard.
//! * **Namespaced durability.** The migrator journals and the pipeline
//!   commits plan generations through
//!   [`PipelineStore::tenant`](crate::persist::PipelineStore::tenant),
//!   so co-tenants on one write-ahead log recover independently via
//!   [`crate::persist::recover`].
//! * **Job-as-window.** Each completed job is treated as one profiling
//!   window: quiet jobs (signature within the drift threshold) cost
//!   one signature rescan and comparison, drifted jobs replan
//!   incrementally and hand the new plan's extents to the lazy
//!   migrator — copies then happen on first access during later jobs.
//!
//! This is the only driver of the online loop: the `figures online`
//! study runs one pipeline (tenant 0) over phase windows of a single
//! trace, feeding each window to `after_job` as the service feeds a job.

use crate::dynamic::LazyMigrator;
use crate::online::{OnlineConfig, OnlinePlanner, Replan};
use crate::persist::{PersistError, PipelineStore, TenantStore};
use crate::region::Drt;
use crate::schemes::{PlanResolver, PlannerContext};
use iotrace::{FileId, TenantId, Trace};
use pfs_sim::{ClusterConfig, LayoutSpec, Resolver, TenantRuntime};
use simrt::SimDuration;

/// The crate's online planning + lazy migration stack, packaged as a
/// [`TenantRuntime`] for [`pfs_sim::LayoutService`]. See the module
/// docs for the namespacing and durability contract.
pub struct TenantPipeline<'a> {
    store: TenantStore<'a>,
    planner: OnlinePlanner,
    migrator: LazyMigrator<'a>,
    err: Option<PersistError>,
}

impl<'a> TenantPipeline<'a> {
    /// A pipeline for `tenant` over the shared `store`, planning for
    /// `cluster` with the default context. The planner's region-file
    /// allocator is re-based into the tenant's namespace.
    pub fn new(
        store: &'a PipelineStore,
        tenant: TenantId,
        cluster: &ClusterConfig,
        cfg: OnlineConfig,
    ) -> Self {
        let mut ctx = PlannerContext::for_cluster(cluster);
        ctx.region_file_base = FileId::with_tenant(tenant, FileId(ctx.region_file_base)).0;
        let lookup = ctx.lookup_cost;
        let store = store.tenant(tenant);
        TenantPipeline {
            store,
            planner: OnlinePlanner::new(ctx, cfg),
            migrator: LazyMigrator::new(store, Drt::new(), cluster, lookup),
            err: None,
        }
    }

    /// The online planner (for its replan counters).
    pub fn planner(&self) -> &OnlinePlanner {
        &self.planner
    }

    /// The lazy migrator (for its published table and copy counters).
    pub fn migrator(&self) -> &LazyMigrator<'a> {
        &self.migrator
    }

    /// Migrate every redirect still pending (the end-of-run drain, see
    /// [`LazyMigrator::drain`]). Returns the bytes moved and the modeled
    /// copy time; the bytes also count in the migrator's
    /// [`migrated_bytes`](LazyMigrator::migrated_bytes).
    pub fn drain(&mut self) -> Result<(u64, SimDuration), PersistError> {
        self.migrator.drain()
    }

    /// Surface any persistence error swallowed by the infallible
    /// [`TenantRuntime`] hooks. A failed pipeline stops planning and
    /// migrating (jobs still replay at their installed layouts) until
    /// the error is observed here.
    pub fn check(&mut self) -> Result<(), PersistError> {
        match self.err.take() {
            Some(e) => Err(e),
            None => self.migrator.check(),
        }
    }
}

impl TenantRuntime for TenantPipeline<'_> {
    fn resolver(&mut self) -> &mut dyn Resolver {
        &mut self.migrator
    }

    fn after_job(&mut self, trace: &Trace) -> Vec<(FileId, LayoutSpec)> {
        if self.err.is_some() {
            return Vec::new();
        }
        match self.planner.observe(trace) {
            Replan::Quiet => Vec::new(),
            Replan::Plan { plan, .. } => {
                // Commit the generation (published mapping so far + the
                // new stripe table) before journaling its redirects:
                // recovery must never roll a journal entry forward onto
                // tables that were lost.
                if let Err(e) = self.store.save_tables(self.migrator.published(), &plan.rst) {
                    self.err = Some(e);
                    return Vec::new();
                }
                let PlanResolver::Drt(drt) = &plan.resolver else {
                    return plan.layouts;
                };
                if let Err(e) = self.migrator.add_pending(&drt.entries()) {
                    self.err = Some(e);
                    return Vec::new();
                }
                plan.layouts
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::recover;
    use crate::persist::temp::TempPath;
    use iotrace::gen::skewed::{self, SkewedConfig};
    use pfs_sim::{LayoutService, ServiceConfig};
    use storage_model::IoOp;

    /// A fresh store and its path, which removes the file when the test
    /// drops it.
    fn store_at(tag: &str) -> (TempPath, PipelineStore) {
        let path = TempPath::new("tenant", tag);
        let store = PipelineStore::open(&path).unwrap();
        (path, store)
    }

    fn skewed_trace(request_size: u64, seed: u64) -> Trace {
        let mut cfg = SkewedConfig::default_run(IoOp::Read);
        cfg.procs = 8;
        cfg.phases = 8;
        cfg.request_size = request_size;
        cfg.seed = seed;
        skewed::generate(&cfg)
    }

    #[test]
    fn co_tenant_pipelines_keep_namespaces_and_generations_apart() {
        let (_path, store) = store_at("co-tenant");
        let cluster_cfg = ClusterConfig::paper_default();
        let mut cluster = pfs_sim::Cluster::new(cluster_cfg.clone());
        let report = {
            let mut svc = LayoutService::new(&mut cluster, ServiceConfig::new(7));
            for t in [1u32, 2] {
                let pipe = TenantPipeline::new(
                    &store,
                    TenantId(t),
                    &cluster_cfg,
                    OnlineConfig::default(),
                );
                svc.add_tenant(TenantId(t), Box::new(pipe));
                // Drifted second job forces a second generation.
                svc.submit(TenantId(t), skewed_trace(16 << 10, u64::from(t)));
                svc.submit(TenantId(t), skewed_trace(512 << 10, u64::from(t) + 10));
            }
            svc.run().unwrap()
        };
        assert_eq!(report.jobs.len(), 4);

        // Each tenant committed its own generations on the shared WAL.
        for t in [1u32, 2] {
            let ts = store.tenant(TenantId(t));
            let gen = ts.committed_generation().unwrap();
            assert!(gen.is_some(), "tenant {t} never committed a generation");
            let (_, rst) = ts.load_tables().unwrap().expect("committed tables load");
            for (file, _) in rst.iter() {
                assert_eq!(file.tenant(), TenantId(t), "foreign file {file:?} in tenant {t}'s RST");
            }
            let outcome = recover(ts).unwrap();
            assert!(outcome.tables.is_some(), "tenant {t} must recover committed tables");
        }
        // A tenant never planned under never shows a generation.
        assert_eq!(store.tenant(TenantId(3)).committed_generation().unwrap(), None);
    }

    #[test]
    fn region_layouts_land_in_the_tenants_mds_shard() {
        let (_path, store) = store_at("mds-shard");
        let cluster_cfg = ClusterConfig::paper_default();
        let mut cluster = pfs_sim::Cluster::new(cluster_cfg.clone());
        {
            let mut svc = LayoutService::new(&mut cluster, ServiceConfig::new(11));
            let pipe =
                TenantPipeline::new(&store, TenantId(5), &cluster_cfg, OnlineConfig::default());
            svc.add_tenant(TenantId(5), Box::new(pipe));
            svc.submit(TenantId(5), skewed_trace(64 << 10, 1));
            svc.submit(TenantId(5), skewed_trace(64 << 10, 2));
            svc.run().unwrap();
        }
        let region_files: Vec<FileId> = cluster
            .mds()
            .tenant_layouts(TenantId(5))
            .map(|(f, _)| f)
            .filter(|f| f.local().0 >= 1 << 20)
            .collect();
        assert!(!region_files.is_empty(), "first job must plan and install region layouts");
        for f in &region_files {
            assert_eq!(f.tenant(), TenantId(5));
        }
        assert_eq!(cluster.mds().tenant_layouts(TenantId(0)).count(), 0);
    }

    #[test]
    fn drain_migrates_every_pending_redirect() {
        let (_path, store) = store_at("drain");
        let cluster_cfg = ClusterConfig::paper_default();
        let mut pipe =
            TenantPipeline::new(&store, TenantId(1), &cluster_cfg, OnlineConfig::default());
        let mut retagged = Trace::new();
        skewed_trace(64 << 10, 3).retag_into(TenantId(1), &mut retagged);
        assert!(!pipe.after_job(&retagged).is_empty(), "a cold pipeline plans");
        assert!(pipe.migrator().pending_len() > 0, "an unreplayed plan is all pending");
        let before = pipe.migrator().migrated_bytes();
        let (bytes, time) = pipe.drain().unwrap();
        assert!(bytes > 0 && time > SimDuration::ZERO);
        assert_eq!(pipe.migrator().pending_len(), 0);
        assert_eq!(pipe.migrator().migrated_bytes(), before + bytes);
        assert!(pipe.check().is_ok());
    }

    #[test]
    fn failed_store_parks_the_pipeline_instead_of_panicking() {
        let (_path, store) = store_at("kill");
        let cluster_cfg = ClusterConfig::paper_default();
        let mut pipe =
            TenantPipeline::new(&store, TenantId(1), &cluster_cfg, OnlineConfig::default());
        store.kill_switch().arm(1); // next store boundary dies
        let mut retagged = Trace::new();
        skewed_trace(64 << 10, 3).retag_into(TenantId(1), &mut retagged);
        let updates = pipe.after_job(&retagged);
        assert!(updates.is_empty(), "a dead store must not publish layouts");
        assert!(pipe.check().is_err(), "the swallowed error must surface");
        assert!(pipe.check().is_ok(), "check() drains the error once");
    }
}

