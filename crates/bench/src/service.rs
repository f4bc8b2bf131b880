//! The multi-tenant layout-service study behind
//! `results/service_{latency,aggregate}.json`.
//!
//! Drives a [`pfs_sim::LayoutService`] hosting eight tenants, each
//! running the full per-tenant MHA stack ([`mha_core::TenantPipeline`]:
//! online planner + lazy migrator over one shared [`PipelineStore`]),
//! under seeded open-loop arrivals on one shared cluster. The study
//! reports sustained aggregate bandwidth and per-tenant completion
//! latency percentiles, and asserts the service's three headline
//! properties on every run:
//!
//! 1. **Determinism** — the same seed reproduces the whole schedule and
//!    every job report bit-for-bit.
//! 2. **Isolation** — a tenant's per-job replay reports and its
//!    per-server totals are identical whether it runs alone or among
//!    seven co-tenants.
//! 3. **Degeneracy** — a 1-tenant service run of a single job is
//!    bit-identical to a plain streaming replay of the same trace: the
//!    job's report equals the replay's less its per-server stats, and
//!    the tenant's per-server totals equal those stats.
//!
//! At full scale it also asserts that the service completes at least
//! 64 jobs.

use crate::report::Figure;
use crate::workloads::Scale;
use iotrace::gen::skewed::{self, SkewedConfig};
use iotrace::{TenantId, Trace, TraceBatches};
use mha_core::{OnlineConfig, PipelineStore, TenantPipeline};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, IdentityResolver, LayoutService, NullRuntime, ReplayInput,
    ReplaySession, ServiceConfig, ServiceReport,
};
use std::path::PathBuf;
use storage_model::IoOp;

/// Arrival-process seed for the published figures.
const SEED: u64 = 0x5e71_1ce5;

/// Tenants in the service run (the acceptance floor).
const TENANTS: u32 = 8;

/// Tenant `t`'s `job`-th trace: a skewed workload whose request size
/// cycles with the tenant (so co-tenants genuinely differ) and whose
/// hot set drifts across a tenant's own jobs (so pipelines replan).
fn tenant_trace(t: u32, job: u32, scale: Scale) -> Trace {
    let mut cfg =
        SkewedConfig::default_run(if t.is_multiple_of(2) { IoOp::Read } else { IoOp::Write });
    cfg.procs = 8;
    cfg.phases = scale.reqs(8);
    cfg.request_size = match (t + job) % 3 {
        0 => 16 << 10,
        1 => 64 << 10,
        _ => 512 << 10,
    };
    cfg.seed = u64::from(t) * 1000 + u64::from(job) + 1;
    skewed::generate(&cfg)
}

/// A fresh service store in the temp directory; dropping it deletes the
/// file.
struct TempStore {
    store: PipelineStore,
    path: PathBuf,
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn fresh_store(tag: &str) -> TempStore {
    let path =
        std::env::temp_dir().join(format!("mha-bench-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    TempStore { store: PipelineStore::open(&path).expect("open service store"), path }
}

/// One full service run: `tenants` pipelines over `store`, each
/// submitting `jobs_per_tenant` jobs. The queue depth covers the whole
/// submission so the published figures cover every job.
fn run_service(
    store: &PipelineStore,
    tenants: &[u32],
    jobs_per_tenant: u32,
    scale: Scale,
) -> ServiceReport {
    let cluster_cfg = ClusterConfig::paper_default();
    let mut cluster = Cluster::new(cluster_cfg.clone());
    let cfg = ServiceConfig::new(SEED).queue_depth(jobs_per_tenant as usize);
    let mut svc = LayoutService::new(&mut cluster, cfg);
    for &t in tenants {
        let pipe = TenantPipeline::new(store, TenantId(t), &cluster_cfg, OnlineConfig::default());
        svc.add_tenant(TenantId(t), Box::new(pipe));
        for job in 0..jobs_per_tenant {
            svc.submit(TenantId(t), tenant_trace(t, job, scale));
        }
    }
    svc.run().expect("fault-free service cannot fail")
}

/// Run the study. Asserts the determinism, isolation, and degeneracy
/// properties and the full-scale job count (panicking on violation),
/// then summarizes the full-service run into figures.
pub(crate) fn study(scale: Scale) -> Vec<Figure> {
    let jobs_per_tenant: u32 = match scale {
        Scale::Full => 8,
        Scale::Quick => 2,
    };
    let all: Vec<u32> = (1..=TENANTS).collect();

    // -- determinism: same seed, fresh stores, bit-identical service --
    let store_a = fresh_store("a");
    let report = run_service(&store_a.store, &all, jobs_per_tenant, scale);
    let store_b = fresh_store("b");
    let rerun = run_service(&store_b.store, &all, jobs_per_tenant, scale);
    assert!(report == rerun, "same seed must reproduce the service bit-for-bit");

    // -- isolation: tenant 1 solo == tenant 1 among co-tenants --------
    let store_solo = fresh_store("solo");
    let solo = run_service(&store_solo.store, &[1], jobs_per_tenant, scale);
    let solo_reports: Vec<_> = solo.jobs.iter().map(|j| (j.seq, &j.report)).collect();
    let with_cotenants: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.tenant == TenantId(1))
        .map(|j| (j.seq, &j.report))
        .collect();
    assert!(
        solo_reports == with_cotenants,
        "co-tenants must not perturb a tenant's replay reports"
    );
    let tenant_1 = |r: &ServiceReport| {
        r.tenants.iter().find(|s| s.tenant == TenantId(1)).expect("tenant 1 ran").per_server.clone()
    };
    assert!(
        tenant_1(&solo) == tenant_1(&report),
        "co-tenants must not perturb a tenant's per-server totals"
    );

    // -- degeneracy: 1-tenant service == plain streaming replay -------
    let trace = tenant_trace(0, 0, scale);
    let service_run = {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        let mut svc = LayoutService::new(&mut cluster, ServiceConfig::new(SEED));
        svc.add_tenant(TenantId(0), Box::new(NullRuntime::new()));
        svc.submit(TenantId(0), trace.clone());
        svc.run().expect("fault-free service cannot fail")
    };
    let mut plain_run = {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        ReplaySession::new()
            .run(
                ReplayInput::stream(
                    &mut cluster,
                    &mut TraceBatches::new(&trace),
                    &mut IdentityResolver,
                ),
                CoreSel::Sharded,
            )
            .expect("fault-free replay cannot fail")
    };
    let plain_servers = std::mem::take(&mut plain_run.per_server);
    assert!(
        service_run.jobs[0].report == plain_run
            && service_run.tenants[0].per_server == plain_servers,
        "a 1-tenant service must degenerate to a plain streaming replay"
    );
    if scale == Scale::Full {
        let jobs = report.jobs.len();
        assert!(jobs >= 64, "full study must complete >= 64 jobs, got {jobs}");
    }

    // -- figures ------------------------------------------------------
    let mut latency = Figure::new(
        "service_latency",
        "Per-tenant completion latency under open-loop arrivals",
        &["p50", "p95", "p99"],
        "s",
    );
    for t in &report.tenants {
        latency.push_row(
            format!("tenant {}", t.tenant.0),
            vec![t.p50_latency, t.p95_latency, t.p99_latency],
        );
    }
    let mut agg = Figure::new(
        "service_aggregate",
        "Service-wide totals",
        &["value"],
        "mixed",
    );
    agg.push_row("aggregate MB/s", vec![report.aggregate_mbps()]);
    agg.push_row("jobs completed", vec![report.jobs.len() as f64]);
    agg.push_row("jobs rejected", vec![report.rejected as f64]);
    agg.push_row("makespan s", vec![report.makespan.as_secs_f64()]);

    vec![latency, agg]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_study_smoke_holds_its_properties_and_shape() {
        let figs = crate::experiments::run("service", Scale::Quick).expect("service is an id");
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].rows.len(), TENANTS as usize, "one latency row per tenant");
        let agg = |label: &str| figs[1].value(label, "value").expect(label);
        assert_eq!(agg("jobs completed"), f64::from(TENANTS * 2), "quick run admits every job");
        assert!(agg("aggregate MB/s") > 0.0);
    }
}
