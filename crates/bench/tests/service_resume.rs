//! Kill-matrix for the multi-tenant layout service: inject a crash at
//! persistence boundaries sampled across a whole service run, then
//! "restart" (reopen the shared store) and recover every tenant. At
//! every kill point each tenant must come back consistent — a committed
//! generation loads in full or the tenant has none, the migration
//! journal is cleared, and a second recovery is a no-op.

use iotrace::gen::skewed::{self, SkewedConfig};
use iotrace::{TenantId, Trace};
use mha_core::{recover, OnlineConfig, PipelineStore, TenantPipeline};
use pfs_sim::{Cluster, ClusterConfig, LayoutService, ServiceConfig};
use storage_model::IoOp;

const TENANTS: [u32; 2] = [1, 2];
const JOBS_PER_TENANT: u32 = 2;

fn trace_for(t: u32, job: u32) -> Trace {
    let mut cfg = SkewedConfig::default_run(IoOp::Read);
    cfg.procs = 8;
    cfg.phases = 4;
    // A size shift between a tenant's jobs forces a second replan, so
    // kills land on second-generation commits too.
    cfg.request_size = if job == 0 { 16 << 10 } else { 512 << 10 };
    cfg.seed = u64::from(t) * 100 + u64::from(job) + 1;
    skewed::generate(&cfg)
}

/// One service run over `store`: every tenant a full MHA pipeline.
/// Persistence failures from an armed kill switch park the affected
/// pipeline; the service itself always completes.
fn run_service_on(store: &PipelineStore) {
    let cluster_cfg = ClusterConfig::paper_default();
    let mut cluster = Cluster::new(cluster_cfg.clone());
    let mut svc = LayoutService::new(&mut cluster, ServiceConfig::new(42));
    for &t in &TENANTS {
        let pipe = TenantPipeline::new(store, TenantId(t), &cluster_cfg, OnlineConfig::default());
        svc.add_tenant(TenantId(t), Box::new(pipe));
        for job in 0..JOBS_PER_TENANT {
            svc.submit(TenantId(t), trace_for(t, job));
        }
    }
    svc.run().expect("fault-free replay cannot fail");
}

#[test]
fn every_sampled_kill_point_resumes_all_tenants_consistently() {
    let base = std::env::temp_dir().join(format!("mha-service-resume-{}", std::process::id()));

    // Recording run: count the boundaries one full service crosses.
    let boundaries = {
        let path = base.with_extension("probe");
        let _ = std::fs::remove_file(&path);
        let store = PipelineStore::open(&path).expect("open probe store");
        run_service_on(&store);
        let n = store.kill_switch().boundaries();
        let _ = std::fs::remove_file(&path);
        n
    };
    assert!(boundaries > 0, "the pipelines never touched the store");

    // Sample ~16 kill points evenly across the run (the full matrix is
    // thousands wide; the interesting transitions — first write, entry
    // vs commit, journal vs tables — recur throughout).
    let step = (boundaries / 16).max(1);
    let mut committed_somewhere = false;
    let mut parked_somewhere = false;
    for k in (0..boundaries).step_by(step as usize) {
        let path = base.with_extension(format!("k{k}"));
        let _ = std::fs::remove_file(&path);
        {
            let store = PipelineStore::open(&path).expect("open killed store");
            store.kill_switch().arm(k);
            run_service_on(&store);
        }

        // Restart: reopen the store (switch disarmed) and recover.
        let store = PipelineStore::open(&path).expect("reopen after crash");
        for &t in &TENANTS {
            let ts = store.tenant(TenantId(t));
            let outcome = recover(ts).expect("recovery itself cannot fail at k={k}");
            match ts.committed_generation().expect("generation readable") {
                Some(_) => {
                    ts.load_tables()
                        .expect("committed tables readable")
                        .expect("committed generation loads in full");
                    assert!(outcome.tables.is_some());
                    committed_somewhere = true;
                }
                None => {
                    assert!(
                        outcome.tables.is_none(),
                        "tenant {t} recovered tables without a committed generation (k={k})"
                    );
                    parked_somewhere = true;
                }
            }
            assert!(
                ts.journal().expect("journal readable").is_empty(),
                "recovery must clear tenant {t}'s journal (k={k})"
            );
            let again = recover(ts).expect("second recovery");
            assert_eq!(again.rolled_forward, 0, "recovery must be idempotent (k={k})");
            assert_eq!(again.discarded_batches, 0, "recovery must be idempotent (k={k})");
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(committed_somewhere, "no sampled kill point left a committed generation");
    // Early kills must hit at least one tenant before its first commit.
    assert!(parked_somewhere, "no sampled kill point caught a tenant pre-commit");
}
