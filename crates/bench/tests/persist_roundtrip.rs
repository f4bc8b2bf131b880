//! Cross-crate persistence round-trip: a planner output saved through the
//! journaled [`PipelineStore`] and reloaded by a *fresh* store handle (a
//! simulated process restart) must replay bit-for-bit identically to the
//! in-memory plan that produced it. This is the acceptance gate for the
//! durability layer: serialization, the envelope checksums, and the
//! generation commit protocol may not perturb a single field of the
//! [`ReplayReport`].

use mha_bench::workloads::{self, Scale};
use iotrace::TenantId;
use mha_core::persist::PipelineStore;
use mha_core::schemes::{apply_plan, Plan, PlannerContext, Scheme};
use pfs_sim::{Cluster, ClusterConfig, CoreSel, ReplayInput, ReplayReport, ReplaySession};
use std::path::PathBuf;
use storage_model::IoOp;

fn tmp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mha-roundtrip-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Install `plan` on a fresh cluster and replay `trace` through its
/// resolver — the same sequence the middleware's optimized run performs.
fn replay_plan(
    cfg: &ClusterConfig,
    plan: &Plan,
    trace: &iotrace::Trace,
    ctx: &PlannerContext,
) -> ReplayReport {
    let mut cluster = Cluster::new(cfg.clone());
    apply_plan(&mut cluster, plan);
    let mut resolver = plan.make_resolver(ctx.lookup_cost);
    ReplaySession::new()
        .run(ReplayInput::trace(&mut cluster, trace, resolver.as_mut()), CoreSel::Auto)
        .expect("fault-free replay cannot fail")
}

fn round_trip(scheme: Scheme, trace: &iotrace::Trace, tag: &str) {
    let cfg = workloads::paper_cluster();
    let ctx = PlannerContext::for_cluster(&cfg);
    let plan = scheme.planner().plan(trace, &ctx);
    let before = replay_plan(&cfg, &plan, trace, &ctx);

    let path = tmp_path(tag);
    {
        let store = PipelineStore::open(&path).expect("open store");
        store.tenant(TenantId(0)).save_plan(&plan).expect("persist plan");
    }
    // A fresh handle — nothing shared with the writer but the file.
    let store = PipelineStore::open(&path).expect("reopen store");
    let loaded = store
        .tenant(TenantId(0))
        .load_plan()
        .expect("load plan")
        .expect("a committed plan must be present");
    assert_eq!(loaded.scheme, plan.scheme, "{tag}: scheme survives");
    assert_eq!(loaded.layouts, plan.layouts, "{tag}: layouts survive");
    assert_eq!(loaded.rst, plan.rst, "{tag}: RST survives");
    assert_eq!(loaded.regions, plan.regions, "{tag}: regions survive");

    let after = replay_plan(&cfg, &loaded, trace, &ctx);
    assert_eq!(before, after, "{tag}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn persisted_mha_plan_replays_bit_for_bit() {
    let trace = workloads::lanl_trace(Scale::Quick);
    round_trip(Scheme::Mha, &trace, "mha-lanl");
}

#[test]
fn persisted_harl_plan_replays_bit_for_bit() {
    let trace = workloads::ior_mixed_sizes(&[128, 256], IoOp::Write, Scale::Quick);
    round_trip(Scheme::Harl, &trace, "harl-ior");
}

#[test]
fn persisted_identity_plans_replay_bit_for_bit() {
    // DEF and AAL carry no DRT; the metadata-only path must round-trip too.
    let trace = workloads::lanl_trace(Scale::Quick);
    round_trip(Scheme::Def, &trace, "def-lanl");
    round_trip(Scheme::Aal, &trace, "aal-lanl");
}
