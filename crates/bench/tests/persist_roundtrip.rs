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

/// Field-by-field equality, exact: durations and counters by value,
/// floats (latency statistics) by bit pattern.
fn assert_reports_identical(a: &ReplayReport, b: &ReplayReport, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.total_bytes, b.total_bytes, "{what}: total_bytes");
    assert_eq!(a.read_bytes, b.read_bytes, "{what}: read_bytes");
    assert_eq!(a.write_bytes, b.write_bytes, "{what}: write_bytes");
    assert_eq!(a.resolve_overhead, b.resolve_overhead, "{what}: resolve_overhead");
    assert_eq!(a.mds_lookups, b.mds_lookups, "{what}: mds_lookups");
    assert_eq!(a.retries, b.retries, "{what}: retries");
    assert_eq!(a.timeouts, b.timeouts, "{what}: timeouts");
    assert_eq!(a.fault_wait, b.fault_wait, "{what}: fault_wait");
    assert_eq!(a.per_server.len(), b.per_server.len(), "{what}: server count");
    for (sa, sb) in a.per_server.iter().zip(&b.per_server) {
        assert_eq!(sa.server, sb.server, "{what}: server index");
        assert_eq!(sa.kind, sb.kind, "{what}: server kind");
        assert_eq!(sa.busy, sb.busy, "{what}: S{} busy", sa.server);
        assert_eq!(sa.bytes_read, sb.bytes_read, "{what}: S{} bytes_read", sa.server);
        assert_eq!(sa.bytes_written, sb.bytes_written, "{what}: S{} bytes_written", sa.server);
        assert_eq!(sa.served, sb.served, "{what}: S{} served", sa.server);
        assert_eq!(sa.retries, sb.retries, "{what}: S{} retries", sa.server);
        assert_eq!(sa.timeouts, sb.timeouts, "{what}: S{} timeouts", sa.server);
        assert_eq!(sa.down, sb.down, "{what}: S{} down", sa.server);
        assert_eq!(
            sa.slowdown.to_bits(),
            sb.slowdown.to_bits(),
            "{what}: S{} slowdown",
            sa.server
        );
    }
    let (la, lb) = (&a.request_latency, &b.request_latency);
    assert_eq!(la.count(), lb.count(), "{what}: latency count");
    assert_eq!(la.mean().to_bits(), lb.mean().to_bits(), "{what}: latency mean");
    assert_eq!(la.sum().to_bits(), lb.sum().to_bits(), "{what}: latency sum");
    assert_eq!(la.min().to_bits(), lb.min().to_bits(), "{what}: latency min");
    assert_eq!(la.max().to_bits(), lb.max().to_bits(), "{what}: latency max");
}

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
    assert_reports_identical(&before, &after, tag);
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
