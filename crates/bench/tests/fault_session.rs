//! The fault-injection contract, pinned at the full-grid level:
//!
//! * an **empty** `FaultPlan` is bit-for-bit invisible — every scheme's
//!   report on the LANL and IOR workloads is identical with and without
//!   the plan attached to the session;
//! * a **non-empty** plan is deterministic — repeated runs from fresh
//!   sessions reproduce the degraded reports exactly;
//! * retry/timeout accounting surfaces in `ReplayReport` where the
//!   injected faults say it must.

use iotrace::Trace;
use mha_bench::workloads::{self, Scale};
use mha_core::schemes::{Evaluation, Scheme};
use pfs_sim::{ClusterConfig, FaultPlan, ReplayReport};
use storage_model::IoOp;

const SCHEMES: [Scheme; 4] = [Scheme::Def, Scheme::Aal, Scheme::Harl, Scheme::Mha];

fn grid(trace: &Trace, cluster: &ClusterConfig, plan: &FaultPlan) -> Vec<ReplayReport> {
    let ctx = workloads::context_for(trace, cluster);
    SCHEMES
        .iter()
        .map(|&s| {
            Evaluation::of(s, trace, cluster)
                .context(&ctx)
                .faults(plan)
                .run()
                .expect("replay failed")
        })
        .collect()
}

fn fault_free_grid(trace: &Trace, cluster: &ClusterConfig) -> Vec<ReplayReport> {
    let ctx = workloads::context_for(trace, cluster);
    SCHEMES
        .iter()
        .map(|&s| {
            Evaluation::of(s, trace, cluster)
                .context(&ctx)
                .run()
                .expect("replay failed")
        })
        .collect()
}

#[test]
fn empty_fault_plan_is_bit_identical_across_the_grid() {
    let cluster = workloads::paper_cluster();
    let matrix = [
        ("lanl", workloads::lanl_trace(Scale::Quick)),
        ("ior 128+256 write", workloads::ior_mixed_sizes(&[128, 256], IoOp::Write, Scale::Quick)),
        ("ior 64+512 read", workloads::ior_mixed_sizes(&[64, 512], IoOp::Read, Scale::Quick)),
    ];
    let empty = FaultPlan::none();
    for (name, trace) in &matrix {
        let with_plan = grid(trace, &cluster, &empty);
        let without = fault_free_grid(trace, &cluster);
        for (i, (a, b)) in with_plan.iter().zip(&without).enumerate() {
            assert_eq!(a, b, "{name}, scheme #{i}");
            assert_eq!(a.counters.retries, 0, "{name}: empty plan must record no retries");
            assert_eq!(a.counters.timeouts, 0, "{name}: empty plan must record no timeouts");
        }
    }
}

#[test]
fn straggler_replay_is_deterministic_across_fresh_sessions() {
    let cluster = workloads::paper_cluster();
    let trace = workloads::lanl_trace(Scale::Quick);
    let plan = FaultPlan::none().slow_server(6, 8.0);
    let first = grid(&trace, &cluster, &plan);
    for round in 0..2 {
        let again = grid(&trace, &cluster, &plan);
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(a, b, "round {round}, scheme #{i}");
        }
    }
    // The straggler is visible where it must be: the degraded server's
    // health lands in the report, and no scheme got faster.
    let healthy = fault_free_grid(&trace, &cluster);
    for (i, (h, d)) in healthy.iter().zip(&first).enumerate() {
        assert_eq!(d.per_server[6].slowdown, 8.0, "scheme #{i}: S6 slowdown recorded");
        assert!(
            d.makespan >= h.makespan,
            "scheme #{i}: straggler must not shorten the run"
        );
    }
}

#[test]
fn outages_and_loss_surface_retry_accounting() {
    let cluster = workloads::paper_cluster();
    let trace = workloads::lanl_trace(Scale::Quick);

    // A transient outage on an SServer forces retries under DEF (which
    // stripes every request over all servers).
    let outage = FaultPlan::none().outage(6, 0.0, 1.0);
    let r = grid(&trace, &cluster, &outage).remove(0);
    assert!(r.counters.retries > 0, "outage must force retries, got {}", r.counters.retries);
    assert_eq!(
        r.per_server[6].counters.retries, r.counters.retries,
        "all retries belong to the server in outage"
    );

    // Permanent loss: requests to the dead server time out, and the
    // report marks it down.
    let loss = FaultPlan::none().down(6, 0.0);
    let r = grid(&trace, &cluster, &loss).remove(0);
    assert!(r.counters.timeouts > 0, "a lost server must surface timeouts");
    assert!(r.per_server[6].down, "the report must mark S6 down");
    assert!(r.per_server[6].counters.timeouts > 0, "timeouts pinned to the lost server");
}
