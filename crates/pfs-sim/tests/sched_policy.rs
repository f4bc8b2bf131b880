//! Scheduler-policy property suite: `SchedPolicy::SeededShuffle` must be
//! bit-identical to the pre-scheduler replay order, a fault-free
//! `StragglerAware` session must degenerate to exactly that schedule,
//! and the straggler-aware path must stay deterministic and
//! serial/sharded-identical once it actually defers requests.

use iotrace::gen::ior::{generate as gen_ior, IorConfig};
use iotrace::{FileId, Rank, Trace, TraceRecord};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, FaultPlan, IdentityResolver, LayoutSpec, PhysExtent,
    ReplayError, ReplayInput, ReplaySession, Resolver, SchedPolicy,
    ServerId,
};
use simrt::{SeedSeq, SimDuration, SimTime};
use storage_model::IoOp;

/// Resolver that records the offset of every record it resolves, in
/// dispatch order, then resolves like the identity.
#[derive(Default)]
struct ProbeResolver {
    seen: Vec<u64>,
}

impl Resolver for ProbeResolver {
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
        self.seen.push(rec.offset);
        IdentityResolver.resolve_into(rec, out)
    }
}

/// A trace whose record offsets are globally unique, so the dispatch
/// order is observable through a [`ProbeResolver`].
fn tagged_trace(phases: u32, per_phase: u32) -> Trace {
    let mut records = Vec::new();
    for phase in 0..phases {
        let ts = SimTime::ZERO + SimDuration::from_millis(10) * u64::from(phase);
        for i in 0..per_phase {
            let tag = u64::from(phase * per_phase + i);
            records.push(TraceRecord {
                pid: 100 + i,
                rank: Rank(i),
                file: FileId(0),
                op: IoOp::Write,
                offset: tag * (256 << 10),
                len: 64 << 10,
                ts,
                phase,
            });
        }
    }
    Trace::from_records(records)
}

/// The pre-scheduler replay order, derived from first principles: group
/// record indices by phase, then shuffle each group with the fixed
/// replay seed. Any change to the default dispatch order breaks this.
fn expected_offsets(trace: &Trace) -> Vec<u64> {
    let records = trace.records().to_vec();
    let mut order: Vec<usize> = (0..records.len()).collect();
    let mut spans: Vec<(u32, usize, usize)> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        match spans.last_mut() {
            Some((p, _, end)) if *p == rec.phase => *end += 1,
            _ => spans.push((rec.phase, i, i + 1)),
        }
    }
    let seed = SeedSeq::new(0x5EED_0F0F);
    for &(phase, start, end) in &spans {
        let mut rng = seed.derive_idx("phase", u64::from(phase)).rng();
        rng.shuffle(&mut order[start..end]);
    }
    order.into_iter().map(|i| records[i].offset).collect()
}

fn dispatch_order(trace: &Trace, policy: SchedPolicy) -> Vec<u64> {
    let mut cluster = Cluster::new(ClusterConfig::paper_default());
    let mut probe = ProbeResolver::default();
    ReplaySession::new()
        .with_sched_policy(policy)
        .run(ReplayInput::trace(&mut cluster, trace, &mut probe), CoreSel::Serial)
        .unwrap();
    probe.seen
}

#[test]
fn seeded_shuffle_dispatches_in_the_pre_scheduler_order() {
    let trace = tagged_trace(4, 9);
    assert_eq!(
        dispatch_order(&trace, SchedPolicy::SeededShuffle),
        expected_offsets(&trace),
        "default dispatch must be the historical per-phase seeded shuffle"
    );
}

#[test]
fn fault_free_straggler_aware_dispatches_the_same_order() {
    // No fault → no suspect → the adaptive policy replays the blind
    // shuffle exactly, record for record.
    let trace = tagged_trace(4, 9);
    assert_eq!(
        dispatch_order(&trace, SchedPolicy::straggler_aware()),
        expected_offsets(&trace),
    );
}

#[test]
fn fault_free_straggler_aware_report_is_bit_identical_to_seeded_shuffle() {
    let mut cfg = IorConfig::default_run(IoOp::Write);
    cfg.reqs_per_proc = 6;
    cfg.proc_mix = vec![8];
    let trace = gen_ior(&cfg);
    let run = |policy: SchedPolicy, core: CoreSel| {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        ReplaySession::new()
            .with_sched_policy(policy)
            .run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), core)
            .unwrap()
    };
    for core in [CoreSel::Serial, CoreSel::Sharded] {
        let base = run(SchedPolicy::SeededShuffle, core);
        let aware = run(SchedPolicy::straggler_aware(), core);
        assert_eq!(base, aware, "{core:?}");
        assert_eq!(aware.counters.deferred_requests, 0);
    }
}

/// Split the shared file namespace onto disjoint server halves: file 0
/// lives on the first four servers, file 1 on the next four. Suspecting
/// server 0 then defers only file-0 records, while clean file-1 records
/// keep issuing at the barrier. (Targeting is file-granular — on a single
/// all-server file every record counts as suspect-targeted.)
fn split_layouts(cluster: &mut Cluster) {
    let lo: Vec<ServerId> = (0..4).map(ServerId).collect();
    let hi: Vec<ServerId> = (4..8).map(ServerId).collect();
    cluster.mds_mut().set_layout(FileId(0), LayoutSpec::fixed(&lo, 64 << 10));
    cluster.mds_mut().set_layout(FileId(1), LayoutSpec::fixed(&hi, 64 << 10));
}

/// A long outage placed a third of the way into the fault-free run: the
/// stricken server builds a healthy latency baseline first, then every
/// request it receives observes a latency orders of magnitude above it —
/// the EWMA flags it within one phase. (An outage from t = 0 would *not*
/// trip the self-relative trigger: the server's own baseline would
/// already be the fault-inflated latency.)
fn outage_plan(trace: &Trace) -> FaultPlan {
    let mut cluster = Cluster::new(ClusterConfig::paper_default());
    split_layouts(&mut cluster);
    let healthy = ReplaySession::new()
        .run(ReplayInput::trace(&mut cluster, trace, &mut IdentityResolver), CoreSel::Serial)
        .unwrap();
    FaultPlan::none().outage(0, healthy.makespan.as_secs_f64() / 3.0, 30.0)
}

/// Like [`tagged_trace`] but alternating records between files 0 and 1.
fn two_file_trace(phases: u32, per_phase: u32) -> Trace {
    let mut records = Vec::new();
    for phase in 0..phases {
        let ts = SimTime::ZERO + SimDuration::from_millis(10) * u64::from(phase);
        for i in 0..per_phase {
            let tag = u64::from(phase * per_phase + i);
            records.push(TraceRecord {
                pid: 100 + i,
                rank: Rank(i),
                file: FileId(i % 2),
                op: IoOp::Write,
                offset: tag * (256 << 10),
                len: 64 << 10,
                ts,
                phase,
            });
        }
    }
    Trace::from_records(records)
}

#[test]
fn straggler_aware_defers_under_a_heavy_transient_fault() {
    let trace = two_file_trace(12, 16);
    let plan = outage_plan(&trace);
    let run = |core: CoreSel| {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        split_layouts(&mut cluster);
        ReplaySession::new()
            .with_fault_plan(plan.clone())
            .with_sched_policy(SchedPolicy::straggler_aware())
            .run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), core)
            .unwrap()
    };
    let serial = run(CoreSel::Serial);
    let sharded = run(CoreSel::Sharded);
    assert!(serial.counters.deferred_requests > 0, "outage must trip the scheduler");
    assert_eq!(serial, sharded, "cores must agree while the scheduler is active");
}

#[test]
fn straggler_aware_reports_are_deterministic_across_reruns() {
    let trace = tagged_trace(10, 12);
    let plan = outage_plan(&trace);
    let run_fresh = || {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        ReplaySession::new()
            .with_fault_plan(plan.clone())
            .with_sched_policy(SchedPolicy::straggler_aware())
            .run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap()
    };
    let a = run_fresh();
    let b = run_fresh();
    assert_eq!(a, b, "fresh sessions");

    // A warm session must not leak EWMA state between runs: back-to-back
    // runs of the same input stay identical to a cold one.
    let mut warm = ReplaySession::new()
        .with_fault_plan(plan)
        .with_sched_policy(SchedPolicy::straggler_aware());
    for round in 0..2 {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        let r = warm
            .run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap();
        assert_eq!(a, r, "warm round {round}");
    }
}

#[test]
fn invalid_policies_are_rejected_at_run() {
    let trace = tagged_trace(1, 2);
    for bad in [
        SchedPolicy::StragglerAware { alpha: 0.0, inflight_cap: 4 },
        SchedPolicy::StragglerAware { alpha: 0.3, inflight_cap: 0 },
    ] {
        let mut cluster = Cluster::new(ClusterConfig::paper_default());
        let err = ReplaySession::new()
            .with_sched_policy(bad)
            .run(
                ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver),
                CoreSel::Serial,
            )
            .unwrap_err();
        assert!(
            matches!(err, ReplayError::InvalidSchedPolicy(_)),
            "{bad:?} must be rejected, got {err:?}"
        );
    }
}
