//! Property-style equivalence suite: the per-server-lane core (the
//! production core, `CoreSel::Auto`) must be bit-for-bit identical to
//! the serial reference loop (`CoreSel::Serial`) — makespan,
//! per-server statistics, fault accounting and the request-latency
//! stream — across randomized traces, cluster shapes, layout schemes,
//! device-slot counts and fault plans.
//!
//! Cases are generated from a fixed seed (the same cases every run, in
//! every environment), which keeps failures reproducible: a failing
//! trial prints its number, and re-running the test replays it exactly.

use iotrace::gen::{ior, skewed};
use iotrace::{FileId, Rank, RecordBatch, TenantId, Trace, TraceRecord};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, FaultPlan, IdentityResolver, LayoutSpec, Placement,
    ReplayInput, ReplaySession, SchedPolicy, ServerId,
};
use simrt::rng::SmallRng;
use simrt::{SeedSeq, SimDuration, SimTime};
use storage_model::IoOp;

/// A random barrier-phased trace: 1–6 phases, 1–12 records each, ranks,
/// files, ops, offsets and sizes all drawn at random.
fn random_trace(rng: &mut SmallRng) -> Trace {
    let phases = rng.gen_range(1..=6u32);
    let mut records = Vec::new();
    for phase in 0..phases {
        let ts = SimTime::ZERO + SimDuration::from_millis(10) * u64::from(phase);
        for _ in 0..rng.gen_range(1..=12u32) {
            let len = rng.gen_range(1..=256u64) * 4096;
            records.push(TraceRecord {
                pid: rng.gen_range(0..1000),
                rank: Rank(rng.gen_range(0..16)),
                file: FileId(rng.gen_range(0..6)),
                op: if rng.gen_bool(0.5) { IoOp::Write } else { IoOp::Read },
                offset: rng.gen_range(0..4096u64) * 4096,
                len,
                ts,
                phase,
            });
        }
    }
    Trace::from_records(records)
}

/// `trace` with every file id mapped through `file`.
fn rebase(trace: &Trace, file: impl Fn(u32) -> FileId) -> Trace {
    Trace::from_records(trace.records().iter().map(|r| TraceRecord { file: file(r.file.0), ..r }).collect())
}

/// A random cluster: 1–6 HServers, 1–4 SServers, 2–8 clients, and a
/// device-slot count from the extremes the satellite made configurable.
fn random_config(rng: &mut SmallRng) -> ClusterConfig {
    ClusterConfig {
        hservers: rng.gen_range(1..=6),
        sservers: rng.gen_range(1..=4),
        clients: rng.gen_range(2..=8),
        device_slots: [1u64, 8, 40, 160][rng.gen_range(0..4usize)],
        ..ClusterConfig::paper_default()
    }
}

/// Install a random layout scheme for a few files: fixed striping over
/// all servers or a hybrid H/S split, with stripes from 16 KiB to 1 MiB
/// (zero on one side of the hybrid sometimes — SServer-only placement),
/// and a randomly drawn redundancy placement wherever the layout can
/// host it (misfits — e.g. EC(4+2) on a 2-segment layout — stay striped).
/// `file` maps the drawn file index to the id the layout is installed on.
fn random_layouts(rng: &mut SmallRng, cluster: &mut Cluster, file: impl Fn(u32) -> FileId) {
    let h: Vec<ServerId> = cluster.hserver_ids();
    let s: Vec<ServerId> = cluster.sserver_ids();
    let all: Vec<ServerId> = h.iter().chain(s.iter()).copied().collect();
    for f in 0..rng.gen_range(0..4u32) {
        let stripe = 16u64 << (10 + rng.gen_range(0..7u32));
        let spec = match rng.gen_range(0..3u32) {
            0 => LayoutSpec::fixed(&all, stripe),
            1 => LayoutSpec::hybrid(&h, stripe, &s, stripe * 2),
            _ => LayoutSpec::hybrid(&h, 0, &s, stripe),
        };
        let placement = match rng.gen_range(0..4u32) {
            0 => Placement::Striped,
            1 => Placement::Replicated(rng.gen_range(2..=3)),
            2 => Placement::ErasureCoded(2, 1),
            _ => Placement::ErasureCoded(4, 2),
        };
        let spec = spec.clone().try_with_placement(placement).unwrap_or(spec);
        cluster.mds_mut().set_layout(file(f), spec);
    }
}

/// A random fault plan over `servers` servers; empty about a third of
/// the time so the fault-free path stays covered.
fn random_fault_plan(rng: &mut SmallRng, servers: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if rng.gen_bool(1.0 / 3.0) {
        return plan;
    }
    for _ in 0..rng.gen_range(1..=3u32) {
        let server = rng.gen_range(0..servers);
        plan = match rng.gen_range(0..4u32) {
            0 => plan.outage(server, rng.gen_range(0.0..0.02), rng.gen_range(0.01..0.2)),
            1 => plan.down(server, rng.gen_range(0.0..0.05)),
            2 => plan.slow_server(server, rng.gen_range(1.5..4.0)),
            _ => plan.slow_link(server, rng.gen_range(1.5..3.0)),
        };
    }
    plan
}

/// A random dispatch policy, adaptive three times out of four.
fn random_sched_policy(rng: &mut SmallRng) -> SchedPolicy {
    if rng.gen_bool(0.25) {
        SchedPolicy::SeededShuffle
    } else {
        SchedPolicy::StragglerAware {
            alpha: rng.gen_range(0.05..=1.0),
            inflight_cap: rng.gen_range(1..=8),
        }
    }
}

#[test]
fn sharded_replay_is_bit_identical_under_random_sched_policies() {
    // The scheduler axis of the equivalence property: random traces ×
    // clusters × fault plans × dispatch policies. The straggler-aware
    // path mutates per-server EWMA state on every sub-request, so any
    // observation-order divergence between the cores shows up here.
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("sched").rng();
    for trial in 0..24 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let plan = random_fault_plan(&mut rng, config.servers());
        let policy = random_sched_policy(&mut rng);

        let mut c1 = Cluster::new(config.clone());
        random_layouts(&mut rng.clone(), &mut c1, FileId);
        let serial = ReplaySession::new()
            .with_fault_plan(plan.clone())
            .with_sched_policy(policy)
            .run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap();

        let mut c2 = Cluster::new(config);
        random_layouts(&mut rng.clone(), &mut c2, FileId);
        let sharded = ReplaySession::new()
            .with_fault_plan(plan)
            .with_sched_policy(policy)
            .run(ReplayInput::trace(&mut c2, &trace, &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();

        assert_eq!(serial, sharded, "trial {trial}");
    }
}

#[test]
fn sharded_replay_is_bit_identical_to_serial_across_random_scenarios() {
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("equivalence").rng();
    for trial in 0..32 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let plan = random_fault_plan(&mut rng, config.servers());

        let mut c1 = Cluster::new(config.clone());
        random_layouts(&mut rng.clone(), &mut c1, FileId);
        let serial = ReplaySession::new()
            .with_fault_plan(plan.clone())
            .run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap();

        let mut c2 = Cluster::new(config);
        random_layouts(&mut rng.clone(), &mut c2, FileId);
        let sharded = ReplaySession::new()
            .with_fault_plan(plan)
            .run(ReplayInput::trace(&mut c2, &trace, &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();

        assert_eq!(serial, sharded, "trial {trial}");
    }
}

#[test]
fn tenant_namespaced_files_replay_identically() {
    // The random scenarios above draw files from 0..6 only. A service
    // tenant's region files live at `t << 24 | 1 << 20` and up; both
    // cores' opened-file sets must pay exactly one lookup per distinct
    // file there too.
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("namespaced").rng();
    for trial in 0..16 {
        let tenant = TenantId(rng.gen_range(1..=255u32));
        let file = |f: u32| FileId::with_tenant(tenant, FileId((1 << 20) + f));
        let trace = rebase(&random_trace(&mut rng), file);
        let config = random_config(&mut rng);
        let plan = random_fault_plan(&mut rng, config.servers());

        let mut c1 = Cluster::new(config.clone());
        random_layouts(&mut rng.clone(), &mut c1, file);
        let serial = ReplaySession::new()
            .with_fault_plan(plan.clone())
            .run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap();

        let mut c2 = Cluster::new(config);
        random_layouts(&mut rng.clone(), &mut c2, file);
        let sharded = ReplaySession::new()
            .with_fault_plan(plan)
            .run(ReplayInput::trace(&mut c2, &trace, &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();

        assert_eq!(serial, sharded, "trial {trial}");
        let mut files: Vec<FileId> = trace.records().iter().map(|r| r.file).collect();
        files.sort_unstable();
        files.dedup();
        assert_eq!(serial.mds_lookups, files.len() as u64, "trial {trial}: one open per file");
    }
}

#[test]
fn degraded_redundant_replay_is_bit_identical_and_completes() {
    // The redundancy gate: random layouts × placements × fault plans that
    // always include at least one permanent loss. Redundant layouts must
    // keep serial == sharded bit for bit while sourcing reads off
    // replicas / surviving EC shards, and a cluster whose only fault is
    // one lost server must complete every redundant request without a
    // single timeout (degraded reads instead of abandoned sub-requests).
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("degraded").rng();
    for trial in 0..24 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let victim = rng.gen_range(0..config.servers());
        let plan = random_fault_plan(&mut rng, config.servers()).down(victim, 0.0);

        let mut c1 = Cluster::new(config.clone());
        random_layouts(&mut rng.clone(), &mut c1, FileId);
        let serial = ReplaySession::new()
            .with_fault_plan(plan.clone())
            .run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap();

        let mut c2 = Cluster::new(config.clone());
        random_layouts(&mut rng.clone(), &mut c2, FileId);
        let sharded = ReplaySession::new()
            .with_fault_plan(plan)
            .run(ReplayInput::trace(&mut c2, &trace, &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();

        assert_eq!(serial, sharded, "trial {trial}");

        // Completion guarantee: single permanent loss, every file on a
        // loss-tolerant layout over distinct live servers → no timeouts.
        let only_loss = FaultPlan::none().down(victim, 0.0);
        let mut c3 = Cluster::new(config);
        let all: Vec<ServerId> = c3.hserver_ids().iter().chain(c3.sserver_ids().iter()).copied().collect();
        if all.len() >= 6 {
            for f in 0..6u32 {
                let placement =
                    if f % 2 == 0 { Placement::Replicated(3) } else { Placement::ErasureCoded(4, 2) };
                let spec = LayoutSpec::fixed(&all, 64 << 10).with_placement(placement);
                c3.mds_mut().set_layout(FileId(f), spec);
            }
            let mut run = |core| {
                ReplaySession::new()
                    .with_fault_plan(only_loss.clone())
                    .run(ReplayInput::trace(&mut c3, &trace, &mut IdentityResolver), core)
                    .unwrap()
            };
            let degraded = run(CoreSel::Auto);
            assert!(degraded == run(CoreSel::Serial), "trial {trial}: one loss, serial != sharded");
            assert_eq!(degraded.counters.timeouts, 0, "trial {trial}: redundant replay must complete");
            assert_eq!(degraded.total_bytes, trace.total_bytes(), "trial {trial}");
        }
    }
}

#[test]
fn one_warmed_session_stays_identical_across_random_scenarios() {
    // Scratch reuse across wildly different traces and cluster shapes
    // must never leak state between runs.
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("warm").rng();
    let mut session = ReplaySession::new();
    for trial in 0..16 {
        let trace = random_trace(&mut rng);
        let config = random_config(&mut rng);
        let mut c1 = Cluster::new(config.clone());
        let serial =
            ReplaySession::new().run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial).unwrap();
        let mut c2 = Cluster::new(config);
        let sharded = session.run(ReplayInput::trace(&mut c2, &trace, &mut IdentityResolver), CoreSel::Sharded).unwrap();
        assert_eq!(serial, sharded, "trial {trial}");
    }
}

#[test]
fn streaming_generators_match_their_materialized_traces() {
    // Random generator configs: the phase-streamed records must equal the
    // materialized trace record for record, and replaying the stream must
    // equal replaying the trace serially.
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("stream").rng();
    for trial in 0..8 {
        let mut cfg = ior::IorConfig::default_run(if rng.gen_bool(0.5) {
            IoOp::Write
        } else {
            IoOp::Read
        });
        cfg.reqs_per_proc = rng.gen_range(1..=6);
        cfg.proc_mix = vec![rng.gen_range(1..=8)];
        let trace = ior::generate(&cfg);

        let mut batch = RecordBatch::new();
        let mut src = ior::stream(&cfg);
        let mut cursor = 0;
        while iotrace::BatchSource::next_phase(&mut src, &mut batch) {
            for i in 0..batch.len() {
                assert_eq!(Some(batch.record(i)), trace.records().get(cursor), "trial {trial}");
                cursor += 1;
            }
        }
        assert_eq!(cursor, trace.len(), "trial {trial}: stream covers the trace");

        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let serial =
            ReplaySession::new().run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial).unwrap();
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let streamed = ReplaySession::new()
            .run(ReplayInput::stream(&mut c2, &mut ior::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert_eq!(serial, streamed, "trial {trial}");
    }
}

#[test]
fn skewed_stream_replays_identically_to_its_trace() {
    let mut cfg = skewed::SkewedConfig::default_run(IoOp::Write);
    cfg.phases = 24;
    let trace = skewed::generate(&cfg);
    let mut c1 = Cluster::new(ClusterConfig::paper_default());
    let serial = ReplaySession::new().run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial).unwrap();
    let mut c2 = Cluster::new(ClusterConfig::paper_default());
    let streamed = ReplaySession::new()
        .run(ReplayInput::stream(&mut c2, &mut skewed::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
        .unwrap();
    assert_eq!(serial, streamed, "trial 0");
}

#[test]
fn skewed_stream_replays_identically_under_active_fault_plans() {
    // Temporal faults gate sub-request admission by simulated time, so
    // any drift between the streamed and materialized phase order would
    // surface as diverging retry/timeout accounting.
    let mut rng = SeedSeq::new(0x5A_D0E5).derive("skewed-faults").rng();
    for trial in 0..8 {
        let mut cfg = skewed::SkewedConfig::default_run(if rng.gen_bool(0.5) {
            IoOp::Write
        } else {
            IoOp::Read
        });
        cfg.phases = 12;
        cfg.procs = rng.gen_range(2..=8);
        cfg.seed = rng.next_u64();
        let config = random_config(&mut rng);
        let mut plan = random_fault_plan(&mut rng, config.servers());
        if plan.is_empty() {
            // This test is about the faulted path; force at least one.
            plan = plan.slow_server(0, 2.0);
        }
        let trace = skewed::generate(&cfg);
        let mut c1 = Cluster::new(config.clone());
        let serial = ReplaySession::new()
            .with_fault_plan(plan.clone())
            .run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Serial)
            .unwrap();
        let mut c2 = Cluster::new(config);
        let streamed = ReplaySession::new()
            .with_fault_plan(plan)
            .run(ReplayInput::stream(&mut c2, &mut skewed::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert_eq!(serial, streamed, "trial {trial}");
    }
}
