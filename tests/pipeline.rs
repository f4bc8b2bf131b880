//! Cross-crate integration tests: the full five-phase pipeline
//! (trace → plan → place → redirect → replay) on every workload family.

use mha::iotrace::gen::{btio, cholesky, hpio, ior, lanl, lu};
use mha::prelude::*;

fn ctx(cluster: &ClusterConfig) -> PlannerContext {
    PlannerContext::for_cluster(cluster)
}

/// One scheme, planned and replayed through the session builder.
fn eval(
    scheme: Scheme,
    trace: &Trace,
    cluster: &ClusterConfig,
    c: &PlannerContext,
) -> mha::pfs_sim::ReplayReport {
    Evaluation::of(scheme, trace, cluster).context(c).report()
}

fn ctx_for(cluster: &ClusterConfig, trace: &Trace) -> PlannerContext {
    PlannerContext::for_cluster(cluster).with_step_for(trace)
}

/// Every byte a workload moves must be moved under every scheme.
#[test]
fn byte_conservation_across_schemes() {
    let cluster = ClusterConfig::paper_default();
    let traces: Vec<Trace> = vec![
        lanl::generate(&lanl::LanlConfig::paper(6, IoOp::Write)),
        lu::generate(&lu::LuConfig { procs: 4, steps: 16 }),
        cholesky::generate(&cholesky::CholeskyConfig {
            procs: 4,
            panels: 12,
            ..Default::default()
        }),
        btio::generate(&btio::BtioConfig::paper(4, IoOp::Write)),
    ];
    for trace in &traces {
        let c = ctx_for(&cluster, trace);
        for scheme in Scheme::all() {
            let report = eval(scheme, trace, &cluster, &c);
            assert_eq!(
                report.total_bytes,
                trace.total_bytes(),
                "{} lost bytes",
                scheme.name()
            );
            assert_eq!(report.requests, trace.len());
        }
    }
}

/// The paper's headline ordering on heterogeneous workloads:
/// MHA ≥ HARL and MHA > DEF.
#[test]
fn scheme_ordering_on_heterogeneous_workloads() {
    let cluster = ClusterConfig::paper_default();
    let c = ctx(&cluster);
    let workloads: Vec<(&str, Trace)> = vec![
        ("lanl", lanl::generate(&lanl::LanlConfig::paper(16, IoOp::Write))),
        ("ior-mixed", {
            let mut cfg = ior::IorConfig::mixed_sizes(&[128 << 10, 256 << 10], IoOp::Write);
            cfg.reqs_per_proc = 48;
            ior::generate(&cfg)
        }),
        ("hpio", {
            let mut cfg = hpio::HpioConfig::paper(16, IoOp::Write);
            cfg.region_count = 256;
            hpio::generate(&cfg)
        }),
    ];
    for (name, trace) in &workloads {
        let def = eval(Scheme::Def, trace, &cluster, &c).bandwidth_mbps();
        let harl = eval(Scheme::Harl, trace, &cluster, &c).bandwidth_mbps();
        let mha = eval(Scheme::Mha, trace, &cluster, &c).bandwidth_mbps();
        assert!(mha > def, "{name}: MHA {mha} <= DEF {def}");
        assert!(mha >= harl * 0.98, "{name}: MHA {mha} trails HARL {harl}");
    }
}

/// For uniform access patterns MHA degenerates to HARL-class performance
/// (the paper's Fig. 7/9 "single size / single process count" columns).
#[test]
fn mha_degenerates_gracefully_on_uniform_patterns() {
    let cluster = ClusterConfig::paper_default();
    let c = ctx(&cluster);
    let mut cfg = ior::IorConfig::default_run(IoOp::Write);
    cfg.reqs_per_proc = 16;
    let trace = ior::generate(&cfg);
    let harl = eval(Scheme::Harl, &trace, &cluster, &c).bandwidth_mbps();
    let mha = eval(Scheme::Mha, &trace, &cluster, &c).bandwidth_mbps();
    let ratio = mha / harl;
    assert!(
        (0.9..=1.5).contains(&ratio),
        "uniform pattern should be HARL-class: mha={mha} harl={harl}"
    );
}

/// Replays are bit-deterministic: same trace, same cluster → same report.
#[test]
fn end_to_end_determinism() {
    let cluster = ClusterConfig::paper_default();
    let c = ctx(&cluster);
    let trace = lanl::generate(&lanl::LanlConfig::paper(8, IoOp::Write));
    for scheme in Scheme::all() {
        let a = eval(scheme, &trace, &cluster, &c);
        let b = eval(scheme, &trace, &cluster, &c);
        assert_eq!(a, b, "{}", scheme.name());
    }
}

/// The MHA plan's DRT covers every traced byte (no residuals on the
/// paper's workloads) and the redirector serves reads and writes from the
/// same single-homed location.
#[test]
fn drt_single_homing_on_read_modify_write() {
    let cluster = ClusterConfig::paper_default();
    let c = ctx(&cluster);
    let trace = lu::generate(&lu::LuConfig { procs: 4, steps: 24 });
    let plan = Scheme::Mha.planner().plan(&trace, &c);
    let mha_core::schemes::PlanResolver::Drt(drt) = &plan.resolver else {
        panic!("MHA plans must redirect")
    };
    for rec in trace.records() {
        let pieces = drt.translate(rec.file, rec.offset, rec.len);
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, rec.len, "translation must cover the request");
        for p in &pieces {
            assert!(
                p.file.0 >= 1 << 20,
                "byte left behind in the original file: {rec:?}"
            );
        }
    }
}

/// Cross-scheme invariant: per-server bytes written sum to the trace
/// volume regardless of which servers the plan uses.
#[test]
fn per_server_bytes_sum_to_volume() {
    let cluster = ClusterConfig::paper_default();
    let c = ctx(&cluster);
    let trace = lanl::generate(&lanl::LanlConfig::paper(8, IoOp::Write));
    for scheme in Scheme::all() {
        let r = eval(scheme, &trace, &cluster, &c);
        let server_bytes: u64 = r.per_server.iter().map(|s| s.bytes_written).sum();
        assert_eq!(server_bytes, trace.total_bytes(), "{}", scheme.name());
    }
}

/// Degenerate clusters still work: no SServers (layout falls back to
/// HServers), single server, single client.
#[test]
fn degenerate_clusters() {
    let trace = lanl::generate(&lanl::LanlConfig::paper(4, IoOp::Write));
    for (h, s) in [(8usize, 0usize), (1, 0), (0, 1), (1, 1)] {
        let cluster = ClusterConfig::with_ratio(h, s);
        let c = ctx(&cluster);
        for scheme in Scheme::all() {
            let r = eval(scheme, &trace, &cluster, &c);
            assert!(
                r.bandwidth_mbps() > 0.0,
                "{}h:{s}s {}: zero bandwidth",
                h,
                scheme.name()
            );
        }
    }
}

/// The middleware lifecycle matches the direct planner path.
#[test]
fn middleware_agrees_with_direct_evaluation() {
    let cluster = ClusterConfig::paper_default();
    let trace = lanl::generate(&lanl::LanlConfig::paper(8, IoOp::Write));
    let mut mw = Middleware::new(Hints::new());
    mw.profile_run(&cluster, &trace);
    mw.plan_from_profile(&cluster);
    let run = mw.optimized_run(&cluster, &trace);
    let c = ctx(&cluster);
    let direct = eval(Scheme::Mha, &trace, &cluster, &c);
    let ratio = run.report.bandwidth_mbps() / direct.bandwidth_mbps();
    assert!(
        (0.95..=1.05).contains(&ratio),
        "middleware {} vs direct {}",
        run.report.bandwidth_mbps(),
        direct.bandwidth_mbps()
    );
}
