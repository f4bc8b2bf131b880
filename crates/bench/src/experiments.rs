//! One experiment per paper artifact (see crate docs for the index).

use crate::report::Figure;
use crate::workloads::{self, Scale};
use iotrace::gen::lanl;
use iotrace::Trace;
use mha_core::redirect::NullRedirectResolver;
use mha_core::schemes::{Evaluation, PlannerContext, Scheme};
use mha_core::CostParams;
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, DeviceProfile, FaultPlan, IdentityResolver, ReplayInput,
    ReplayReport, ReplaySession,
};
use rayon::prelude::*;
use storage_model::IoOp;

/// Reproduces one experiment's figures at a scale.
type Build = fn(Scale) -> Vec<Figure>;

/// One row per experiment id: the id and the builder that reproduces
/// its figures. Paper order first, then the ablation, sensitivity,
/// collective-I/O, dynamic-controller and fault-injection studies, then
/// the online, service, redundancy and straggler studies. `figures all`
/// runs every row.
pub const EXPERIMENTS: &[(&str, Build)] = &[
    ("fig3", |_| vec![fig3()]),
    ("fig7", fig7),
    ("fig8", |scale| vec![fig8(scale)]),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", |scale| vec![fig11(scale)]),
    ("fig12a", |_| vec![fig12a()]),
    ("fig12b", |scale| vec![fig12b(scale)]),
    ("fig13a", |scale| vec![fig13a(scale)]),
    ("fig13b", |scale| vec![fig13b(scale)]),
    ("fig14", |scale| vec![fig14(scale)]),
    ("tab1", |_| vec![tab1()]),
    ("ovh", |_| vec![ovh()]),
    ("ablations", ablations),
    ("sens", sensitivity),
    ("coll", |scale| vec![collective(scale)]),
    ("dyn", |scale| vec![dynamic(scale)]),
    ("fault", |scale| vec![fault(scale)]),
    ("online", crate::online::study),
    ("service", crate::service::study),
    ("redundancy", crate::redundancy::study),
    ("straggler", crate::straggler::study),
];

/// Run the experiment `id` at `scale` and return its figures, or `None`
/// when no row of [`EXPERIMENTS`] carries that id.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Figure>> {
    EXPERIMENTS.iter().find(|(name, _)| *name == id).map(|(_, build)| build(scale))
}

const SCHEMES: [Scheme; 4] = [Scheme::Def, Scheme::Aal, Scheme::Harl, Scheme::Mha];
const SCHEME_NAMES: [&str; 4] = ["DEF", "AAL", "HARL", "MHA"];

/// Replay reports of every scheme on one workload/cluster, scheme-
/// parallel: each cell builds its own cluster, plan, resolver and
/// session, and the indexed collect keeps scheme order, so the grid is
/// deterministic — reports are identical to [`scheme_reports_serial`]
/// at any thread count (the replay determinism test compares them field
/// by field).
pub fn scheme_reports(trace: &Trace, cluster: &ClusterConfig) -> Vec<ReplayReport> {
    let ctx = workloads::context_for(trace, cluster);
    SCHEMES
        .par_iter()
        .map(|&s| {
            Evaluation::of(s, trace, cluster)
                .context(&ctx)
                .run()
                .expect("fault-free replay cannot fail")
        })
        .collect()
}

/// Single-thread reference for [`scheme_reports`], threading one replay
/// session (and its scratch) through all four schemes — so the
/// bit-for-bit grid test also pins a warm session against fresh ones.
pub fn scheme_reports_serial(trace: &Trace, cluster: &ClusterConfig) -> Vec<ReplayReport> {
    let ctx = workloads::context_for(trace, cluster);
    let mut session = ReplaySession::new();
    SCHEMES
        .iter()
        .map(|&s| {
            Evaluation::of(s, trace, cluster)
                .context(&ctx)
                .run_in(&mut session)
                .expect("fault-free replay cannot fail")
        })
        .collect()
}

/// Bandwidth of one scheme on one workload, through the builder — the
/// figure bodies below all funnel through here.
fn bandwidth(scheme: Scheme, trace: &Trace, cluster: &ClusterConfig, ctx: &PlannerContext) -> f64 {
    Evaluation::of(scheme, trace, cluster)
        .context(ctx)
        .report()
        .bandwidth_mbps()
}

/// Bandwidth of every scheme on one workload/cluster (fresh cluster and
/// calibration per scheme).
fn scheme_bandwidths(trace: &Trace, cluster: &ClusterConfig) -> Vec<f64> {
    scheme_reports(trace, cluster)
        .iter()
        .map(ReplayReport::bandwidth_mbps)
        .collect()
}

/// Fig. 3: the data access sequence of one LANL loop iteration set.
fn fig3() -> Figure {
    let trace = lanl::generate(&lanl::LanlConfig { procs: 1, loops: 3, op: IoOp::Write });
    let mut fig = Figure::new(
        "fig3",
        "Data access sequence in a loop of LANL application",
        &["request size"],
        "bytes",
    );
    for (i, rec) in trace.records().iter().enumerate() {
        fig.push_row(format!("req {i}"), vec![rec.len as f64]);
    }
    fig
}

/// Fig. 7: IOR bandwidth with mixed request sizes (one figure per op).
fn fig7(scale: Scale) -> Vec<Figure> {
    let mixes: [(&str, &[u64]); 4] = [
        ("16", &[16]),
        ("128+256", &[128, 256]),
        ("64+512", &[64, 512]),
        ("256+1024", &[256, 1024]),
    ];
    let cluster = workloads::paper_cluster();
    [IoOp::Read, IoOp::Write]
        .into_iter()
        .map(|op| {
            let id = if op == IoOp::Read { "fig7r" } else { "fig7w" };
            let mut fig = Figure::new(
                id,
                &format!("IOR {} bandwidth with mixed request sizes", op.name()),
                &SCHEME_NAMES,
                "MB/s",
            );
            // Rows are independent (workload generation included), so
            // they fan out too; the indexed collect keeps paper order.
            let rows: Vec<Vec<f64>> = mixes
                .par_iter()
                .map(|(_, sizes)| {
                    let trace = workloads::ior_mixed_sizes(sizes, op, scale);
                    scheme_bandwidths(&trace, &cluster)
                })
                .collect();
            for ((label, _), row) in mixes.into_iter().zip(rows) {
                fig.push_row(label, row);
            }
            fig
        })
        .collect()
}

/// Fig. 8: per-server I/O time under each scheme (IOR write, 128+256 KiB),
/// normalized to the smallest positive server time under MHA.
fn fig8(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let trace = workloads::ior_mixed_sizes(&[128, 256], IoOp::Write, scale);
    let reports = scheme_reports(&trace, &cluster);
    let mha_busy = reports[3].server_busy_secs();
    let norm = mha_busy
        .iter()
        .copied()
        .filter(|&b| b > 0.0)
        .fold(f64::INFINITY, f64::min);
    let norm = if norm.is_finite() { norm } else { 1.0 };
    let mut fig = Figure::new(
        "fig8",
        "I/O time of each server (S0-S5 HServers, S6-S7 SServers), normalized",
        &SCHEME_NAMES,
        "x (norm. to min server under MHA)",
    );
    for server in 0..reports[0].per_server.len() {
        let values = reports
            .iter()
            .map(|r| r.server_busy_secs()[server] / norm)
            .collect();
        fig.push_row(format!("S{server}"), values);
    }
    fig
}

/// Fig. 9: IOR bandwidth with mixed process counts (one figure per op).
fn fig9(scale: Scale) -> Vec<Figure> {
    let mixes: [(&str, &[u32]); 4] =
        [("8", &[8]), ("8+32", &[8, 32]), ("16+64", &[16, 64]), ("32+128", &[32, 128])];
    let cluster = workloads::paper_cluster();
    [IoOp::Read, IoOp::Write]
        .into_iter()
        .map(|op| {
            let id = if op == IoOp::Read { "fig9r" } else { "fig9w" };
            let mut fig = Figure::new(
                id,
                &format!("IOR {} bandwidth with mixed process numbers", op.name()),
                &SCHEME_NAMES,
                "MB/s",
            );
            let rows: Vec<Vec<f64>> = mixes
                .par_iter()
                .map(|(_, procs)| {
                    let trace = workloads::ior_mixed_procs(procs, op, scale);
                    scheme_bandwidths(&trace, &cluster)
                })
                .collect();
            for ((label, _), row) in mixes.into_iter().zip(rows) {
                fig.push_row(label, row);
            }
            fig
        })
        .collect()
}

/// Fig. 10: IOR bandwidth across H:S server ratios (one figure per op).
fn fig10(scale: Scale) -> Vec<Figure> {
    let ratios = [(7usize, 1usize), (6, 2), (5, 3), (4, 4)];
    [IoOp::Read, IoOp::Write]
        .into_iter()
        .map(|op| {
            let id = if op == IoOp::Read { "fig10r" } else { "fig10w" };
            let mut fig = Figure::new(
                id,
                &format!("IOR {} bandwidth with various server ratios", op.name()),
                &SCHEME_NAMES,
                "MB/s",
            );
            let trace = workloads::ior_mixed_sizes(&[128, 256], op, scale);
            let rows: Vec<Vec<f64>> = ratios
                .par_iter()
                .map(|&(h, s)| {
                    let cluster = ClusterConfig::with_ratio(h, s);
                    scheme_bandwidths(&trace, &cluster)
                })
                .collect();
            for ((h, s), row) in ratios.into_iter().zip(rows) {
                fig.push_row(format!("{h}h:{s}s"), row);
            }
            fig
        })
        .collect()
}

/// Fig. 11: HPIO write bandwidth vs process count.
fn fig11(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let mut fig = Figure::new(
        "fig11",
        "HPIO bandwidth with various process numbers",
        &SCHEME_NAMES,
        "MB/s",
    );
    let procs_axis = [16u32, 32, 64];
    let rows: Vec<Vec<f64>> = procs_axis
        .par_iter()
        .map(|&procs| {
            let trace = workloads::hpio_trace(procs, IoOp::Write, scale);
            scheme_bandwidths(&trace, &cluster)
        })
        .collect();
    for (procs, row) in procs_axis.into_iter().zip(rows) {
        fig.push_row(format!("{procs} procs"), row);
    }
    fig
}

/// Fig. 12a: BTIO aggregate bandwidth (class B + C interleaved).
fn fig12a() -> Figure {
    let cluster = workloads::paper_cluster();
    let mut fig = Figure::new("fig12a", "BTIO aggregate bandwidth", &SCHEME_NAMES, "MB/s");
    let procs_axis = [9u32, 16, 25];
    let rows: Vec<Vec<f64>> = procs_axis
        .par_iter()
        .map(|&procs| {
            let trace = workloads::btio_trace(procs, IoOp::Write);
            scheme_bandwidths(&trace, &cluster)
        })
        .collect();
    for (procs, row) in procs_axis.into_iter().zip(rows) {
        fig.push_row(format!("{procs} procs"), row);
    }
    fig
}

/// Fig. 12b: LANL application trace replay.
fn fig12b(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let trace = workloads::lanl_trace(scale);
    let mut fig = Figure::new("fig12b", "LANL application bandwidth", &SCHEME_NAMES, "MB/s");
    fig.push_row("LANL", scheme_bandwidths(&trace, &cluster));
    fig
}

/// Fig. 13a: LU decomposition trace replay.
fn fig13a(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let trace = workloads::lu_trace(scale);
    let mut fig = Figure::new("fig13a", "LU decomposition bandwidth", &SCHEME_NAMES, "MB/s");
    fig.push_row("LU", scheme_bandwidths(&trace, &cluster));
    fig
}

/// Fig. 13b: sparse Cholesky trace replay.
fn fig13b(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let trace = workloads::cholesky_trace(scale);
    let mut fig = Figure::new("fig13b", "Sparse Cholesky bandwidth", &SCHEME_NAMES, "MB/s");
    fig.push_row("Cholesky", scheme_bandwidths(&trace, &cluster));
    fig
}

/// Fig. 14: redirection overhead — IOR 4 KiB + 64 KiB, redirecting every
/// request back to the original system (no reordering) vs direct access.
fn fig14(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let mut fig = Figure::new(
        "fig14",
        "MHA redirection overhead (no data reordering)",
        &["direct", "redirect", "overhead %"],
        "MB/s (first two)",
    );
    let mut session = ReplaySession::new();
    for procs in [8u32, 32, 128] {
        let trace = workloads::ior_overhead(procs, IoOp::Write, scale);
        let mut c1 = Cluster::new(cluster.clone());
        let direct = session
            .run(ReplayInput::trace(&mut c1, &trace, &mut IdentityResolver), CoreSel::Auto)
            .expect("fault-free replay cannot fail");
        let mut c2 = Cluster::new(cluster.clone());
        let mut null = NullRedirectResolver::with_default_cost();
        let redirect = session
            .run(ReplayInput::trace(&mut c2, &trace, &mut null), CoreSel::Auto)
            .expect("fault-free replay cannot fail");
        let d = direct.bandwidth_mbps();
        let r = redirect.bandwidth_mbps();
        fig.push_row(format!("{procs} procs"), vec![d, r, (d / r - 1.0) * 100.0]);
    }
    fig
}

/// Table I: the calibrated cost-model parameters.
fn tab1() -> Figure {
    let p = CostParams::paper_default();
    let mut fig = Figure::new(
        "tab1",
        "Calibrated cost model parameters (Table I)",
        &["value"],
        "seconds / seconds-per-byte / count",
    );
    fig.push_row("M (HServers)", vec![p.m as f64]);
    fig.push_row("N (SServers)", vec![p.n as f64]);
    fig.push_row("t (net s/B)", vec![p.t]);
    fig.push_row("alpha_h", vec![p.alpha_h]);
    fig.push_row("beta_h", vec![p.beta_h]);
    fig.push_row("alpha_sr", vec![p.alpha_sr]);
    fig.push_row("beta_sr", vec![p.beta_sr]);
    fig.push_row("alpha_sw", vec![p.alpha_sw]);
    fig.push_row("beta_sw", vec![p.beta_sw]);
    fig
}

/// §V-E.2: DRT meta-data space overhead for the worst case (all requests
/// 4 KiB), measured as the log bytes one committed generation of the
/// table takes in the pipeline store.
fn ovh() -> Figure {
    use mha_core::region::{Drt, DrtEntry, Rst};
    let path = std::env::temp_dir().join(format!("mha-ovh-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = mha_core::PipelineStore::open(&path).expect("open overhead store");
    let mut drt = Drt::new();
    let entries = 4096u64;
    for i in 0..entries {
        drt.insert(DrtEntry {
            o_file: iotrace::FileId(0),
            o_offset: i * 4096,
            r_file: iotrace::FileId(1 << 20),
            r_offset: i * 4096,
            length: 4096,
        });
    }
    store.save_tables(&drt, &Rst::new()).expect("save DRT");
    let log_bytes = store.store().stats().log_bytes;
    drop(store);
    let _ = std::fs::remove_file(&path);
    let data_bytes = entries * 4096;
    let per_entry = log_bytes as f64 / entries as f64;
    let mut fig = Figure::new(
        "ovh",
        "DRT meta-data space overhead, all-4KiB worst case",
        &["value"],
        "mixed",
    );
    fig.push_row("bytes per entry (on disk)", vec![per_entry]);
    fig.push_row("bytes per entry (paper, in memory)", vec![24.0]);
    fig.push_row("entries per GB of data", vec![(1u64 << 30) as f64 / 4096.0]);
    fig.push_row(
        "space overhead %",
        vec![log_bytes as f64 / data_bytes as f64 * 100.0],
    );
    fig
}

/// Ablation study (DESIGN.md §8): the simulated-bandwidth consequence of
/// each MHA design choice, on two contrasting workloads (LANL: mixed
/// sizes at fixed concurrency; IOR mixed-procs: fixed size at mixed
/// concurrency).
fn ablations(scale: Scale) -> Vec<Figure> {
    use mha_core::{GroupingConfig, RssdConfig};

    let cluster = workloads::paper_cluster();
    let workload_set: Vec<(&str, Trace)> = vec![
        ("LANL", workloads::lanl_trace(scale)),
        ("IOR 8+32 procs", workloads::ior_mixed_procs(&[8, 32], IoOp::Write, scale)),
    ];

    let mha_with = |trace: &Trace, tweak: &dyn Fn(&mut PlannerContext)| -> f64 {
        let mut ctx = workloads::context_for(trace, &cluster);
        tweak(&mut ctx);
        bandwidth(Scheme::Mha, trace, &cluster, &ctx)
    };

    let mut figs = Vec::new();

    // 1. k cap of Algorithm 1.
    let mut kfig = Figure::new(
        "abl_kcap",
        "Ablation: group bound k (regions available to MHA)",
        &["k=1", "k=2", "k=4", "k=8", "k=16"],
        "MB/s",
    );
    for (name, trace) in &workload_set {
        let row: Vec<f64> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&k| {
                mha_with(trace, &|ctx| {
                    ctx.grouping = GroupingConfig { k, ..ctx.grouping.clone() }
                })
            })
            .collect();
        kfig.push_row(*name, row);
    }
    figs.push(kfig);

    // 2. Adaptive vs fixed-r_max RSSD bounds.
    let mut bfig = Figure::new(
        "abl_bounds",
        "Ablation: adaptive RSSD bounds vs fixed r_max",
        &["adaptive", "fixed r_max"],
        "MB/s",
    );
    for (name, trace) in &workload_set {
        let row = vec![
            mha_with(trace, &|_| {}),
            mha_with(trace, &|ctx| {
                ctx.rssd = RssdConfig { adaptive_bounds: false, ..ctx.rssd.clone() }
            }),
        ];
        bfig.push_row(*name, row);
    }
    figs.push(bfig);

    // 3. RSSD step granularity.
    let mut sfig = Figure::new(
        "abl_step",
        "Ablation: RSSD search step",
        &["4 KiB", "16 KiB", "64 KiB"],
        "MB/s",
    );
    for (name, trace) in &workload_set {
        let row: Vec<f64> = [4u64 << 10, 16 << 10, 64 << 10]
            .iter()
            .map(|&step| {
                mha_with(trace, &|ctx| {
                    ctx.rssd = RssdConfig { step, ..ctx.rssd.clone() };
                })
            })
            .collect();
        sfig.push_row(*name, row);
    }
    figs.push(sfig);

    // 4. Concurrency feature in clustering: flatten concurrency to 1 so
    //    grouping sees size only (and the cost model loses phase depth).
    let mut cfig = Figure::new(
        "abl_features",
        "Ablation: (size, concurrency) features vs size-only",
        &["size+concurrency", "size only"],
        "MB/s",
    );
    for (name, trace) in &workload_set {
        let full = mha_with(trace, &|_| {});
        // Rewrite the trace so every record sits in its own phase:
        // concurrency collapses to 1 everywhere.
        let flattened = Trace::from_records(
            trace
                .records()
                .iter()
                .enumerate()
                .map(|(i, r)| iotrace::TraceRecord { phase: i as u32, ..r })
                .collect(),
        );
        let flat = {
            let mut ctx = workloads::context_for(&flattened, &cluster);
            let plan = Scheme::Mha.planner().plan(&flattened, &ctx);
            // Replay the REAL trace under the size-only plan.
            let mut c = Cluster::new(cluster.clone());
            mha_core::schemes::apply_plan(&mut c, &plan);
            ctx.lookup_cost = simrt::SimDuration::from_micros(5);
            let mut resolver = plan.make_resolver(ctx.lookup_cost);
            ReplaySession::new()
                .run(ReplayInput::trace(&mut c, trace, resolver.as_mut()), CoreSel::Auto)
                .expect("fault-free replay cannot fail")
                .bandwidth_mbps()
        };
        cfig.push_row(*name, vec![full, flat]);
    }
    figs.push(cfig);

    // 5. Concurrency-aware cost model vs HARL's concurrency-free model —
    //    the scheme comparison doubles as the cost-model ablation.
    let mut mfig = Figure::new(
        "abl_costmodel",
        "Ablation: concurrency-aware cost (MHA) vs concurrency-free (HARL)",
        &["MHA", "HARL"],
        "MB/s",
    );
    for (name, trace) in &workload_set {
        let ctx = workloads::context_for(trace, &cluster);
        mfig.push_row(
            *name,
            vec![
                bandwidth(Scheme::Mha, trace, &cluster, &ctx),
                bandwidth(Scheme::Harl, trace, &cluster, &ctx),
            ],
        );
    }
    figs.push(mfig);

    figs
}

/// Sensitivity study: how the MHA-vs-DEF margin and RSSD's HServer
/// engagement respond to the hardware ratios the paper's testbed fixed —
/// the "where do crossovers fall" record for EXPERIMENTS.md.
fn sensitivity(scale: Scale) -> Vec<Figure> {
    use mha_core::schemes::{LayoutPlanner, MhaPlanner};

    let trace = workloads::ior_mixed_sizes(&[128, 256], IoOp::Write, scale);

    let eval = |cluster: &ClusterConfig| -> (f64, f64, f64, f64) {
        let ctx = workloads::context_for(&trace, cluster);
        let def = bandwidth(Scheme::Def, &trace, cluster, &ctx);
        let harl = bandwidth(Scheme::Harl, &trace, cluster, &ctx);
        let mha = bandwidth(Scheme::Mha, &trace, cluster, &ctx);
        // Fraction of regions whose optimized pair engages HServers.
        let plan = MhaPlanner.plan(&trace, &ctx);
        let regions = plan.rst.len().max(1);
        let engaged = plan.rst.iter().filter(|(_, p)| p.h > 0).count();
        (def, harl, mha, engaged as f64 / regions as f64)
    };

    let mut figs = Vec::new();

    // SSD speed multiplier: slower SSDs shrink the H/S gap until HServers
    // re-enter the layouts (the paper's testbed sat nearer that point).
    let mut fig = Figure::new(
        "sens_ssd",
        "Sensitivity: SSD speed multiplier (IOR write, 128+256 KiB mix)",
        &["DEF", "HARL", "MHA", "h>0 region frac"],
        "MB/s (first three)",
    );
    for mult in [0.25f64, 0.5, 1.0, 2.0] {
        let mut cluster = workloads::paper_cluster();
        cluster.ssd.read_bps *= mult;
        cluster.ssd.write_bps *= mult;
        let (def, harl, mha, frac) = eval(&cluster);
        fig.push_row(format!("{mult}x"), vec![def, harl, mha, frac]);
    }
    figs.push(fig);

    // Network bandwidth multiplier: faster NICs raise the SSD ceiling and
    // widen MHA's margin; slower NICs compress every scheme together.
    let mut fig = Figure::new(
        "sens_net",
        "Sensitivity: network bandwidth multiplier (same workload)",
        &["DEF", "HARL", "MHA", "h>0 region frac"],
        "MB/s (first three)",
    );
    for mult in [0.5f64, 1.0, 2.0, 4.0] {
        let mut cluster = workloads::paper_cluster();
        cluster.link.bandwidth_bps *= mult;
        let (def, harl, mha, frac) = eval(&cluster);
        fig.push_row(format!("{mult}x"), vec![def, harl, mha, frac]);
    }
    figs.push(fig);

    figs
}

/// Collective-I/O study: the LANL loop issued independently vs through
/// two-phase collective buffering, under DEF and MHA. Aggregation
/// homogenizes the pattern, so it narrows the gap MHA exploits — and the
/// two optimizations compose.
fn collective(scale: Scale) -> Figure {
    use mpiio_sim::{CollectiveConfig, MpiJob, Piece};

    let loops = scale.reqs(32) as u64;
    let procs = 8u64;
    let cluster = workloads::paper_cluster();

    let independent = workloads::lanl_trace(scale);
    let collective = {
        let mut job = MpiJob::new(procs as u32);
        let f = job.open("lanl-coll");
        for i in 0..loops {
            let mut pieces = Vec::new();
            for p in 0..procs {
                let base = (i * procs + p) * 262_144;
                pieces.push(Piece { rank: p as u32, offset: base, len: 16 });
                pieces.push(Piece { rank: p as u32, offset: base + 16, len: 131_056 });
                pieces.push(Piece { rank: p as u32, offset: base + 131_072, len: 131_072 });
            }
            job.write_at_all(f, &pieces, &CollectiveConfig { aggregators: 8 });
        }
        job.finish()
    };

    let mut fig = Figure::new(
        "coll",
        "Collective (two-phase) vs independent I/O on the LANL loop",
        &["DEF", "MHA"],
        "MB/s",
    );
    for (label, trace) in [("independent", &independent), ("collective", &collective)] {
        let ctx = workloads::context_for(trace, &cluster);
        fig.push_row(
            label,
            vec![
                bandwidth(Scheme::Def, trace, &cluster, &ctx),
                bandwidth(Scheme::Mha, trace, &cluster, &ctx),
            ],
        );
    }
    fig
}

/// Dynamic-controller study (the paper's future work): DEF vs online MHA
/// vs the offline oracle on a drifting workload.
fn dynamic(scale: Scale) -> Figure {
    use iotrace::gen::ior::{generate as gen_ior, IorConfig};
    use mha_core::dynamic::{run_dynamic, DynamicConfig};

    let cluster = workloads::paper_cluster();
    let mut trace = workloads::lanl_trace(scale);
    let mut readback = IorConfig::default_run(IoOp::Read);
    readback.size_mix = vec![1 << 20];
    readback.reqs_per_proc = scale.reqs(64);
    trace.extend_with(&gen_ior(&readback));

    let ctx = workloads::context_for(&trace, &cluster);
    let def = bandwidth(Scheme::Def, &trace, &cluster, &ctx);
    let dynamic = run_dynamic(&cluster, &trace, &ctx, &DynamicConfig::default());
    let oracle = bandwidth(Scheme::Mha, &trace, &cluster, &ctx);

    let mut fig = Figure::new(
        "dyn",
        "Dynamic (online) MHA on a drifting workload (LANL writes → 1 MiB reads)",
        &["MB/s", "replans", "migrated MiB"],
        "mixed",
    );
    fig.push_row("DEF (never plan)", vec![def, 0.0, 0.0]);
    fig.push_row(
        "dynamic MHA",
        vec![
            dynamic.bandwidth_mbps(),
            dynamic.replans as f64,
            (dynamic.migrated_bytes >> 20) as f64,
        ],
    );
    fig.push_row("oracle MHA (offline)", vec![oracle, 0.0, 0.0]);
    fig
}

/// Fault-injection study (DESIGN.md §11): the four schemes plus a
/// health-aware MHA — re-planned around the servers the fault plan
/// degrades — across a matrix of degraded-cluster scenarios on the LANL
/// trace. The straggler and outage scenarios target an SServer because
/// MHA's LANL layouts lean on the SServers for the trace's small
/// requests; a degraded HServer barely moves a scheme that placed no
/// data there.
fn fault(scale: Scale) -> Figure {
    let cluster = workloads::paper_cluster();
    let trace = workloads::lanl_trace(scale);
    let ctx = workloads::context_for(&trace, &cluster);

    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("healthy", FaultPlan::none()),
        ("SServer straggler 8x", FaultPlan::none().slow_server(6, 8.0)),
        ("SServer outage 0-1s", FaultPlan::none().outage(6, 0.0, 1.0)),
        ("HServer down", FaultPlan::none().down(2, 0.0)),
        (
            "worn SSDs",
            FaultPlan::none()
                .degraded(6, DeviceProfile::WornSsd)
                .degraded(7, DeviceProfile::WornSsd),
        ),
    ];

    let mut fig = Figure::new(
        "fault",
        "Degraded-cluster bandwidth (LANL trace): static plans vs health-aware MHA",
        &["DEF", "AAL", "HARL", "MHA", "MHA+replan"],
        "MB/s",
    );
    // Scenario × scheme cells are independent; fan the scenarios out and
    // keep scheme order within each row.
    let rows: Vec<Vec<f64>> = scenarios
        .par_iter()
        .map(|(_, plan)| {
            let mut row: Vec<f64> = SCHEMES
                .iter()
                .map(|&s| {
                    Evaluation::of(s, &trace, &cluster)
                        .context(&ctx)
                        .faults(plan)
                        .report()
                        .bandwidth_mbps()
                })
                .collect();
            row.push(
                Evaluation::of(Scheme::Mha, &trace, &cluster)
                    .context(&ctx)
                    .faults(plan)
                    .replan_around_faults(true)
                    .report()
                    .bandwidth_mbps(),
            );
            row
        })
        .collect();
    for ((label, _), row) in scenarios.into_iter().zip(rows) {
        fig.push_row(label, row);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_aggregation_helps_def_and_homogenizes_the_pattern() {
        let f = collective(Scale::Quick);
        let ind_def = f.value("independent", "DEF").unwrap();
        let ind_mha = f.value("independent", "MHA").unwrap();
        let col_def = f.value("collective", "DEF").unwrap();
        let col_mha = f.value("collective", "MHA").unwrap();
        assert!(col_def > ind_def, "aggregation must help DEF");
        assert!(ind_mha > ind_def, "MHA shines on the heterogeneous stream");
        // Aggregation homogenizes the pattern: layout choice matters far
        // less, so MHA's margin collapses (it lands within the same band
        // as DEF rather than far above it).
        assert!(
            col_mha > col_def * 0.6 && col_mha < col_def * 1.6,
            "collective MHA {col_mha} vs DEF {col_def} should be in the same band"
        );
    }

    #[test]
    fn dynamic_quick_is_between_def_and_oracle() {
        let f = dynamic(Scale::Quick);
        let def = f.value("DEF (never plan)", "MB/s").unwrap();
        let dynb = f.value("dynamic MHA", "MB/s").unwrap();
        let oracle = f.value("oracle MHA (offline)", "MB/s").unwrap();
        assert!(dynb > def, "dynamic {dynb} vs DEF {def}");
        assert!(dynb <= oracle * 1.05, "dynamic {dynb} vs oracle {oracle}");
    }

    #[test]
    fn sensitivity_quick_runs_and_mha_leads_at_default() {
        let figs = sensitivity(Scale::Quick);
        assert_eq!(figs.len(), 2);
        let ssd = &figs[0];
        let mha = ssd.value("1x", "MHA").unwrap();
        let def = ssd.value("1x", "DEF").unwrap();
        assert!(mha > def, "MHA {mha} vs DEF {def} at default hardware");
        // Slower SSDs must pull HServers back into the layouts.
        let frac_slow = ssd.value("0.25x", "h>0 region frac").unwrap();
        let frac_fast = ssd.value("2x", "h>0 region frac").unwrap();
        assert!(
            frac_slow >= frac_fast,
            "HServer engagement should not grow with faster SSDs: slow={frac_slow} fast={frac_fast}"
        );
    }

    #[test]
    fn ablations_quick_produces_five_figures() {
        let figs = ablations(Scale::Quick);
        assert_eq!(figs.len(), 5);
        for f in &figs {
            assert_eq!(f.rows.len(), 2, "{}: two workloads", f.id);
            for row in &f.rows {
                assert!(row.values.iter().all(|&v| v > 0.0), "{}: {row:?}", f.id);
            }
        }
    }

    #[test]
    fn kcap_one_is_no_worse_than_none_but_loses_to_eight() {
        // With k = 1 every request lands in one region (no pattern
        // separation); k = 8 must be at least as good on LANL.
        let figs = ablations(Scale::Quick);
        let kfig = &figs[0];
        let k1 = kfig.value("LANL", "k=1").unwrap();
        let k8 = kfig.value("LANL", "k=8").unwrap();
        assert!(k8 >= k1 * 0.95, "k8={k8} k1={k1}");
    }

    #[test]
    fn fig3_shows_the_three_sizes() {
        let f = fig3();
        assert_eq!(f.rows.len(), 9);
        assert_eq!(f.rows[0].values[0], 16.0);
        assert_eq!(f.rows[1].values[0], 131_056.0);
        assert_eq!(f.rows[2].values[0], 131_072.0);
    }

    #[test]
    fn tab1_has_all_nine_parameters() {
        let f = tab1();
        assert_eq!(f.rows.len(), 9);
        assert_eq!(f.value("M (HServers)", "value"), Some(6.0));
        assert!(f.value("alpha_h", "value").unwrap() > f.value("alpha_sr", "value").unwrap());
    }

    #[test]
    fn ovh_is_about_one_percent() {
        let f = ovh();
        let pct = f.value("space overhead %", "value").unwrap();
        assert!(pct > 0.1 && pct < 3.0, "overhead {pct}%");
    }

    #[test]
    fn fig14_overhead_is_small() {
        let f = fig14(Scale::Quick);
        for row in &f.rows {
            let pct = row.values[2];
            assert!(pct >= 0.0, "{}: negative overhead {pct}", row.label);
            assert!(pct < 15.0, "{}: overhead {pct}% too large", row.label);
        }
    }

    #[test]
    fn fig12b_quick_preserves_scheme_ordering() {
        let f = fig12b(Scale::Quick);
        let def = f.value("LANL", "DEF").unwrap();
        let mha = f.value("LANL", "MHA").unwrap();
        let harl = f.value("LANL", "HARL").unwrap();
        assert!(mha > def, "MHA {mha} vs DEF {def}");
        assert!(mha >= harl * 0.95, "MHA {mha} should not trail HARL {harl}");
    }

    #[test]
    fn unknown_id_runs_nothing() {
        assert!(run("fig99", Scale::Quick).is_none());
        assert!(run("all", Scale::Quick).is_none(), "`all` is the harness's, not a row");
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let rows = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), rows, "duplicate experiment id in {ids:?}");
    }

    #[test]
    fn fault_replanning_recovers_bandwidth_under_sserver_straggler() {
        let f = fault(Scale::Quick);
        let blind = f.value("SServer straggler 8x", "MHA").unwrap();
        let replanned = f.value("SServer straggler 8x", "MHA+replan").unwrap();
        assert!(
            replanned > blind,
            "health-aware replanning must beat the blind plan: {replanned} vs {blind}"
        );
        // An empty plan makes replanning a no-op, bit for bit.
        let healthy = f.value("healthy", "MHA").unwrap();
        let healthy_replan = f.value("healthy", "MHA+replan").unwrap();
        assert_eq!(healthy, healthy_replan, "healthy replan must be identical");
    }

    #[test]
    fn fault_scenarios_degrade_but_never_stall_the_static_schemes() {
        let f = fault(Scale::Quick);
        for series in ["DEF", "AAL", "HARL", "MHA"] {
            let healthy = f.value("healthy", series).unwrap();
            for scenario in [
                "SServer straggler 8x",
                "SServer outage 0-1s",
                "HServer down",
                "worn SSDs",
            ] {
                let degraded = f.value(scenario, series).unwrap();
                assert!(
                    degraded <= healthy,
                    "{series}/{scenario}: {degraded} vs healthy {healthy}"
                );
                assert!(degraded > 0.0, "{series}/{scenario}: must still make progress");
            }
        }
        // DEF stripes over every server, so losing an HServer must hurt
        // it strictly (MHA's LANL layouts may not touch HServers at all).
        let def_healthy = f.value("healthy", "DEF").unwrap();
        let def_down = f.value("HServer down", "DEF").unwrap();
        assert!(def_down < def_healthy, "DEF: down {def_down} vs healthy {def_healthy}");
    }
}
