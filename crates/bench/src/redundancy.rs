//! The redundancy study behind `results/redundancy{,_detail}.json`:
//! replication and erasure coding versus plain striping across healthy,
//! one-loss-degraded, and rebuilding clusters.
//!
//! Four series replay the same 1 MiB-request IOR read workload:
//!
//! * **DEF** — the PFS default round-robin stripe (no plan),
//! * **MHA** — the paper's planned layout, striped,
//! * **MHA+3x** — the MHA plan with 3-way replication attached to every
//!   region layout,
//! * **MHA+EC(4+2)** — the MHA plan with 4+2 erasure coding attached.
//!
//! Three scenarios stress them:
//!
//! * **healthy** — no faults. Redundant reads pick their primaries, so
//!   the MHA rows must be *bit-identical* (asserted).
//! * **one-loss degraded** — an HServer is permanently lost at t = 0.
//!   The striped series limp through dead-server timeouts; the
//!   redundant series must complete with **zero** timeouts — replicated
//!   reads fail over, EC reads reconstruct from surviving shards
//!   (asserted, plus serial == sharded bit-identity per cell).
//! * **rebuilding onto spare** — the lost server's redundant data has
//!   been reconstructed onto a spare SServer through the journaled
//!   [`mha_core::rebuild_onto_spare`] flow, and the spare runs 2× slow
//!   (absorbing rebuild traffic). Swapped layouts must replay with no
//!   degraded reads and no timeouts (asserted).
//!
//! The cluster is 6 HServers + 3 SServers; the planner is scoped to the
//! paper's 6+2 shape so SServer 8 stays empty — that's the spare. DEF,
//! which plans nothing, stripes over all nine servers (the PFS default
//! knows nothing about spares).

use crate::report::Figure;
use crate::workloads::Scale;
use iotrace::gen::ior::{generate, IorConfig};
use iotrace::{FileId, TenantId, Trace};
use mha_core::{
    apply_plan, rebuild_onto_spare, PipelineStore, Plan, PlannerContext, RebuildOutcome, Scheme,
};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, FaultPlan, Placement, ReplayInput, ReplayReport,
    ReplaySession, ServerId,
};
use storage_model::IoOp;

/// The permanently lost server (an HServer every planned layout uses).
const VICTIM: usize = 2;
/// The spare the rebuild targets (the SServer the planner never uses).
const SPARE: usize = 8;

fn cluster_config() -> ClusterConfig {
    ClusterConfig::with_ratio(6, 3)
}

fn workload(scale: Scale) -> Trace {
    let (procs, reqs) = match scale {
        Scale::Full => (16, 48),
        Scale::Quick => (8, 8),
    };
    generate(&IorConfig {
        proc_mix: vec![procs],
        size_mix: vec![1 << 20],
        file_size: 4 << 30,
        reqs_per_proc: reqs,
        op: IoOp::Read,
        random_offsets: true,
        seed: 0x8ED,
    })
}

/// Replay one (plan, fault) cell on both cores, assert bit-identity,
/// return the report.
fn replay_cell(
    cfg: &ClusterConfig,
    plan: &Plan,
    ctx: &PlannerContext,
    trace: &Trace,
    faults: &FaultPlan,
    what: &str,
) -> ReplayReport {
    let mut cluster = Cluster::new(cfg.clone());
    apply_plan(&mut cluster, plan);
    let mut resolver = plan.make_resolver(ctx.lookup_cost);
    let mut session = ReplaySession::new();
    session.set_fault_plan(faults.clone());
    let serial = session
        .run(ReplayInput::trace(&mut cluster, trace, resolver.as_mut()), CoreSel::Serial)
        .expect("replay");
    let sharded = session
        .run(ReplayInput::trace(&mut cluster, trace, resolver.as_mut()), CoreSel::Sharded)
        .expect("replay");
    // Every observable must match bit for bit: the degraded-equivalence
    // gate of the two replay cores, redundancy accounting included.
    assert!(serial == sharded, "{what}: serial and sharded reports differ");
    serial
}

/// Rebuild `plan`'s redundant layouts from the victim onto the spare
/// through the journaled flow, returning the swapped plan and the
/// rebuild's byte accounting.
fn rebuilt(plan: &Plan, tag: &str) -> (Plan, RebuildOutcome) {
    let sizes: Vec<(FileId, u64)> = plan.regions.iter().map(|r| (r.file, r.len)).collect();
    let path =
        std::env::temp_dir().join(format!("mha-bench-rebuild-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = PipelineStore::open(&path).expect("open rebuild store");
    let mut layouts = plan.layouts.clone();
    let outcome = rebuild_onto_spare(
        store.tenant(TenantId(0)),
        &mut layouts,
        &sizes,
        ServerId(VICTIM),
        ServerId(SPARE),
    )
    .expect("rebuild");
    drop(store);
    let _ = std::fs::remove_file(&path);
    (Plan { layouts, ..plan.clone() }, outcome)
}

/// Run the study and return its two figures. Panics if any acceptance
/// property is violated.
pub(crate) fn study(scale: Scale) -> Vec<Figure> {
    let cfg = cluster_config();
    let trace = workload(scale);
    let mut ctx = crate::workloads::context_for(&trace, &cfg);
    // Scope the planner to the paper's 6+2 shape: SServer 8 stays out of
    // every planned layout and serves as the rebuild spare.
    ctx.params = ctx.params.with_shape(6, 2);

    let def = Scheme::Def.planner().plan(&trace, &ctx);
    let mha = Scheme::Mha.planner().plan(&trace, &ctx);
    let rep = mha.clone().with_placement(Placement::Replicated(3));
    let ec = mha.clone().with_placement(Placement::ErasureCoded(4, 2));
    assert!(!mha.layouts.is_empty(), "MHA must plan region layouts");
    assert_eq!(
        rep.redundant_layouts(),
        rep.layouts.len(),
        "every MHA region layout must carry 3x replication"
    );
    assert_eq!(
        ec.redundant_layouts(),
        ec.layouts.len(),
        "every MHA region layout must carry EC(4+2)"
    );

    let healthy = FaultPlan::none();
    let one_loss = FaultPlan::none().down(VICTIM, 0.0);
    let rebuilding = FaultPlan::none().down(VICTIM, 0.0).slow_server(SPARE, 2.0);

    // --- healthy -------------------------------------------------------
    let h_def = replay_cell(&cfg, &def, &ctx, &trace, &healthy, "healthy DEF");
    let h_mha = replay_cell(&cfg, &mha, &ctx, &trace, &healthy, "healthy MHA");
    let h_rep = replay_cell(&cfg, &rep, &ctx, &trace, &healthy, "healthy 3x");
    let h_ec = replay_cell(&cfg, &ec, &ctx, &trace, &healthy, "healthy EC");
    // Healthy redundant reads pick their primaries: bit-identical to the
    // striped MHA replay.
    assert_eq!(h_mha.makespan, h_rep.makespan, "healthy 3x must match striped MHA");
    assert_eq!(h_mha.makespan, h_ec.makespan, "healthy EC must match striped MHA");

    // --- one permanent loss, degraded reads ----------------------------
    let d_def = replay_cell(&cfg, &def, &ctx, &trace, &one_loss, "degraded DEF");
    let d_mha = replay_cell(&cfg, &mha, &ctx, &trace, &one_loss, "degraded MHA");
    let d_rep = replay_cell(&cfg, &rep, &ctx, &trace, &one_loss, "degraded 3x");
    let d_ec = replay_cell(&cfg, &ec, &ctx, &trace, &one_loss, "degraded EC");
    let total = trace.total_bytes();
    assert!(d_def.counters.timeouts > 0, "striped DEF must hit dead-server timeouts");
    assert!(d_mha.counters.timeouts > 0, "striped MHA must hit dead-server timeouts");
    for (r, what) in [(&d_rep, "3x"), (&d_ec, "EC")] {
        assert_eq!(r.counters.timeouts, 0, "degraded {what} must complete without timeouts");
        assert_eq!(r.total_bytes, total, "degraded {what} must move every byte");
    }
    assert!(d_rep.counters.failovers > 0, "replication must fail reads over");
    assert_eq!(d_rep.counters.degraded_reads, 0, "replication reconstructs nothing");
    assert!(d_ec.counters.degraded_reads > 0, "EC must reconstruct degraded reads");
    assert!(d_ec.counters.reconstructed_bytes > 0, "EC must count reconstructed bytes");

    // --- rebuilding onto the spare -------------------------------------
    let (rep_rb, rep_out) = rebuilt(&rep, "3x");
    let (ec_rb, ec_out) = rebuilt(&ec, "ec");
    assert_eq!(rep_out.files, rep.layouts.len(), "3x rebuild covers every layout");
    assert_eq!(ec_out.files, ec.layouts.len(), "EC rebuild covers every layout");
    assert!(ec_out.bytes_read > ec_out.bytes_written, "EC reads k shards per lost byte");
    let r_def = replay_cell(&cfg, &def, &ctx, &trace, &rebuilding, "rebuilding DEF");
    let r_mha = replay_cell(&cfg, &mha, &ctx, &trace, &rebuilding, "rebuilding MHA");
    let r_rep = replay_cell(&cfg, &rep_rb, &ctx, &trace, &rebuilding, "rebuilding 3x");
    let r_ec = replay_cell(&cfg, &ec_rb, &ctx, &trace, &rebuilding, "rebuilding EC");
    for (r, what) in [(&r_rep, "3x"), (&r_ec, "EC")] {
        assert_eq!(r.counters.timeouts, 0, "rebuilt {what} must not touch the dead server");
        assert_eq!(r.counters.degraded_reads, 0, "rebuilt {what} reads are whole again");
        assert_eq!(r.total_bytes, total, "rebuilt {what} must move every byte");
    }
    // Replicated reads are speed-aware: primaries now living on the
    // 2x-slow spare are read from a faster replica instead (counted as
    // failovers — routing, not reconstruction). EC has no such choice;
    // with every home alive it never reconstructs.
    assert_eq!(r_ec.counters.failovers, 0, "rebuilt EC homes are all live");

    // --- figures -------------------------------------------------------
    let series = ["DEF", "MHA", "MHA+3x", "MHA+EC(4+2)"];
    let mut bw = Figure::new(
        "redundancy",
        "Redundant layouts under permanent server loss (1 MiB IOR reads)",
        &series,
        "MB/s",
    );
    let row = |a: &ReplayReport, b: &ReplayReport, c: &ReplayReport, d: &ReplayReport| {
        vec![a.bandwidth_mbps(), b.bandwidth_mbps(), c.bandwidth_mbps(), d.bandwidth_mbps()]
    };
    bw.push_row("healthy", row(&h_def, &h_mha, &h_rep, &h_ec));
    bw.push_row("one-loss degraded", row(&d_def, &d_mha, &d_rep, &d_ec));
    bw.push_row("rebuilding onto spare", row(&r_def, &r_mha, &r_rep, &r_ec));

    let mut detail = Figure::new(
        "redundancy_detail",
        "Redundancy accounting of the one-loss and rebuild runs",
        &series,
        "mixed",
    );
    let mb = 1.0 / 1e6;
    detail.push_row(
        "storage overhead (x)",
        vec![
            Placement::Striped.storage_overhead(),
            Placement::Striped.storage_overhead(),
            Placement::Replicated(3).storage_overhead(),
            Placement::ErasureCoded(4, 2).storage_overhead(),
        ],
    );
    detail.push_row(
        "timeouts (one-loss)",
        vec![
            d_def.counters.timeouts as f64,
            d_mha.counters.timeouts as f64,
            d_rep.counters.timeouts as f64,
            d_ec.counters.timeouts as f64,
        ],
    );
    detail.push_row(
        "replica failovers (one-loss)",
        vec![0.0, 0.0, d_rep.counters.failovers as f64, d_ec.counters.failovers as f64],
    );
    detail.push_row(
        "degraded reads (one-loss)",
        vec![0.0, 0.0, d_rep.counters.degraded_reads as f64, d_ec.counters.degraded_reads as f64],
    );
    detail.push_row(
        "reconstructed MB (one-loss)",
        vec![
            0.0,
            0.0,
            d_rep.counters.reconstructed_bytes as f64 * mb,
            d_ec.counters.reconstructed_bytes as f64 * mb,
        ],
    );
    detail.push_row(
        "rebuild read MB",
        vec![0.0, 0.0, rep_out.bytes_read as f64 * mb, ec_out.bytes_read as f64 * mb],
    );
    detail.push_row(
        "rebuild written MB",
        vec![0.0, 0.0, rep_out.bytes_written as f64 * mb, ec_out.bytes_written as f64 * mb],
    );

    vec![bw, detail]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale study is the CI smoke gate: every acceptance
    /// assertion (degraded completion, bit-identity, rebuild coverage)
    /// runs inside `study`.
    #[test]
    fn quick_study_passes_all_acceptance_assertions() {
        let figs =
            crate::experiments::run("redundancy", Scale::Quick).expect("redundancy is an id");
        assert_eq!(figs.len(), 2);
        let detail = &figs[1];
        let rebuild = |label: &str| -> f64 {
            ["MHA+3x", "MHA+EC(4+2)"].iter().map(|s| detail.value(label, s).expect(label)).sum()
        };
        let read = rebuild("rebuild read MB");
        let written = rebuild("rebuild written MB");
        assert!(written > 0.0);
        assert!(read > written, "EC shard reads dominate");
        // The degraded redundant runs stay within the healthy ballpark
        // (no timeout cliffs): degraded bandwidth is positive and the
        // striped schemes show the timeout cliff the redundancy avoids.
        let bw = &figs[0];
        let d_mha = bw.value("one-loss degraded", "MHA").unwrap();
        let d_rep = bw.value("one-loss degraded", "MHA+3x").unwrap();
        let d_ec = bw.value("one-loss degraded", "MHA+EC(4+2)").unwrap();
        assert!(d_rep > d_mha, "failover must beat timeout-limping ({d_rep} vs {d_mha})");
        assert!(d_ec > d_mha, "reconstruction must beat timeout-limping ({d_ec} vs {d_mha})");
    }
}
