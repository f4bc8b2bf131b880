//! Dynamic (online) MHA — the paper's future-work extension — on a
//! workload whose access pattern *changes mid-run*: a LANL-style
//! checkpoint phase followed by a large-request uniform read-back phase.
//!
//! The controller replays in epochs, re-planning (and paying real
//! migration I/O) only when the observed pattern drifts.
//!
//! ```text
//! cargo run --release --example adaptive_online
//! ```

use mha::iotrace::gen::ior::{generate as gen_ior, IorConfig};
use mha::iotrace::gen::lanl::{generate as gen_lanl, LanlConfig};
use mha::mha_core::dynamic::{run_dynamic, DynamicConfig};
use mha::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    let ctx = PlannerContext::for_cluster(&cluster);

    // Phase change mid-run: small+large mixed writes, then 1 MiB reads.
    let mut trace = gen_lanl(&LanlConfig::paper(24, IoOp::Write));
    let mut readback = IorConfig::default_run(IoOp::Read);
    readback.size_mix = vec![1 << 20];
    readback.reqs_per_proc = 64;
    trace.extend_with(&gen_ior(&readback));

    println!(
        "workload: {} requests over {} phases (pattern changes mid-run)\n",
        trace.len(),
        TraceStats::of(&trace).phases
    );

    let report = run_dynamic(&cluster, &trace, &ctx, &DynamicConfig::default());

    println!(
        "{:>5} {:>9} {:>12} {:>11} {:>10} {:>13}",
        "epoch", "requests", "epoch MB/s", "replanned", "migrated", "mig. time"
    );
    for e in &report.epochs {
        let bw = if e.io_time.is_zero() {
            0.0
        } else {
            e.bytes as f64 / 1e6 / e.io_time.as_secs_f64()
        };
        println!(
            "{:>5} {:>9} {:>12.1} {:>11} {:>9}K {:>13}",
            e.epoch,
            e.requests,
            bw,
            if e.replanned { "yes" } else { "-" },
            e.migrated_bytes >> 10,
            format!("{}", e.migration_time),
        );
    }

    // Compare against the static extremes.
    let def = Evaluation::of(Scheme::Def, &trace, &cluster).context(&ctx).report();
    let oracle = Evaluation::of(Scheme::Mha, &trace, &cluster).context(&ctx).report();
    println!("\n{:<26} {:>10}", "strategy", "MB/s");
    println!("{:<26} {:>10.1}", "DEF (never plan)", def.bandwidth_mbps());
    println!(
        "{:<26} {:>10.1}  ({} replans, {} MiB migrated)",
        "dynamic MHA (online)",
        report.bandwidth_mbps(),
        report.replans,
        report.migrated_bytes >> 20
    );
    println!(
        "{:<26} {:>10.1}  (plans from the full trace)",
        "oracle MHA (offline)",
        oracle.bandwidth_mbps()
    );
}
