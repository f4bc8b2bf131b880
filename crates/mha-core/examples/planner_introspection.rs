//! Planner introspection: print, for each scheme and a set of workloads,
//! the chosen layouts, the per-server load they produce, and the
//! resulting bandwidth — the debugging view used while calibrating the
//! reproduction.
//!
//! ```text
//! cargo run -p mha-core --release --example planner_introspection [workload]
//! ```
//! workload ∈ {lanl, lu, hpio} (default: lanl)

use iotrace::{Trace, TraceStats};
use mha_core::schemes::{Evaluation, PlannerContext, Scheme};
use pfs_sim::ClusterConfig;
use storage_model::IoOp;

fn workload(name: &str) -> Trace {
    match name {
        "lu" => iotrace::gen::lu::generate(&iotrace::gen::lu::LuConfig::default()),
        "hpio" => {
            let mut cfg = iotrace::gen::hpio::HpioConfig::paper(32, IoOp::Write);
            cfg.region_count = 1024;
            iotrace::gen::hpio::generate(&cfg)
        }
        _ => iotrace::gen::lanl::generate(&iotrace::gen::lanl::LanlConfig::paper(12, IoOp::Write)),
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lanl".into());
    let cfg = ClusterConfig::paper_default();
    let ctx = PlannerContext::for_cluster(&cfg);
    let trace = workload(&name);
    println!(
        "workload {name}: {} requests, {} phases, {} bytes",
        trace.len(),
        TraceStats::of(&trace).phases,
        trace.total_bytes()
    );
    println!("cost model: {:?}\n", ctx.params);

    for scheme in Scheme::all() {
        let plan = scheme.planner().plan(&trace, &ctx);
        let report = Evaluation::of(scheme, &trace, &cfg).context(&ctx).report();
        println!(
            "== {:<4} bw={:>7.1} MB/s  makespan={}  regions={}",
            scheme.name(),
            report.bandwidth_mbps(),
            report.makespan,
            plan.regions.len()
        );
        for (file, pair) in plan.rst.iter().take(10) {
            println!("   region {:?}: <h={}, s={}>", file, pair.h, pair.s);
        }
        if plan.rst.len() > 10 {
            println!("   ... {} more regions", plan.rst.len() - 10);
        }
        for s in &report.per_server {
            println!(
                "   srv{} {:?}: busy={:>9}  read={:>10}B  written={:>10}B  subs={}",
                s.server,
                s.kind,
                format!("{}", s.busy),
                s.bytes_read,
                s.bytes_written,
                s.served
            );
        }
    }
}
