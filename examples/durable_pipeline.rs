//! Durable pipeline: plan once, persist the planner output through the
//! crash-consistent [`PipelineStore`], simulate a process restart, and
//! replay from the reloaded plan — verifying the round trip reproduces
//! the original run bit for bit.
//!
//! Also demonstrates the recovery entry point: `recover` inspects one
//! tenant's namespace of the store on startup, rolls forward any migration batches whose journal
//! records committed before a crash, and discards the rest.
//!
//! ```text
//! cargo run --release --example durable_pipeline
//! ```

use mha::prelude::*;

fn replay_under(plan: &Plan, trace: &Trace, cluster: &ClusterConfig) -> pfs_sim::ReplayReport {
    let mut c = Cluster::new(cluster.clone());
    apply_plan(&mut c, plan);
    let mut resolver = plan.make_resolver(SimDuration::from_micros(5));
    ReplaySession::new()
        .run(ReplayInput::trace(&mut c, trace, resolver.as_mut()), CoreSel::Auto)
        .expect("fault-free replay cannot fail")
}

fn main() {
    let cluster = ClusterConfig::paper_default();
    let trace = mha::iotrace::gen::lanl::generate(
        &mha::iotrace::gen::lanl::LanlConfig::paper(8, IoOp::Write),
    );
    let ctx = PlannerContext::for_cluster(&cluster);

    // ---- first process: profile, plan, persist, run ----------------------
    let plan = Scheme::Mha.planner().plan(&trace, &ctx);
    let path = std::env::temp_dir().join(format!("mha-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first_run = {
        let store = PipelineStore::open(&path).expect("open pipeline store");
        let generation = store.tenant(TenantId(0)).save_plan(&plan).expect("persist plan");
        println!(
            "persisted {:?} plan as generation {generation}: {} layouts, {} RST rows, {} regions",
            plan.scheme,
            plan.layouts.len(),
            plan.rst.len(),
            plan.regions.len()
        );
        replay_under(&plan, &trace, &cluster)
    }; // store handle dropped — the "process" exits here

    // ---- restarted process: recover, reload, replay ----------------------
    let store = PipelineStore::open(&path).expect("reopen pipeline store");
    let store = store.tenant(TenantId(0));
    let outcome = recover(store).expect("recovery scan");
    println!(
        "recovery: {} batches rolled forward, {} discarded (clean shutdown → 0/0)",
        outcome.rolled_forward, outcome.discarded_batches
    );

    let reloaded = store
        .load_plan()
        .expect("read committed plan")
        .expect("a committed plan is present");
    let second_run = replay_under(&reloaded, &trace, &cluster);

    println!(
        "\n{:<10} {:>12} {:>14} {:>12}",
        "run", "makespan", "bandwidth", "MDS lookups"
    );
    for (name, r) in [("original", &first_run), ("restarted", &second_run)] {
        println!(
            "{:<10} {:>12} {:>11.1} MB/s {:>12}",
            name,
            format!("{}", r.makespan),
            r.bandwidth_mbps(),
            r.mds_lookups
        );
    }

    assert_eq!(first_run.makespan, second_run.makespan, "makespan must survive the restart");
    assert_eq!(
        first_run.request_latency.sum().to_bits(),
        second_run.request_latency.sum().to_bits(),
        "latency accounting must survive the restart"
    );
    println!("\nrestarted run is bit-identical to the original ✓");

    let _ = std::fs::remove_file(&path);
}
