//! Scale experiment behind `results/history/BENCH_scale.json`: replay-core
//! throughput (records/sec) of the production lane core (`CoreSel::Auto`)
//! against the serial reference loop (`CoreSel::Serial`), on the paper's
//! cluster and versus cluster size, plus the bounded-memory 10M-record
//! streaming run.
//!
//! ```bash
//! cargo run -p mha-bench --release --bin scale            # full grid
//! cargo run -p mha-bench --release --bin scale -- --smoke # CI gate
//! ```
//!
//! The grid first replays three of the paper's workloads on its 8-server
//! cluster (`ClusterConfig::paper_default`): LANL App2 at 64 loops, IOR's
//! default run and BTIO at 16 processes, each phase 8 to 16 records
//! wide. It then weak-scales the paper's IOR write workload with the
//! cluster: 16 processes per server issuing 64 KiB random-offset
//! requests against one shared 64 GiB file (the paper's §V client :
//! server proportions, scaled out), at 64 / 256 / 1024 servers. Before
//! any timing, both cores replay the same trace and the full reports
//! are asserted identical — makespan, busy seconds and the
//! request-latency sum compared by bit pattern. Timing is best of N
//! (the suite runs on shared boxes; minimum is robust to steal time),
//! and the core that runs first alternates from rep to rep. Each row
//! prints both throughputs and the lane core's time as a multiple of
//! the reference's. The streaming case replays ~10 M generated records
//! without ever materializing the trace, and reports the process
//! high-water mark (`VmHWM`) as evidence the run stayed in bounded
//! memory.
//!
//! `--smoke` is the CI gate: a 1024-server, ~1 M-record streaming run
//! with the same identity assertion on a materialized prefix — it
//! catches panics, identity drift and memory blow-ups in about a
//! minute, without the full grid's runtime.

use iotrace::gen::ior::{self, generate, IorConfig};
use iotrace::gen::{btio, lanl};
use iotrace::Trace;
use pfs_sim::{Cluster, ClusterConfig, CoreSel, IdentityResolver, ReplayInput, ReplaySession};
use std::time::Instant;
use storage_model::IoOp;

/// Process high-water resident set in KiB (Linux); 0 where unreadable.
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// The weak-scaled IOR write workload: `procs` ranks, 64 KiB requests
/// at random offsets in one shared 64 GiB file, `reqs` barrier phases.
fn workload(procs: u32, reqs: usize) -> IorConfig {
    let mut cfg = IorConfig::default_run(IoOp::Write);
    cfg.proc_mix = vec![procs];
    cfg.reqs_per_proc = reqs;
    cfg.file_size = 64 << 30;
    cfg
}

fn cluster_of(servers: usize, clients: usize) -> Cluster {
    // The paper's 3:1 HServer:SServer ratio, scaled out.
    Cluster::new(ClusterConfig {
        clients,
        ..ClusterConfig::with_ratio(servers * 3 / 4, servers / 4)
    })
}

/// One grid row: identity check, then best of `reps` of each core, the
/// first core alternating per rep.
fn grid_row(label: &str, trace: &Trace, mut cluster: Cluster, reps: usize) {
    let mut session = ReplaySession::new();
    let mut run = |core| {
        let t = Instant::now();
        let report = session
            .run(ReplayInput::trace(&mut cluster, trace, &mut IdentityResolver), core)
            .unwrap();
        (report, t.elapsed().as_secs_f64())
    };
    // Identity is the precondition for timing: a fast wrong core is
    // worthless. `assert!` keeps a failure from printing every server.
    let (reference, _) = run(CoreSel::Serial);
    let (lane, _) = run(CoreSel::Auto);
    assert!(reference == lane, "grid {label}: reference and lane reports differ");

    let mut dt_reference = f64::MAX;
    let mut dt_lane = f64::MAX;
    for rep in 0..reps {
        let order = if rep % 2 == 0 {
            [CoreSel::Serial, CoreSel::Auto]
        } else {
            [CoreSel::Auto, CoreSel::Serial]
        };
        for core in order {
            let dt = run(core).1;
            let best = if core == CoreSel::Serial { &mut dt_reference } else { &mut dt_lane };
            *best = best.min(dt);
        }
    }
    let n = trace.len() as f64;
    println!(
        "[grid] {label:12} servers={:5} records={:9} reference={:9.0} rec/s  lane={:9.0} rec/s  lane/reference time={:5.2}x  (identity asserted)",
        lane.per_server.len(),
        trace.len(),
        n / dt_reference,
        n / dt_lane,
        dt_lane / dt_reference,
    );
}

/// A weak-scaled grid row: `servers` servers, 16 processes per server,
/// `reqs` barrier phases.
fn weak_row(servers: usize, reqs: usize) {
    let procs = 16 * servers as u32;
    grid_row("ior-weak", &generate(&workload(procs, reqs)), cluster_of(servers, servers * 4), 10);
}

/// The streaming case: generate-and-replay `procs * reqs` records with
/// no full-trace materialization, report throughput and peak memory.
fn streaming_case(servers: usize, procs: u32, reqs: usize, iters: usize) {
    let cfg = workload(procs, reqs);
    let mut cluster = cluster_of(servers, (procs / 4) as usize);
    let mut session = ReplaySession::new();
    let mut dt = f64::MAX;
    let mut n = 0usize;
    for _ in 0..iters {
        let t = Instant::now();
        let r = session
            .run(ReplayInput::stream(&mut cluster, &mut ior::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        dt = dt.min(t.elapsed().as_secs_f64());
        n = r.requests;
    }
    println!(
        "[stream] servers={servers:4} records={n:9} e2e={:9.0} rec/s  vm_hwm={} KiB",
        n as f64 / dt,
        vm_hwm_kib(),
    );
}

/// CI smoke: identity on a materialized prefix, then a ~1M-record
/// 1024-server streaming run. Panics (and so fails the gate) on any
/// divergence; prints the throughput and high-water mark it saw.
fn smoke() {
    let servers = 1024;
    let procs = 16384u32;

    // Identity gate on a materialized prefix of the same workload.
    let cfg = workload(procs, 3);
    let trace = generate(&cfg);
    let mut cluster = cluster_of(servers, (procs / 4) as usize);
    let mut session = ReplaySession::new();
    let serial = session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Serial).unwrap();
    let sharded = session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Sharded).unwrap();
    assert!(serial == sharded, "smoke: serial and sharded reports differ");
    let streamed = session
        .run(ReplayInput::stream(&mut cluster, &mut ior::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
        .unwrap();
    assert!(serial == streamed, "smoke stream: serial and streamed reports differ");
    println!("[smoke] identity: serial == sharded == streamed on {} records", trace.len());

    // ~1M records, streamed, single pass.
    streaming_case(servers, procs, 60, 1);
    println!("[smoke] ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    // The paper's cluster and workloads: 8 to 16 records per phase.
    let paper = || Cluster::new(ClusterConfig::paper_default());
    grid_row("lanl", &lanl::generate(&lanl::LanlConfig::paper(64, IoOp::Write)), paper(), 15);
    grid_row("ior", &generate(&IorConfig::default_run(IoOp::Write)), paper(), 15);
    grid_row("btio", &btio::generate(&btio::BtioConfig::paper(16, IoOp::Write)), paper(), 15);
    // Weak-scaling grid: 16 processes per server, 25 barrier phases.
    weak_row(64, 25);
    weak_row(256, 25);
    weak_row(1024, 25);
    // The tentpole target: ~10M records at 1024 servers, streamed.
    streaming_case(1024, 16384, 600, 3);
}
