//! Scale experiment behind `results/history/BENCH_scale.json`: replay-core
//! throughput (records/sec) versus cluster size on the sharded versus
//! serial cores, plus the bounded-memory 10M-record streaming run.
//!
//! ```bash
//! cargo run -p mha-bench --release --bin scale            # full grid
//! cargo run -p mha-bench --release --bin scale -- --smoke # CI gate
//! ```
//!
//! The grid weak-scales the paper's IOR write workload with the
//! cluster: 16 processes per server issuing 64 KiB random-offset
//! requests against one shared 64 GiB file (the paper's §V client :
//! server proportions, scaled out), at 64 / 256 / 1024 servers. Before
//! any timing, the serial and sharded cores replay the same trace and
//! the full reports are asserted identical — makespan, busy seconds and
//! the request-latency sum compared by bit pattern. Timing is best of
//! 10 (the suite runs on shared boxes; minimum is robust to steal
//! time). The streaming case replays ~10 M generated records through
//! `run_stream` without ever materializing a `Vec<TraceRecord>`, and
//! reports the process high-water mark (`VmHWM`) as evidence the run
//! stayed in bounded memory.
//!
//! `--smoke` is the CI gate: a 1024-server, ~1 M-record streaming run
//! with the same identity assertion on a materialized prefix — it
//! catches panics, identity drift and memory blow-ups in about a
//! minute, without the full grid's runtime.

use iotrace::gen::ior::{self, generate, IorConfig};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, IdentityResolver, ReplayInput, ReplayReport, ReplaySession,
};
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

/// Every observable of the two reports must match — by bit pattern for
/// the float statistics. Identity is the precondition for timing: a
/// fast wrong core is worthless.
fn assert_identical(serial: &ReplayReport, sharded: &ReplayReport, what: &str) {
    assert_eq!(serial.makespan, sharded.makespan, "{what}: makespan");
    assert_eq!(serial.requests, sharded.requests, "{what}: requests");
    assert_eq!(serial.total_bytes, sharded.total_bytes, "{what}: bytes");
    assert_eq!(serial.mds_lookups, sharded.mds_lookups, "{what}: mds");
    assert_eq!(
        serial.server_busy_secs(),
        sharded.server_busy_secs(),
        "{what}: busy"
    );
    assert_eq!(
        serial.request_latency.sum().to_bits(),
        sharded.request_latency.sum().to_bits(),
        "{what}: latency sum"
    );
    assert_eq!(
        serial.request_latency.max().to_bits(),
        sharded.request_latency.max().to_bits(),
        "{what}: latency max"
    );
}

/// One grid row: identity check, then best-of-10 of each core.
fn grid_row(servers: usize, procs: u32, reqs: usize) {
    let cfg = workload(procs, reqs);
    let trace = generate(&cfg);
    let mut cluster = cluster_of(servers, (procs / 4) as usize);
    let mut session = ReplaySession::new();

    let serial = session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Auto).unwrap();
    let sharded = session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Sharded).unwrap();
    assert_identical(&serial, &sharded, "grid");

    let mut dt_serial = f64::MAX;
    let mut dt_sharded = f64::MAX;
    for _ in 0..10 {
        let t = Instant::now();
        session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Auto).unwrap();
        dt_serial = dt_serial.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Sharded).unwrap();
        dt_sharded = dt_sharded.min(t.elapsed().as_secs_f64());
    }
    let n = trace.len() as f64;
    println!(
        "[grid] servers={servers:5} records={:9} serial={:9.0} rec/s  sharded={:9.0} rec/s  (identity asserted)",
        trace.len(),
        n / dt_serial,
        n / dt_sharded,
    );
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
    let serial = session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Auto).unwrap();
    let sharded = session.run(ReplayInput::trace(&mut cluster, &trace, &mut IdentityResolver), CoreSel::Sharded).unwrap();
    assert_identical(&serial, &sharded, "smoke");
    let streamed = session
        .run(ReplayInput::stream(&mut cluster, &mut ior::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
        .unwrap();
    assert_identical(&serial, &streamed, "smoke stream");
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
    // Weak-scaling grid: 16 processes per server, 25 barrier phases.
    grid_row(64, 1024, 25);
    grid_row(256, 4096, 25);
    grid_row(1024, 16384, 25);
    // The tentpole target: ~10M records at 1024 servers, streamed.
    streaming_case(1024, 16384, 600, 3);
}
