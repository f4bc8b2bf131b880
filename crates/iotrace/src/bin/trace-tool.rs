//! `trace-tool` — generate and inspect I/O traces.
//!
//! ```text
//! trace-tool gen lanl --loops 32 > lanl.tsv        # generate a workload
//! trace-tool gen ior --sizes 128,256 > ior.tsv
//! trace-tool stats < lanl.tsv                      # summarize a trace
//! ```
//!
//! Exit codes: 0 on success, 1 when the input trace is malformed or I/O
//! fails, 2 on usage errors.

use iotrace::gen::{btio, cholesky, hpio, ior, lanl, lu};
use iotrace::{tsv, Trace, TraceError, TraceStats};
use std::io::Read as _;
use storage_model::IoOp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(),
        _ => {
            eprintln!(
                "usage: trace-tool gen <lanl|ior|hpio|btio|lu|cholesky> [options]\n\
                 \x20      trace-tool stats      (reads TSV on stdin)\n\
                 gen options: --loops N --procs N --sizes a,b,c(KiB) --op read|write --steps N --panels N"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn read_tsv_stdin() -> Result<Trace, TraceError> {
    let mut text = String::new();
    std::io::stdin().read_to_string(&mut text)?;
    tsv::from_tsv(&text)
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The positive integer after `name`, or `default` when `name` is absent.
/// A missing, zero or unparsable value is a usage error (exit 2).
fn num(args: &[String], name: &str, default: u32) -> u32 {
    if !args.iter().any(|a| a == name) {
        return default;
    }
    match opt(args, name).map(|v| v.parse::<u32>()) {
        Some(Ok(n)) if n > 0 => n,
        _ => usage_error(&format!("{name} takes a positive integer")),
    }
}

/// Print `msg` and exit with the usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The `--op` value, `write` when absent. Anything but `read` or
/// `write` is a usage error (exit 2).
fn op_of(args: &[String]) -> IoOp {
    if !args.iter().any(|a| a == "--op") {
        return IoOp::Write;
    }
    match opt(args, "--op").as_deref() {
        Some("read") => IoOp::Read,
        Some("write") => IoOp::Write,
        _ => usage_error("--op takes read or write"),
    }
}

/// The `--sizes` list in bytes, `64` KiB when absent. An empty list, or
/// an entry that is not a positive KiB count, is a usage error (exit 2).
fn sizes_of(args: &[String]) -> Vec<u64> {
    let list = opt(args, "--sizes").unwrap_or_else(|| "64".into());
    list.split(',')
        .map(|s| match s.parse::<u64>().ok().and_then(|kb| kb.checked_mul(1 << 10)) {
            Some(bytes) if bytes > 0 => bytes,
            _ => usage_error("--sizes takes a comma-separated list of positive KiB counts"),
        })
        .collect()
}

fn cmd_gen(args: &[String]) -> Result<(), TraceError> {
    let trace = match args.first().map(String::as_str) {
        Some("lanl") => lanl::generate(&lanl::LanlConfig {
            procs: num(args, "--procs", 8),
            loops: num(args, "--loops", 16),
            op: op_of(args),
        }),
        Some("ior") => {
            let mut cfg = ior::IorConfig::mixed_sizes(&sizes_of(args), op_of(args));
            cfg.proc_mix = vec![num(args, "--procs", 16)];
            ior::generate(&cfg)
        }
        Some("hpio") => hpio::generate(&hpio::HpioConfig::paper(num(args, "--procs", 16), op_of(args))),
        Some("btio") => btio::generate(&btio::BtioConfig::paper(num(args, "--procs", 9), op_of(args))),
        Some("lu") => lu::generate(&lu::LuConfig {
            procs: num(args, "--procs", 8),
            steps: num(args, "--steps", 128),
        }),
        Some("cholesky") => cholesky::generate(&cholesky::CholeskyConfig {
            procs: num(args, "--procs", 8),
            panels: num(args, "--panels", 96),
            ..Default::default()
        }),
        other => usage_error(&format!("unknown workload: {other:?}")),
    };
    print!("{}", tsv::to_tsv(&trace));
    Ok(())
}

fn cmd_stats() -> Result<(), TraceError> {
    let trace = read_tsv_stdin()?;
    let s = TraceStats::of(&trace);
    println!("requests        {}", s.requests);
    println!("reads/writes    {}/{}", s.reads, s.writes);
    println!("total bytes     {}", s.total_bytes);
    println!("read bytes      {}", s.read_bytes);
    println!("write bytes     {}", s.write_bytes);
    println!("request sizes   min {}  mean {:.0}  max {}", s.min_request, s.mean_request, s.max_request);
    println!("distinct sizes  {}", s.distinct_sizes);
    println!("size CV         {:.3}", s.size_cv);
    println!("phases          {}", s.phases);
    println!("max concurrency {}", s.max_concurrency);
    println!("heterogeneous   {}", s.is_heterogeneous());
    println!("size histogram (log2 buckets):");
    for (floor, count) in s.size_histogram.iter() {
        println!("  >= {floor:>10} B : {count}");
    }
    Ok(())
}
