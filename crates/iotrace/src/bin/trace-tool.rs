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
        _ => {
            eprintln!("{name} takes a positive integer");
            std::process::exit(2);
        }
    }
}

fn op_of(args: &[String]) -> IoOp {
    match opt(args, "--op").as_deref() {
        Some("read") => IoOp::Read,
        _ => IoOp::Write,
    }
}

fn cmd_gen(args: &[String]) -> Result<(), TraceError> {
    let trace = match args.first().map(String::as_str) {
        Some("lanl") => lanl::generate(&lanl::LanlConfig {
            procs: num(args, "--procs", 8),
            loops: num(args, "--loops", 16),
            op: op_of(args),
        }),
        Some("ior") => {
            let sizes: Vec<u64> = opt(args, "--sizes")
                .unwrap_or_else(|| "64".into())
                .split(',')
                .filter_map(|s| s.parse::<u64>().ok())
                .map(|kb| kb << 10)
                .collect();
            if sizes.is_empty() {
                eprintln!("--sizes must list at least one KiB value");
                std::process::exit(2);
            }
            let mut cfg = ior::IorConfig::mixed_sizes(&sizes, op_of(args));
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
        other => {
            eprintln!("unknown workload: {other:?}");
            std::process::exit(2);
        }
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
