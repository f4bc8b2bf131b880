//! Regenerate the paper's tables and figures, and the studies built on
//! the same simulator, by experiment id.
//!
//! ```text
//! cargo run -p mha-bench --release --bin figures -- all
//! cargo run -p mha-bench --release --bin figures -- fig7 fig8 --quick
//! cargo run -p mha-bench --release --bin figures -- all --json results/
//! ```
//!
//! With no id, or with `all`, every id runs. `--quick` shrinks every
//! workload; `--json DIR` also writes each figure to `DIR/<figure
//! id>.json`. A study asserts its own acceptance bars and panics when
//! one fails. Exit codes: 0 on success, 2 on a usage error (an unknown
//! id or option, or `--json` without a directory), 101 on a failed bar.

use mha_bench::experiments::{self, EXPERIMENTS};
use mha_bench::workloads::Scale;
use rayon::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut json_dir: Option<PathBuf> = None;
    let mut all = false;
    let mut ids: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => match args.next() {
                Some(dir) if !dir.starts_with('-') => json_dir = Some(dir.into()),
                Some(other) => usage_error(&format!("--json takes a directory, not {other}")),
                None => usage_error("--json takes a directory"),
            },
            "all" => all = true,
            a if a.starts_with('-') => usage_error(&format!("unknown option {a}")),
            a => match EXPERIMENTS.iter().find(|(id, _)| *id == a) {
                Some((id, _)) => ids.push(id),
                None => usage_error(&format!("unknown experiment id {a}")),
            },
        }
    }
    if all || ids.is_empty() {
        ids = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    // Ids fan out over rayon (each experiment's scheme grid is itself
    // parallel; work-stealing composes the two levels), while printing
    // and JSON output stay serial and in id order so runs are
    // byte-identical regardless of thread count.
    let results: Vec<(&str, Vec<mha_bench::Figure>, f64)> = ids
        .par_iter()
        .map(|id| {
            let t0 = std::time::Instant::now();
            let figs = experiments::run(id, scale).expect("ids come from the table");
            (*id, figs, t0.elapsed().as_secs_f64())
        })
        .collect();

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (id, figs, elapsed) in results {
        for fig in &figs {
            writeln!(out, "{fig}").expect("stdout");
            summarize(&mut out, fig);
            if let Some(dir) = &json_dir {
                let json = fig.to_json().expect("figure values are finite");
                std::fs::write(dir.join(format!("{}.json", fig.id)), json).expect("write json");
            }
        }
        writeln!(out, "  [{id} took {elapsed:.1}s]\n").expect("stdout");
    }
}

/// Print `msg` and the usage line, then exit with the usage-error code.
fn usage_error(msg: &str) -> ! {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "figures: {msg}\nusage: figures [all | <id>...] [--quick] [--json DIR]\nids: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

/// Print MHA-vs-baseline improvements when the figure has scheme series.
fn summarize(out: &mut impl std::io::Write, fig: &mha_bench::Figure) {
    if !fig.series.iter().any(|s| s == "MHA") {
        return;
    }
    for base in ["DEF", "AAL", "HARL"] {
        let ratios: Vec<String> = fig
            .rows
            .iter()
            .filter_map(|r| {
                let ratio = fig.ratio(&r.label, "MHA", base).filter(|r| r.is_finite())?;
                Some(format!("{}: {:+.1}%", r.label, (ratio - 1.0) * 100.0))
            })
            .collect();
        if !ratios.is_empty() {
            writeln!(out, "  MHA vs {base}:  {}", ratios.join("  ")).expect("stdout");
        }
    }
}
