//! Determinism of the parallel experiment grid: fanning the (workload ×
//! scheme) cells over rayon must produce the same reports, bit for bit,
//! as a single-thread walk — otherwise figure rows would wobble from run
//! to run and the before/after replay benchmark would be meaningless.
//!
//! The single-thread walk also threads one `ReplaySession` (and its
//! scratch) through every cell, so the comparison simultaneously pins a
//! warm session's allocation-free replay path against fresh per-cell
//! sessions.

use mha_bench::experiments::{scheme_reports, scheme_reports_serial};
use mha_bench::workloads::{self, Scale};
use storage_model::IoOp;

#[test]
fn parallel_grid_matches_serial_grid_bit_for_bit() {
    let cluster = workloads::paper_cluster();
    let matrix = [
        ("lanl", workloads::lanl_trace(Scale::Quick)),
        ("ior 128+256", workloads::ior_mixed_sizes(&[128, 256], IoOp::Write, Scale::Quick)),
        ("ior read 64+512", workloads::ior_mixed_sizes(&[64, 512], IoOp::Read, Scale::Quick)),
    ];
    for (name, trace) in &matrix {
        let par = scheme_reports(trace, &cluster);
        let ser = scheme_reports_serial(trace, &cluster);
        assert_eq!(par.len(), ser.len());
        for (i, (p, s)) in par.iter().zip(&ser).enumerate() {
            assert_eq!(p, s, "{name}, scheme #{i}");
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Thread scheduling varies between runs; reports must not.
    let cluster = workloads::paper_cluster();
    let trace = workloads::lanl_trace(Scale::Quick);
    let first = scheme_reports(&trace, &cluster);
    for round in 0..2 {
        let again = scheme_reports(&trace, &cluster);
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(a, b, "round {round}, scheme #{i}");
        }
    }
}
