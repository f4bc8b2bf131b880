//! BTIO-like workload generator (NAS BT solver, I/O subtype `simple`).
//!
//! BTIO appends one solution dump per time step; each of the P processes
//! (P must be a perfect square) writes its sub-block of the 5-variable
//! grid. The paper modifies BTIO to interleave **class B** and **class C**
//! sized requests against one new file of 1.69 GB + 6.8 GB (the class B
//! and class C solution-history sizes), so each process alternates between
//! a B-sized and a C-sized request across I/O steps (Fig. 12a).

use crate::gen::PhaseClock;
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use storage_model::IoOp;

/// Class B solution history total, bytes (≈1.69 GB).
pub(crate) const CLASS_B_BYTES: u64 = 1_690_000_000;
/// Class C solution history total, bytes (≈6.8 GB).
pub(crate) const CLASS_C_BYTES: u64 = 6_800_000_000;
/// Number of solution dumps (BTIO writes every 5th of 200 steps).
pub(crate) const IO_STEPS: u32 = 40;

/// BTIO run configuration.
#[derive(Debug, Clone)]
pub struct BtioConfig {
    /// Process count; must be a perfect square (BTIO requirement).
    pub procs: u32,
    /// Operation (BTIO writes during the run, then reads back to verify;
    /// the paper reports the write phase).
    pub op: IoOp,
}

impl BtioConfig {
    /// Paper configuration for a given square process count.
    pub fn paper(procs: u32, op: IoOp) -> Self {
        BtioConfig { procs, op }
    }
}

/// True iff `n` is a perfect square.
fn is_square(n: u32) -> bool {
    let r = (n as f64).sqrt().round() as u32;
    r * r == n
}

/// Generate a BTIO trace.
///
/// Step `s` writes either a class-B-sized or class-C-sized request per
/// process (alternating), at the step's append position with processes
/// interleaved round-robin — BTIO `simple` subtype issues one contiguous
/// chunk per process per dump.
pub fn generate(cfg: &BtioConfig) -> Trace {
    Trace::from_records(records(cfg))
}

/// The records [`generate`] stores, in issue order.
pub(super) fn records(cfg: &BtioConfig) -> Vec<TraceRecord> {
    assert!(cfg.procs > 0 && is_square(cfg.procs), "BTIO needs a square process count");
    let p64 = u64::from(cfg.procs);
    let req_b = CLASS_B_BYTES / (u64::from(IO_STEPS) / 2) / p64;
    let req_c = CLASS_C_BYTES / (u64::from(IO_STEPS) / 2) / p64;
    let mut clock = PhaseClock::new();
    let mut records = Vec::with_capacity(IO_STEPS as usize * cfg.procs as usize);
    let mut base = 0u64;
    for s in 0..IO_STEPS {
        let size = if s % 2 == 0 { req_b } else { req_c };
        let (phase, ts) = clock.tick();
        for p in 0..cfg.procs {
            records.push(TraceRecord {
                pid: 3000 + p,
                rank: Rank(p),
                file: FileId(0),
                op: cfg.op,
                offset: base + u64::from(p) * size,
                len: size,
                ts,
                phase,
            });
        }
        base += p64 * size;
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn total_volume_matches_classes() {
        let t = generate(&BtioConfig::paper(9, IoOp::Write));
        let total = t.total_bytes();
        // Integer division loses at most procs*steps bytes.
        let expect = CLASS_B_BYTES + CLASS_C_BYTES;
        assert!(expect - total < 10_000, "total={total} expect={expect}");
    }

    #[test]
    fn two_request_sizes_interleaved() {
        let t = generate(&BtioConfig::paper(16, IoOp::Write));
        let s = TraceStats::of(&t);
        assert_eq!(s.distinct_sizes, 2);
        assert!(s.is_heterogeneous());
        // C-sized requests are ~4x B-sized.
        let ratio = s.max_request as f64 / s.min_request as f64;
        assert!((ratio - 4.02).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn writes_tile_the_file_densely() {
        let t = generate(&BtioConfig::paper(4, IoOp::Write));
        let mut spans: Vec<(u64, u64)> = t.records().iter().map(|r| (r.offset, r.len)).collect();
        spans.sort_unstable();
        let mut cursor = 0;
        for (o, l) in spans {
            assert_eq!(o, cursor, "gap or overlap at {o}");
            cursor = o + l;
        }
    }

    #[test]
    fn concurrency_equals_procs() {
        let t = generate(&BtioConfig::paper(25, IoOp::Write));
        assert_eq!(TraceStats::of(&t).max_concurrency, 25);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_procs_rejected() {
        generate(&BtioConfig::paper(10, IoOp::Write));
    }
}
