//! HPIO-like workload generator (Northwestern/Sandia parallel I/O
//! benchmark).
//!
//! HPIO is parameterized by *region count*, *region spacing* and *region
//! size*; the paper runs it with region count 4096, spacing 0, and region
//! sizes mixed from {16, 32, 64} KiB while varying the process count from
//! 16 to 64 (Fig. 11). Each process owns every `procs`-th region in a
//! round-robin interleaving — HPIO's contiguous/noncontiguous pattern with
//! zero spacing degenerates to a dense interleave, which is what we emit.

use crate::gen::PhaseClock;
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use storage_model::IoOp;

/// HPIO run configuration.
#[derive(Debug, Clone)]
pub struct HpioConfig {
    /// Number of regions each process accesses.
    pub region_count: u32,
    /// Gap between consecutive regions, bytes.
    pub region_spacing: u64,
    /// Region sizes cycled across the region index (bytes).
    pub region_sizes: Vec<u64>,
    /// Number of processes.
    pub procs: u32,
    /// Operation of the pass.
    pub op: IoOp,
}

impl HpioConfig {
    /// The paper's Fig. 11 setting: 4096 regions, spacing 0, sizes
    /// {16, 32, 64} KiB.
    pub fn paper(procs: u32, op: IoOp) -> Self {
        HpioConfig {
            region_count: 4096,
            region_spacing: 0,
            region_sizes: vec![16 << 10, 32 << 10, 64 << 10],
            procs,
            op,
        }
    }
}

/// Generate an HPIO trace.
///
/// Region `i` of process `p` starts where the previous region ends;
/// regions are laid out `[r0p0, r0p1, ..., r0pN, r1p0, ...]` with the
/// region size cycling through `region_sizes` by region index `i`.
pub fn generate(cfg: &HpioConfig) -> Trace {
    Trace::from_records(records(cfg))
}

/// The records [`generate`] stores, in issue order.
pub(super) fn records(cfg: &HpioConfig) -> Vec<TraceRecord> {
    assert!(!cfg.region_sizes.is_empty(), "empty region size mix");
    assert!(cfg.procs > 0 && cfg.region_count > 0, "degenerate HPIO config");
    let mut clock = PhaseClock::new();
    let mut records = Vec::with_capacity(cfg.region_count as usize * cfg.procs as usize);
    let mut base = 0u64;
    for i in 0..cfg.region_count {
        let size = cfg.region_sizes[i as usize % cfg.region_sizes.len()];
        let (phase, ts) = clock.tick();
        for p in 0..cfg.procs {
            let offset = base + u64::from(p) * (size + cfg.region_spacing);
            records.push(TraceRecord {
                pid: 2000 + p,
                rank: Rank(p),
                file: FileId(0),
                op: cfg.op,
                offset,
                len: size,
                ts,
                phase,
            });
        }
        base += u64::from(cfg.procs) * (size + cfg.region_spacing);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn paper_config_shape() {
        let t = generate(&HpioConfig::paper(16, IoOp::Write));
        let s = TraceStats::of(&t);
        assert_eq!(s.requests, 4096 * 16);
        assert_eq!(s.distinct_sizes, 3);
        assert_eq!(s.max_request, 64 << 10);
        assert_eq!(s.min_request, 16 << 10);
        assert!(s.is_heterogeneous());
        assert_eq!(s.max_concurrency, 16);
    }

    #[test]
    fn zero_spacing_is_dense() {
        let cfg = HpioConfig {
            region_count: 3,
            region_spacing: 0,
            region_sizes: vec![100],
            procs: 2,
            op: IoOp::Read,
        };
        let t = generate(&cfg);
        // Offsets must tile [0, 600) without gaps.
        let mut offs: Vec<(u64, u64)> = t.records().iter().map(|r| (r.offset, r.len)).collect();
        offs.sort_unstable();
        let mut cursor = 0;
        for (o, l) in offs {
            assert_eq!(o, cursor);
            cursor = o + l;
        }
        assert_eq!(cursor, 600);
    }

    #[test]
    fn spacing_creates_holes() {
        let cfg = HpioConfig {
            region_count: 2,
            region_spacing: 50,
            region_sizes: vec![100],
            procs: 1,
            op: IoOp::Read,
        };
        let t = generate(&cfg);
        let r: Vec<u64> = t.records().iter().map(|r| r.offset).collect();
        assert_eq!(r, vec![0, 150]);
    }

    #[test]
    fn sizes_cycle_by_region_index() {
        let t = generate(&HpioConfig::paper(1, IoOp::Read));
        let lens: Vec<u64> = t.records().iter().take(6).map(|r| r.len).collect();
        assert_eq!(
            lens,
            vec![16 << 10, 32 << 10, 64 << 10, 16 << 10, 32 << 10, 64 << 10]
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_procs_rejected() {
        generate(&HpioConfig {
            region_count: 1,
            region_spacing: 0,
            region_sizes: vec![1],
            procs: 0,
            op: IoOp::Read,
        });
    }
}
