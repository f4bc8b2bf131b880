//! Out-of-core LU decomposition trace synthesizer.
//!
//! The paper replays an LU trace (Maryland HPSL `mambo` suite): dense LU
//! of an 8192×8192 double-precision matrix with a 64-column slab, data
//! spread over 8 files (one per process), synchronous I/O. The write
//! request size is fixed at 524 544 bytes; read sizes range from 6 272 to
//! 524 544 bytes because the panel read at step `k` only covers the
//! trailing (unfactored) rows, which shrink as elimination proceeds.

use crate::gen::PhaseClock;
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use storage_model::IoOp;

/// Fixed write (slab flush) size, bytes — from the paper.
pub(crate) const WRITE_SIZE: u64 = 524_544;
/// Smallest read (last panel), bytes — from the paper.
pub(crate) const READ_MIN: u64 = 6_272;
/// Largest read (first panel), bytes — equals the slab size.
pub(crate) const READ_MAX: u64 = 524_544;
/// Number of elimination steps: 8192 columns / 64-column slabs.
pub(crate) const STEPS: u32 = 128;

/// LU trace configuration.
#[derive(Debug, Clone)]
pub struct LuConfig {
    /// Number of processes = number of files (the paper uses 8).
    pub procs: u32,
    /// Number of elimination steps to emit (≤ 128; full run by default).
    pub steps: u32,
}

impl Default for LuConfig {
    fn default() -> Self {
        LuConfig { procs: 8, steps: STEPS }
    }
}

/// Read size at elimination step `k`: shrinks linearly from [`READ_MAX`]
/// at step 0 to [`READ_MIN`] at the final step.
pub(crate) fn read_size_at(k: u32) -> u64 {
    if STEPS <= 1 {
        return READ_MAX;
    }
    let span = READ_MAX - READ_MIN;
    READ_MAX - span * u64::from(k.min(STEPS - 1)) / u64::from(STEPS - 1)
}

/// Generate the LU trace.
///
/// Step `k`: every process reads the current panel from its own file
/// (shrinking size), then writes back the updated slab (fixed size) at the
/// slab's position. Each (step, stage) is one phase across processes —
/// the application uses synchronous, loosely-coupled I/O.
pub fn generate(cfg: &LuConfig) -> Trace {
    Trace::from_records(records(cfg))
}

/// The records [`generate`] stores, in issue order.
pub(super) fn records(cfg: &LuConfig) -> Vec<TraceRecord> {
    assert!(cfg.procs > 0 && cfg.steps > 0 && cfg.steps <= STEPS, "bad LU config");
    let mut clock = PhaseClock::new();
    let mut records = Vec::with_capacity(cfg.procs as usize * cfg.steps as usize * 2);
    for k in 0..cfg.steps {
        let slab_off = u64::from(k) * WRITE_SIZE;
        let rsize = read_size_at(k);
        // Panel read: the trailing rows, i.e. the tail of the slab.
        let read_off = slab_off + (WRITE_SIZE - rsize);
        let (rphase, rts) = clock.tick();
        for p in 0..cfg.procs {
            records.push(TraceRecord {
                pid: 5000 + p,
                rank: Rank(p),
                file: FileId(p),
                op: IoOp::Read,
                offset: read_off,
                len: rsize,
                ts: rts,
                phase: rphase,
            });
        }
        let (wphase, wts) = clock.tick();
        for p in 0..cfg.procs {
            records.push(TraceRecord {
                pid: 5000 + p,
                rank: Rank(p),
                file: FileId(p),
                op: IoOp::Write,
                offset: slab_off,
                len: WRITE_SIZE,
                ts: wts,
                phase: wphase,
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn read_sizes_span_documented_range() {
        assert_eq!(read_size_at(0), READ_MAX);
        assert_eq!(read_size_at(STEPS - 1), READ_MIN);
        for k in 1..STEPS {
            assert!(read_size_at(k) <= read_size_at(k - 1), "monotone shrink");
        }
    }

    #[test]
    fn writes_are_fixed_size() {
        let t = generate(&LuConfig::default());
        for r in t.records().iter().filter(|r| r.op == IoOp::Write) {
            assert_eq!(r.len, WRITE_SIZE);
        }
    }

    #[test]
    fn one_file_per_process() {
        let cfg = LuConfig::default();
        let t = generate(&cfg);
        assert_eq!(t.files().len(), cfg.procs as usize);
        for r in t.records() {
            assert_eq!(r.file.0, r.rank.0, "each rank owns its file");
        }
    }

    #[test]
    fn trace_is_heterogeneous_in_sizes() {
        let s = TraceStats::of(&generate(&LuConfig::default()));
        assert!(s.distinct_sizes > 50, "many distinct read sizes");
        assert_eq!(s.max_request, WRITE_SIZE);
        assert_eq!(s.min_request, READ_MIN);
        assert!(s.is_heterogeneous());
    }

    #[test]
    fn reads_stay_within_written_slabs() {
        let t = generate(&LuConfig::default());
        for r in t.records().iter().filter(|r| r.op == IoOp::Read) {
            let slab = r.offset / WRITE_SIZE;
            assert!(r.end() <= (slab + 1) * WRITE_SIZE, "panel read inside its slab");
        }
    }

    #[test]
    fn record_count_is_two_per_proc_per_step() {
        let cfg = LuConfig { procs: 8, steps: 10 };
        assert_eq!(generate(&cfg).len(), 8 * 10 * 2);
    }

    #[test]
    #[should_panic(expected = "bad LU config")]
    fn too_many_steps_rejected() {
        generate(&LuConfig { procs: 8, steps: STEPS + 1 });
    }
}
