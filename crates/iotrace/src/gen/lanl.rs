//! LANL anonymous application ("App2") trace synthesizer.
//!
//! The paper (Fig. 3) documents the per-loop I/O of this application
//! exactly: every loop issues three requests — a 16-byte header, a
//! (128 KiB − 16)-byte body, and a 128 KiB block — so one loop moves
//! 256 KiB per process. Requests of the same size recur *across* the file
//! rather than in a contiguous run, which is precisely the heterogeneity
//! MHA's reordering targets.

use crate::batch::{BatchSource, PhaseSink, RecordBatch};
use crate::gen::{collect, PhaseClock};
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use storage_model::IoOp;

/// The three request sizes of one LANL loop, in issue order.
pub const LOOP_SIZES: [u64; 3] = [16, 128 * 1024 - 16, 128 * 1024];
/// Bytes moved by one loop of one process.
pub(crate) const LOOP_BYTES: u64 = 256 * 1024;

/// Ranks whose offsets are computed before they are emitted together: a
/// stack buffer small enough that clearing it per phase costs nothing.
const CHUNK: usize = 8;

/// LANL trace configuration.
#[derive(Debug, Clone)]
pub struct LanlConfig {
    /// Number of client processes (the paper replays with 8).
    pub procs: u32,
    /// Number of loops per process.
    pub loops: u32,
    /// Operation (the application writes; replays may read).
    pub op: IoOp,
}

impl LanlConfig {
    /// The paper's replay setting: 8 clients.
    pub fn paper(loops: u32, op: IoOp) -> Self {
        LanlConfig { procs: 8, loops, op }
    }
}

/// Generate the LANL App2 trace.
///
/// Loop `i` of process `p` owns the 256 KiB slot `(i * procs + p)` of the
/// shared file; within the slot the three requests are laid out
/// back-to-back. Each request position in the loop is its own I/O phase
/// across processes (all ranks emit their 16-byte header together, etc.).
/// Runs the same phase emitter as [`stream`], straight into one trace's
/// store.
pub fn generate(cfg: &LanlConfig) -> Trace {
    let mut src = stream(cfg);
    collect(src.len_hint(), |out| src.emit(out))
}

/// Stream the LANL run one phase (= one loop position across all ranks)
/// at a time.
pub fn stream(cfg: &LanlConfig) -> LanlStream {
    assert!(cfg.procs > 0 && cfg.loops > 0, "degenerate LANL config");
    LanlStream { cfg: cfg.clone(), clock: PhaseClock::new(), looop: 0, slot_idx: 0 }
}

/// Streaming LANL App2 generator: each [`BatchSource::next_phase`] emits
/// one of the three per-loop request positions across all ranks.
#[derive(Debug, Clone)]
pub struct LanlStream {
    cfg: LanlConfig,
    clock: PhaseClock,
    looop: u32,
    slot_idx: usize,
}

impl LanlStream {
    /// Emit the next loop position into `out`; `false` when exhausted.
    pub(super) fn emit<S: PhaseSink>(&mut self, out: &mut S) -> bool {
        if self.looop >= self.cfg.loops {
            out.begin(0);
            return false;
        }
        let cfg = &self.cfg;
        let size = LOOP_SIZES[self.slot_idx];
        let rel: u64 = LOOP_SIZES[..self.slot_idx].iter().sum();
        let (phase, ts) = self.clock.tick();
        out.begin(phase);
        let mut offsets = [0u64; CHUNK];
        for first in (0..cfg.procs).step_by(CHUNK) {
            let n = (cfg.procs - first).min(CHUNK as u32) as usize;
            for (offset, p) in offsets[..n].iter_mut().zip(first..) {
                let slot = u64::from(self.looop) * u64::from(cfg.procs) + u64::from(p);
                *offset = slot * LOOP_BYTES + rel;
            }
            let head = TraceRecord {
                pid: 4000 + first,
                rank: Rank(first),
                file: FileId(0),
                op: cfg.op,
                offset: 0,
                len: size,
                ts,
                phase,
            };
            out.push_ranks(&head, &offsets[..n]);
        }
        self.slot_idx += 1;
        if self.slot_idx == LOOP_SIZES.len() {
            self.slot_idx = 0;
            self.looop += 1;
        }
        true
    }
}

impl BatchSource for LanlStream {
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool {
        self.emit(batch)
    }

    fn len_hint(&self) -> Option<usize> {
        let done =
            self.looop as usize * LOOP_SIZES.len() + self.slot_idx;
        let total = self.cfg.loops as usize * LOOP_SIZES.len();
        Some((total - done) * self.cfg.procs as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn loop_sizes_sum_to_loop_bytes() {
        assert_eq!(LOOP_SIZES.iter().sum::<u64>(), LOOP_BYTES);
    }

    #[test]
    fn per_process_sequence_matches_fig3() {
        let t = generate(&LanlConfig { procs: 1, loops: 3, op: IoOp::Write });
        let sizes: Vec<u64> = t.records().iter().map(|r| r.len).collect();
        assert_eq!(
            sizes,
            vec![16, 131_056, 131_072, 16, 131_056, 131_072, 16, 131_056, 131_072]
        );
    }

    #[test]
    fn same_size_requests_are_not_contiguous_in_file() {
        // The paper's observation: requests with the same size exist across
        // the file, not in a successive byte run.
        let t = generate(&LanlConfig::paper(4, IoOp::Write));
        let mut headers: Vec<u64> = t
            .records()
            .iter()
            .filter(|r| r.len == 16)
            .map(|r| r.offset)
            .collect();
        headers.sort_unstable();
        for w in headers.windows(2) {
            assert!(w[1] - w[0] >= LOOP_BYTES, "headers separated by whole loops");
        }
    }

    #[test]
    fn writes_tile_the_file() {
        let cfg = LanlConfig::paper(5, IoOp::Write);
        let t = generate(&cfg);
        let mut spans: Vec<(u64, u64)> = t.records().iter().map(|r| (r.offset, r.len)).collect();
        spans.sort_unstable();
        let mut cursor = 0;
        for (o, l) in spans {
            assert_eq!(o, cursor);
            cursor = o + l;
        }
        assert_eq!(cursor, u64::from(cfg.procs) * 5 * LOOP_BYTES);
    }

    #[test]
    fn streaming_phases_match_materialized_records() {
        let cfg = LanlConfig::paper(6, IoOp::Write);
        let t = generate(&cfg);
        let mut src = stream(&cfg);
        let mut batch = RecordBatch::new();
        let mut cursor = 0;
        while src.next_phase(&mut batch) {
            assert_eq!(batch.len(), cfg.procs as usize);
            for i in 0..batch.len() {
                assert_eq!(Some(batch.record(i)), t.records().get(cursor));
                cursor += 1;
            }
        }
        assert_eq!(cursor, t.len());
    }

    #[test]
    fn stats_show_three_sizes_and_full_concurrency() {
        let t = generate(&LanlConfig::paper(10, IoOp::Write));
        let s = TraceStats::of(&t);
        assert_eq!(s.distinct_sizes, 3);
        assert_eq!(s.max_concurrency, 8);
        assert!(s.is_heterogeneous());
    }
}
