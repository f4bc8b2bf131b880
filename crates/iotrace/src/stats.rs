//! Trace summaries used in reports and by the layout planners.

use crate::record::FileId;
use crate::trace::Trace;
use simrt::stats::{Log2Histogram, OnlineStats};
use storage_model::IoOp;

/// Bins of [`TraceStats::heat`]; offsets below `1 << HEAT_SHIFT` share
/// bin 0.
const HEAT_BINS: usize = 8;
const HEAT_SHIFT: u32 = 29;

/// The heat bin of a request starting at `offset`: the octave of
/// `offset >> HEAT_SHIFT`, the last bin taking every larger one.
fn heat_bin(offset: u64) -> usize {
    ((u64::BITS - (offset >> HEAT_SHIFT).leading_zeros()) as usize).min(HEAT_BINS - 1)
}

/// Summary statistics of a trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Record count.
    pub requests: usize,
    /// Read record count.
    pub reads: usize,
    /// Write record count.
    pub writes: usize,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Largest request, bytes (`r_max`).
    pub max_request: u64,
    /// Smallest request, bytes.
    pub min_request: u64,
    /// Mean request size, bytes.
    pub mean_request: f64,
    /// Request-size coefficient of variation — the paper's notion of
    /// "heterogeneous request sizes" corresponds to a large value here.
    pub size_cv: f64,
    /// Number of I/O phases: runs of adjacent records sharing a phase
    /// id, the unit [`Trace::phase_windows`] counts.
    pub phases: u32,
    /// Maximum per-phase concurrency.
    pub max_concurrency: u32,
    /// Where the heat is: records per octave of start offset, in bins
    /// fixed for every trace. Bin 0 counts offsets below 512 MiB, bin `k`
    /// those in `[2^(28+k), 2^(29+k))`, the last everything from 32 GiB.
    /// Online drift detection compares it across windows.
    pub heat: [u64; HEAT_BINS],
    /// log2 histogram of request sizes.
    pub size_histogram: Log2Histogram,
    /// Number of distinct request sizes.
    pub distinct_sizes: usize,
}

impl TraceStats {
    /// Compute statistics for `trace` in one pass over its records.
    ///
    /// `max_concurrency` counts records per (file, phase id) like
    /// [`Trace::concurrency`] without building its per-record vector:
    /// adjacent records of one file and phase are tallied as one stretch,
    /// and stretches are summed per key after one sort (a single check
    /// when the keys already ascend, as they do in issue order).
    pub fn of(trace: &Trace) -> TraceStats {
        let mut sizes = OnlineStats::new();
        let mut heat = [0u64; HEAT_BINS];
        let mut hist = Log2Histogram::new();
        let mut distinct: Vec<u64> = Vec::new();
        let (mut reads, mut writes) = (0usize, 0usize);
        let (mut total_bytes, mut read_bytes, mut write_bytes) = (0u64, 0u64, 0u64);
        let (mut max_request, mut min_request) = (0u64, u64::MAX);
        let mut phases = 0u32;
        let mut last_phase = None;
        // (file, phase id) and the length of each stretch of records.
        let mut stretches: Vec<((FileId, u32), u32)> = Vec::new();
        for r in trace.records() {
            if last_phase != Some(r.phase) {
                phases += 1;
                last_phase = Some(r.phase);
            }
            sizes.push(r.len as f64);
            heat[heat_bin(r.offset)] += 1;
            hist.record(r.len);
            distinct.push(r.len);
            total_bytes += r.len;
            match r.op {
                IoOp::Read => {
                    reads += 1;
                    read_bytes += r.len;
                }
                IoOp::Write => {
                    writes += 1;
                    write_bytes += r.len;
                }
            }
            max_request = max_request.max(r.len);
            min_request = min_request.min(r.len);
            match stretches.last_mut() {
                Some((key, n)) if *key == (r.file, r.phase) => *n += 1,
                _ => stretches.push(((r.file, r.phase), 1)),
            }
        }
        if !stretches.is_sorted_by_key(|s| s.0) {
            stretches.sort_by_key(|s| s.0);
        }
        let max_concurrency = stretches
            .chunk_by(|a, b| a.0 == b.0)
            .map(|same| same.iter().map(|s| s.1).sum::<u32>())
            .max()
            .unwrap_or(0);
        distinct.sort_unstable();
        distinct.dedup();
        let mean = sizes.mean();
        TraceStats {
            requests: trace.len(),
            reads,
            writes,
            total_bytes,
            read_bytes,
            write_bytes,
            max_request,
            min_request: if trace.is_empty() { 0 } else { min_request },
            mean_request: mean,
            size_cv: if mean > 0.0 { sizes.stddev() / mean } else { 0.0 },
            phases,
            max_concurrency,
            heat,
            size_histogram: hist,
            distinct_sizes: distinct.len(),
        }
    }

    /// Heuristic: does this trace exhibit heterogeneous access patterns
    /// (multiple distinct sizes or notable size dispersion)?
    pub fn is_heterogeneous(&self) -> bool {
        self.distinct_sizes > 1 && self.size_cv > 0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Rank, TraceRecord};
    use simrt::SimTime;

    fn rec(off: u64, len: u64, phase: u32, op: IoOp) -> TraceRecord {
        TraceRecord {
            pid: 0,
            rank: Rank(0),
            file: FileId(0),
            op,
            offset: off,
            len,
            ts: SimTime::from_nanos(phase as u64),
            phase,
        }
    }

    /// The multi-pass body `TraceStats::of` replaced: its own loop, then
    /// a pass each for the byte totals, `r_max` and the smallest
    /// request, and the whole concurrency vector for its maximum.
    fn of_multi_pass(trace: &Trace) -> TraceStats {
        let mut sizes = OnlineStats::new();
        let mut heat = [0u64; HEAT_BINS];
        let mut hist = Log2Histogram::new();
        let mut distinct: Vec<u64> = Vec::new();
        let mut reads = 0usize;
        let mut writes = 0usize;
        let mut phases = 0u32;
        let mut last_phase = None;
        for r in trace.records() {
            if last_phase != Some(r.phase) {
                phases += 1;
                last_phase = Some(r.phase);
            }
            sizes.push(r.len as f64);
            heat[heat_bin(r.offset)] += 1;
            hist.record(r.len);
            distinct.push(r.len);
            match r.op {
                IoOp::Read => reads += 1,
                IoOp::Write => writes += 1,
            }
        }
        distinct.sort_unstable();
        distinct.dedup();
        let mean = sizes.mean();
        let bytes_for = |op| trace.records().iter().filter(|r| r.op == op).map(|r| r.len).sum();
        TraceStats {
            requests: trace.len(),
            reads,
            writes,
            total_bytes: trace.total_bytes(),
            read_bytes: bytes_for(IoOp::Read),
            write_bytes: bytes_for(IoOp::Write),
            max_request: trace.max_request_size(),
            min_request: trace.records().iter().map(|r| r.len).min().unwrap_or(0),
            mean_request: mean,
            size_cv: if mean > 0.0 { sizes.stddev() / mean } else { 0.0 },
            phases,
            max_concurrency: trace.concurrency().into_iter().max().unwrap_or(0),
            heat,
            size_histogram: hist,
            distinct_sizes: distinct.len(),
        }
    }

    /// Every field, floats by bit pattern and the histogram by bucket.
    fn fields(s: &TraceStats) -> Vec<u64> {
        let mut v = vec![
            s.requests as u64,
            s.reads as u64,
            s.writes as u64,
            s.total_bytes,
            s.read_bytes,
            s.write_bytes,
            s.max_request,
            s.min_request,
            s.mean_request.to_bits(),
            s.size_cv.to_bits(),
            u64::from(s.phases),
            u64::from(s.max_concurrency),
            s.distinct_sizes as u64,
            s.size_histogram.total(),
        ];
        v.extend(s.size_histogram.iter().flat_map(|(a, b)| [a, b]));
        v.extend(s.heat);
        v
    }

    #[test]
    fn one_pass_matches_the_multi_pass_oracle_on_every_generator() {
        let w = IoOp::Write;
        let mut traces: Vec<(String, Trace)> =
            crate::gen::every_generator().into_iter().map(|(name, t, _)| (name, t)).collect();
        traces.push(("empty".into(), Trace::new()));
        // Recurring phase ids and files interleaved within a phase.
        let mixed: Vec<TraceRecord> = (0..64u32)
            .map(|i| TraceRecord { file: FileId(i % 3), ..rec(u64::from(i), 8 + u64::from(i % 5), (i / 4) % 3, w) })
            .collect();
        traces.push(("mixed".into(), Trace::from_records(mixed)));
        for (name, t) in &traces {
            assert_eq!(fields(&TraceStats::of(t)), fields(&of_multi_pass(t)), "{name}");
        }
    }

    #[test]
    fn stats_of_uniform_trace() {
        let t = Trace::from_records(vec![
            rec(0, 64, 0, IoOp::Read),
            rec(64, 64, 0, IoOp::Read),
            rec(128, 64, 1, IoOp::Write),
        ]);
        let s = TraceStats::of(&t);
        assert_eq!(s.requests, 3);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total_bytes, 192);
        assert_eq!(s.max_request, 64);
        assert_eq!(s.min_request, 64);
        assert_eq!(s.distinct_sizes, 1);
        assert_eq!(s.size_cv, 0.0);
        assert!(!s.is_heterogeneous());
        assert_eq!(s.max_concurrency, 2);
    }

    #[test]
    fn heat_bins_are_fixed_octaves_from_512_mib() {
        let edges = [0, (1 << 29) - 1, 1 << 29, (1 << 30) - 1, 1 << 30];
        assert_eq!(edges.map(heat_bin), [0, 0, 1, 1, 2]);
        assert_eq!([(1 << 35) - 1, 1 << 35, u64::MAX].map(heat_bin), [6, 7, 7]);
        let offsets = [0, 1 << 29, 3 << 29, 5 << 30];
        let t = Trace::from_records(offsets.map(|o| rec(o, 8, 0, IoOp::Read)).to_vec());
        assert_eq!(TraceStats::of(&t).heat, [1, 1, 1, 0, 1, 0, 0, 0]);
        assert_eq!(TraceStats::of(&Trace::new()).heat, [0; HEAT_BINS]);
    }

    #[test]
    fn phases_count_runs_not_the_largest_id() {
        // The last 8-phase window of a 21-phase trace holds ids 16..=20.
        let mut cfg = crate::gen::skewed::SkewedConfig::default_run(IoOp::Write);
        cfg.procs = 4;
        cfg.phases = 21;
        let trace = crate::gen::skewed::generate(&cfg);
        assert_eq!(TraceStats::of(&trace).phases, 21);
        let last = trace.phase_windows(8).last().unwrap();
        assert_eq!(last.phase_span(), 21);
        assert_eq!(TraceStats::of(&last).phases, 5);
        // A recurring id starts a new run; an empty trace has none.
        let t = Trace::from_records([0, 0, 1, 0].map(|p| rec(0, 8, p, IoOp::Read)).to_vec());
        assert_eq!((TraceStats::of(&t).phases, t.phase_span()), (3, 2));
        assert_eq!(TraceStats::of(&Trace::new()).phases, 0);
    }

    #[test]
    fn stats_of_mixed_trace_flags_heterogeneity() {
        let t = Trace::from_records(vec![
            rec(0, 16, 0, IoOp::Write),
            rec(16, 131_056, 1, IoOp::Write),
            rec(131_072, 131_072, 2, IoOp::Write),
        ]);
        let s = TraceStats::of(&t);
        assert_eq!(s.distinct_sizes, 3);
        assert!(s.is_heterogeneous());
        assert_eq!(s.max_request, 131_072);
        assert_eq!(s.min_request, 16);
    }

    #[test]
    fn empty_trace_stats_are_zeroed() {
        let s = TraceStats::of(&Trace::new());
        assert_eq!(s.requests, 0);
        assert_eq!(s.mean_request, 0.0);
        assert_eq!(s.size_cv, 0.0);
        assert!(!s.is_heterogeneous());
    }
}
