//! Windowed trace ingestion for online re-planning.
//!
//! A [`WindowedSource`] slices any [`BatchSource`] into consecutive
//! *windows* — fixed-phase-count and/or fixed-record-count runs of whole
//! barrier phases — and maintains each window's summary statistics
//! incrementally while the phases stream through, so the online planner
//! can decide whether a window drifted without re-scanning its records.
//!
//! Windows never split a phase: a phase is the unit of barrier
//! synchronization, so the record bound closes a window at the *next*
//! phase boundary after the bound is reached. Concatenating the records
//! of all windows reproduces the source stream exactly.

use crate::batch::{BatchSource, RecordBatch};
use crate::record::TraceRecord;
use crate::trace::Trace;
use simrt::stats::OnlineStats;
use std::collections::HashMap;

/// Window close policy. A window closes at the first phase boundary
/// where either bound is met; at least one bound must be nonzero.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Close a window after this many phases (0 = unbounded).
    pub phases: u32,
    /// Close a window once it holds at least this many records
    /// (0 = unbounded). Checked at phase boundaries only.
    pub max_records: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig { phases: 8, max_records: 0 }
    }
}

/// Summary statistics of one window, maintained incrementally per
/// pushed batch. Field meanings match [`crate::TraceStats`] (the
/// planner's drift detector reads `mean_request` / `size_cv` /
/// `max_concurrency` from either).
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
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
    /// Largest request, bytes.
    pub max_request: u64,
    /// Smallest request, bytes (0 for an empty window).
    pub min_request: u64,
    /// Phases in the window.
    pub phases: u32,
    /// Maximum per-(file, phase) request concurrency.
    pub max_concurrency: u32,
    /// Largest request start offset, bytes.
    pub max_offset: u64,
    sizes: OnlineStats,
    offsets: OnlineStats,
}

impl WindowStats {
    /// Mean request size, bytes.
    pub fn mean_request(&self) -> f64 {
        self.sizes.mean()
    }

    /// Mean request start offset, bytes — the spatial signature: a
    /// hot-spot move shifts it even when the size mix is unchanged.
    pub fn mean_offset(&self) -> f64 {
        self.offsets.mean()
    }

    /// Request-size coefficient of variation (population stddev over
    /// mean, the [`crate::TraceStats::size_cv`] convention).
    pub fn size_cv(&self) -> f64 {
        let mean = self.sizes.mean();
        if mean > 0.0 {
            self.sizes.stddev() / mean
        } else {
            0.0
        }
    }

    /// Fold one phase batch in. `per_file` is caller-owned scratch for
    /// the per-file concurrency tally (cleared here).
    fn push_batch(&mut self, batch: &RecordBatch, per_file: &mut HashMap<u32, u32>) {
        self.phases += 1;
        self.requests += batch.len();
        per_file.clear();
        for i in 0..batch.len() {
            let TraceRecord { len, offset, file, op, .. } = batch.record(i);
            self.sizes.push(len as f64);
            self.offsets.push(offset as f64);
            self.max_offset = self.max_offset.max(offset);
            self.total_bytes += len;
            self.max_request = self.max_request.max(len);
            self.min_request = if self.min_request == 0 { len } else { self.min_request.min(len) };
            match op {
                crate::IoOp::Read => {
                    self.reads += 1;
                    self.read_bytes += len;
                }
                crate::IoOp::Write => {
                    self.writes += 1;
                    self.write_bytes += len;
                }
            }
            *per_file.entry(file.0).or_insert(0) += 1;
        }
        let batch_max = per_file.values().copied().max().unwrap_or(0);
        self.max_concurrency = self.max_concurrency.max(batch_max);
    }
}

/// One closed window: its records (whole phases, in stream order) and
/// the incrementally maintained statistics.
#[derive(Debug, Clone)]
pub struct Window {
    /// 0-based window sequence number.
    pub index: usize,
    /// Phase id of the window's first record.
    pub first_phase: u32,
    /// The window's records, in stream order.
    pub records: Vec<TraceRecord>,
    /// Summary statistics over exactly `records`.
    pub stats: WindowStats,
}

impl Window {
    /// The window as a standalone trace (records keep their original
    /// phase ids and timestamps).
    pub fn into_trace(self) -> Trace {
        Trace::from_records(self.records)
    }
}

/// Slices a [`BatchSource`] into consecutive [`Window`]s.
pub struct WindowedSource<'a> {
    source: &'a mut dyn BatchSource,
    cfg: WindowConfig,
    batch: RecordBatch,
    scratch: HashMap<u32, u32>,
    next_index: usize,
    exhausted: bool,
}

impl<'a> WindowedSource<'a> {
    /// Window `source` under `cfg`.
    ///
    /// # Panics
    /// If both bounds of `cfg` are zero (the stream would never close a
    /// window before exhausting the source).
    pub fn new(source: &'a mut dyn BatchSource, cfg: WindowConfig) -> Self {
        assert!(
            cfg.phases > 0 || cfg.max_records > 0,
            "window config needs a phase or record bound"
        );
        WindowedSource {
            source,
            cfg,
            batch: RecordBatch::new(),
            scratch: HashMap::new(),
            next_index: 0,
            exhausted: false,
        }
    }

    /// Produce the next window, or `None` when the source is exhausted.
    pub fn next_window(&mut self) -> Option<Window> {
        if self.exhausted {
            return None;
        }
        let mut stats = WindowStats::default();
        let mut records = Vec::new();
        let mut first_phase = 0u32;
        loop {
            if !self.source.next_phase(&mut self.batch) {
                self.exhausted = true;
                break;
            }
            if stats.phases == 0 {
                first_phase = self.batch.phase();
            }
            stats.push_batch(&self.batch, &mut self.scratch);
            records.reserve(self.batch.len());
            for i in 0..self.batch.len() {
                records.push(self.batch.record(i));
            }
            let phase_full = self.cfg.phases > 0 && stats.phases >= self.cfg.phases;
            let count_full = self.cfg.max_records > 0 && records.len() >= self.cfg.max_records;
            if phase_full || count_full {
                break;
            }
        }
        if records.is_empty() {
            return None;
        }
        let index = self.next_index;
        self.next_index += 1;
        Some(Window { index, first_phase, records, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TraceBatches;
    use crate::gen::skewed::{self, SkewedConfig};
    use crate::stats::TraceStats;
    use crate::IoOp;

    fn sample_trace() -> Trace {
        let mut cfg = SkewedConfig::default_run(IoOp::Write);
        cfg.procs = 4;
        cfg.phases = 21; // deliberately not a multiple of the window size
        skewed::generate(&cfg)
    }

    #[test]
    fn windows_partition_the_stream_exactly() {
        let trace = sample_trace();
        let mut src = TraceBatches::new(&trace);
        let mut windows = WindowedSource::new(&mut src, WindowConfig { phases: 8, max_records: 0 });
        let mut all = Vec::new();
        let mut count = 0;
        while let Some(w) = windows.next_window() {
            assert_eq!(w.index, count);
            count += 1;
            assert!(w.stats.phases <= 8);
            all.extend(w.records);
        }
        assert_eq!(count, 3, "21 phases in windows of 8 = 8+8+5");
        assert_eq!(all, trace.records(), "concatenated windows reproduce the trace");
    }

    #[test]
    fn record_bound_closes_at_phase_boundaries() {
        let trace = sample_trace();
        let per_phase = trace.len() / 21;
        let mut src = TraceBatches::new(&trace);
        let bound = per_phase * 2 + 1; // mid-phase bound -> 3 phases per window
        let mut windows =
            WindowedSource::new(&mut src, WindowConfig { phases: 0, max_records: bound });
        let mut all = Vec::new();
        while let Some(w) = windows.next_window() {
            assert!(w.stats.phases <= 3, "bound met inside phase 3 at the latest");
            assert_eq!(w.records.len() % per_phase, 0, "whole phases only");
            all.extend(w.records);
        }
        assert_eq!(all, trace.records());
    }

    #[test]
    fn incremental_stats_match_a_full_rescan() {
        let trace = sample_trace();
        let mut src = TraceBatches::new(&trace);
        let mut windows = WindowedSource::new(&mut src, WindowConfig { phases: 8, max_records: 0 });
        while let Some(w) = windows.next_window() {
            let stats = w.stats.clone();
            let oracle = TraceStats::of(&w.into_trace());
            assert_eq!(stats.requests, oracle.requests);
            assert_eq!(stats.reads, oracle.reads);
            assert_eq!(stats.writes, oracle.writes);
            assert_eq!(stats.total_bytes, oracle.total_bytes);
            assert_eq!(stats.read_bytes, oracle.read_bytes);
            assert_eq!(stats.write_bytes, oracle.write_bytes);
            assert_eq!(stats.max_request, oracle.max_request);
            assert_eq!(stats.min_request, oracle.min_request);
            assert_eq!(stats.max_concurrency, oracle.max_concurrency);
            assert!((stats.mean_request() - oracle.mean_request).abs() < 1e-6);
            assert!((stats.size_cv() - oracle.size_cv).abs() < 1e-9);
            assert!(
                (stats.mean_offset() - oracle.mean_offset).abs() / oracle.mean_offset.max(1.0)
                    < 1e-12
            );
            assert_eq!(stats.max_offset, oracle.max_offset);
        }
    }

    #[test]
    fn empty_source_yields_no_windows() {
        let trace = Trace::new();
        let mut src = TraceBatches::new(&trace);
        let mut windows = WindowedSource::new(&mut src, WindowConfig::default());
        assert!(windows.next_window().is_none());
        assert!(windows.next_window().is_none(), "stays exhausted");
    }

    #[test]
    #[should_panic(expected = "phase or record bound")]
    fn unbounded_config_is_rejected() {
        let trace = Trace::new();
        let mut src = TraceBatches::new(&trace);
        WindowedSource::new(&mut src, WindowConfig { phases: 0, max_records: 0 });
    }
}
