//! IOSIG-like online trace collector.
//!
//! The paper profiles the application's first run with IOSIG, a pluggable
//! MPI-IO layer library (§III-C). Our middleware (`mpiio-sim`) calls
//! [`Collector::record`] on every file operation; phases are inferred from
//! timestamps: records issued within `phase_window` of the phase's first
//! record belong to the same phase (one parallel I/O call).

use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::{SimDuration, SimTime};
use storage_model::IoOp;

/// Online trace collector.
#[derive(Debug)]
pub struct Collector {
    records: Vec<TraceRecord>,
    phase_window: SimDuration,
    phase_start: SimTime,
    phase: u32,
    enabled: bool,
}

impl Collector {
    /// Collector with a phase window of `window` (records closer together
    /// than this are one concurrent I/O phase).
    pub fn new(window: SimDuration) -> Self {
        Collector {
            records: Vec::new(),
            phase_window: window,
            phase_start: SimTime::ZERO,
            phase: 0,
            enabled: true,
        }
    }

    /// Collector with a 1 ms phase window (suits the simulated MPI-IO
    /// layer, which issues one phase per collective call).
    pub fn with_default_window() -> Self {
        Self::new(SimDuration::from_millis(1))
    }

    /// Pause/resume collection (the paper's tracer is only active during
    /// the first run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record one file operation. No-op while disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        pid: u32,
        rank: Rank,
        file: FileId,
        op: IoOp,
        offset: u64,
        len: u64,
        ts: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        if self.records.is_empty() {
            self.phase_start = ts;
        } else if ts.since(self.phase_start) > self.phase_window {
            self.phase += 1;
            self.phase_start = ts;
        }
        self.records.push(TraceRecord {
            pid,
            rank,
            file,
            op,
            offset,
            len,
            ts,
            phase: self.phase,
        });
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finish collection and hand over the trace.
    pub fn finish(self) -> Trace {
        Trace::from_records(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(c: &mut Collector, ms: u64, rank: u32, off: u64) {
        c.record(
            100 + rank,
            Rank(rank),
            FileId(0),
            IoOp::Write,
            off,
            4096,
            SimTime::from_nanos(ms * 1_000_000),
        );
    }

    #[test]
    fn close_records_share_a_phase() {
        let mut c = Collector::with_default_window();
        at_ms(&mut c, 0, 0, 0);
        at_ms(&mut c, 0, 1, 4096);
        at_ms(&mut c, 0, 2, 8192);
        let t = c.finish();
        assert_eq!(t.phase_count(), 1);
        assert_eq!(t.concurrency(), vec![3, 3, 3]);
    }

    #[test]
    fn distant_records_split_phases() {
        let mut c = Collector::with_default_window();
        at_ms(&mut c, 0, 0, 0);
        at_ms(&mut c, 10, 0, 4096);
        at_ms(&mut c, 20, 0, 8192);
        let t = c.finish();
        assert_eq!(t.phase_count(), 3);
    }

    #[test]
    fn window_is_anchored_at_phase_start() {
        // Records at 0, 0.9ms, 1.8ms: the third is 1.8ms after phase start,
        // outside the 1ms window even though it is only 0.9ms after its
        // predecessor — phases anchor on the first record.
        let mut c = Collector::new(SimDuration::from_millis(1));
        c.record(1, Rank(0), FileId(0), IoOp::Read, 0, 1, SimTime::from_nanos(0));
        c.record(1, Rank(0), FileId(0), IoOp::Read, 1, 1, SimTime::from_nanos(900_000));
        c.record(1, Rank(0), FileId(0), IoOp::Read, 2, 1, SimTime::from_nanos(1_800_000));
        let t = c.finish();
        assert_eq!(t.phase_count(), 2);
    }

    #[test]
    fn disabled_collector_drops_records() {
        let mut c = Collector::with_default_window();
        at_ms(&mut c, 0, 0, 0);
        c.set_enabled(false);
        at_ms(&mut c, 1, 0, 4096);
        c.set_enabled(true);
        at_ms(&mut c, 2, 0, 8192);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_collector_finishes_empty() {
        let c = Collector::with_default_window();
        assert!(c.is_empty());
        assert!(c.finish().is_empty());
    }
}
