//! Columnar (structure-of-arrays) record batches and streaming sources.
//!
//! A [`RecordBatch`] holds one barrier phase of records as parallel
//! columns instead of a `Vec<TraceRecord>`. The sharded replay consumes
//! phases column-wise — every pass touches only the two or three columns
//! it needs, so a 10 M-record phase streams through cache-sized slabs
//! instead of striding over 64-byte record structs.
//!
//! A [`BatchSource`] yields phases one batch at a time. Generators
//! implement it directly (emitting each phase as they compute it), so a
//! 10 M-record grid run never materializes the full record vector; a
//! borrowed [`TraceBatches`] adapts any existing [`Trace`]. The two views
//! are interchangeable: [`materialize`] collects any source back into a
//! `Trace`.
//!
//! The streaming generators write each phase through one emitter that is
//! generic over a `PhaseSink`: `next_phase` runs it into a
//! `RecordBatch`, and `generate(cfg)` runs it straight into a
//! `Vec<TraceRecord>` without a columnar round trip. Both views come from
//! the same code path, so `generate(cfg)` equals
//! `materialize(stream(cfg))` bit for bit by construction.

use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::SimTime;
use storage_model::IoOp;

/// One barrier phase of trace records, stored as parallel columns.
///
/// All columns always have equal length; the phase id is a scalar
/// because a batch spans exactly one phase. Buffers are retained across
/// [`RecordBatch::begin`] calls, so a streaming loop reusing one batch
/// is allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    phase: u32,
    pids: Vec<u32>,
    ranks: Vec<u32>,
    files: Vec<u32>,
    ops: Vec<IoOp>,
    offsets: Vec<u64>,
    lens: Vec<u64>,
    timestamps: Vec<SimTime>,
}

impl RecordBatch {
    /// Empty batch for phase 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all columns and start a batch for `phase`, keeping the
    /// allocated capacity.
    pub fn begin(&mut self, phase: u32) {
        self.phase = phase;
        self.pids.clear();
        self.ranks.clear();
        self.files.clear();
        self.ops.clear();
        self.offsets.clear();
        self.lens.clear();
        self.timestamps.clear();
    }

    /// Append one record.
    pub fn push(&mut self, rec: &TraceRecord) {
        debug_assert_eq!(rec.phase, self.phase, "batch spans exactly one phase");
        self.pids.push(rec.pid);
        self.ranks.push(rec.rank.0);
        self.files.push(rec.file.0);
        self.ops.push(rec.op);
        self.offsets.push(rec.offset);
        self.lens.push(rec.len);
        self.timestamps.push(rec.ts);
    }

    /// Reconstruct record `i` from the columns.
    pub fn record(&self, i: usize) -> TraceRecord {
        TraceRecord {
            pid: self.pids[i],
            rank: Rank(self.ranks[i]),
            file: FileId(self.files[i]),
            op: self.ops[i],
            offset: self.offsets[i],
            len: self.lens[i],
            ts: self.timestamps[i],
            phase: self.phase,
        }
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The phase every record of this batch belongs to.
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Process id column.
    pub fn pids(&self) -> &[u32] {
        &self.pids
    }

    /// MPI rank column.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// File id column.
    pub fn files(&self) -> &[u32] {
        &self.files
    }

    /// Operation column.
    pub fn ops(&self) -> &[IoOp] {
        &self.ops
    }

    /// Byte offset column.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Request length column.
    pub fn lens(&self) -> &[u64] {
        &self.lens
    }

    /// Timestamp column.
    pub fn timestamps(&self) -> &[SimTime] {
        &self.timestamps
    }

    /// Bytes moved by this batch.
    pub fn total_bytes(&self) -> u64 {
        self.lens.iter().sum()
    }
}

/// Where a generator's phase emitter writes its records.
///
/// A [`RecordBatch`] holds one phase and is cleared by every `begin`; a
/// `Vec<TraceRecord>` ignores phase boundaries and appends every phase,
/// which is how `generate` materializes a trace directly.
pub(crate) trait PhaseSink {
    /// Start phase `phase`.
    fn begin(&mut self, phase: u32);
    /// Append one record of the current phase.
    fn push(&mut self, rec: &TraceRecord);
}

impl PhaseSink for RecordBatch {
    fn begin(&mut self, phase: u32) {
        RecordBatch::begin(self, phase);
    }

    fn push(&mut self, rec: &TraceRecord) {
        RecordBatch::push(self, rec);
    }
}

impl PhaseSink for Vec<TraceRecord> {
    fn begin(&mut self, _phase: u32) {}

    fn push(&mut self, rec: &TraceRecord) {
        Vec::push(self, *rec);
    }
}

/// A stream of barrier phases.
///
/// Each call to [`BatchSource::next_phase`] fills `batch` with the next
/// phase's records (replacing its previous contents) and returns `true`,
/// or returns `false` when the stream is exhausted (leaving `batch`
/// empty). Phases arrive in issue order, exactly as the equivalent
/// materialized [`Trace`] would order them.
pub trait BatchSource {
    /// Produce the next phase into `batch`; `false` when exhausted.
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool;

    /// Total records remaining, when the source knows it (sizing hint
    /// only — consumers must not rely on it for correctness).
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// Borrowed phase-by-phase view of a [`Trace`]: each batch is one
/// consecutive run of records sharing a phase id, matching how the
/// replay schedule spans a trace.
#[derive(Debug, Clone)]
pub struct TraceBatches<'a> {
    records: &'a [TraceRecord],
    pos: usize,
}

impl<'a> TraceBatches<'a> {
    /// Stream `trace` from its first record.
    pub fn new(trace: &'a Trace) -> Self {
        TraceBatches { records: trace.records(), pos: 0 }
    }
}

impl BatchSource for TraceBatches<'_> {
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool {
        let Some(first) = self.records.get(self.pos) else {
            batch.begin(0);
            return false;
        };
        batch.begin(first.phase);
        while let Some(rec) = self.records.get(self.pos) {
            if rec.phase != first.phase {
                break;
            }
            batch.push(rec);
            self.pos += 1;
        }
        true
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.records.len() - self.pos)
    }
}

/// Collect a whole source into a materialized [`Trace`].
pub fn materialize<S: BatchSource + ?Sized>(source: &mut S) -> Trace {
    let mut records = Vec::with_capacity(source.len_hint().unwrap_or(0));
    let mut batch = RecordBatch::new();
    while source.next_phase(&mut batch) {
        for i in 0..batch.len() {
            records.push(batch.record(i));
        }
    }
    Trace::from_records(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ior::{generate, IorConfig};

    #[test]
    fn push_and_record_round_trip() {
        let rec = TraceRecord {
            pid: 7,
            rank: Rank(3),
            file: FileId(11),
            op: IoOp::Read,
            offset: 4096,
            len: 512,
            ts: SimTime::from_nanos(99),
            phase: 2,
        };
        let mut b = RecordBatch::new();
        b.begin(2);
        b.push(&rec);
        assert_eq!(b.len(), 1);
        assert_eq!(b.record(0), rec);
        assert_eq!(b.phase(), 2);
        assert_eq!(b.total_bytes(), 512);
        b.begin(5);
        assert!(b.is_empty(), "begin clears the previous phase");
        assert_eq!(b.phase(), 5);
    }

    #[test]
    fn trace_batches_split_on_phase_boundaries() {
        let t = generate(&{
            let mut c = IorConfig::default_run(IoOp::Write);
            c.reqs_per_proc = 3;
            c.proc_mix = vec![4];
            c
        });
        let mut src = TraceBatches::new(&t);
        assert_eq!(src.len_hint(), Some(12));
        let mut batch = RecordBatch::new();
        let mut phases = Vec::new();
        let mut total = 0;
        while src.next_phase(&mut batch) {
            assert_eq!(batch.len(), 4);
            phases.push(batch.phase());
            total += batch.len();
        }
        assert_eq!(phases, vec![0, 1, 2]);
        assert_eq!(total, t.len());
        assert_eq!(src.len_hint(), Some(0));
        assert!(!src.next_phase(&mut batch), "exhausted source stays exhausted");
        assert!(batch.is_empty());
    }

    #[test]
    fn materialize_round_trips_a_trace() {
        let t = generate(&IorConfig::default_run(IoOp::Read));
        let round = materialize(&mut TraceBatches::new(&t));
        assert_eq!(round.records(), t.records());
    }

    #[test]
    fn empty_trace_streams_no_batches() {
        let t = Trace::new();
        let mut src = TraceBatches::new(&t);
        let mut batch = RecordBatch::new();
        assert!(!src.next_phase(&mut batch));
        assert!(materialize(&mut TraceBatches::new(&t)).is_empty());
    }
}
