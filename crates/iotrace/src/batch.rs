//! Run-encoded record batches and streaming sources.
//!
//! A [`RecordBatch`] holds one barrier phase of records as seven columns
//! instead of a `Vec<TraceRecord>`, and stores each column as a run
//! `base + i·step` until the first value that breaks it. Generated phases
//! vary in few columns: an IOR phase's pid, rank, file, op, length and
//! timestamp are constant or `base + rank`, so a 16,384-rank phase keeps
//! only its offsets, 8 B per record.
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

/// A column value: an unsigned word under wrapping arithmetic, so one
/// run form covers constant, rising and falling (wrapping step) columns.
trait Word: Copy + Default + PartialEq {
    fn plus(self, other: Self) -> Self;
    fn minus(self, other: Self) -> Self;
    fn times(self, i: usize) -> Self;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            fn plus(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
            fn minus(self, other: Self) -> Self {
                self.wrapping_sub(other)
            }
            fn times(self, i: usize) -> Self {
                // Truncating `i` is exact modulo the word size.
                self.wrapping_mul(i as $t)
            }
        }
    )*};
}
word!(u8, u32, u64);

/// One column: the run `base + i·step` until a value breaks it, then
/// every value.
#[derive(Debug, Clone, Default)]
struct Column<T> {
    base: T,
    step: T,
    /// Every value once the run broke; empty while the column is a run.
    values: Vec<T>,
}

impl<T: Word> Column<T> {
    fn run_at(&self, i: usize) -> T {
        self.base.plus(self.step.times(i))
    }

    /// Append `v` as value `i`; the column holds values `0..i`.
    fn push(&mut self, i: usize, v: T) {
        if !self.values.is_empty() {
            self.values.push(v);
        } else if i == 0 {
            self.base = v;
        } else if i == 1 {
            self.step = v.minus(self.base);
        } else if v != self.run_at(i) {
            let (base, step) = (self.base, self.step);
            self.values.extend((0..i).map(|k| base.plus(step.times(k))));
            self.values.push(v);
        }
    }

    fn get(&self, i: usize) -> T {
        if self.values.is_empty() {
            self.run_at(i)
        } else {
            self.values[i]
        }
    }
}

/// One barrier phase of trace records, stored as run-encoded columns.
///
/// Every column holds `len` values; the phase id is a scalar because a
/// batch spans exactly one phase. Buffers are retained across
/// [`RecordBatch::begin`] calls, so a streaming loop reusing one batch
/// is allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    phase: u32,
    len: usize,
    pids: Column<u32>,
    ranks: Column<u32>,
    files: Column<u32>,
    /// `IoOp::Read` is 0, `IoOp::Write` 1.
    ops: Column<u8>,
    offsets: Column<u64>,
    lens: Column<u64>,
    /// Nanoseconds.
    timestamps: Column<u64>,
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
        self.len = 0;
        self.pids.values.clear();
        self.ranks.values.clear();
        self.files.values.clear();
        self.ops.values.clear();
        self.offsets.values.clear();
        self.lens.values.clear();
        self.timestamps.values.clear();
    }

    /// Append one record.
    pub fn push(&mut self, rec: &TraceRecord) {
        debug_assert_eq!(rec.phase, self.phase, "batch spans exactly one phase");
        let i = self.len;
        self.pids.push(i, rec.pid);
        self.ranks.push(i, rec.rank.0);
        self.files.push(i, rec.file.0);
        self.ops.push(i, matches!(rec.op, IoOp::Write).into());
        self.offsets.push(i, rec.offset);
        self.lens.push(i, rec.len);
        self.timestamps.push(i, rec.ts.as_nanos());
        self.len += 1;
    }

    /// Reconstruct record `i` from the columns.
    pub fn record(&self, i: usize) -> TraceRecord {
        assert!(i < self.len, "record {i} of a {}-record batch", self.len);
        TraceRecord {
            pid: self.pids.get(i),
            rank: Rank(self.ranks.get(i)),
            file: FileId(self.files.get(i)),
            op: if self.ops.get(i) == 0 { IoOp::Read } else { IoOp::Write },
            offset: self.offsets.get(i),
            len: self.lens.get(i),
            ts: SimTime::from_nanos(self.timestamps.get(i)),
            phase: self.phase,
        }
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The phase every record of this batch belongs to.
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Bytes moved by this batch.
    pub fn total_bytes(&self) -> u64 {
        (0..self.len).map(|i| self.lens.get(i)).sum()
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
    use simrt::rng::SmallRng;
    use simrt::SeedSeq;

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

    /// `n` values of one column: constant, rising, falling, wrapping, a
    /// run broken at index 1, 2, n−1 or at random, or random. Narrower
    /// fields truncate, which keeps a run a run (modulo their width), and
    /// the op column reads the low bit, so an odd step alternates ops.
    fn column(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        let step = if rng.gen_bool(0.5) { rng.gen_range(1..=16u64) } else { rng.next_u64() };
        let base = rng.next_u64();
        let run =
            |base: u64, step: u64| move |i: usize| base.wrapping_add(step.wrapping_mul(i as u64));
        match rng.gen_range(0..6u32) {
            0 => vec![base; n],
            1 => (0..n).map(run(base, step)).collect(),
            2 => (0..n).map(run(base, step.wrapping_neg())).collect(),
            3 => (0..n).map(run(u64::MAX - step, step)).collect(),
            4 => {
                let at = [1, 2, n.saturating_sub(1), rng.gen_range(0..n.max(1))]
                    [rng.gen_range(0..4usize)];
                let mut v: Vec<u64> = (0..n).map(run(base, step)).collect();
                if let Some(x) = v.get_mut(at) {
                    // Flipping the low bit breaks the run in every width.
                    *x ^= 1;
                }
                v
            }
            _ => (0..n).map(|_| rng.next_u64()).collect(),
        }
    }

    /// One phase of `n` records whose seven fields are independent
    /// [`column`]s.
    fn phase_records(rng: &mut SmallRng, phase: u32, n: usize) -> Vec<TraceRecord> {
        let c: Vec<Vec<u64>> = (0..7).map(|_| column(rng, n)).collect();
        (0..n)
            .map(|i| TraceRecord {
                pid: c[0][i] as u32,
                rank: Rank(c[1][i] as u32),
                file: FileId(c[2][i] as u32),
                op: if c[3][i] & 1 == 0 { IoOp::Read } else { IoOp::Write },
                offset: c[4][i],
                len: c[5][i],
                ts: SimTime::from_nanos(c[6][i]),
                phase,
            })
            .collect()
    }

    /// Fill `batch` with `recs` and read every record back.
    fn check_phase(batch: &mut RecordBatch, phase: u32, recs: &[TraceRecord]) {
        batch.begin(phase);
        for r in recs {
            batch.push(r);
        }
        assert_eq!(batch.len(), recs.len());
        assert_eq!(batch.phase(), phase);
        let got: Vec<TraceRecord> = (0..batch.len()).map(|i| batch.record(i)).collect();
        assert_eq!(got, recs, "phase {phase}");
        if let Some(total) = recs.iter().try_fold(0u64, |a, r| a.checked_add(r.len)) {
            assert_eq!(batch.total_bytes(), total, "phase {phase}");
        }
    }

    #[test]
    fn run_columns_read_back_like_a_record_vector() {
        let mut rng = SeedSeq::new(0xba7c).rng();
        for trial in 0..200 {
            let mut batch = RecordBatch::new();
            for phase in 0..8 {
                let most = if rng.gen_bool(0.2) { 4 } else { 64 };
                let n = rng.gen_range(0..most);
                let recs = phase_records(&mut rng, trial * 8 + phase, n);
                check_phase(&mut batch, trial * 8 + phase, &recs);
            }
        }
    }

    #[test]
    fn begin_reuses_a_materialized_batch_for_a_run_and_back() {
        let mut rng = SeedSeq::new(7).rng();
        let random: Vec<TraceRecord> = (0..100)
            .map(|_| TraceRecord {
                pid: rng.next_u64() as u32,
                rank: Rank(rng.next_u64() as u32),
                file: FileId(rng.next_u64() as u32),
                op: if rng.gen_bool(0.5) { IoOp::Read } else { IoOp::Write },
                offset: rng.next_u64(),
                len: rng.gen_range(1..1u64 << 20),
                ts: SimTime::from_nanos(rng.next_u64()),
                phase: 0,
            })
            .collect();
        let run: Vec<TraceRecord> = (0..100u32)
            .map(|i| TraceRecord {
                pid: 1000 + i,
                rank: Rank(i),
                file: FileId(3),
                op: IoOp::Write,
                offset: u64::from(99 - i) << 16,
                len: 65536,
                ts: SimTime::from_nanos(42),
                phase: 1,
            })
            .collect();
        let mut batch = RecordBatch::new();
        check_phase(&mut batch, 0, &random);
        check_phase(&mut batch, 1, &run);
        check_phase(&mut batch, 0, &random);
        check_phase(&mut batch, 1, &run[..1]);
        check_phase(&mut batch, 2, &[]);
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
