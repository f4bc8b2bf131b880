//! Run-encoded record storage, phase batches and streaming sources.
//!
//! Records are stored in runs: stretches of adjacent records kept
//! as eight columns (pid, rank, file, op, offset, length, timestamp and
//! phase) instead of a `Vec<TraceRecord>`. Each column of a run is the
//! sequence `base + i·step` until the first value that breaks it; from
//! then on the run keeps that column's values literally, in an arena the
//! whole store shares (one arena per column). Generated phases vary in
//! few columns: an IOR phase's pid, rank, file, op, length, timestamp
//! and phase are constant or `base + rank`, so a 16,384-rank phase keeps
//! only its offsets, 8 B per record.
//!
//! One encoding serves both views of a trace. A [`RecordBatch`] is a
//! store holding one run, one barrier phase; a [`Trace`] is a store
//! holding many. A trace opens a new run where a phase run (a stretch of
//! adjacent records sharing a phase id) starts, unless its open run
//! still costs more than a `TraceRecord` per record: then the next phase
//! joins it, and its phase column stops being constant. Short irregular
//! phases therefore merge until the header is paid for, so no trace
//! costs more than 48 B per record plus one run header.
//!
//! A [`BatchSource`] yields phases one batch at a time. Generators
//! implement it directly (emitting each phase as they compute it), so a
//! 10 M-record grid run never materializes the full trace; a borrowed
//! [`TraceBatches`] hands each stored phase of an existing [`Trace`] to
//! the batch without copying a record.
//!
//! The streaming generators write each phase through one emitter that is
//! generic over a `PhaseSink`: `next_phase` runs it into a
//! `RecordBatch`, and `generate(cfg)` runs it straight into a trace's
//! store. Both views come from the same code path, so `generate(cfg)`
//! holds exactly the records that draining `stream(cfg)` yields, by
//! construction.

use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::SimTime;
use std::mem::size_of;
use std::sync::Arc;
use storage_model::IoOp;

/// A column value: an unsigned word under wrapping arithmetic, so one
/// run form covers constant, rising and falling (wrapping step) columns.
pub(crate) trait Word: Copy + Default + PartialEq {
    fn plus(self, other: Self) -> Self;
    fn minus(self, other: Self) -> Self;
    fn times(self, i: usize) -> Self;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline(always)]
            fn plus(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
            #[inline(always)]
            fn minus(self, other: Self) -> Self {
                self.wrapping_sub(other)
            }
            #[inline(always)]
            fn times(self, i: usize) -> Self {
                // Truncating `i` is exact modulo the word size.
                self.wrapping_mul(i as $t)
            }
        }
    )*};
}
word!(u8, u32, u64);

/// One column of a run: value `i` is `base + i·step`. Once the column is
/// literal (its bit in [`Run::literal`] is set), `base` holds the index
/// of its first value in the column's arena instead (the op column keeps
/// that index in [`Run::op_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Col<W> {
    base: W,
    step: W,
}

impl<W: Word> Col<W> {
    #[inline(always)]
    fn at(self, i: usize) -> W {
        self.base.plus(self.step.times(i))
    }
}

/// Value `k` of a column whose literals, if any, start at `arena[at]`.
#[inline(always)]
fn value<W: Word>(col: Col<W>, literal: bool, at: usize, arena: &[W], k: usize) -> W {
    if literal {
        arena[at + k]
    } else {
        col.at(k)
    }
}

/// Set value `k < 2` of a run-mode column: its base, then its step.
#[inline(always)]
fn begin<W: Word>(col: &mut Col<W>, k: usize, v: W) {
    if k == 0 {
        *col = Col { base: v, step: W::default() };
    } else {
        col.step = v.minus(col.base);
    }
}

/// Encode column `get` of `recs` (at least one item) into the empty
/// column `col`: a run when every value is `base + i·step`, else every
/// value appended to `arena`, whose index comes back: the column pushing
/// the values one by one builds.
#[inline(always)]
fn encode<T, W: Word>(
    recs: &[T],
    get: impl Fn(&T) -> W,
    col: &mut Col<W>,
    arena: &mut Vec<W>,
    grow: Grow,
) -> Option<usize> {
    let base = get(&recs[0]);
    let step = recs.get(1).map_or(W::default(), |r| get(r).minus(base));
    *col = Col { base, step };
    let mut next = base.plus(step);
    let breaks = recs.iter().skip(2).any(|r| {
        next = next.plus(step);
        get(r) != next
    });
    if !breaks {
        return None;
    }
    grow.reserve(arena, recs.len());
    let at = arena.len();
    arena.extend(recs.iter().map(get));
    Some(at)
}

/// An arena index as a narrow column's `base`.
fn index32(at: usize) -> u32 {
    u32::try_from(at).expect("a column arena holds at most 2^32 values")
}

const PID: u8 = 1;
const RANK: u8 = 1 << 1;
const FILE: u8 = 1 << 2;
const OP: u8 = 1 << 3;
const OFFSET: u8 = 1 << 4;
const LEN: u8 = 1 << 5;
const TS: u8 = 1 << 6;
const PHASE: u8 = 1 << 7;

/// A stretch of adjacent records stored as run-encoded columns (see the
/// module docs). 96 bytes, whatever its length.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    offset: Col<u64>,
    len: Col<u64>,
    /// Nanoseconds.
    ts: Col<u64>,
    pid: Col<u32>,
    rank: Col<u32>,
    file: Col<u32>,
    phase: Col<u32>,
    /// Index of the run's first record in its store.
    start: u32,
    /// Records in the run.
    count: u32,
    /// Arena index of the op literals: the op column's `base` is too
    /// narrow to hold it.
    op_at: u32,
    /// `IoOp::Read` is 0, `IoOp::Write` 1.
    op: Col<u8>,
    /// One bit per literal column.
    literal: u8,
}

impl Run {
    /// Index of the run's first record in its store.
    #[inline]
    pub(crate) fn start(&self) -> usize {
        self.start as usize
    }

    /// Records in the run.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    #[inline(always)]
    fn is_literal(&self, bit: u8) -> bool {
        self.literal & bit != 0
    }

    /// Heap bytes the run costs: its header and its literal values.
    #[inline]
    fn bytes(&self) -> usize {
        let count = |bits: u8| (self.literal & bits).count_ones() as usize;
        let per_record = 8 * count(OFFSET | LEN | TS) + 4 * count(PID | RANK | FILE | PHASE) + count(OP);
        size_of::<Run>() + per_record * self.len()
    }

    /// True when every record of the run shares one phase id.
    #[inline]
    fn one_phase(&self) -> bool {
        !self.is_literal(PHASE) && self.phase.step == 0
    }
}

/// One run's length column, read without the other seven
/// ([`Runs::run_lens`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunLens<'a> {
    /// The run's lengths, stored literally.
    Literal(&'a [u64]),
    /// Length `i` is `base + i·step`.
    Step(Col<u64>),
}

impl RunLens<'_> {
    /// Length `k` of the run.
    #[inline(always)]
    pub(crate) fn at(self, k: usize) -> u64 {
        match self {
            RunLens::Literal(v) => v[k],
            RunLens::Step(col) => col.at(k),
        }
    }

    /// Fold lengths `from..to` of the run into `acc`, one tight loop.
    #[inline]
    pub(crate) fn fold<B>(self, from: usize, to: usize, acc: B, f: &mut impl FnMut(B, u64) -> B) -> B {
        match self {
            RunLens::Literal(v) => v[from..to].iter().fold(acc, |a, &len| f(a, len)),
            RunLens::Step(col) => (from..to).fold(acc, |a, k| f(a, col.at(k))),
        }
    }
}

/// How far a store's construction has come, so that its tables can be
/// sized for the end instead of doubling.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Pace {
    /// Nothing is known: tables double.
    #[default]
    Unknown,
    /// The store will hold about this many records.
    Records(usize),
    /// `done` of `total` bytes of input text are consumed. A parse
    /// never copies its tables down at the end, so its estimates carry
    /// a 1/16 margin.
    Input { done: usize, total: usize },
}

/// A table's growth policy at one push: the pace, and the records the
/// store holds with the one being pushed.
#[derive(Debug, Clone, Copy)]
struct Grow {
    pace: Pace,
    done: usize,
}

impl Grow {
    /// Entries a table will need at the end, extrapolated from `have`
    /// entries for `done` records (or input bytes) so far.
    fn estimate(self, have: usize) -> Estimate {
        let (done, total) = match self.pace {
            Pace::Unknown => return Estimate::None,
            Pace::Records(total) => (self.done, total),
            Pace::Input { done, total } => (done, total),
        };
        if done == 0 {
            return Estimate::None;
        }
        let est = match have.checked_mul(total) {
            Some(p) => p / done,
            None => (have as u128 * total as u128 / done as u128).min(usize::MAX as u128 / 2) as usize,
        };
        match self.pace {
            Pace::Input { .. } => Estimate::AtMost(est + est / 16),
            _ => Estimate::Exact(est),
        }
    }

    /// Room for `need` more values in `arena`, grown as [`grow_to`] says.
    #[inline]
    fn reserve<T>(self, arena: &mut Vec<T>, need: usize) {
        if arena.capacity() - arena.len() < need {
            let est = self.estimate(arena.len() + need);
            grow_to(arena, need, est);
        }
    }
}

/// A table's extrapolated end size.
#[derive(Debug, Clone, Copy)]
enum Estimate {
    /// Nothing to extrapolate from.
    None,
    /// From the records' count, known up front: trusted.
    Exact(usize),
    /// From the input's length: a text's first lines may be much
    /// shorter than its mean (LANL's are half), so it only caps a
    /// doubling.
    AtMost(usize),
}

/// Grow `v` for `need` more entries: to the exact estimate of its end
/// size, or else to double its length, or to a capped estimate when that
/// is smaller but enough.
#[cold]
fn grow_to<T>(v: &mut Vec<T>, need: usize, estimate: Estimate) {
    let want = v.len() + need;
    let doubled = want.max(2 * v.len()).max(4);
    let cap = match estimate {
        Estimate::Exact(e) if e >= want => e,
        Estimate::AtMost(e) if e >= want => e.min(doubled),
        _ => doubled,
    };
    v.reserve_exact(cap - v.len());
}

/// Records stored as runs of run-encoded columns, with one literal arena
/// per column shared by every run: the storage of a [`Trace`] and of a
/// [`RecordBatch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Runs {
    runs: Vec<Run>,
    /// Records in all runs.
    len: usize,
    pids: Vec<u32>,
    ranks: Vec<u32>,
    files: Vec<u32>,
    ops: Vec<u8>,
    offsets: Vec<u64>,
    lens: Vec<u64>,
    tss: Vec<u64>,
    phases: Vec<u32>,
    pace: Pace,
}

impl Runs {
    /// Empty store whose tables grow at `pace`.
    pub(crate) fn with_pace(pace: Pace) -> Self {
        Runs { pace, ..Runs::default() }
    }

    /// Records stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The runs, in record order.
    #[inline]
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Record `k` of `run`.
    #[inline]
    pub(crate) fn record(&self, run: &Run, k: usize) -> TraceRecord {
        debug_assert!(k < run.len(), "record {k} of a {}-record run", run.len());
        let lit = |bit| run.is_literal(bit);
        TraceRecord {
            pid: value(run.pid, lit(PID), run.pid.base as usize, &self.pids, k),
            rank: Rank(value(run.rank, lit(RANK), run.rank.base as usize, &self.ranks, k)),
            file: FileId(value(run.file, lit(FILE), run.file.base as usize, &self.files, k)),
            op: if value(run.op, lit(OP), run.op_at as usize, &self.ops, k) == 0 {
                IoOp::Read
            } else {
                IoOp::Write
            },
            offset: value(run.offset, lit(OFFSET), run.offset.base as usize, &self.offsets, k),
            len: value(run.len, lit(LEN), run.len.base as usize, &self.lens, k),
            ts: SimTime::from_nanos(value(run.ts, lit(TS), run.ts.base as usize, &self.tss, k)),
            phase: self.phase(run, k),
        }
    }

    /// Phase id of record `k` of `run`.
    #[inline]
    pub(crate) fn phase(&self, run: &Run, k: usize) -> u32 {
        value(run.phase, run.is_literal(PHASE), run.phase.base as usize, &self.phases, k)
    }

    /// The length column of `run`.
    #[inline]
    pub(crate) fn run_lens(&self, run: &Run) -> RunLens<'_> {
        if run.is_literal(LEN) {
            let at = run.len.base as usize;
            RunLens::Literal(&self.lens[at..at + run.len()])
        } else {
            RunLens::Step(run.len)
        }
    }

    /// File id of record `k` of `run`.
    #[inline]
    pub(crate) fn file(&self, run: &Run, k: usize) -> u32 {
        value(run.file, run.is_literal(FILE), run.file.base as usize, &self.files, k)
    }

    /// Records of `run` from `k` on that share record `k`'s phase id.
    pub(crate) fn phase_len(&self, run: &Run, k: usize) -> usize {
        if run.one_phase() {
            return run.len() - k;
        }
        let phase = self.phase(run, k);
        (k + 1..run.len()).take_while(|&j| self.phase(run, j) == phase).count() + 1
    }

    /// Index of the run holding record `i < len`.
    pub(crate) fn find(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "record {i} of {}", self.len);
        self.runs.partition_point(|r| r.start() <= i) - 1
    }

    /// Drop every record, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.len = 0;
        self.pids.clear();
        self.ranks.clear();
        self.files.clear();
        self.ops.clear();
        self.offsets.clear();
        self.lens.clear();
        self.tss.clear();
        self.phases.clear();
    }

    /// Start an empty run whose phase column begins at `phase`, and
    /// which is to hold `n` records (a guess when pushing one by one).
    fn open(&mut self, phase: u32, n: usize) {
        let run = Run { start: index32(self.len), phase: Col { base: phase, step: 0 }, ..Run::default() };
        self.push_run(run, n);
    }

    /// Push `run`, which is to hold `n` records, after the last.
    fn push_run(&mut self, run: Run, n: usize) {
        if self.runs.len() == self.runs.capacity() {
            // Runs per record, the opening run included.
            let est = Grow { pace: self.pace, done: self.len + n }.estimate(self.runs.len() + 1);
            grow_to(&mut self.runs, 1, est);
        }
        self.runs.push(run);
    }

    /// True when the last record belongs to phase `phase`.
    #[inline]
    fn ends_in(&self, phase: u32) -> bool {
        self.runs.last().is_some_and(|last| {
            if last.one_phase() {
                last.phase.base == phase
            } else {
                self.phase(last, last.len() - 1) == phase
            }
        })
    }

    /// True when the last run costs more than a `TraceRecord` per record,
    /// so the next phase joins it.
    #[inline]
    fn over_budget(&self) -> bool {
        self.runs.last().is_some_and(|last| last.bytes() > last.len() * size_of::<TraceRecord>())
    }

    /// Append `recs`, one phase run whose id differs from the last
    /// record's, exactly as pushing them one by one would: as a new run
    /// encoded a column at a time, or record by record into the last run
    /// while that still costs more than a `TraceRecord` per record.
    pub(crate) fn push_phase(&mut self, recs: &[TraceRecord]) {
        let Some(first) = recs.first() else { return };
        if self.ends_in(first.phase) || self.over_budget() {
            for r in recs {
                self.append(r);
            }
            return;
        }
        self.open(first.phase, recs.len());
        let grow = Grow { pace: self.pace, done: self.len + recs.len() };
        let Runs { runs, len, pids, ranks, files, ops, offsets, lens, tss, phases, .. } = self;
        let run = runs.last_mut().expect("just opened");
        let mut literal = 0;
        if let Some(at) = encode(recs, |r| r.pid, &mut run.pid, pids, grow) {
            (run.pid.base, literal) = (index32(at), literal | PID);
        }
        if let Some(at) = encode(recs, |r| r.rank.0, &mut run.rank, ranks, grow) {
            (run.rank.base, literal) = (index32(at), literal | RANK);
        }
        if let Some(at) = encode(recs, |r| r.file.0, &mut run.file, files, grow) {
            (run.file.base, literal) = (index32(at), literal | FILE);
        }
        let op = |r: &TraceRecord| u8::from(matches!(r.op, IoOp::Write));
        if let Some(at) = encode(recs, op, &mut run.op, ops, grow) {
            (run.op_at, literal) = (index32(at), literal | OP);
        }
        if let Some(at) = encode(recs, |r| r.offset, &mut run.offset, offsets, grow) {
            (run.offset.base, literal) = (at as u64, literal | OFFSET);
        }
        if let Some(at) = encode(recs, |r| r.len, &mut run.len, lens, grow) {
            (run.len.base, literal) = (at as u64, literal | LEN);
        }
        if let Some(at) = encode(recs, |r| r.ts.as_nanos(), &mut run.ts, tss, grow) {
            (run.ts.base, literal) = (at as u64, literal | TS);
        }
        if let Some(at) = encode(recs, |r| r.phase, &mut run.phase, phases, grow) {
            (run.phase.base, literal) = (index32(at), literal | PHASE);
        }
        run.literal = literal;
        run.count = u32::try_from(recs.len()).expect("a run holds at most 2^32 - 1 records");
        *len += recs.len();
    }

    /// Append the records [`PhaseSink::push_ranks`] describes exactly as
    /// pushing them one by one would, without reading a value but the
    /// offsets: a new run takes its pid and rank columns as runs of step
    /// 1 and every other column but the offsets as constants, and a run
    /// of the same phase whose columns the records continue takes their
    /// offsets.
    pub(crate) fn push_ranked(&mut self, first: &TraceRecord, offsets: &[u64]) {
        let n = offsets.len();
        if n == 0 {
            return;
        }
        let same = self.ends_in(first.phase);
        if same && self.runs.last().is_some_and(|last| continues(last, first)) {
            return self.extend_offsets(offsets);
        }
        if same || self.over_budget() {
            for (i, &offset) in offsets.iter().enumerate() {
                self.append(&ranked(first, i, offset));
            }
            return;
        }
        let step = u32::from(n > 1);
        let mut run = Run {
            pid: Col { base: first.pid, step },
            rank: Col { base: first.rank.0, step },
            file: Col { base: first.file.0, step: 0 },
            op: Col { base: matches!(first.op, IoOp::Write).into(), step: 0 },
            len: Col { base: first.len, step: 0 },
            ts: Col { base: first.ts.as_nanos(), step: 0 },
            phase: Col { base: first.phase, step: 0 },
            start: index32(self.len),
            count: u32::try_from(n).expect("a run holds at most 2^32 - 1 records"),
            ..Run::default()
        };
        let grow = Grow { pace: self.pace, done: self.len + n };
        if let Some(at) = encode(offsets, |&o| o, &mut run.offset, &mut self.offsets, grow) {
            (run.offset.base, run.literal) = (at as u64, OFFSET);
        }
        self.push_run(run, n);
        self.len += n;
    }

    /// Append `offsets` to the last run, whose other columns the records
    /// continue ([`continues`]).
    fn extend_offsets(&mut self, offsets: &[u64]) {
        let run = self.runs.last().expect("a run to continue");
        let k = run.len();
        if !run.is_literal(OFFSET) {
            let col = run.offset;
            if offsets.iter().enumerate().all(|(i, &o)| o == col.at(k + i)) {
                return self.grew(offsets.len());
            }
            self.break_columns(OFFSET);
        }
        let grow = Grow { pace: self.pace, done: self.len + offsets.len() };
        grow.reserve(&mut self.offsets, offsets.len());
        self.offsets.extend_from_slice(offsets);
        self.grew(offsets.len());
    }

    /// Count `n` records appended to the last run.
    fn grew(&mut self, n: usize) {
        let run = self.runs.last_mut().expect("a run");
        run.count = u32::try_from(run.len() + n).expect("a run holds at most 2^32 - 1 records");
        self.len += n;
    }

    /// Append `rec` to the last run: one comparison per run-mode column
    /// and a push per literal one. A column that breaks is written out
    /// once, then pushed like the other literals.
    #[inline]
    fn append(&mut self, rec: &TraceRecord) {
        let run = self.runs.last_mut().expect("append needs an open run");
        let k = run.len();
        let op: u8 = matches!(rec.op, IoOp::Write).into();
        let ts = rec.ts.as_nanos();
        if k < 2 {
            // A column can break only from its third value on, so the
            // first two set every base and step.
            begin(&mut run.pid, k, rec.pid);
            begin(&mut run.rank, k, rec.rank.0);
            begin(&mut run.file, k, rec.file.0);
            begin(&mut run.op, k, op);
            begin(&mut run.offset, k, rec.offset);
            begin(&mut run.len, k, rec.len);
            begin(&mut run.ts, k, ts);
            begin(&mut run.phase, k, rec.phase);
            run.count += 1;
            self.len += 1;
            return;
        }
        let miss = |differs: bool, bit: u8| if differs { bit } else { 0 };
        let breaks = miss(run.pid.at(k) != rec.pid, PID)
            | miss(run.rank.at(k) != rec.rank.0, RANK)
            | miss(run.file.at(k) != rec.file.0, FILE)
            | miss(run.op.at(k) != op, OP)
            | miss(run.offset.at(k) != rec.offset, OFFSET)
            | miss(run.len.at(k) != rec.len, LEN)
            | miss(run.ts.at(k) != ts, TS)
            | miss(run.phase.at(k) != rec.phase, PHASE);
        let broken = breaks & !run.literal;
        if broken != 0 {
            self.break_columns(broken);
        }
        let run = self.runs.last_mut().expect("append needs an open run");
        let literal = run.literal;
        run.count = run.count.checked_add(1).expect("a run holds at most 2^32 - 1 records");
        self.len += 1;
        if literal != 0 {
            self.push_literals(literal, rec, op);
        }
    }

    /// Turn the run-mode columns set in `bits` of the last run literal:
    /// write each one's values so far to the end of its arena.
    #[cold]
    fn break_columns(&mut self, bits: u8) {
        let grow = Grow { pace: self.pace, done: self.len + 1 };
        let Runs { runs, pids, ranks, files, ops, offsets, lens, tss, phases, .. } = self;
        let run = runs.last_mut().expect("append needs an open run");
        let k = run.len();
        fn spill<W: Word>(col: Col<W>, k: usize, arena: &mut Vec<W>, grow: Grow) -> usize {
            grow.reserve(arena, k + 1);
            let at = arena.len();
            arena.extend((0..k).map(|j| col.at(j)));
            at
        }
        if bits & PID != 0 {
            run.pid.base = index32(spill(run.pid, k, pids, grow));
        }
        if bits & RANK != 0 {
            run.rank.base = index32(spill(run.rank, k, ranks, grow));
        }
        if bits & FILE != 0 {
            run.file.base = index32(spill(run.file, k, files, grow));
        }
        if bits & OP != 0 {
            run.op_at = index32(spill(run.op, k, ops, grow));
        }
        if bits & OFFSET != 0 {
            run.offset.base = spill(run.offset, k, offsets, grow) as u64;
        }
        if bits & LEN != 0 {
            run.len.base = spill(run.len, k, lens, grow) as u64;
        }
        if bits & TS != 0 {
            run.ts.base = spill(run.ts, k, tss, grow) as u64;
        }
        if bits & PHASE != 0 {
            run.phase.base = index32(spill(run.phase, k, phases, grow));
        }
        run.literal |= bits;
    }

    /// Push `rec`'s values of the columns set in `literal` to their arenas.
    #[inline]
    fn push_literals(&mut self, literal: u8, rec: &TraceRecord, op: u8) {
        let grow = Grow { pace: self.pace, done: self.len };
        let lit = |bit: u8| literal & bit != 0;
        if lit(PID) {
            grow.reserve(&mut self.pids, 1);
            self.pids.push(rec.pid);
        }
        if lit(RANK) {
            grow.reserve(&mut self.ranks, 1);
            self.ranks.push(rec.rank.0);
        }
        if lit(FILE) {
            grow.reserve(&mut self.files, 1);
            self.files.push(rec.file.0);
        }
        if lit(OP) {
            grow.reserve(&mut self.ops, 1);
            self.ops.push(op);
        }
        if lit(OFFSET) {
            grow.reserve(&mut self.offsets, 1);
            self.offsets.push(rec.offset);
        }
        if lit(LEN) {
            grow.reserve(&mut self.lens, 1);
            self.lens.push(rec.len);
        }
        if lit(TS) {
            grow.reserve(&mut self.tss, 1);
            self.tss.push(rec.ts.as_nanos());
        }
        if lit(PHASE) {
            grow.reserve(&mut self.phases, 1);
            self.phases.push(rec.phase);
        }
    }

    /// Append records `lo..lo + n` of `run`, a run of `src`, as one new
    /// run. Run-mode columns move their base; literal ones are copied
    /// value by value and stay literal only where the slice still breaks
    /// them. No record is decoded.
    pub(crate) fn append_slice(&mut self, src: &Runs, run: &Run, lo: usize, n: usize) {
        assert!(lo + n <= run.len(), "slice {lo}+{n} of a {}-record run", run.len());
        if n == 0 {
            return;
        }
        self.open(0, n);
        let grow = Grow { pace: self.pace, done: self.len + n };
        let Runs { runs, len, pids, ranks, files, ops, offsets, lens, tss, phases, .. } = self;
        let new = runs.last_mut().expect("just opened");
        // A run-mode column moves its base; a literal one (`values`, its
        // literals from the run's first) is re-encoded from its slice,
        // and stays literal only if the slice breaks it.
        fn slice<W: Word>(
            src: Col<W>,
            values: Option<&[W]>,
            (lo, n): (usize, usize),
            col: &mut Col<W>,
            arena: &mut Vec<W>,
            grow: Grow,
        ) -> Option<usize> {
            if let Some(values) = values {
                return encode(&values[lo..lo + n], |&v| v, col, arena, grow);
            }
            *col = Col { base: src.at(lo), step: if n > 1 { src.step } else { W::default() } };
            None
        }
        let span = (lo, n);
        let lits = |bit: u8, at: u64| run.is_literal(bit).then_some(at as usize);
        let mut literal = 0;
        let values = lits(PID, run.pid.base.into()).map(|at| &src.pids[at..]);
        if let Some(at) = slice(run.pid, values, span, &mut new.pid, pids, grow) {
            (new.pid.base, literal) = (index32(at), literal | PID);
        }
        let values = lits(RANK, run.rank.base.into()).map(|at| &src.ranks[at..]);
        if let Some(at) = slice(run.rank, values, span, &mut new.rank, ranks, grow) {
            (new.rank.base, literal) = (index32(at), literal | RANK);
        }
        let values = lits(FILE, run.file.base.into()).map(|at| &src.files[at..]);
        if let Some(at) = slice(run.file, values, span, &mut new.file, files, grow) {
            (new.file.base, literal) = (index32(at), literal | FILE);
        }
        let values = lits(OP, run.op_at.into()).map(|at| &src.ops[at..]);
        if let Some(at) = slice(run.op, values, span, &mut new.op, ops, grow) {
            (new.op_at, literal) = (index32(at), literal | OP);
        }
        let values = lits(OFFSET, run.offset.base).map(|at| &src.offsets[at..]);
        if let Some(at) = slice(run.offset, values, span, &mut new.offset, offsets, grow) {
            (new.offset.base, literal) = (at as u64, literal | OFFSET);
        }
        let values = lits(LEN, run.len.base).map(|at| &src.lens[at..]);
        if let Some(at) = slice(run.len, values, span, &mut new.len, lens, grow) {
            (new.len.base, literal) = (at as u64, literal | LEN);
        }
        let values = lits(TS, run.ts.base).map(|at| &src.tss[at..]);
        if let Some(at) = slice(run.ts, values, span, &mut new.ts, tss, grow) {
            (new.ts.base, literal) = (at as u64, literal | TS);
        }
        let values = lits(PHASE, run.phase.base.into()).map(|at| &src.phases[at..]);
        if let Some(at) = slice(run.phase, values, span, &mut new.phase, phases, grow) {
            (new.phase.base, literal) = (index32(at), literal | PHASE);
        }
        new.literal = literal;
        new.count = index32(n);
        *len += n;
    }

    /// Add `shift` to the phase id of every record in runs `from..`.
    pub(crate) fn shift_phases(&mut self, from: usize, shift: u32) {
        for run in &mut self.runs[from..] {
            if run.is_literal(PHASE) {
                let at = run.phase.base as usize;
                for p in &mut self.phases[at..at + run.len()] {
                    *p = p.wrapping_add(shift);
                }
            } else {
                run.phase.base = run.phase.base.wrapping_add(shift);
            }
        }
    }

    /// Map every file id through `f`, which must be `v + delta` (wrapping)
    /// for a fixed `delta` on every value it accepts, so that a run stays
    /// a run; `f` may panic to reject a value.
    pub(crate) fn shift_files(&mut self, f: impl Fn(u32) -> u32) {
        for run in &mut self.runs {
            if run.is_literal(FILE) {
                let at = run.file.base as usize;
                for v in &mut self.files[at..at + run.len()] {
                    *v = f(*v);
                }
            } else {
                for k in 1..run.len() {
                    f(run.file.at(k));
                }
                run.file.base = f(run.file.base);
            }
        }
    }

    /// Release what construction reserved: every table is cut to its
    /// length when `exact`, else only where more than a quarter of it is
    /// spare. Later pushes double.
    pub(crate) fn finish(&mut self, exact: bool) {
        fn trim<T>(v: &mut Vec<T>, exact: bool) {
            if exact || v.capacity() - v.len() > v.len() / 4 {
                v.shrink_to_fit();
            }
        }
        trim(&mut self.runs, exact);
        trim(&mut self.pids, exact);
        trim(&mut self.ranks, exact);
        trim(&mut self.files, exact);
        trim(&mut self.ops, exact);
        trim(&mut self.offsets, exact);
        trim(&mut self.lens, exact);
        trim(&mut self.tss, exact);
        trim(&mut self.phases, exact);
        self.pace = Pace::Unknown;
    }
}

/// One barrier phase of trace records, stored as run-encoded columns.
///
/// A batch is a store holding one run. A generator fills its own
/// (`begin`, then `push` per record), whose buffers are
/// retained across `begin` calls, so a streaming loop reusing one batch
/// is allocation-free at steady state. A [`TraceBatches`] instead points
/// the batch at a phase of a trace's store, sharing it; a `push` onto
/// such a batch first copies that phase into the batch's own columns.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    /// The run a generator writes.
    own: Runs,
    /// The trace store this batch views instead of `own`.
    shared: Option<Arc<Runs>>,
    /// The viewed run, and the batch's records in it.
    run: usize,
    lo: usize,
    len: usize,
}

impl RecordBatch {
    /// Empty batch for phase 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the batch and start it for `phase`, keeping the allocated
    /// capacity of its own columns.
    pub(crate) fn begin(&mut self, phase: u32) {
        self.shared = None;
        self.own.clear();
        self.own.open(phase, 1);
        (self.run, self.lo, self.len) = (0, 0, 0);
    }

    /// Append one record. A batch viewing a trace's phase first copies
    /// that phase into its own columns.
    pub(crate) fn push(&mut self, rec: &TraceRecord) {
        debug_assert_eq!(rec.phase, self.phase(), "batch spans exactly one phase");
        if let Some(store) = self.shared.take() {
            self.own_copy(&store);
        }
        self.own.append(rec);
        self.len += 1;
    }

    /// Replace the batch's own columns with a copy of the phase it views
    /// in `store`.
    #[cold]
    fn own_copy(&mut self, store: &Runs) {
        self.own.clear();
        self.own.append_slice(store, &store.runs[self.run], self.lo, self.len);
        (self.run, self.lo) = (0, 0);
    }

    /// View records `lo..lo + len` of run `run` of `store`: one phase.
    fn view(&mut self, store: &Arc<Runs>, run: usize, lo: usize, len: usize) {
        self.shared = Some(Arc::clone(store));
        (self.run, self.lo, self.len) = (run, lo, len);
    }

    #[inline]
    fn store(&self) -> &Runs {
        self.shared.as_deref().unwrap_or(&self.own)
    }

    /// Reconstruct record `i` from the columns.
    #[inline]
    pub fn record(&self, i: usize) -> TraceRecord {
        assert!(i < self.len, "record {i} of a {}-record batch", self.len);
        let store = self.store();
        store.record(&store.runs[self.run], self.lo + i)
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
        let store = self.store();
        store.runs.get(self.run).map_or(0, |run| store.phase(run, self.lo))
    }
}

/// Where a generator's phase emitter writes its records.
///
/// A [`RecordBatch`] holds one phase and is cleared by every `begin`; a
/// trace's store ignores `begin` and appends every phase: a record joins
/// the last run when it continues that run's phase, or while that run
/// still costs more than a `TraceRecord` per record, and opens a run
/// otherwise. That is how `generate` materializes a trace directly.
pub(crate) trait PhaseSink {
    /// Start phase `phase`.
    fn begin(&mut self, phase: u32);
    /// Append one record of the current phase.
    fn push(&mut self, rec: &TraceRecord);
    /// Append one record per offset: record `i` is `first` with `i`
    /// added to its pid and rank and `offsets[i]` as its offset (the
    /// offset of `first` is ignored). One call per run of ranks, the
    /// shape of every IOR, LANL and skewed phase, lets a trace's store
    /// take the columns as they are instead of checking each value.
    #[inline]
    fn push_ranks(&mut self, first: &TraceRecord, offsets: &[u64]) {
        for (i, &offset) in offsets.iter().enumerate() {
            self.push(&ranked(first, i, offset));
        }
    }
}

/// True when records `first` on, pushed by rank, continue every column of
/// `run` but its offsets: pid and rank rising by 1 from the run's next
/// values, the rest the run's constants.
fn continues(run: &Run, first: &TraceRecord) -> bool {
    let k = run.len();
    let constant = |col: Col<u64>, v: u64| col.step == 0 && col.base == v;
    k >= 2
        && run.literal & !OFFSET == 0
        && (run.pid.step, run.pid.at(k)) == (1, first.pid)
        && (run.rank.step, run.rank.at(k)) == (1, first.rank.0)
        && (run.file.step, run.file.base) == (0, first.file.0)
        && (run.op.step, run.op.base) == (0, matches!(first.op, IoOp::Write).into())
        && constant(run.len, first.len)
        && constant(run.ts, first.ts.as_nanos())
        && (run.phase.step, run.phase.base) == (0, first.phase)
}

/// Record `i` of a [`PhaseSink::push_ranks`] call.
#[inline]
fn ranked(first: &TraceRecord, i: usize, offset: u64) -> TraceRecord {
    TraceRecord {
        pid: first.pid.wrapping_add(i as u32),
        rank: Rank(first.rank.0.wrapping_add(i as u32)),
        offset,
        ..*first
    }
}

impl PhaseSink for RecordBatch {
    fn begin(&mut self, phase: u32) {
        RecordBatch::begin(self, phase);
    }

    fn push(&mut self, rec: &TraceRecord) {
        RecordBatch::push(self, rec);
    }
}

/// Builds a trace's store a phase at a time: records are staged until
/// their phase run ends, then encoded a column at a time
/// ([`Runs::push_phase`]), which costs a fraction of encoding them one by
/// one; records pushed by rank ([`PhaseSink::push_ranks`]) go straight
/// to the store ([`Runs::push_ranked`]). The stored runs are the ones
/// pushing the records one at a time would build.
#[derive(Debug, Default)]
pub(crate) struct Builder {
    store: Runs,
    /// The current phase run's records.
    phase: Vec<TraceRecord>,
}

impl Builder {
    /// Empty builder whose tables grow at `pace`.
    pub(crate) fn with_pace(pace: Pace) -> Self {
        Builder { store: Runs::with_pace(pace), phase: Vec::new() }
    }

    /// Tell the store how much input is consumed ([`Pace::Input`]).
    pub(crate) fn set_pace(&mut self, pace: Pace) {
        self.store.pace = pace;
    }

    /// Append one record.
    #[inline]
    pub(crate) fn push(&mut self, rec: &TraceRecord) {
        if self.phase.last().is_some_and(|last| last.phase != rec.phase) {
            self.flush();
        }
        if self.phase.capacity() == 0 {
            // Room for a phase of up to a thousand records, or the whole
            // trace when it is smaller.
            let hint = match self.store.pace {
                Pace::Records(n) => n.min(1024),
                _ => 0,
            };
            self.phase.reserve(hint);
        }
        self.phase.push(*rec);
    }

    fn flush(&mut self) {
        if !self.phase.is_empty() {
            self.store.push_phase(&self.phase);
            self.phase.clear();
        }
    }

    /// The finished store ([`Runs::finish`]).
    pub(crate) fn finish(mut self, exact: bool) -> Runs {
        self.flush();
        drop(self.phase);
        self.store.finish(exact);
        self.store
    }
}

impl PhaseSink for Builder {
    #[inline]
    fn begin(&mut self, _phase: u32) {}

    #[inline]
    fn push(&mut self, rec: &TraceRecord) {
        Builder::push(self, rec);
    }

    fn push_ranks(&mut self, first: &TraceRecord, offsets: &[u64]) {
        self.flush();
        self.store.push_ranked(first, offsets);
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

/// Borrowed phase-by-phase view of a [`Trace`]: each batch is one phase
/// run (a consecutive stretch of records sharing a phase id), matching
/// how the replay schedule spans a trace. A batch views the trace's own
/// storage; no record is copied.
#[derive(Debug, Clone)]
pub struct TraceBatches<'a> {
    store: &'a Arc<Runs>,
    /// The run the next phase starts in, and its first record there.
    run: usize,
    pos: usize,
    left: usize,
}

impl<'a> TraceBatches<'a> {
    /// Stream `trace` from its first record.
    pub fn new(trace: &'a Trace) -> Self {
        let store = trace.store();
        TraceBatches { store, run: 0, pos: 0, left: store.len() }
    }
}

impl BatchSource for TraceBatches<'_> {
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool {
        let runs = self.store.runs();
        while runs.get(self.run).is_some_and(|r| self.pos == r.len()) {
            (self.run, self.pos) = (self.run + 1, 0);
        }
        let Some(run) = runs.get(self.run) else {
            batch.begin(0);
            return false;
        };
        let n = self.store.phase_len(run, self.pos);
        batch.view(self.store, self.run, self.pos, n);
        self.pos += n;
        self.left -= n;
        true
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ior::{generate, IorConfig};
    use simrt::rng::SmallRng;
    use simrt::SeedSeq;

    impl Runs {
        /// Append `rec` to a trace one record at a time, the reference
        /// rule the column encoders must match: it joins the last run
        /// when it continues that run's phase, or when the last run still
        /// costs more than a `TraceRecord` per record; otherwise it opens
        /// a run.
        pub(crate) fn push(&mut self, rec: &TraceRecord) {
            if !self.ends_in(rec.phase) && !self.over_budget() {
                self.open(rec.phase, 1);
            }
            self.append(rec);
        }
    }

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
        b.begin(5);
        assert!(b.is_empty(), "begin clears the previous phase");
        assert_eq!(b.phase(), 5);
    }

    /// Pushing onto a batch that views a trace's phase appends to a copy
    /// of that phase; the trace is untouched.
    #[test]
    fn push_after_a_trace_view_appends_to_a_copy() {
        let trace = generate(&IorConfig::mixed_procs(&[3, 5], IoOp::Write));
        let want = trace.records().to_vec();
        let mut src = TraceBatches::new(&trace);
        let mut b = RecordBatch::new();
        assert!(src.next_phase(&mut b));
        let first = b.len();
        assert!(src.next_phase(&mut b), "the second phase");
        let phase = want[first..first + b.len()].to_vec();
        assert!(phase.iter().all(|r| r.phase == b.phase()));
        let extra = TraceRecord { offset: 1 << 40, ..phase[0] };
        b.push(&extra);
        let got: Vec<TraceRecord> = (0..b.len()).map(|i| b.record(i)).collect();
        assert_eq!(got, [&phase[..], &[extra]].concat());
        assert_eq!(b.phase(), phase[0].phase);
        assert_eq!(trace.records().to_vec(), want, "the viewed trace is unchanged");
        assert!(src.next_phase(&mut b), "the stream continues after the copy");
        assert_eq!(b.record(0), want[first + phase.len()]);
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
    fn empty_trace_streams_no_batches() {
        let t = Trace::new();
        let mut src = TraceBatches::new(&t);
        let mut batch = RecordBatch::new();
        assert!(!src.next_phase(&mut batch));
    }
}
