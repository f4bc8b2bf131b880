//! A trace: records in issue order, stored as run-encoded columns, plus
//! derived views.
//!
//! A [`Trace`] keeps its records in the column encoding of
//! [`crate::RecordBatch`] (see [`crate::batch`]): one run per phase run,
//! each column a run `base + i·step` until a value breaks it and literal
//! values after that, the literals of all runs in arenas the trace
//! shares. [`Trace::records`] decodes records by value; hot loops walk
//! [`Trace::phases`] or a [`Cursor`] and decode each record in O(1) from
//! its run.

use crate::batch::{Pace, Run, Runs};
use crate::error::TraceError;
use crate::record::{FileId, TenantId, TraceRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Largest request length [`Trace::validate`] accepts (4 TiB). A length
/// above this almost certainly came from a negative size reinterpreted
/// as unsigned during ingestion.
pub(crate) const MAX_REQUEST_LEN: u64 = 1 << 42;

/// One past the largest MPI rank [`Trace::validate`] accepts.
pub(crate) const MAX_RANK: u32 = 1 << 20;

/// An application I/O trace in issue order.
///
/// Copy-on-write: the runs live behind one shared allocation, so `clone`
/// is O(1) and every clone reads the same storage. The mutator
/// [`Trace::extend_with`] copies the storage first when another clone
/// still shares it, so a change to one clone never shows in another.
#[derive(Clone, Default)]
pub struct Trace {
    store: Arc<Runs>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").field("records", &self.records()).finish()
    }
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build from records already in issue order.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        let mut store = Runs::with_pace(Pace::Records(records.len()));
        for phase in records.chunk_by(|a, b| a.phase == b.phase) {
            store.push_phase(phase);
        }
        drop(records);
        store.finish(true);
        Trace::from_store(store)
    }

    /// A finished store as a trace.
    pub(crate) fn from_store(store: Runs) -> Self {
        Trace { store: Arc::new(store) }
    }

    /// The shared storage.
    pub(crate) fn store(&self) -> &Arc<Runs> {
        &self.store
    }

    /// Records in issue order, decoded by value.
    pub fn records(&self) -> Records<'_> {
        Records { store: &self.store }
    }

    /// The phase runs in issue order: maximal stretches of adjacent
    /// records sharing a phase id. An id that recurs after another phase
    /// starts a new run.
    pub fn phases(&self) -> Phases<'_> {
        Phases { store: &self.store, run: 0, pos: 0 }
    }

    /// Overwrite `out` with this trace's records, each file id moved into
    /// `tenant`'s namespace ([`FileId::with_tenant`]). `out`'s storage is
    /// reused unless a clone still shares it. Runs are copied column by
    /// column; no record is decoded.
    ///
    /// # Panics
    /// If a file id overflows the tenant-local namespace.
    pub fn retag_into(&self, tenant: TenantId, out: &mut Trace) {
        if Arc::get_mut(&mut out.store).is_none() {
            out.store = Arc::default();
        }
        let store = Arc::get_mut(&mut out.store).expect("unshared");
        store.clear();
        for run in self.store.runs() {
            store.append_slice(&self.store, run, 0, run.len());
        }
        store.shift_files(|f| FileId::with_tenant(tenant, FileId(f)).0);
    }

    /// Check the invariants a well-formed ingested trace must satisfy:
    /// every request has a positive, plausible length (at most 4 TiB) and
    /// an in-file byte range, ranks are below 2^20, and timestamps are
    /// non-decreasing (issue order). Ingestion paths ([`crate::tsv::from_tsv`],
    /// `trace-tool`) run this on every trace they accept.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut last_ts = None;
        for (index, r) in self.records().iter().enumerate() {
            let fail = |reason: String| TraceError::InvalidRecord { index, reason };
            if r.len == 0 {
                return Err(fail("zero-length request".into()));
            }
            if r.len > MAX_REQUEST_LEN {
                return Err(fail(format!(
                    "request length {} exceeds {} bytes (negative size reinterpreted as unsigned?)",
                    r.len, MAX_REQUEST_LEN
                )));
            }
            if r.offset.checked_add(r.len).is_none() {
                return Err(fail(format!(
                    "offset {} + length {} overflows the byte range",
                    r.offset, r.len
                )));
            }
            if r.rank.0 >= MAX_RANK {
                return Err(fail(format!("rank {} out of range (max {})", r.rank.0, MAX_RANK - 1)));
            }
            if let Some(prev) = last_ts {
                if r.ts < prev {
                    return Err(fail(format!(
                        "timestamp {} ns precedes its predecessor at {} ns (records must be in issue order)",
                        r.ts.as_nanos(),
                        prev.as_nanos()
                    )));
                }
            }
            last_ts = Some(r.ts);
        }
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest request size in the trace (the `r_max` of Algorithm 2);
    /// zero for an empty trace.
    pub fn max_request_size(&self) -> u64 {
        self.records().iter().map(|r| r.len).max().unwrap_or(0)
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.records().iter().map(|r| r.len).sum()
    }

    /// Distinct files touched, in id order.
    pub fn files(&self) -> Vec<FileId> {
        let mut v: Vec<FileId> = self.records().iter().map(|r| r.file).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Required size of each file (max end offset), keyed by file.
    pub fn file_extents(&self) -> BTreeMap<FileId, u64> {
        let mut m = BTreeMap::new();
        for r in self.records() {
            let e = m.entry(r.file).or_insert(0u64);
            *e = (*e).max(r.end());
        }
        m
    }

    /// Per-record concurrency: for record `i`, the number of records that
    /// share its phase (including itself). This is the paper's "request
    /// concurrency" feature — the number of requests simultaneously issued
    /// to the file.
    ///
    /// Phase-run pass: the phase runs are grouped by id (a stable sort,
    /// one linear check when ids already ascend), then each group's
    /// per-file tallies accumulate in a flat table reused (and re-zeroed
    /// by the group) across groups — O(n + phase runs + files), decoding
    /// each file id from its run. Traces whose file ids are too sparse to
    /// index densely fall back to a map-based pass.
    pub fn concurrency(&self) -> Vec<u32> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let mut phases: Vec<Phase<'_>> = self.phases().collect();
        let max_file =
            phases.iter().flat_map(|p| (0..p.len()).map(move |k| p.file(k))).max().unwrap_or(0);
        if n >= u32::MAX as usize || (max_file as usize) >= 4 * n + 1024 {
            return self.concurrency_sparse();
        }
        phases.sort_by_key(Phase::phase);
        let mut per_file = vec![0u32; max_file as usize + 1];
        let mut out = vec![0u32; n];
        for group in phases.chunk_by(|a, b| a.phase() == b.phase()) {
            let files = || group.iter().flat_map(|p| (0..p.len()).map(move |k| (p, k)));
            for (p, k) in files() {
                per_file[p.file(k) as usize] += 1;
            }
            for (p, k) in files() {
                out[p.start() + k] = per_file[p.file(k) as usize];
            }
            for (p, k) in files() {
                per_file[p.file(k) as usize] = 0;
            }
        }
        out
    }

    /// The original `BTreeMap<(file, phase), count>` pass — the fallback
    /// for degenerate id ranges and the oracle [`Trace::concurrency`] is
    /// tested against.
    fn concurrency_sparse(&self) -> Vec<u32> {
        let mut phase_count: BTreeMap<(FileId, u32), u32> = BTreeMap::new();
        for r in self.records() {
            *phase_count.entry((r.file, r.phase)).or_insert(0) += 1;
        }
        self.records().iter().map(|r| phase_count[&(r.file, r.phase)]).collect()
    }

    /// One past the largest phase id (0 for an empty trace): the shift
    /// [`Trace::extend_with`] adds to appended phase ids so they stay
    /// distinct. Not a count of phases when ids start above 0 or skip;
    /// [`crate::TraceStats::phases`] counts phase runs.
    pub fn phase_span(&self) -> u32 {
        self.phases().map(|p| p.phase()).max().map_or(0, |p| p + 1)
    }

    /// The trace cut into consecutive windows of `phases` phase runs (the
    /// batches [`crate::TraceBatches`] yields), so windows never split a
    /// phase, and an id that recurs after another phase starts a new run.
    /// The last window may hold fewer runs; concatenating the windows
    /// reproduces the trace. Each window copies its slice of each stored
    /// run column by column; no record is decoded.
    ///
    /// # Panics
    /// If `phases` is 0.
    pub fn phase_windows(&self, phases: u32) -> impl Iterator<Item = Trace> + '_ {
        assert!(phases > 0, "a window needs at least one phase");
        let mut rest = self.phases().peekable();
        std::iter::from_fn(move || {
            rest.peek()?;
            // The window's slice of each stored run it touches.
            let mut slices: Vec<(&Run, usize, usize)> = Vec::new();
            for p in rest.by_ref().take(phases as usize) {
                match slices.last_mut() {
                    Some((run, _, n)) if std::ptr::eq(*run, p.run) => *n += p.len(),
                    _ => slices.push((p.run, p.lo, p.len())),
                }
            }
            let total = slices.iter().map(|s| s.2).sum();
            let mut store = Runs::with_pace(Pace::Records(total));
            for (run, lo, n) in slices {
                store.append_slice(&self.store, run, lo, n);
            }
            store.finish(false);
            Some(Trace::from_store(store))
        })
    }

    /// Concatenate another trace after this one (phases are shifted so they
    /// stay distinct).
    ///
    /// Equivalent to pushing `other`'s shifted records and stable-sorting
    /// the whole trace by `(ts, phase, rank, offset)` — but when the
    /// halves already concatenate in order (the common multi-job assembly
    /// loop) `other`'s runs are appended column by column, and otherwise
    /// the two halves are decoded and merged once.
    pub fn extend_with(&mut self, other: &Trace) {
        let shift = self.phase_span();
        let key = |r: &TraceRecord| (r.ts, r.phase, r.rank, r.offset);
        let shifted = |mut r: TraceRecord| {
            r.phase += shift;
            r
        };
        let is_sorted = |recs: Records<'_>| {
            recs.iter().zip(recs.iter().skip(1)).all(|(a, b)| key(&a) <= key(&b))
        };
        let left_ok = is_sorted(self.records());
        let right_ok = is_sorted(other.records());
        let joins = match (self.records().last(), other.records().first()) {
            (Some(l), Some(r)) => key(&l) <= key(&shifted(r)),
            _ => true,
        };
        if left_ok && right_ok && joins {
            let store = Arc::make_mut(&mut self.store);
            let from = store.runs().len();
            for run in other.store.runs() {
                store.append_slice(&other.store, run, 0, run.len());
            }
            store.shift_phases(from, shift);
            return;
        }
        // Stable-sorting each half keeps equal keys in push order, exactly
        // as one stable sort of the concatenation would.
        let mut left = self.records().to_vec();
        let mut right: Vec<TraceRecord> = other.records().iter().map(shifted).collect();
        if !left_ok {
            left.sort_by_key(key);
        }
        if !right_ok {
            right.sort_by_key(key);
        }
        let mut merged = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0, 0);
        // Left-preferring merge: ties resolve to the left half, matching
        // the stability of sorting the concatenation.
        while i < left.len() && j < right.len() {
            if key(&left[i]) <= key(&right[j]) {
                merged.push(left[i]);
                i += 1;
            } else {
                merged.push(right[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&left[i..]);
        merged.extend_from_slice(&right[j..]);
        drop((left, right));
        *self = Trace::from_records(merged);
    }
}

/// A trace's records, decoded by value ([`Trace::records`]).
#[derive(Clone, Copy)]
pub struct Records<'a> {
    store: &'a Runs,
}

impl<'a> Records<'a> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when there are no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `i`, found by a binary search over the runs. Walk
    /// [`Records::iter`], [`Trace::phases`] or a [`Cursor`] instead of
    /// calling this per record.
    pub fn get(&self, i: usize) -> Option<TraceRecord> {
        (i < self.len()).then(|| {
            let run = &self.store.runs()[self.store.find(i)];
            self.store.record(run, i - run.start())
        })
    }

    /// The first record.
    pub fn first(&self) -> Option<TraceRecord> {
        self.get(0)
    }

    /// The last record.
    pub(crate) fn last(&self) -> Option<TraceRecord> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Every record in issue order.
    pub fn iter(&self) -> Iter<'a> {
        self.iter_from(0)
    }

    /// Records `i..` in issue order; one search finds the first.
    pub fn iter_from(&self, i: usize) -> Iter<'a> {
        let runs = self.store.runs();
        let (run, k) = if i < self.len() {
            let run = self.store.find(i);
            (run, i - runs[run].start())
        } else {
            (runs.len(), 0)
        };
        let mut rest = runs[run.min(runs.len())..].iter();
        let (run, len) = rest.next().map_or((None, 0), |r| (Some(r), r.len()));
        Iter { store: self.store, run, k, len, rest, left: self.len().saturating_sub(i) }
    }

    /// A cursor for reads by index that mostly move forward.
    pub fn cursor(&self) -> Cursor<'a> {
        Cursor { store: self.store, run: 0 }
    }

    /// The records as a vector.
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.iter().collect()
    }
}

impl PartialEq for Records<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Records<'a> {
    type Item = TraceRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a trace's records by value ([`Records::iter`]).
#[derive(Clone)]
pub struct Iter<'a> {
    store: &'a Runs,
    /// The next record is record `k` of `run`, which holds `len`.
    run: Option<&'a Run>,
    k: usize,
    len: usize,
    /// The runs after `run`.
    rest: std::slice::Iter<'a, Run>,
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.k == self.len {
            let run = self.rest.next()?;
            (self.run, self.k, self.len) = (Some(run), 0, run.len());
        }
        let rec = self.store.record(self.run?, self.k);
        self.k += 1;
        self.left -= 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Reads records by index, keeping the run of the last read: a read in
/// the same run decodes in O(1), a read ahead gallops forward from it,
/// and a read behind searches the runs before it.
#[derive(Clone)]
pub struct Cursor<'a> {
    store: &'a Runs,
    run: usize,
}

impl Cursor<'_> {
    /// Record `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    #[inline]
    pub fn get(&mut self, i: usize) -> TraceRecord {
        assert!(i < self.store.len(), "record {i} of a {}-record trace", self.store.len());
        let runs = self.store.runs();
        let run = &runs[self.run];
        if i < run.start() {
            self.run = runs[..self.run].partition_point(|r| r.start() <= i) - 1;
        } else if i - run.start() >= run.len() {
            // Gallop: the first run past `i` lies within `self.run + step`.
            let mut step = 1;
            while runs.get(self.run + step).is_some_and(|r| r.start() <= i) {
                step *= 2;
            }
            let ahead = &runs[self.run + step / 2..runs.len().min(self.run + step)];
            self.run += step / 2 + ahead.partition_point(|r| r.start() <= i) - 1;
        }
        let run = &runs[self.run];
        self.store.record(run, i - run.start())
    }
}

/// One phase run of a trace: adjacent records sharing a phase id, each
/// decoded in O(1) from the run that stores them ([`Trace::phases`]).
#[derive(Clone, Copy)]
pub struct Phase<'a> {
    store: &'a Runs,
    run: &'a Run,
    /// The phase's first record within `run`.
    lo: usize,
    len: usize,
}

impl<'a> Phase<'a> {
    /// The phase id every record shares.
    pub fn phase(&self) -> u32 {
        self.store.phase(self.run, self.lo)
    }

    /// Index of the phase's first record in the trace.
    pub fn start(&self) -> usize {
        self.run.start() + self.lo
    }

    /// Records in the phase (at least one).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: a phase run holds at least one record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File id of record `k`.
    #[inline]
    pub(crate) fn file(&self, k: usize) -> u32 {
        self.store.file(self.run, self.lo + k)
    }
}

impl fmt::Debug for Phase<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Phase")
            .field("phase", &self.phase())
            .field("start", &self.start())
            .field("len", &self.len)
            .finish()
    }
}

/// Iterator over a trace's phase runs ([`Trace::phases`]).
#[derive(Clone)]
pub struct Phases<'a> {
    store: &'a Runs,
    /// The next phase starts at record `pos` of run `run`.
    run: usize,
    pos: usize,
}

impl<'a> Iterator for Phases<'a> {
    type Item = Phase<'a>;

    fn next(&mut self) -> Option<Phase<'a>> {
        let runs = self.store.runs();
        while runs.get(self.run).is_some_and(|r| self.pos == r.len()) {
            (self.run, self.pos) = (self.run + 1, 0);
        }
        let run = runs.get(self.run)?;
        let len = self.store.phase_len(run, self.pos);
        let phase = Phase { store: self.store, run, lo: self.pos, len };
        self.pos += len;
        Some(phase)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::Rank;
    use simrt::SimTime;
    use storage_model::IoOp;

    fn rec(file: u32, off: u64, len: u64, phase: u32, op: IoOp) -> TraceRecord {
        TraceRecord {
            pid: 1,
            rank: Rank(0),
            file: FileId(file),
            op,
            offset: off,
            len,
            ts: SimTime::from_nanos(phase as u64),
            phase,
        }
    }

    /// `(start, len, phase)` of each maximal stretch of adjacent records
    /// sharing a phase id: what [`Trace::phases`] must yield.
    pub(crate) fn phase_runs(records: &[TraceRecord]) -> Vec<(usize, usize, u32)> {
        let mut at = 0;
        let chunks = records.chunk_by(|a, b| a.phase == b.phase);
        chunks
            .map(|c| {
                at += c.len();
                (at - c.len(), c.len(), c[0].phase)
            })
            .collect()
    }

    #[test]
    fn totals_and_rmax() {
        let t = Trace::from_records(vec![
            rec(0, 0, 100, 0, IoOp::Read),
            rec(0, 100, 300, 0, IoOp::Write),
            rec(0, 400, 200, 1, IoOp::Read),
        ]);
        assert_eq!(t.total_bytes(), 600);
        assert_eq!(t.max_request_size(), 300);
    }

    #[test]
    fn concurrency_counts_phase_mates() {
        let t = Trace::from_records(vec![
            rec(0, 0, 10, 0, IoOp::Read),
            rec(0, 10, 10, 0, IoOp::Read),
            rec(0, 20, 10, 0, IoOp::Read),
            rec(0, 30, 10, 1, IoOp::Read),
        ]);
        assert_eq!(t.concurrency(), vec![3, 3, 3, 1]);
        assert_eq!(t.phase_span(), 2);
    }

    #[test]
    fn concurrency_is_per_file() {
        let t = Trace::from_records(vec![
            rec(0, 0, 10, 0, IoOp::Read),
            rec(1, 0, 10, 0, IoOp::Read),
        ]);
        assert_eq!(t.concurrency(), vec![1, 1]);
    }

    #[test]
    fn file_extents_track_max_end() {
        let t = Trace::from_records(vec![
            rec(0, 0, 10, 0, IoOp::Read),
            rec(0, 90, 10, 0, IoOp::Read),
            rec(2, 5, 5, 0, IoOp::Read),
        ]);
        let e = t.file_extents();
        assert_eq!(e[&FileId(0)], 100);
        assert_eq!(e[&FileId(2)], 10);
        assert_eq!(t.files(), vec![FileId(0), FileId(2)]);
    }

    #[test]
    fn extend_with_shifts_phases() {
        let mut a = Trace::from_records(vec![rec(0, 0, 10, 0, IoOp::Read)]);
        let b = Trace::from_records(vec![rec(0, 10, 10, 0, IoOp::Read)]);
        a.extend_with(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.phase_span(), 2);
        // Both singleton phases → concurrency 1 each.
        assert_eq!(a.concurrency(), vec![1, 1]);
    }

    /// The merge-based `extend_with` must match the old "push everything,
    /// stable-sort the whole vector" behaviour exactly — including the
    /// phase shift that keeps the two halves' phases distinct — on sorted,
    /// unsorted and interleaved-timestamp halves alike.
    #[test]
    fn extend_with_matches_full_sort_oracle() {
        let mut s = 0xFEED_FACE_CAFE_BEEFu64;
        for trial in 0..60 {
            let na = (xorshift(&mut s) % 40) as usize;
            let nb = (xorshift(&mut s) % 40) as usize;
            let mut ra = random_records(&mut s, na, 4, 6);
            let rb = random_records(&mut s, nb, 4, 6);
            // Half the trials get a pre-sorted left half (the fast path).
            if trial % 2 == 0 {
                ra.sort_by_key(|r| (r.ts, r.phase, r.rank, r.offset));
            }
            let mut got = Trace::from_records(ra.clone());
            let b = Trace::from_records(rb.clone());
            got.extend_with(&b);

            // Oracle: the original implementation.
            let shift = Trace::from_records(ra.clone()).phase_span();
            let mut all = ra;
            all.extend(rb.into_iter().map(|mut r| {
                r.phase += shift;
                r
            }));
            all.sort_by_key(|r| (r.ts, r.phase, r.rank, r.offset));
            assert_eq!(got.records().to_vec(), all, "trial {trial} (na={na}, nb={nb})");
            assert!(got.phase_span() >= shift, "phases stay distinct");
        }
    }

    #[test]
    fn clone_shares_storage() {
        let a = Trace::from_records(vec![rec(0, 0, 10, 0, IoOp::Read), rec(1, 0, 10, 1, IoOp::Read)]);
        let b = a.clone();
        assert!(Arc::ptr_eq(a.store(), b.store()));
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn extend_with_on_a_clone_leaves_the_other_unchanged() {
        let tail = Trace::from_records(vec![rec(0, 20, 10, 0, IoOp::Read)]);
        // Both the in-order fast path and the merge path.
        for head in [
            vec![rec(0, 0, 10, 0, IoOp::Read)],
            vec![rec(0, 0, 10, 0, IoOp::Read), rec(0, 10, 10, 5, IoOp::Read)],
        ] {
            let original = Trace::from_records(head.clone());
            let mut grown = original.clone();
            grown.extend_with(&tail);
            assert_eq!(original.records().to_vec(), head);
            assert_eq!(grown.len(), head.len() + 1);
            // Extending by a clone of itself reads the pre-extension records.
            let mut doubled = original.clone();
            doubled.extend_with(&original);
            assert_eq!(doubled.len(), 2 * head.len());
            assert_eq!(original.records().to_vec(), head);
        }
    }

    /// Each window's phase ids, in order.
    fn window_phases(t: &Trace, phases: u32) -> Vec<Vec<u32>> {
        t.phase_windows(phases).map(|w| w.records().iter().map(|r| r.phase).collect()).collect()
    }

    #[test]
    fn windows_partition_the_stream_exactly() {
        let mut cfg = crate::gen::skewed::SkewedConfig::default_run(IoOp::Write);
        cfg.procs = 4;
        cfg.phases = 21; // deliberately not a multiple of the window size
        let trace = crate::gen::skewed::generate(&cfg);
        let windows: Vec<Trace> = trace.phase_windows(8).collect();
        let runs = |w: &Trace| {
            w.records().to_vec().windows(2).filter(|p| p[0].phase != p[1].phase).count() + 1
        };
        assert_eq!(windows.iter().map(runs).collect::<Vec<_>>(), [8, 8, 5], "21 = 8 + 8 + 5");
        let all: Vec<TraceRecord> =
            windows.iter().flat_map(|w| w.records().iter()).collect();
        assert_eq!(all, trace.records().to_vec(), "concatenated windows reproduce the trace");
    }

    #[test]
    fn an_empty_trace_has_no_windows() {
        assert_eq!(Trace::new().phase_windows(1).count(), 0);
    }

    #[test]
    fn windows_count_phase_runs_not_phase_ids() {
        // Ids that start above 0 and skip values still make one run each.
        let t = Trace::from_records(
            [3, 3, 5, 9, 9, 10].map(|p| rec(0, 0, 10, p, IoOp::Read)).to_vec(),
        );
        assert_eq!(window_phases(&t, 2), [vec![3, 3, 5], vec![9, 9, 10]]);
        assert_eq!(window_phases(&t, 3), [vec![3, 3, 5, 9, 9], vec![10]]);
        assert_eq!(window_phases(&t, 9), [vec![3, 3, 5, 9, 9, 10]]);
    }

    #[test]
    fn a_recurring_phase_id_starts_a_new_run() {
        let t = Trace::from_records(
            [0, 0, 1, 0, 0, 2].map(|p| rec(0, 0, 10, p, IoOp::Read)).to_vec(),
        );
        assert_eq!(window_phases(&t, 1), [vec![0, 0], vec![1], vec![0, 0], vec![2]]);
        assert_eq!(window_phases(&t, 2), [vec![0, 0, 1], vec![0, 0, 2]]);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn a_zero_phase_window_is_rejected() {
        let _ = Trace::new().phase_windows(0);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_records(s: &mut u64, n: usize, files: u64, phases: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|_| TraceRecord {
                pid: 1,
                rank: Rank((xorshift(s) % 64) as u32),
                file: FileId((xorshift(s) % files) as u32),
                op: IoOp::Read,
                offset: xorshift(s) % 1_000_000,
                len: 1 + xorshift(s) % 4096,
                ts: SimTime::from_nanos(xorshift(s) % 1000),
                phase: (xorshift(s) % phases) as u32,
            })
            .collect()
    }

    /// Seeded traces with the shapes the encoding must survive: phases
    /// of 1 to 40 records (runs of one record merge), ids that rise,
    /// skip or recur, and each column of a phase constant, stepped
    /// (rising, falling or wrapping), broken at a random record or
    /// random throughout. Every record is valid, so the traces also
    /// round-trip through TSV.
    fn structured_records(rng: &mut simrt::rng::SmallRng, phases: usize) -> Vec<TraceRecord> {
        let column = |rng: &mut simrt::rng::SmallRng, n: usize, modulus: u64| -> Vec<u64> {
            let base = rng.next_u64();
            let step = if rng.gen_bool(0.5) { rng.gen_range(1..=16u64) } else { rng.next_u64() };
            let run = |i: usize| base.wrapping_add(step.wrapping_mul(i as u64));
            let mut v: Vec<u64> = match rng.gen_range(0..5u32) {
                0 => vec![base; n],
                1 => (0..n).map(run).collect(),
                2 => (0..n).map(|i| base.wrapping_sub(step.wrapping_mul(i as u64))).collect(),
                3 => {
                    let mut v: Vec<u64> = (0..n).map(run).collect();
                    let at = rng.gen_range(0..n);
                    v[at] ^= 1;
                    v
                }
                _ => (0..n).map(|_| rng.next_u64()).collect(),
            };
            for x in &mut v {
                *x %= modulus;
            }
            v
        };
        let (mut out, mut phase, mut ts) = (Vec::new(), 0u32, 0u64);
        for _ in 0..phases {
            let n = if rng.gen_bool(0.3) { 1 } else { rng.gen_range(1..=40usize) };
            phase = match rng.gen_range(0..4u32) {
                0 if phase > 3 => phase - 3,
                1 => phase + rng.gen_range(2..50u32),
                _ => phase + 1,
            };
            ts += rng.gen_range(0..1000u64);
            let pid = column(rng, n, 1 << 32);
            let rank = column(rng, n, u64::from(MAX_RANK));
            let file = column(rng, n, 1 << 24);
            let op = column(rng, n, 2);
            let offset = column(rng, n, 1 << 50);
            let len = column(rng, n, 1 << 30);
            let ts_step = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..100u64) };
            for i in 0..n {
                out.push(TraceRecord {
                    pid: pid[i] as u32,
                    rank: Rank(rank[i] as u32),
                    file: FileId(file[i] as u32),
                    op: if op[i] == 0 { IoOp::Read } else { IoOp::Write },
                    offset: offset[i],
                    len: len[i] + 1,
                    ts: SimTime::from_nanos(ts),
                    phase,
                });
                ts += ts_step;
            }
        }
        out
    }

    /// The record vector cut into phase runs, `phases` runs per window.
    fn windows_oracle(records: &[TraceRecord], phases: usize) -> Vec<Vec<TraceRecord>> {
        let mut runs: Vec<Vec<TraceRecord>> = Vec::new();
        for r in records {
            match runs.last_mut() {
                Some(run) if run[0].phase == r.phase => run.push(*r),
                _ => runs.push(vec![*r]),
            }
        }
        runs.chunks(phases).map(|w| w.concat()).collect()
    }

    /// Every way of building a trace decodes to exactly the records it
    /// was given: `from_records`, `from_tsv`, `extend_with` (in order and
    /// merged), `retag_into` and `phase_windows`, and `phases` yields its
    /// phase runs.
    #[test]
    fn every_constructor_decodes_to_the_record_vector_oracle() {
        let mut rng = simrt::SeedSeq::new(0x7ace).rng();
        let mut paths = [0usize; 2];
        for trial in 0..60 {
            let phases = rng.gen_range(0..30usize);
            let want = structured_records(&mut rng, phases);
            let ctx = format!("trial {trial} ({} records)", want.len());
            let built = Trace::from_records(want.clone());
            assert_eq!(built.records().to_vec(), want, "{ctx}: from_records");
            let parsed = crate::tsv::from_tsv(&crate::tsv::to_tsv(&built)).unwrap();
            assert_eq!(parsed.records().to_vec(), want, "{ctx}: from_tsv");
            let spans: Vec<_> = built.phases().map(|p| (p.start(), p.len(), p.phase())).collect();
            assert_eq!(spans, phase_runs(&want), "{ctx}: phases");
            assert_eq!(built.concurrency(), built.concurrency_sparse(), "{ctx}: concurrency");

            let tenant = TenantId(rng.gen_range(0..256u32));
            let mut retagged = Trace::from_records(structured_records(&mut rng, 3));
            built.retag_into(tenant, &mut retagged);
            let tagged: Vec<TraceRecord> = want
                .iter()
                .map(|r| TraceRecord { file: FileId::with_tenant(tenant, r.file), ..*r })
                .collect();
            assert_eq!(retagged.records().to_vec(), tagged, "{ctx}: retag_into");

            let n = rng.gen_range(1..6u32);
            let windows: Vec<Vec<TraceRecord>> =
                built.phase_windows(n).map(|w| w.records().to_vec()).collect();
            assert_eq!(windows, windows_oracle(&want, n as usize), "{ctx}: phase_windows({n})");

            // Half the trials sort both halves and start the tail after
            // the head's last timestamp, so the in-order append is taken;
            // the rest interleave and merge.
            let key = |r: &TraceRecord| (r.ts, r.phase, r.rank, r.offset);
            let phases = rng.gen_range(0..8usize);
            let mut tail = structured_records(&mut rng, phases);
            let mut head = want.clone();
            if trial % 2 == 0 {
                head.sort_by_key(key);
                tail.sort_by_key(key);
                let last = head.last().map_or(0, |r| r.ts.as_nanos());
                for r in &mut tail {
                    r.ts = SimTime::from_nanos(r.ts.as_nanos() + last + 1);
                }
            }
            let head_trace = Trace::from_records(head.clone());
            let shift = head_trace.phase_span();
            let mut all = head.clone();
            all.extend(tail.iter().map(|r| TraceRecord { phase: r.phase + shift, ..*r }));
            let in_order = all.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
            paths[usize::from(in_order)] += 1;
            all.sort_by_key(key);
            let mut grown = head_trace.clone();
            grown.extend_with(&Trace::from_records(tail));
            assert_eq!(grown.records().to_vec(), all, "{ctx}: extend_with");
            assert_eq!(head_trace.records().to_vec(), head, "{ctx}: the clone is untouched");
        }
        assert!(paths.iter().all(|&n| n >= 10), "both extend_with paths ran: {paths:?}");
    }

    /// Encoding a phase a column at a time stores exactly the runs and
    /// arenas that pushing its records one by one does.
    #[test]
    fn phase_encoding_matches_record_encoding() {
        let mut rng = simrt::SeedSeq::new(0xc01).rng();
        for trial in 0..100 {
            let phases = rng.gen_range(0..40usize);
            let recs = structured_records(&mut rng, phases);
            let (mut by_record, mut by_phase) = (Runs::default(), Runs::default());
            for r in &recs {
                by_record.push(r);
            }
            for phase in recs.chunk_by(|a, b| a.phase == b.phase) {
                by_phase.push_phase(phase);
            }
            assert_eq!(format!("{by_phase:?}"), format!("{by_record:?}"), "trial {trial}");
        }
    }

    /// A trace built from rank runs ([`PhaseSink::push_ranks`]), mixed
    /// with single records and split into chunks that do or do not
    /// continue each other (pid steps, ranks, constants and offsets that
    /// run on or break), stores exactly the runs pushing its records one
    /// by one builds.
    #[test]
    fn rank_pushes_build_the_runs_of_record_pushes() {
        use crate::batch::{Builder, Pace, PhaseSink};
        let mut rng = simrt::SeedSeq::new(0x4a2c).rng();
        for trial in 0..200 {
            let mut builder = Builder::with_pace(Pace::Unknown);
            let mut want: Vec<TraceRecord> = Vec::new();
            let mut ts = 0;
            for phase in 0..rng.gen_range(1..6u32) {
                ts += rng.gen_range(0..3u64);
                let mut head = TraceRecord {
                    pid: rng.gen_range(0..4u32),
                    rank: Rank(rng.gen_range(0..4u32)),
                    file: FileId(rng.gen_range(0..2u32)),
                    op: if rng.gen_bool(0.5) { IoOp::Read } else { IoOp::Write },
                    offset: 0,
                    len: 1 + rng.gen_range(0..2u64),
                    ts: SimTime::from_nanos(ts),
                    phase,
                };
                for _ in 0..rng.gen_range(1..5u32) {
                    if rng.gen_bool(0.3) {
                        // A single record; the next one's pid steps by 2.
                        head.offset = rng.gen_range(0..4u64);
                        builder.push(&head);
                        want.push(head);
                        head.pid += 2;
                        head.rank.0 += 1;
                        continue;
                    }
                    let n = rng.gen_range(1..6usize);
                    let (base, step) = (rng.gen_range(0..4u64), rng.gen_range(0..3u64));
                    let offsets: Vec<u64> = (0..n as u64)
                        .map(|i| if rng.gen_bool(0.2) { rng.gen_range(0..64u64) } else { base + step * i })
                        .collect();
                    builder.push_ranks(&head, &offsets);
                    want.extend(offsets.iter().enumerate().map(|(i, &offset)| TraceRecord {
                        pid: head.pid + i as u32,
                        rank: Rank(head.rank.0 + i as u32),
                        offset,
                        ..head
                    }));
                    // The next chunk continues the ranks, or jumps.
                    head.pid += n as u32 + u32::from(rng.gen_bool(0.2));
                    head.rank.0 += n as u32 + u32::from(rng.gen_bool(0.2));
                    if rng.gen_bool(0.1) {
                        head.len += 1;
                    }
                }
            }
            let built = Trace::from_store(builder.finish(true));
            assert_eq!(built.records().to_vec(), want, "trial {trial}");
            let mut by_record = Runs::default();
            for r in &want {
                by_record.push(r);
            }
            by_record.finish(true);
            assert_eq!(format!("{:?}", built.store()), format!("{by_record:?}"), "trial {trial}");
        }
    }

    /// A run of one record costs more than a record, so the next phase
    /// joins it, until the run pays for its header.
    #[test]
    fn short_phases_merge_into_one_run() {
        let recs: Vec<TraceRecord> =
            (0..100u32).map(|p| rec(p % 3, u64::from(p) * 7919 % 1000, 10, p, IoOp::Read)).collect();
        let t = Trace::from_records(recs.clone());
        assert!(t.store().runs().len() <= 50, "{} runs for 100 one-record phases", t.store().runs().len());
        assert_eq!(t.phases().count(), 100);
        assert_eq!(t.records().to_vec(), recs);
        // A phase that pays for its run keeps its own.
        let wide: Vec<TraceRecord> =
            (0..4u32).flat_map(|p| (0..32).map(move |i| rec(0, i * 10, 10, p, IoOp::Write))).collect();
        assert_eq!(Trace::from_records(wide).store().runs().len(), 4);
    }

    #[test]
    fn concurrency_dense_matches_sparse_oracle() {
        let mut s = 0xC0FF_EE00_1234_5678u64;
        for trial in 0..40 {
            let n = 1 + (xorshift(&mut s) % 300) as usize;
            let files = 1 + xorshift(&mut s) % 12;
            let phases = 1 + xorshift(&mut s) % 40;
            let t = Trace::from_records(random_records(&mut s, n, files, phases));
            assert_eq!(t.concurrency(), t.concurrency_sparse(), "trial {trial}");
        }
    }

    #[test]
    fn concurrency_sparse_ids_fall_back_correctly() {
        // File and phase ids far beyond 4n force the sparse path; the
        // answer must not change.
        let mut seed = 0x5EEDu64;
        let mut recs = random_records(&mut seed, 50, 4, 8);
        for (i, r) in recs.iter_mut().enumerate() {
            if i % 3 == 0 {
                r.file = FileId(3_000_000_000);
            }
            if i % 5 == 0 {
                r.phase = 2_000_000_000;
            }
        }
        let t = Trace::from_records(recs);
        assert_eq!(t.concurrency(), t.concurrency_sparse());
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.max_request_size(), 0);
        assert_eq!(t.phase_span(), 0);
        assert!(t.concurrency().is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_traces() {
        let t = Trace::from_records(vec![
            rec(0, 0, 100, 0, IoOp::Read),
            rec(0, 100, 300, 0, IoOp::Write),
            rec(0, 400, 200, 1, IoOp::Read),
        ]);
        assert!(t.validate().is_ok());
        assert!(Trace::new().validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_length_requests() {
        let t = Trace::from_records(vec![rec(0, 0, 10, 0, IoOp::Read), rec(0, 10, 0, 0, IoOp::Read)]);
        let err = t.validate().unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { index: 1, reason } if reason.contains("zero-length")),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_reinterpreted_negative_sizes() {
        // -4096 as i64, reinterpreted as u64 — the classic ingestion bug.
        let mut r = rec(0, 0, 10, 0, IoOp::Write);
        r.len = (-4096i64) as u64;
        let err = Trace::from_records(vec![r]).validate().unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { index: 0, reason } if reason.contains("exceeds")),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_overflowing_byte_ranges() {
        let mut r = rec(0, u64::MAX - 100, 10, 0, IoOp::Write);
        r.len = 200;
        let err = Trace::from_records(vec![r]).validate().unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { reason, .. } if reason.contains("overflows")),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_out_of_range_ranks() {
        let mut r = rec(0, 0, 10, 0, IoOp::Read);
        r.rank = Rank(MAX_RANK);
        let err = Trace::from_records(vec![r]).validate().unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { reason, .. } if reason.contains("rank")),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_non_monotonic_timestamps() {
        // rec() derives ts from the phase, so phase 1 before phase 0 is
        // exactly the out-of-issue-order shape push() debug-asserts on.
        let t = Trace::from_records(vec![rec(0, 0, 10, 1, IoOp::Read), rec(0, 10, 10, 0, IoOp::Read)]);
        let err = t.validate().unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { index: 1, reason } if reason.contains("issue order")),
            "{err}"
        );
    }

    #[test]
    fn generated_workloads_validate_clean() {
        let t = crate::gen::lanl::generate(&crate::gen::lanl::LanlConfig::paper(4, IoOp::Write));
        assert!(t.validate().is_ok());
        let t = crate::gen::lu::generate(&crate::gen::lu::LuConfig { procs: 2, steps: 16 });
        assert!(t.validate().is_ok());
    }
}
