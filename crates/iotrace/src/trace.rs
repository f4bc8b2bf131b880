//! A trace: an ordered collection of records plus derived views.

use crate::error::TraceError;
use crate::record::{FileId, TenantId, TraceRecord};
use std::collections::BTreeMap;
use std::sync::Arc;
use storage_model::IoOp;

/// Largest request length [`Trace::validate`] accepts (4 TiB). A length
/// above this almost certainly came from a negative size reinterpreted
/// as unsigned during ingestion.
pub const MAX_REQUEST_LEN: u64 = 1 << 42;

/// One past the largest MPI rank [`Trace::validate`] accepts.
pub const MAX_RANK: u32 = 1 << 20;

/// An application I/O trace in issue order.
///
/// Copy-on-write: the records live behind one shared allocation, so
/// `clone` is O(1) and every clone reads the same storage. The mutators
/// ([`Trace::push`], [`Trace::extend_with`]) copy the records first when
/// another clone still shares them, so a change to one clone never shows
/// in another.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Arc<Vec<TraceRecord>>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build from records already in issue order.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Trace { records: Arc::new(records) }
    }

    /// Append one record (must not be earlier than the last — issue order).
    pub fn push(&mut self, rec: TraceRecord) {
        debug_assert!(
            self.records.last().is_none_or(|l| rec.ts >= l.ts),
            "trace records must be appended in issue order"
        );
        Arc::make_mut(&mut self.records).push(rec);
    }

    /// Records in issue order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Overwrite `out` with this trace's records, each file id moved into
    /// `tenant`'s namespace ([`FileId::with_tenant`]). `out`'s storage is
    /// reused unless a clone still shares it.
    ///
    /// # Panics
    /// If a file id overflows the tenant-local namespace.
    pub fn retag_into(&self, tenant: TenantId, out: &mut Trace) {
        let tagged = self
            .records
            .iter()
            .map(|r| TraceRecord { file: FileId::with_tenant(tenant, r.file), ..*r });
        match Arc::get_mut(&mut out.records) {
            Some(records) => {
                records.clear();
                records.extend(tagged);
            }
            None => out.records = Arc::new(tagged.collect()),
        }
    }

    /// Check the invariants a well-formed ingested trace must satisfy:
    /// every request has a positive, plausible length ([`MAX_REQUEST_LEN`])
    /// and an in-file byte range, ranks are in range ([`MAX_RANK`]), and
    /// timestamps are non-decreasing (the issue-order rule [`Trace::push`]
    /// debug-asserts). Ingestion paths ([`crate::tsv::from_tsv`],
    /// `trace-tool`) run this on every trace they accept.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut last_ts = None;
        for (index, r) in self.records.iter().enumerate() {
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
        self.records.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records sorted ascending by (file, offset) — the order the paper's
    /// collector emits for the layout-optimization phases (§III-C).
    pub fn sorted_by_offset(&self) -> Vec<TraceRecord> {
        let mut v = self.records.to_vec();
        v.sort_by_key(|r| (r.file, r.offset, r.ts, r.rank));
        v
    }

    /// Largest request size in the trace (the `r_max` of Algorithm 2);
    /// zero for an empty trace.
    pub fn max_request_size(&self) -> u64 {
        self.records.iter().map(|r| r.len).max().unwrap_or(0)
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len).sum()
    }

    /// Total bytes moved by `op` requests.
    pub fn bytes_for(&self, op: IoOp) -> u64 {
        self.records.iter().filter(|r| r.op == op).map(|r| r.len).sum()
    }

    /// Distinct files touched, in id order.
    pub fn files(&self) -> Vec<FileId> {
        let mut v: Vec<FileId> = self.records.iter().map(|r| r.file).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Required size of each file (max end offset), keyed by file.
    pub fn file_extents(&self) -> BTreeMap<FileId, u64> {
        let mut m = BTreeMap::new();
        for r in self.records.iter() {
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
    /// Dense-index counting pass: record indices are bucketed by phase
    /// with one counting sort, then each phase's per-file tallies
    /// accumulate in a flat table reused (and re-zeroed via the bucket)
    /// across phases — O(n + phases + files) with five flat allocations,
    /// replacing a `BTreeMap<(file, phase), count>` walk per record.
    /// Traces whose file or phase ids are too sparse to index densely
    /// fall back to the original map-based pass.
    pub fn concurrency(&self) -> Vec<u32> {
        let n = self.records.len();
        if n == 0 {
            return Vec::new();
        }
        let mut max_file = 0u32;
        let mut max_phase = 0u32;
        for r in self.records.iter() {
            max_file = max_file.max(r.file.0);
            max_phase = max_phase.max(r.phase);
        }
        let limit = 4 * n + 1024;
        if n >= u32::MAX as usize
            || (max_file as usize) >= limit
            || (max_phase as usize) >= limit
        {
            return self.concurrency_sparse();
        }
        let phases = max_phase as usize + 1;
        let files = max_file as usize + 1;
        // Counting-sort record indices by phase.
        let mut starts = vec![0u32; phases + 1];
        for r in self.records.iter() {
            starts[r.phase as usize + 1] += 1;
        }
        for p in 0..phases {
            starts[p + 1] += starts[p];
        }
        let mut cursor: Vec<u32> = starts[..phases].to_vec();
        let mut order = vec![0u32; n];
        for (i, r) in self.records.iter().enumerate() {
            let c = &mut cursor[r.phase as usize];
            order[*c as usize] = i as u32;
            *c += 1;
        }
        // Per phase: tally per-file counts, emit them, zero the touched
        // slots — three linear sweeps over the phase's bucket.
        let mut per_file = vec![0u32; files];
        let mut out = vec![0u32; n];
        for p in 0..phases {
            let bucket = &order[starts[p] as usize..starts[p + 1] as usize];
            for &i in bucket {
                per_file[self.records[i as usize].file.0 as usize] += 1;
            }
            for &i in bucket {
                out[i as usize] = per_file[self.records[i as usize].file.0 as usize];
            }
            for &i in bucket {
                per_file[self.records[i as usize].file.0 as usize] = 0;
            }
        }
        out
    }

    /// The original `BTreeMap<(file, phase), count>` pass — the fallback
    /// for degenerate id ranges and the oracle [`Trace::concurrency`] is
    /// tested against.
    fn concurrency_sparse(&self) -> Vec<u32> {
        let mut phase_count: BTreeMap<(FileId, u32), u32> = BTreeMap::new();
        for r in self.records.iter() {
            *phase_count.entry((r.file, r.phase)).or_insert(0) += 1;
        }
        self.records
            .iter()
            .map(|r| phase_count[&(r.file, r.phase)])
            .collect()
    }

    /// One past the largest phase id (0 for an empty trace): the shift
    /// [`Trace::extend_with`] adds to appended phase ids so they stay
    /// distinct. Not a count of phases when ids start above 0 or skip;
    /// [`crate::TraceStats::phases`] counts phase runs.
    pub fn phase_span(&self) -> u32 {
        self.records
            .iter()
            .map(|r| r.phase)
            .max()
            .map_or(0, |p| p + 1)
    }

    /// The trace cut into consecutive windows of `phases` phase runs. A
    /// run is a maximal stretch of adjacent records sharing a phase id
    /// (the batches [`crate::TraceBatches`] yields), so windows never
    /// split a phase, and an id that recurs after another phase starts a
    /// new run. The last window may hold fewer runs; concatenating the
    /// windows reproduces the trace.
    ///
    /// # Panics
    /// If `phases` is 0.
    pub fn phase_windows(&self, phases: u32) -> impl Iterator<Item = Trace> + '_ {
        assert!(phases > 0, "a window needs at least one phase");
        let mut rest = self.records();
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let mut end = 0;
            for _ in 0..phases {
                let Some(first) = rest.get(end) else { break };
                end += rest[end..].iter().take_while(|r| r.phase == first.phase).count();
            }
            let (window, tail) = rest.split_at(end);
            rest = tail;
            Some(Trace::from_records(window.to_vec()))
        })
    }

    /// Records touching `file`, borrowed, in issue order.
    pub fn records_for_file(&self, file: FileId) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.records.iter().filter(move |r| r.file == file)
    }

    /// Concatenate another trace after this one (phases are shifted so they
    /// stay distinct).
    ///
    /// Equivalent to pushing `other`'s shifted records and stable-sorting
    /// the whole vector by `(ts, phase, rank, offset)` — but O(n) when the
    /// halves already concatenate in order (the common multi-job assembly
    /// loop, which used to pay a full re-sort per appended job) and a
    /// single merge of the two sorted halves otherwise.
    pub fn extend_with(&mut self, other: &Trace) {
        let shift = self.phase_span();
        let records = Arc::make_mut(&mut self.records);
        let split = records.len();
        records.reserve(other.records.len());
        for r in other.records.iter() {
            let mut r = *r;
            r.phase += shift;
            records.push(r);
        }
        let key = |r: &TraceRecord| (r.ts, r.phase, r.rank, r.offset);
        let is_sorted =
            |v: &[TraceRecord]| v.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
        let left_ok = is_sorted(&records[..split]);
        let right_ok = is_sorted(&records[split..]);
        if left_ok
            && right_ok
            && (split == 0
                || split == records.len()
                || key(&records[split - 1]) <= key(&records[split]))
        {
            return;
        }
        // Stable-sorting each half keeps equal keys in push order, exactly
        // as one stable sort of the concatenation would.
        if !left_ok {
            records[..split].sort_by_key(key);
        }
        if !right_ok {
            records[split..].sort_by_key(key);
        }
        let mut merged = Vec::with_capacity(records.len());
        let (left, right) = records.split_at(split);
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
        *records = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Rank;
    use simrt::SimTime;

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

    #[test]
    fn totals_and_rmax() {
        let t = Trace::from_records(vec![
            rec(0, 0, 100, 0, IoOp::Read),
            rec(0, 100, 300, 0, IoOp::Write),
            rec(0, 400, 200, 1, IoOp::Read),
        ]);
        assert_eq!(t.total_bytes(), 600);
        assert_eq!(t.max_request_size(), 300);
        assert_eq!(t.bytes_for(IoOp::Read), 300);
        assert_eq!(t.bytes_for(IoOp::Write), 300);
    }

    #[test]
    fn sorted_by_offset_orders_per_file() {
        let t = Trace::from_records(vec![
            rec(1, 500, 10, 0, IoOp::Read),
            rec(0, 900, 10, 0, IoOp::Read),
            rec(0, 100, 10, 1, IoOp::Read),
        ]);
        let s = t.sorted_by_offset();
        assert_eq!(
            s.iter().map(|r| (r.file.0, r.offset)).collect::<Vec<_>>(),
            vec![(0, 100), (0, 900), (1, 500)]
        );
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
            assert_eq!(got.records(), &all[..], "trial {trial} (na={na}, nb={nb})");
            assert!(got.phase_span() >= shift, "phases stay distinct");
        }
    }

    #[test]
    fn clone_shares_storage() {
        let a = Trace::from_records(vec![rec(0, 0, 10, 0, IoOp::Read), rec(1, 0, 10, 1, IoOp::Read)]);
        let b = a.clone();
        assert_eq!(a.records().as_ptr(), b.records().as_ptr());
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn push_on_a_clone_leaves_the_other_unchanged() {
        let mut a = Trace::from_records(vec![rec(0, 0, 10, 0, IoOp::Read)]);
        let b = a.clone();
        a.push(rec(0, 10, 10, 1, IoOp::Write));
        assert_eq!(a.len(), 2);
        assert_eq!(b.records(), &[rec(0, 0, 10, 0, IoOp::Read)]);
        assert_ne!(a.records().as_ptr(), b.records().as_ptr());
        // The other way round: the original shared, the clone mutated.
        let c = b.clone();
        let mut d = b.clone();
        d.push(rec(2, 0, 5, 3, IoOp::Read));
        assert_eq!(c.records(), b.records());
        assert_eq!(c.records().as_ptr(), b.records().as_ptr());
        assert_eq!(d.len(), 2);
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
            assert_eq!(original.records(), &head[..]);
            assert_eq!(grown.len(), head.len() + 1);
            // Extending by a clone of itself reads the pre-extension records.
            let mut doubled = original.clone();
            doubled.extend_with(&original);
            assert_eq!(doubled.len(), 2 * head.len());
            assert_eq!(original.records(), &head[..]);
        }
    }

    #[test]
    fn records_for_file_filters_records() {
        let t = Trace::from_records(vec![
            rec(0, 0, 10, 0, IoOp::Read),
            rec(1, 0, 20, 0, IoOp::Read),
            rec(0, 10, 30, 1, IoOp::Write),
        ]);
        let f0: Vec<&TraceRecord> = t.records_for_file(FileId(0)).collect();
        assert_eq!(f0.len(), 2);
        assert_eq!(f0.iter().map(|r| r.len).sum::<u64>(), 40);
        assert!(f0.iter().all(|r| r.file == FileId(0)));
        assert_eq!(t.records_for_file(FileId(9)).count(), 0);
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
            w.records().windows(2).filter(|p| p[0].phase != p[1].phase).count() + 1
        };
        assert_eq!(windows.iter().map(runs).collect::<Vec<_>>(), [8, 8, 5], "21 = 8 + 8 + 5");
        let all: Vec<TraceRecord> =
            windows.iter().flat_map(|w| w.records().iter().copied()).collect();
        assert_eq!(all, trace.records(), "concatenated windows reproduce the trace");
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
