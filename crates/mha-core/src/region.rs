//! Regions, the Data Reordering Table (DRT) and the Region Stripe Table
//! (RST).
//!
//! The *Data Reorganizer* turns a grouping into concrete regions: each
//! group's request extents are packed, ordered by their offsets in the
//! original file, into a fresh physical *region file*. The DRT records
//! every relocation as the paper's five-field entry
//! `(O_file, O_offset) → (R_file, R_offset, Length)` and supports the
//! range translation the *Redirector* needs at runtime. The RST maps each
//! region file to its optimized `<h, s>` stripe pair. Both tables
//! persist through the crash-consistent [`crate::persist`] store, the
//! one module that knows their on-disk format.

use crate::cost::ReqView;
use crate::grouping::{GroupIndex, Grouping};
use crate::rssd::StripePair;
use iotrace::{FileId, Trace, TraceRecord};
use pfs_sim::PhysExtent;
use storage_model::IoOp;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One DRT entry (the paper's five variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrtEntry {
    /// Original file.
    pub o_file: FileId,
    /// Offset in the original file.
    pub o_offset: u64,
    /// Region (reordered) file.
    pub r_file: FileId,
    /// Offset in the region file.
    pub r_offset: u64,
    /// Extent length, bytes.
    pub length: u64,
}

/// One entry of a [`Drt`] file run: the DRT entry minus the original
/// file, which keys the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunEntry {
    pub(crate) o_offset: u64,
    pub(crate) length: u64,
    pub(crate) r_file: FileId,
    pub(crate) r_offset: u64,
}

impl RunEntry {
    fn of(e: &DrtEntry) -> Self {
        RunEntry { o_offset: e.o_offset, length: e.length, r_file: e.r_file, r_offset: e.r_offset }
    }
}

/// The Data Reordering Table: original extents → region extents.
///
/// A sorted index of original files, each with one run of entries sorted
/// by original offset and pairwise disjoint. A translation is a binary
/// search for the file plus one for the starting entry, then a walk over
/// dense memory. Each file keeps its own `Vec`, so an [`Drt::insert`]
/// shifts only that file's entries, and the common in-order insert is
/// an append. The planner builds this table once ([`build_regions`]),
/// the pipeline store writes and reads it in `(file, offset)` order, and
/// [`crate::DrtResolver`] translates through it without copying it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Drt {
    /// Original files with at least one entry, sorted; parallel to `runs`.
    files: Vec<FileId>,
    /// Per file: its entries, ascending by `o_offset`, disjoint, never
    /// empty.
    runs: Vec<Vec<RunEntry>>,
    entries: usize,
}

impl Drt {
    /// Empty table.
    pub fn new() -> Self {
        Drt::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no data has been reordered.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert an entry. Returns `false` (and inserts nothing) if the new
    /// extent would overlap an existing entry for the same original file —
    /// overlapping relocations would make translation ambiguous.
    pub fn insert(&mut self, e: DrtEntry) -> bool {
        if e.length == 0 {
            return false;
        }
        let slot = match self.files.binary_search(&e.o_file) {
            Ok(slot) => slot,
            Err(slot) => {
                self.files.insert(slot, e.o_file);
                self.runs.insert(slot, vec![RunEntry::of(&e)]);
                self.entries += 1;
                return true;
            }
        };
        let run = &mut self.runs[slot];
        // Check the neighbour at or below and the first entry above.
        let i = run.partition_point(|x| x.o_offset <= e.o_offset);
        if i > 0 && run[i - 1].o_offset + run[i - 1].length > e.o_offset {
            return false;
        }
        if run.get(i).is_some_and(|next| next.o_offset < e.o_offset + e.length) {
            return false;
        }
        run.insert(i, RunEntry::of(&e));
        self.entries += 1;
        true
    }

    /// Append `e` behind every entry already in the table: the bulk-load
    /// path for tables read back in `(file, offset)` order. `room` is how
    /// many entries, `e` included, the caller still expects to push: a
    /// new file's run reserves that many at once and the run before it
    /// gives back what it did not use, so a load that knows its entry
    /// count never grows a run by doubling. Rejects, and appends nothing
    /// for, an entry that is zero-length, ends past `u64::MAX`, or is out
    /// of order with or overlaps the table's last entry.
    pub(crate) fn push_sorted(&mut self, e: DrtEntry, room: usize) -> Result<(), &'static str> {
        if e.length == 0 {
            return Err("zero-length entry");
        }
        if e.o_offset.checked_add(e.length).is_none() {
            return Err("entry ends past u64::MAX");
        }
        match self.files.last() {
            Some(&f) if f == e.o_file => {
                let run = self.runs.last_mut().expect("parallel to files");
                let last = run.last().expect("runs are never empty");
                if e.o_offset <= last.o_offset {
                    return Err("entry out of (file, offset) order");
                }
                if e.o_offset < last.o_offset + last.length {
                    return Err("entry overlaps the one before it");
                }
                run.push(RunEntry::of(&e));
            }
            Some(&f) if f > e.o_file => return Err("entry out of (file, offset) order"),
            _ => {
                if let Some(prev) = self.runs.last_mut() {
                    prev.shrink_to_fit();
                }
                let mut run = Vec::with_capacity(room.max(1));
                run.push(RunEntry::of(&e));
                self.files.push(e.o_file);
                self.runs.push(run);
            }
        }
        self.entries += 1;
        Ok(())
    }

    /// Exact-extent lookup (fast path for replayed traces, which repeat
    /// the profiled requests verbatim).
    pub fn lookup_exact(&self, file: FileId, offset: u64, len: u64) -> Option<(FileId, u64)> {
        let run = self.run(self.slot(file)?);
        let e = &run[run.binary_search_by_key(&offset, |e| e.o_offset).ok()?];
        (e.length == len).then_some((e.r_file, e.r_offset))
    }

    /// Translate an arbitrary extent into physical extents: relocated
    /// pieces map to their region files; bytes with no DRT entry stay on
    /// the original file. Pieces come back in logical (offset) order and
    /// partition the request exactly.
    pub fn translate(&self, file: FileId, offset: u64, len: u64) -> Vec<PhysExtent> {
        let mut out = Vec::new();
        self.translate_into(file, offset, len, &mut out);
        out
    }

    /// [`Drt::translate`] into a reusable buffer (cleared first). Holds no
    /// cursor, so threads can translate through one shared table.
    pub fn translate_into(&self, file: FileId, offset: u64, len: u64, out: &mut Vec<PhysExtent>) {
        out.clear();
        if len == 0 {
            return;
        }
        let Some(slot) = self.slot(file) else {
            out.push(PhysExtent { file, offset, len });
            return;
        };
        let run = self.run(slot);
        // Start from the last entry at or below `offset` (or the first).
        let start = run.partition_point(|e| e.o_offset <= offset).saturating_sub(1);
        walk(run, start, file, offset, len, out);
    }

    /// All entries, ordered by (original file, offset).
    pub fn iter(&self) -> impl Iterator<Item = DrtEntry> + '_ {
        self.files.iter().zip(&self.runs).flat_map(|(&o_file, run)| {
            run.iter().map(move |e| DrtEntry {
                o_file,
                o_offset: e.o_offset,
                r_file: e.r_file,
                r_offset: e.r_offset,
                length: e.length,
            })
        })
    }

    /// All entries, ordered by (original file, offset).
    pub fn entries(&self) -> Vec<DrtEntry> {
        let mut v = Vec::with_capacity(self.entries);
        v.extend(self.iter());
        v
    }

    /// Slot of `file` in the file index.
    pub(crate) fn slot(&self, file: FileId) -> Option<usize> {
        self.files.binary_search(&file).ok()
    }

    /// The entry run of the file at `slot`.
    pub(crate) fn run(&self, slot: usize) -> &[RunEntry] {
        &self.runs[slot]
    }

    /// Number of files with entries.
    pub(crate) fn files(&self) -> usize {
        self.files.len()
    }
}

/// The translation walk shared by [`Drt::translate_into`] and the
/// resolver's cursor seek: append the pieces of `[offset, offset + len)`
/// on `file` to `out`, walking `run` from `idx` (the last entry at or
/// below `offset`, or the first entry). Returns the index the walk
/// stopped at.
pub(crate) fn walk(
    run: &[RunEntry],
    mut idx: usize,
    file: FileId,
    offset: u64,
    len: u64,
    out: &mut Vec<PhysExtent>,
) -> usize {
    let end = offset + len;
    let mut pos = offset;
    while idx < run.len() && pos < end {
        let e = &run[idx];
        let e_end = e.o_offset + e.length;
        if e_end <= pos {
            idx += 1;
            continue;
        }
        if e.o_offset >= end {
            break;
        }
        if e.o_offset > pos {
            // Uncovered gap before this entry.
            out.push(PhysExtent { file, offset: pos, len: e.o_offset - pos });
            pos = e.o_offset;
        }
        let take = e_end.min(end) - pos;
        out.push(PhysExtent { file: e.r_file, offset: e.r_offset + (pos - e.o_offset), len: take });
        pos += take;
        idx += 1;
    }
    if pos < end {
        out.push(PhysExtent { file, offset: pos, len: end - pos });
    }
    idx
}

/// The Region Stripe Table: region file → optimized stripe pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rst {
    pairs: BTreeMap<FileId, StripePair>,
}

impl Rst {
    /// Empty table.
    pub fn new() -> Self {
        Rst::default()
    }

    /// Record the pair for a region file.
    pub fn set(&mut self, file: FileId, pair: StripePair) {
        self.pairs.insert(file, pair);
    }

    /// Pair for `file`, if optimized.
    pub fn get(&self, file: FileId) -> Option<StripePair> {
        self.pairs.get(&file).copied()
    }

    /// All `(file, pair)` rows in file order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, StripePair)> + '_ {
        self.pairs.iter().map(|(&f, &p)| (f, p))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// One constructed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// The region's physical file id.
    pub file: FileId,
    /// Region length, bytes.
    pub len: u64,
    /// The grouping group this region holds.
    pub group: usize,
    /// Number of distinct extents migrated into the region.
    pub extents: usize,
}

/// Output of the Data Reorganizer.
#[derive(Debug, Clone)]
pub struct RegionBuild {
    /// Regions in group order.
    pub regions: Vec<RegionInfo>,
    /// The reordering table.
    pub drt: Drt,
    /// Per-region planner views: each group's requests with their
    /// *region* offsets (what RSSD optimizes).
    pub region_views: Vec<Vec<ReqView>>,
    /// Trace indices whose extents could not be migrated (overlapping
    /// non-identical extents stay in the original file).
    pub residuals: Vec<usize>,
}

/// Build regions from a grouping over `trace`, aligning each migrated
/// extent to a 4 KiB boundary in its region file. Region files get ids
/// `region_file_base`, `region_file_base + 1`, … (callers pick a base
/// beyond every original file id).
pub fn build_regions(trace: &Trace, grouping: &Grouping, region_file_base: u32) -> RegionBuild {
    build_regions_aligned(trace, grouping, region_file_base, 4 << 10)
}

/// [`build_regions`] with an explicit packing alignment.
///
/// Alignment matters: stripe sizes are multiples of the search step, so
/// packing odd-sized extents back-to-back would make *every* request
/// straddle stripe boundaries regardless of the `<h, s>` pair RSSD picks,
/// paying an extra startup per request. Aligning each extent start to the
/// step trades a sliver of space (< one step per extent) for clean
/// decompositions — the same reason file systems align block allocations.
///
/// Two passes keep every byte **single-homed** even when requests overlap
/// (read-modify-write patterns like LU's slab updates):
///
/// 1. *Migration*: groups are processed bulk-first (descending total
///    bytes, so large extents claim their ranges whole); within a group,
///    extents ordered by original-file offset (the paper's rule). Only
///    the subranges not yet covered by the DRT migrate — an extent
///    overlapping already-moved data reuses those mappings.
/// 2. *Views*: every trace record is translated through the finished DRT;
///    each piece landing in a region contributes a planner view to *that*
///    region, so RSSD optimizes exactly the requests the region will
///    serve at runtime. Records with any piece left in the original file
///    are reported as residuals.
pub fn build_regions_aligned(
    trace: &Trace,
    grouping: &Grouping,
    region_file_base: u32,
    align: u64,
) -> RegionBuild {
    build_regions_per_group(trace, grouping, region_file_base, &vec![align; grouping.groups()])
}

/// [`build_regions_aligned`] with a per-group packing alignment — used by
/// the MHA planner's second pass, which repacks each region aligned to
/// the stripe size RSSD chose for it so extents decompose on the stripe
/// grid.
pub fn build_regions_per_group(
    trace: &Trace,
    grouping: &Grouping,
    region_file_base: u32,
    aligns: &[u64],
) -> RegionBuild {
    build_regions_filtered(trace, grouping, region_file_base, aligns, &vec![true; grouping.groups()])
}

/// [`build_regions_per_group`] with a per-group include mask: excluded
/// groups migrate nothing (their requests stay in the original files,
/// reported as residuals) — the mechanism behind *selective* MHA, which
/// the paper motivates by applying the scheme only to critical data
/// sections.
pub fn build_regions_filtered(
    trace: &Trace,
    grouping: &Grouping,
    region_file_base: u32,
    aligns: &[u64],
    include: &[bool],
) -> RegionBuild {
    build_regions_with_conc(trace, &trace.concurrency(), grouping, region_file_base, aligns, include)
}

/// [`build_regions_filtered`] with the trace's concurrency annotation
/// ([`Trace::concurrency`]) computed once by the caller, who also needs
/// it for grouping.
pub(crate) fn build_regions_with_conc(
    trace: &Trace,
    conc: &[u32],
    grouping: &Grouping,
    region_file_base: u32,
    aligns: &[u64],
    include: &[bool],
) -> RegionBuild {
    assert_eq!(aligns.len(), grouping.groups(), "one alignment per group");
    assert_eq!(include.len(), grouping.groups(), "one include flag per group");
    let records = trace.records();
    assert_eq!(conc.len(), records.len(), "one concurrency per record");
    let groups = grouping.groups();
    let index = GroupIndex::new(grouping);
    let mut cursors = vec![0u64; groups];
    let mut extent_counts = vec![0usize; groups];

    // Pass 1 — migration, bulk groups first.
    let mut group_bytes = vec![0u64; groups];
    for (i, rec) in records.iter().enumerate() {
        group_bytes[grouping.assignment[i]] += rec.len;
    }
    let mut order: Vec<usize> = (0..groups).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(group_bytes[g]));

    let mut builder = DrtBuilder::new();
    let mut member_buf: Vec<u32> = Vec::new();
    let mut gap_buf: Vec<(u64, u64)> = Vec::new();
    let mut covered_buf: Vec<(u64, u64)> = Vec::new();
    for &g in &order {
        if !include[g] {
            continue;
        }
        let r_file = FileId(region_file_base + g as u32);
        member_buf.clear();
        member_buf.extend_from_slice(index.members(g));
        // The index is part of the key, so keys are unique and the
        // unstable sort reproduces the original stable
        // `members().sort_by_key((file, offset, i))` order exactly.
        member_buf.sort_unstable_by_key(|&i| {
            let r = &records[i as usize];
            (r.file, r.offset, i)
        });
        for &i in &member_buf {
            let rec = &records[i as usize];
            if rec.len == 0 {
                continue;
            }
            // Migrate only the subranges no region owns yet.
            builder.gaps_into(rec.file, rec.offset, rec.len, &mut gap_buf, &mut covered_buf);
            for &(off, len) in &gap_buf {
                builder.append(
                    rec.file,
                    RunEntry { o_offset: off, length: len, r_file, r_offset: cursors[g] },
                );
                let align = aligns[g].max(1);
                cursors[g] = (cursors[g] + len).div_ceil(align) * align;
                extent_counts[g] += 1;
            }
        }
        builder.seal_group();
    }
    // Pass 1's scratch is spent: free it before pass 2 allocates.
    drop((index, member_buf, gap_buf, covered_buf));
    let drt = builder.freeze();

    // Pass 2 — planner views from the finished table.
    let (region_views, residuals) = extract_views(records, conc, &drt, region_file_base, groups);

    let regions = (0..groups)
        .map(|g| RegionInfo {
            file: FileId(region_file_base + g as u32),
            len: cursors[g],
            group: g,
            extents: extent_counts[g],
        })
        .collect();

    RegionBuild { regions, drt, region_views, residuals }
}

/// Per-file state of a [`DrtBuilder`]: one run per group that touched
/// the file, back to back in one vector.
#[derive(Debug, Default)]
struct FileSlab {
    /// The sealed runs, then the current group's run; each run ascends
    /// by original offset.
    entries: Vec<RunEntry>,
    /// End of each sealed run in `entries`; the current run starts at
    /// the last one.
    sealed: Vec<usize>,
}

impl FileSlab {
    /// Start of the current group's run in `entries`.
    fn cur_start(&self) -> usize {
        self.sealed.last().copied().unwrap_or(0)
    }

    /// Every run as a slice of `entries`, the current one last.
    fn runs(&self) -> impl Iterator<Item = &[RunEntry]> {
        let mut start = 0;
        self.sealed.iter().copied().chain(std::iter::once(self.entries.len())).map(move |end| {
            let run = &self.entries[start..end];
            start = end;
            run
        })
    }
}

/// Interval-slab builder behind [`build_regions_filtered`]'s migration
/// pass.
///
/// The pass used to grow a map-based DRT entry by entry and call its
/// `translate` — a tree walk plus a fresh `Vec<PhysExtent>` per record —
/// just to find which subranges were still unmigrated.
/// The builder instead keeps each file's extents as *sorted runs*, one
/// per group that touched the file: within a group, members migrate in
/// (file, offset) order, so appends stay sorted for free. A file's runs
/// share one vector and are index ranges of it. A gap query
/// binary-searches the few runs for overlaps into a reusable scratch
/// buffer; runs are globally disjoint (only gap subranges are ever
/// appended), so the overlaps union into disjoint intervals and one
/// small sort yields the coverage in ascending order. `freeze` sorts
/// each file's vector in place and hands it to the finished [`Drt`] as
/// the file's run, so the table is never copied; pass 2 translates
/// through it from every thread at once.
#[derive(Debug, Default)]
struct DrtBuilder {
    /// Original files with entries, sorted; parallel to `slabs`.
    files: Vec<FileId>,
    slabs: Vec<FileSlab>,
}

impl DrtBuilder {
    fn new() -> Self {
        DrtBuilder::default()
    }

    /// Uncovered subranges of `[offset, offset + len)` on `file`, written
    /// ascending into `gaps` (cleared first). `covered` is scratch.
    fn gaps_into(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
        gaps: &mut Vec<(u64, u64)>,
        covered: &mut Vec<(u64, u64)>,
    ) {
        gaps.clear();
        if len == 0 {
            return;
        }
        let end = offset + len;
        covered.clear();
        if let Ok(slot) = self.files.binary_search(&file) {
            for run in self.slabs[slot].runs() {
                // First entry whose end lies above `offset` (runs are
                // sorted and internally disjoint, so entry ends ascend).
                let i0 = run.partition_point(|e| e.o_offset + e.length <= offset);
                for e in &run[i0..] {
                    if e.o_offset >= end {
                        break;
                    }
                    covered.push((e.o_offset.max(offset), (e.o_offset + e.length).min(end)));
                }
            }
        }
        covered.sort_unstable();
        let mut pos = offset;
        for &(s, e) in covered.iter() {
            if s > pos {
                gaps.push((pos, s - pos));
            }
            pos = pos.max(e);
        }
        if pos < end {
            gaps.push((pos, end - pos));
        }
    }

    /// Record a migrated extent. The caller guarantees it lies in a gap
    /// (it came from [`Self::gaps_into`]) and that per-file appends
    /// ascend (members migrate in (file, offset) order).
    fn append(&mut self, file: FileId, e: RunEntry) {
        debug_assert!(e.length > 0, "zero-length extents never migrate");
        let slab = match self.files.binary_search(&file) {
            Ok(i) => &mut self.slabs[i],
            Err(i) => {
                self.files.insert(i, file);
                self.slabs.insert(i, FileSlab::default());
                &mut self.slabs[i]
            }
        };
        debug_assert!(
            slab.entries[slab.cur_start()..]
                .last()
                .is_none_or(|l| l.o_offset + l.length <= e.o_offset),
            "per-run appends must ascend"
        );
        slab.entries.push(e);
    }

    /// Seal the current group's appends; the next group starts fresh
    /// runs (its members revisit files in (file, offset) order again).
    fn seal_group(&mut self) {
        for slab in &mut self.slabs {
            if slab.entries.len() > slab.cur_start() {
                slab.sealed.push(slab.entries.len());
            }
        }
    }

    /// The finished table: each file's vector, sorted in place (a file
    /// one group touched is sorted already) and trimmed to its length,
    /// becomes that file's run.
    fn freeze(mut self) -> Drt {
        self.seal_group();
        let mut runs = Vec::with_capacity(self.files.len());
        let mut entries = 0;
        for slab in self.slabs {
            let mut run = slab.entries;
            if slab.sealed.len() > 1 {
                run.sort_unstable_by_key(|e| e.o_offset);
            }
            run.shrink_to_fit();
            entries += run.len();
            runs.push(run);
        }
        Drt { files: self.files, runs, entries }
    }
}

/// Pass 2 chunk size; each chunk writes its views into its own slice of
/// every region's vector, in index order, so the result is identical to
/// the serial scan no matter how rayon schedules the chunks (the work is
/// pure integer bookkeeping — no floats).
const PASS2_CHUNK: usize = 1024;
/// Below this many records the chunk fan-out costs more than it saves.
const PASS2_PAR_MIN: usize = 4 * PASS2_CHUNK;

/// Pass 2 of [`build_regions_filtered`]: translate every record through
/// the finished table; pieces landing in a region become that region's
/// planner views, records with any piece left in an original file are
/// residuals.
///
/// Count, then fill: a first scan counts each chunk's views per region
/// and collects its residuals, each region's vector is allocated once at
/// its exact length, and a second scan translates again and writes every
/// view straight into its slot. Views come out in record order, as a
/// serial scan appends them.
fn extract_views(
    records: &[TraceRecord],
    conc: &[u32],
    drt: &Drt,
    region_file_base: u32,
    groups: usize,
) -> (Vec<Vec<ReqView>>, Vec<usize>) {
    let region_of = |piece: &PhysExtent| {
        piece.file.0.checked_sub(region_file_base).map(|g| g as usize)
    };
    let count = |ci: usize, recs: &[TraceRecord]| {
        let mut counts = vec![0usize; groups];
        let mut residuals: Vec<usize> = Vec::new();
        let mut pieces: Vec<PhysExtent> = Vec::new();
        for (j, rec) in recs.iter().enumerate() {
            if rec.len == 0 {
                continue;
            }
            drt.translate_into(rec.file, rec.offset, rec.len, &mut pieces);
            let mut any_original = false;
            for piece in &pieces {
                match region_of(piece) {
                    Some(g) => counts[g] += 1,
                    None => any_original = true,
                }
            }
            if any_original {
                residuals.push(ci * PASS2_CHUNK + j);
            }
        }
        (counts, residuals)
    };
    let fill = |recs: &[TraceRecord], conc: &[u32], slots: &mut [&mut [ReqView]]| {
        let mut next = vec![0usize; groups];
        let mut pieces: Vec<PhysExtent> = Vec::new();
        for (rec, &concurrency) in recs.iter().zip(conc) {
            if rec.len == 0 {
                continue;
            }
            drt.translate_into(rec.file, rec.offset, rec.len, &mut pieces);
            for piece in &pieces {
                if let Some(g) = region_of(piece) {
                    slots[g][next[g]] =
                        ReqView { offset: piece.offset, len: piece.len, op: rec.op, concurrency };
                    next[g] += 1;
                }
            }
        }
        debug_assert!(slots.iter().zip(&next).all(|(s, &n)| s.len() == n), "fill matches count");
    };
    let parallel = records.len() >= PASS2_PAR_MIN;

    let counted: Vec<(Vec<usize>, Vec<usize>)> = if parallel {
        records.par_chunks(PASS2_CHUNK).enumerate().map(|(ci, r)| count(ci, r)).collect()
    } else {
        records.chunks(PASS2_CHUNK).enumerate().map(|(ci, r)| count(ci, r)).collect()
    };
    let mut residuals = Vec::with_capacity(counted.iter().map(|(_, r)| r.len()).sum());
    for (_, r) in &counted {
        residuals.extend_from_slice(r);
    }
    let blank = ReqView { offset: 0, len: 0, op: IoOp::Read, concurrency: 0 };
    let mut region_views: Vec<Vec<ReqView>> = (0..groups)
        .map(|g| vec![blank; counted.iter().map(|(counts, _)| counts[g]).sum()])
        .collect();
    // Carve every region's vector into consecutive per-chunk slots.
    let mut rest: Vec<&mut [ReqView]> = region_views.iter_mut().map(Vec::as_mut_slice).collect();
    let mut slots: Vec<Vec<&mut [ReqView]>> = counted
        .iter()
        .map(|(counts, _)| {
            rest.iter_mut()
                .zip(counts)
                .map(|(r, &n)| {
                    let (head, tail) = std::mem::take(r).split_at_mut(n);
                    *r = tail;
                    head
                })
                .collect()
        })
        .collect();
    if parallel {
        records
            .par_chunks(PASS2_CHUNK)
            .zip(conc.par_chunks(PASS2_CHUNK))
            .zip(slots.par_chunks_mut(1))
            .for_each(|((r, c), s)| fill(r, c, &mut s[0]));
    } else {
        for ((r, c), s) in records.chunks(PASS2_CHUNK).zip(conc.chunks(PASS2_CHUNK)).zip(&mut slots)
        {
            fill(r, c, s);
        }
    }
    (region_views, residuals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{group_requests, GroupingConfig};
    use crate::pattern::ReqFeature;
    use iotrace::gen::lanl::{generate, LanlConfig};
    use storage_model::IoOp;

    fn e(of: u32, oo: u64, rf: u32, ro: u64, len: u64) -> DrtEntry {
        DrtEntry {
            o_file: FileId(of),
            o_offset: oo,
            r_file: FileId(rf),
            r_offset: ro,
            length: len,
        }
    }

    #[test]
    fn insert_rejects_overlap() {
        let mut d = Drt::new();
        assert!(d.insert(e(0, 100, 10, 0, 50)));
        assert!(!d.insert(e(0, 120, 10, 50, 10)), "inside existing");
        assert!(!d.insert(e(0, 90, 10, 50, 20)), "straddles start");
        assert!(!d.insert(e(0, 140, 10, 50, 20)), "straddles end");
        assert!(d.insert(e(0, 150, 10, 50, 10)), "touching is fine");
        assert!(d.insert(e(1, 100, 11, 0, 50)), "other file independent");
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn exact_lookup() {
        let mut d = Drt::new();
        d.insert(e(0, 100, 10, 777, 50));
        assert_eq!(d.lookup_exact(FileId(0), 100, 50), Some((FileId(10), 777)));
        assert_eq!(d.lookup_exact(FileId(0), 100, 49), None);
        assert_eq!(d.lookup_exact(FileId(0), 101, 50), None);
        assert_eq!(d.lookup_exact(FileId(1), 100, 50), None);
    }

    #[test]
    fn translate_exact_extent() {
        let mut d = Drt::new();
        d.insert(e(0, 100, 10, 777, 50));
        let t = d.translate(FileId(0), 100, 50);
        assert_eq!(t, vec![PhysExtent { file: FileId(10), offset: 777, len: 50 }]);
    }

    #[test]
    fn translate_partial_and_gap() {
        let mut d = Drt::new();
        d.insert(e(0, 100, 10, 0, 50));
        d.insert(e(0, 200, 11, 40, 50));
        // Request [120, 230): tail of entry 1, gap [150,200), head of entry 2.
        let t = d.translate(FileId(0), 120, 110);
        assert_eq!(
            t,
            vec![
                PhysExtent { file: FileId(10), offset: 20, len: 30 },
                PhysExtent { file: FileId(0), offset: 150, len: 50 },
                PhysExtent { file: FileId(11), offset: 40, len: 30 },
            ]
        );
        let total: u64 = t.iter().map(|x| x.len).sum();
        assert_eq!(total, 110);
    }

    #[test]
    fn translate_unknown_file_passes_through() {
        let d = Drt::new();
        let t = d.translate(FileId(9), 5, 10);
        assert_eq!(t, vec![PhysExtent { file: FileId(9), offset: 5, len: 10 }]);
        assert!(d.translate(FileId(9), 5, 0).is_empty());
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The map-based DRT this crate used before the flat table, kept as
    /// the reference the oracle tests check [`Drt`] against.
    #[derive(Debug, Default)]
    struct RefDrt {
        map: BTreeMap<FileId, BTreeMap<u64, (u64, FileId, u64)>>,
    }

    impl RefDrt {
        fn insert(&mut self, e: DrtEntry) -> bool {
            if e.length == 0 {
                return false;
            }
            let per_file = self.map.entry(e.o_file).or_default();
            if let Some((&lo, &(llen, _, _))) = per_file.range(..=e.o_offset).next_back() {
                if lo + llen > e.o_offset {
                    return false;
                }
            }
            if let Some((&hi, _)) = per_file.range(e.o_offset..).next() {
                if hi < e.o_offset + e.length {
                    return false;
                }
            }
            per_file.insert(e.o_offset, (e.length, e.r_file, e.r_offset));
            true
        }

        fn lookup_exact(&self, file: FileId, offset: u64, len: u64) -> Option<(FileId, u64)> {
            let (l, rf, ro) = self.map.get(&file)?.get(&offset)?;
            (*l == len).then_some((*rf, *ro))
        }

        fn translate(&self, file: FileId, offset: u64, len: u64) -> Vec<PhysExtent> {
            let mut out = Vec::new();
            if len == 0 {
                return out;
            }
            let end = offset + len;
            let Some(per_file) = self.map.get(&file) else {
                out.push(PhysExtent { file, offset, len });
                return out;
            };
            let mut pos = offset;
            let start_key = per_file.range(..=pos).next_back().map(|(&k, _)| k).unwrap_or(pos);
            for (&eo, &(elen, rf, ro)) in per_file.range(start_key..) {
                if pos >= end {
                    break;
                }
                let e_end = eo + elen;
                if e_end <= pos {
                    continue;
                }
                if eo >= end {
                    break;
                }
                if eo > pos {
                    out.push(PhysExtent { file, offset: pos, len: eo - pos });
                    pos = eo;
                }
                let take = e_end.min(end) - pos;
                out.push(PhysExtent { file: rf, offset: ro + (pos - eo), len: take });
                pos += take;
            }
            if pos < end {
                out.push(PhysExtent { file, offset: pos, len: end - pos });
            }
            out
        }

        fn entries(&self) -> Vec<DrtEntry> {
            let mut v = Vec::new();
            for (&o_file, per_file) in &self.map {
                for (&o_offset, &(length, r_file, r_offset)) in per_file {
                    v.push(DrtEntry { o_file, o_offset, r_file, r_offset, length });
                }
            }
            v
        }
    }

    /// A random candidate entry over 4 files and a small offset space,
    /// so overlaps are common; one in 16 is zero-length.
    fn random_entry(s: &mut u64) -> DrtEntry {
        let length = match xorshift(s) % 16 {
            0 => 0,
            _ => 1 + xorshift(s) % 512,
        };
        e(
            (xorshift(s) % 4) as u32,
            (xorshift(s) % 4_000) * 8,
            100 + (xorshift(s) % 8) as u32,
            xorshift(s) % 1_000_000,
            length,
        )
    }

    /// Seeded random inserts (overlapping, duplicate and zero-length
    /// ones included) into [`Drt`] and the map-based reference: every
    /// insert verdict, `len`, `entries`, `==`, `lookup_exact`,
    /// `translate` and `translate_into` must agree.
    #[test]
    fn drt_oracle_table_ops() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for trial in 0..40 {
            let mut d = Drt::new();
            let mut r = RefDrt::default();
            let mut inserted: Vec<DrtEntry> = Vec::new();
            for step in 0..300 {
                // Every fifth candidate re-inserts an accepted entry.
                let cand = match inserted.len() {
                    n if n > 0 && step % 5 == 0 => inserted[(xorshift(&mut s) % n as u64) as usize],
                    _ => random_entry(&mut s),
                };
                let got = d.insert(cand);
                assert_eq!(got, r.insert(cand), "trial {trial} insert {cand:?}");
                if got {
                    inserted.push(cand);
                }
            }
            let want = r.entries();
            assert_eq!(d.len(), want.len(), "trial {trial}");
            assert_eq!(d.is_empty(), want.is_empty());
            assert_eq!(d.entries(), want, "trial {trial}: entries in (file, offset) order");
            assert!(d.iter().eq(want.iter().copied()));

            // Equality is by content: any insert order, or the bulk
            // loader, gives an equal table; one more entry does not.
            let mut shuffled = want.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
            }
            let mut again = Drt::new();
            for x in &shuffled {
                assert!(again.insert(*x));
            }
            assert_eq!(again, d, "trial {trial}: insert order must not matter");
            let mut bulk = Drt::new();
            for (i, x) in want.iter().enumerate() {
                bulk.push_sorted(*x, want.len() - i).expect("reference entries are sorted");
            }
            assert_eq!(bulk, d, "trial {trial}: bulk load");
            let mut more = d.clone();
            assert!(more.insert(e(9, 0, 100, 0, 1)));
            assert_ne!(more, d);

            for x in &want {
                assert_eq!(
                    d.lookup_exact(x.o_file, x.o_offset, x.length),
                    Some((x.r_file, x.r_offset))
                );
            }
            let mut out = vec![PhysExtent { file: FileId(77), offset: 1, len: 1 }];
            for _ in 0..400 {
                let file = FileId((xorshift(&mut s) % 5) as u32);
                let offset = xorshift(&mut s) % 34_000;
                let len = xorshift(&mut s) % 2_000;
                let ctx = format!("trial {trial} {file:?} [{offset}, +{len})");
                assert_eq!(d.lookup_exact(file, offset, len), r.lookup_exact(file, offset, len), "{ctx}");
                let want = r.translate(file, offset, len);
                assert_eq!(d.translate(file, offset, len), want, "{ctx}");
                // Deliberately dirty buffer: translate_into must replace it.
                d.translate_into(file, offset, len, &mut out);
                assert_eq!(out, want, "{ctx}");
            }
        }
    }

    /// [`DrtResolver`] against the reference on cold seeks, sequential
    /// walks at many alignments to the entry boundaries, and backward
    /// seeks past a warm cursor, over seeded random tables.
    #[test]
    fn drt_oracle_resolver_seeks() {
        use crate::redirect::DrtResolver;
        use iotrace::record::Rank;
        use pfs_sim::Resolver;
        use simrt::{SimDuration, SimTime};
        let rec = |file: FileId, offset: u64, len: u64| TraceRecord {
            pid: 0,
            rank: Rank(0),
            file,
            op: IoOp::Read,
            offset,
            len,
            ts: SimTime::ZERO,
            phase: 0,
        };
        let mut s = 0x0BAD_5EED_2468_ACE1u64;
        for trial in 0..25 {
            let mut d = Drt::new();
            let mut r = RefDrt::default();
            for _ in 0..200 {
                let cand = random_entry(&mut s);
                assert_eq!(d.insert(cand), r.insert(cand));
            }
            let mut res = DrtResolver::new(d.clone(), SimDuration::from_micros(5));
            assert_eq!(res.drt(), &d, "the resolver holds the table itself");
            let mut out = vec![PhysExtent { file: FileId(77), offset: 1, len: 1 }];
            let mut check = |res: &mut DrtResolver, file: FileId, offset: u64, len: u64| {
                res.resolve_into(&rec(file, offset, len), &mut out);
                let want = r.translate(file, offset, len);
                assert_eq!(out, want, "trial {trial} {file:?} [{offset}, +{len})");
            };
            // Cold seeks: random files and offsets.
            for _ in 0..200 {
                let file = FileId((xorshift(&mut s) % 5) as u32);
                check(&mut res, file, xorshift(&mut s) % 34_000, xorshift(&mut s) % 2_000);
            }
            // Per file: a sequential walk, one whole-range request, then
            // a backward walk.
            for f in 0..5u32 {
                let step = 1 + (xorshift(&mut s) % 97) as usize;
                let len = xorshift(&mut s) % 300;
                for off in (0..34_000).step_by(step) {
                    check(&mut res, FileId(f), off, len);
                }
                check(&mut res, FileId(f), 0, 34_000);
                for off in (0..34_000).rev().step_by(step * 3) {
                    check(&mut res, FileId(f), off, len);
                }
            }
        }
    }

    fn lanl_build() -> (Trace, RegionBuild) {
        let trace = generate(&LanlConfig::paper(6, IoOp::Write));
        let views = crate::cost::views_of(&trace);
        let feats: Vec<ReqFeature> = views.iter().map(ReqFeature::of).collect();
        let grouping = group_requests(&feats, &GroupingConfig { k: 2, ..Default::default() });
        let build = build_regions(&trace, &grouping, 1000);
        (trace, build)
    }

    #[test]
    fn lanl_regions_pack_similar_requests() {
        let (trace, build) = lanl_build();
        assert_eq!(build.regions.len(), 2);
        assert!(build.residuals.is_empty());
        // Region bytes cover the trace bytes, padded by at most one
        // alignment unit per migrated extent.
        let region_bytes: u64 = build.regions.iter().map(|r| r.len).sum();
        let extents: usize = build.regions.iter().map(|r| r.extents).sum();
        assert!(region_bytes >= trace.total_bytes());
        assert!(region_bytes < trace.total_bytes() + extents as u64 * 4096);
        // Each region is internally homogeneous in size class.
        for views in &build.region_views {
            let small = views.iter().filter(|v| v.len < 1000).count();
            assert!(small == 0 || small == views.len(), "mixed region");
        }
    }

    #[test]
    fn region_views_are_aligned_and_tile_the_region() {
        let (_, build) = lanl_build();
        for (g, views) in build.region_views.iter().enumerate() {
            // Views arrive in trace order; sorted by offset they must
            // tile the region exactly (one aligned slot per extent).
            let mut sorted: Vec<(u64, u64)> = views.iter().map(|v| (v.offset, v.len)).collect();
            sorted.sort_unstable();
            let mut cursor = 0u64;
            for (off, len) in sorted {
                assert_eq!(off % 4096, 0, "group {g}: extent start must be aligned");
                assert_eq!(off, cursor, "group {g}: hole or overlap at {off}");
                cursor = (off + len).div_ceil(4096) * 4096;
            }
            assert_eq!(cursor, build.regions[g].len, "group {g} length");
        }
    }

    #[test]
    fn custom_alignment_of_one_packs_densely() {
        let trace = generate(&LanlConfig::paper(3, IoOp::Write));
        let views = crate::cost::views_of(&trace);
        let feats: Vec<ReqFeature> = views.iter().map(ReqFeature::of).collect();
        let grouping = group_requests(&feats, &GroupingConfig { k: 2, ..Default::default() });
        let build = build_regions_aligned(&trace, &grouping, 1000, 1);
        let region_bytes: u64 = build.regions.iter().map(|r| r.len).sum();
        assert_eq!(region_bytes, trace.total_bytes(), "align=1 wastes nothing");
    }

    #[test]
    fn drt_translates_every_original_request() {
        let (trace, build) = lanl_build();
        for rec in trace.records() {
            let t = build.drt.translate(rec.file, rec.offset, rec.len);
            assert_eq!(t.len(), 1, "exact extents translate whole");
            assert!(t[0].file.0 >= 1000, "must point into a region file");
            assert_eq!(t[0].len, rec.len);
        }
    }

    /// The original BTreeMap-incremental implementation of
    /// [`build_regions_filtered`], kept verbatim (with the `members`
    /// rescan inlined) as the oracle for the interval-slab builder.
    fn build_oracle(
        trace: &Trace,
        grouping: &Grouping,
        region_file_base: u32,
        aligns: &[u64],
        include: &[bool],
    ) -> RegionBuild {
        let records = trace.records();
        let conc = trace.concurrency();
        let groups = grouping.groups();
        let mut drt = Drt::new();
        let mut cursors = vec![0u64; groups];
        let mut extent_counts = vec![0usize; groups];
        let mut group_bytes = vec![0u64; groups];
        for (i, rec) in records.iter().enumerate() {
            group_bytes[grouping.assignment[i]] += rec.len;
        }
        let mut order: Vec<usize> = (0..groups).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(group_bytes[g]));
        for &g in &order {
            if !include[g] {
                continue;
            }
            let r_file = FileId(region_file_base + g as u32);
            let mut members: Vec<usize> = grouping
                .assignment
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == g)
                .map(|(i, _)| i)
                .collect();
            members.sort_by_key(|&i| (records[i].file, records[i].offset, i));
            for &i in &members {
                let rec = &records[i];
                if rec.len == 0 {
                    continue;
                }
                let gaps: Vec<(u64, u64)> = drt
                    .translate(rec.file, rec.offset, rec.len)
                    .into_iter()
                    .filter(|p| p.file == rec.file)
                    .map(|p| (p.offset, p.len))
                    .collect();
                for (off, len) in gaps {
                    let inserted = drt.insert(DrtEntry {
                        o_file: rec.file,
                        o_offset: off,
                        r_file,
                        r_offset: cursors[g],
                        length: len,
                    });
                    assert!(inserted, "translate gaps are uncovered by construction");
                    let align = aligns[g].max(1);
                    cursors[g] = (cursors[g] + len).div_ceil(align) * align;
                    extent_counts[g] += 1;
                }
            }
        }
        let mut region_views: Vec<Vec<ReqView>> = vec![Vec::new(); groups];
        let mut residuals = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            if rec.len == 0 {
                continue;
            }
            let mut any_original = false;
            for piece in drt.translate(rec.file, rec.offset, rec.len) {
                if piece.file.0 >= region_file_base {
                    let g = (piece.file.0 - region_file_base) as usize;
                    region_views[g].push(ReqView {
                        offset: piece.offset,
                        len: piece.len,
                        op: rec.op,
                        concurrency: conc[i],
                    });
                } else {
                    any_original = true;
                }
            }
            if any_original {
                residuals.push(i);
            }
        }
        let regions = (0..groups)
            .map(|g| RegionInfo {
                file: FileId(region_file_base + g as u32),
                len: cursors[g],
                group: g,
                extents: extent_counts[g],
            })
            .collect();
        RegionBuild { regions, drt, region_views, residuals }
    }

    fn assert_builds_equal(got: &RegionBuild, want: &RegionBuild, ctx: &str) {
        assert_eq!(got.drt, want.drt, "{ctx}: drt");
        assert_eq!(got.region_views, want.region_views, "{ctx}: region views");
        assert_eq!(got.residuals, want.residuals, "{ctx}: residuals");
        let key = |r: &RegionInfo| (r.file, r.len, r.group, r.extents);
        assert_eq!(
            got.regions.iter().map(key).collect::<Vec<_>>(),
            want.regions.iter().map(key).collect::<Vec<_>>(),
            "{ctx}: regions"
        );
    }

    /// Random overlapping traces, random assignments, mixed alignments
    /// and include masks: the slab builder must reproduce the BTreeMap
    /// oracle in every output field.
    #[test]
    fn drt_builder_equivalence_randomized() {
        use iotrace::record::Rank;
        use simrt::SimTime;
        let mut s = 0x0DD5_EED5_1234_4321u64;
        for trial in 0..25 {
            let n = 1 + (xorshift(&mut s) % 400) as usize;
            let k = 1 + (xorshift(&mut s) % 5) as usize;
            let mut ts = 0u64;
            let recs: Vec<iotrace::TraceRecord> = (0..n)
                .map(|i| {
                    ts += xorshift(&mut s) % 100;
                    iotrace::TraceRecord {
                        pid: 0,
                        rank: Rank((xorshift(&mut s) % 8) as u32),
                        file: FileId((xorshift(&mut s) % 4) as u32),
                        op: if xorshift(&mut s).is_multiple_of(2) { IoOp::Read } else { IoOp::Write },
                        offset: (xorshift(&mut s) % 1000) * 512,
                        len: 1 + xorshift(&mut s) % 65_536,
                        ts: SimTime::from_nanos(ts),
                        phase: (i as u32) / 16,
                    }
                })
                .collect();
            let trace = Trace::from_records(recs);
            let assignment: Vec<usize> =
                (0..n).map(|_| (xorshift(&mut s) % k as u64) as usize).collect();
            let grouping = Grouping {
                assignment,
                centers: vec![ReqFeature { size: 0.0, concurrency: 0.0 }; k],
                iterations: 0,
            };
            let aligns: Vec<u64> =
                (0..k).map(|_| [1u64, 512, 4096][(xorshift(&mut s) % 3) as usize]).collect();
            let include: Vec<bool> = (0..k).map(|_| !xorshift(&mut s).is_multiple_of(4)).collect();
            let want = build_oracle(&trace, &grouping, 1000, &aligns, &include);
            let got = build_regions_filtered(&trace, &grouping, 1000, &aligns, &include);
            assert_builds_equal(&got, &want, &format!("trial {trial} (n={n}, k={k})"));
        }
    }

    /// The paper's own workload shapes, grouped by the real Algorithm 1,
    /// through every entry point layered on `build_regions_filtered`.
    #[test]
    fn drt_builder_equivalence_on_paper_workloads() {
        for procs in [2u32, 6] {
            let trace = generate(&LanlConfig::paper(procs, IoOp::Write));
            let views = crate::cost::views_of(&trace);
            let feats: Vec<ReqFeature> = views.iter().map(ReqFeature::of).collect();
            for k in [1usize, 2, 4] {
                let grouping =
                    group_requests(&feats, &GroupingConfig { k, ..Default::default() });
                let groups = grouping.groups();
                let all = vec![true; groups];
                let aligns = vec![4096u64; groups];
                let want = build_oracle(&trace, &grouping, 1000, &aligns, &all);
                let got = build_regions_aligned(&trace, &grouping, 1000, 4096);
                assert_builds_equal(&got, &want, &format!("procs {procs} k {k} aligned"));
                // Selective mask: drop the first group.
                if groups > 1 {
                    let mut mask = all.clone();
                    mask[0] = false;
                    let want = build_oracle(&trace, &grouping, 1000, &aligns, &mask);
                    let got = build_regions_filtered(&trace, &grouping, 1000, &aligns, &mask);
                    assert_builds_equal(&got, &want, &format!("procs {procs} k {k} masked"));
                }
            }
        }
    }

    /// Seeded records over `files` files, starting at one of `slots`
    /// 512-byte slots (few slots make extents overlap); one in 32 is
    /// zero-length.
    fn random_records(s: &mut u64, n: usize, files: u64, slots: u64) -> Vec<TraceRecord> {
        use iotrace::record::Rank;
        use simrt::SimTime;
        let mut ts = 0u64;
        (0..n)
            .map(|i| {
                ts += xorshift(s) % 100;
                TraceRecord {
                    pid: 0,
                    rank: Rank((xorshift(s) % 8) as u32),
                    file: FileId((xorshift(s) % files) as u32),
                    op: if xorshift(s).is_multiple_of(2) { IoOp::Read } else { IoOp::Write },
                    offset: (xorshift(s) % slots) * 512,
                    len: if xorshift(s).is_multiple_of(32) { 0 } else { 1 + xorshift(s) % 65_536 },
                    ts: SimTime::from_nanos(ts),
                    phase: (i as u32) / 16,
                }
            })
            .collect()
    }

    /// A grouping that assigns each record to one of `k` groups at random.
    fn random_grouping(s: &mut u64, n: usize, k: usize) -> Grouping {
        Grouping {
            assignment: (0..n).map(|_| (xorshift(s) % k as u64) as usize).collect(),
            centers: vec![ReqFeature { size: 0.0, concurrency: 0.0 }; k],
            iterations: 0,
        }
    }

    /// Pass 2 as it was before count-then-fill: per-chunk vectors merged
    /// in chunk order. Kept verbatim as the oracle for [`extract_views`].
    fn extract_views_merge_oracle(
        records: &[TraceRecord],
        conc: &[u32],
        drt: &Drt,
        region_file_base: u32,
        groups: usize,
    ) -> (Vec<Vec<ReqView>>, Vec<usize>) {
        let scan_chunk = |ci: usize, recs: &[TraceRecord], conc: &[u32]| {
            let mut views: Vec<Vec<ReqView>> = vec![Vec::new(); groups];
            let mut residuals: Vec<usize> = Vec::new();
            let mut pieces: Vec<PhysExtent> = Vec::new();
            for (j, rec) in recs.iter().enumerate() {
                if rec.len == 0 {
                    continue;
                }
                drt.translate_into(rec.file, rec.offset, rec.len, &mut pieces);
                let mut any_original = false;
                for piece in &pieces {
                    if piece.file.0 >= region_file_base {
                        let g = (piece.file.0 - region_file_base) as usize;
                        views[g].push(ReqView {
                            offset: piece.offset,
                            len: piece.len,
                            op: rec.op,
                            concurrency: conc[j],
                        });
                    } else {
                        any_original = true;
                    }
                }
                if any_original {
                    residuals.push(ci * PASS2_CHUNK + j);
                }
            }
            (views, residuals)
        };
        let parts: Vec<(Vec<Vec<ReqView>>, Vec<usize>)> = if records.len() >= PASS2_PAR_MIN {
            records
                .par_chunks(PASS2_CHUNK)
                .zip(conc.par_chunks(PASS2_CHUNK))
                .enumerate()
                .map(|(ci, (r, c))| scan_chunk(ci, r, c))
                .collect()
        } else {
            vec![scan_chunk(0, records, conc)]
        };
        let mut region_views: Vec<Vec<ReqView>> = vec![Vec::new(); groups];
        let mut residuals = Vec::new();
        for (views, res) in parts {
            for (g, mut v) in views.into_iter().enumerate() {
                region_views[g].append(&mut v);
            }
            residuals.extend(res);
        }
        (region_views, residuals)
    }

    /// Count-then-fill pass 2 against the per-chunk merge, on trace
    /// lengths either side of chunk multiples and of the parallel
    /// threshold, with excluded groups so residuals occur: views and
    /// residuals must match, order included, and be sized exactly.
    #[test]
    fn pass2_count_then_fill_matches_the_per_chunk_merge() {
        let mut s = 0x5EED_0F9A_5520_u64;
        let c = PASS2_CHUNK;
        let lengths = [
            0,
            1,
            c - 1,
            c,
            c + 1,
            2 * c + 7,
            PASS2_PAR_MIN - 1,
            PASS2_PAR_MIN,
            PASS2_PAR_MIN + 1,
            5 * c - 1,
            5 * c,
            5 * c + 1,
            8 * c + 300,
        ];
        for (trial, &n) in lengths.iter().enumerate() {
            let k = 1 + trial % 5;
            let trace = Trace::from_records(random_records(&mut s, n, 3, 20 * n as u64 + 1));
            let conc = trace.concurrency();
            let grouping = random_grouping(&mut s, n, k);
            let aligns = vec![4096u64; k];
            let include: Vec<bool> = (0..k).map(|g| g == 0 || !xorshift(&mut s).is_multiple_of(3)).collect();
            let build = build_regions_filtered(&trace, &grouping, 1000, &aligns, &include);
            let want = extract_views_merge_oracle(trace.records(), &conc, &build.drt, 1000, k);
            let got = extract_views(trace.records(), &conc, &build.drt, 1000, k);
            let ctx = format!("trial {trial} (n={n}, k={k})");
            assert_eq!(got.0, want.0, "{ctx}: views");
            assert_eq!(got.1, want.1, "{ctx}: residuals");
            assert_eq!((&build.region_views, &build.residuals), (&got.0, &got.1), "{ctx}: build");
            for v in &got.0 {
                assert_eq!(v.capacity(), v.len(), "{ctx}: region views sized exactly");
            }
            if include.iter().any(|&i| !i) && n > c {
                assert!(!got.1.is_empty(), "{ctx}: excluded groups leave residuals");
            }
        }
    }

    /// Files that several groups migrate into hold several runs in one
    /// vector; `freeze` sorts it in place. Interleaved group assignments
    /// over one and two files give every file two or more runs, and
    /// the build must match the BTreeMap oracle with every run sized
    /// exactly.
    #[test]
    fn drt_builder_equivalence_on_multi_run_files() {
        let mut s = 0x3141_5926_5358_9793u64;
        for trial in 0..12 {
            let files = 1 + trial % 2;
            let k = 3 + trial % 3;
            let n = 200 + (xorshift(&mut s) % 600) as usize;
            let trace = Trace::from_records(random_records(&mut s, n, files as u64, 200 * n as u64));
            // Round-robin groups interleave every file's offsets.
            let grouping = Grouping {
                assignment: (0..n).map(|i| i % k).collect(),
                centers: vec![ReqFeature { size: 0.0, concurrency: 0.0 }; k],
                iterations: 0,
            };
            let aligns: Vec<u64> = (0..k).map(|g| [1u64, 512, 4096][g % 3]).collect();
            let include = vec![true; k];
            let want = build_oracle(&trace, &grouping, 1000, &aligns, &include);
            let got = build_regions_filtered(&trace, &grouping, 1000, &aligns, &include);
            let ctx = format!("trial {trial} (n={n}, k={k}, files={files})");
            assert_builds_equal(&got, &want, &ctx);
            for slot in 0..got.drt.files() {
                let run = got.drt.run(slot);
                let groups: std::collections::BTreeSet<FileId> = run.iter().map(|e| e.r_file).collect();
                assert!(groups.len() >= 2, "{ctx}: file slot {slot} holds one run");
                assert_eq!(got.drt.runs[slot].capacity(), run.len(), "{ctx}: run sized exactly");
            }
        }
    }

    #[test]
    fn repeated_extents_are_migrated_once() {
        // A trace reading the same extent 5 times must produce one DRT
        // entry and 5 region views at the same offset.
        use iotrace::record::Rank;
        use simrt::SimTime;
        let recs: Vec<iotrace::TraceRecord> = (0..5)
            .map(|i| iotrace::TraceRecord {
                pid: 0,
                rank: Rank(0),
                file: FileId(0),
                op: IoOp::Read,
                offset: 4096,
                len: 8192,
                ts: SimTime::from_nanos(i as u64 * 20_000_000),
                phase: i,
            })
            .collect();
        let trace = Trace::from_records(recs);
        let views = crate::cost::views_of(&trace);
        let feats: Vec<ReqFeature> = views.iter().map(ReqFeature::of).collect();
        let grouping = group_requests(&feats, &GroupingConfig { k: 4, ..Default::default() });
        let build = build_regions(&trace, &grouping, 100);
        assert_eq!(build.drt.len(), 1);
        let total_views: usize = build.region_views.iter().map(Vec::len).sum();
        assert_eq!(total_views, 5);
        let region_bytes: u64 = build.regions.iter().map(|r| r.len).sum();
        assert_eq!(region_bytes, 8192, "one copy of the data");
    }
}
