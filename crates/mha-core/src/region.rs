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
use iotrace::{FileId, Records, Trace};
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

/// One stored entry of a [`Drt`] file: the DRT entry minus the original
/// file, which keys the file.
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

    /// A repeat member's stride slot: the repeat's original stride in
    /// `o_offset`, the member's region stride in `r_offset`.
    fn stride(o_stride: u64, r_stride: u64) -> Self {
        RunEntry { o_offset: o_stride, length: 0, r_file: FileId(0), r_offset: r_stride }
    }

    fn end(&self) -> u64 {
        self.o_offset + self.length
    }
}

/// Most members a repeat segment's motif holds.
const MOTIF_MAX: usize = 8;
/// Repetitions of a motif at the end of a literal that turn them into a
/// repeat segment.
const MIN_REPEATS: usize = 4;

/// A stretch of one file's entries, in original-offset order.
///
/// A *literal* (`count == 1`) stores its `k` entries as they are. A
/// *repeat* is a motif of `k` members repeated `count` times at one
/// original stride: repetition `rep` of member `m` lies at
/// `o_offset + rep·o_stride` in the original file and at
/// `r_offset + rep·r_stride[m]` in its region file. It stores the `k`
/// member bases, then one [`RunEntry::stride`] slot per member. Region
/// strides wrap, so a member whose region offsets fall keeps its exact
/// offsets too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg {
    /// Original offset of the first entry: the key lookups search.
    first: u64,
    /// Index of the first stored slot in the file's entries.
    at: usize,
    /// Members (a literal's entries).
    k: u32,
    /// Repetitions; 1 for a literal, at least 2 for a repeat.
    count: u32,
}

impl Seg {
    /// A literal holding `e`, stored at `at`.
    fn literal(e: &RunEntry, at: usize) -> Self {
        Seg { first: e.o_offset, at, k: 1, count: 1 }
    }

    fn is_literal(&self) -> bool {
        self.count == 1
    }

    /// Stored slots.
    fn slots(&self) -> usize {
        if self.is_literal() {
            self.k as usize
        } else {
            2 * self.k as usize
        }
    }
}

/// One original file of a [`Drt`]: its stored entries, and where its
/// segments start in [`Drt`]'s segment list.
#[derive(Debug, Clone)]
struct FileRun {
    file: FileId,
    segs_from: u32,
    ents: Vec<RunEntry>,
}

/// A position in one file's entries: segment, repetition and member.
/// Past the last entry it is the end position, `(segments, 0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pos {
    seg: usize,
    rep: u32,
    m: u32,
}

/// One file of a [`Drt`], borrowed: the readers' view.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileView<'a> {
    segs: &'a [Seg],
    ents: &'a [RunEntry],
}

impl<'a> FileView<'a> {
    /// Repetition `rep` of member `m` of `s`.
    #[inline]
    fn expand(&self, s: &Seg, rep: u32, m: u32) -> RunEntry {
        let base = self.ents[s.at + m as usize];
        if rep == 0 {
            return base;
        }
        let rep = u64::from(rep);
        let stride = self.ents[s.at + (s.k + m) as usize];
        RunEntry {
            o_offset: base.o_offset + rep * stride.o_offset,
            r_offset: base.r_offset.wrapping_add(rep.wrapping_mul(stride.r_offset)),
            ..base
        }
    }

    /// The original stride of the repeat `s`.
    #[inline]
    fn o_stride(&self, s: &Seg) -> u64 {
        self.ents[s.at + s.k as usize].o_offset
    }

    /// The entry at `p` (not the end position).
    #[inline]
    pub(crate) fn entry(&self, p: Pos) -> RunEntry {
        self.expand(&self.segs[p.seg], p.rep, p.m)
    }

    /// The position after `p`.
    #[inline]
    pub(crate) fn next(&self, p: Pos) -> Pos {
        let s = &self.segs[p.seg];
        if p.m + 1 < s.k {
            Pos { m: p.m + 1, ..p }
        } else if p.rep + 1 < s.count {
            Pos { seg: p.seg, rep: p.rep + 1, m: 0 }
        } else {
            Pos { seg: p.seg + 1, rep: 0, m: 0 }
        }
    }

    /// Whether `p` is the end position.
    #[inline]
    pub(crate) fn is_end(&self, p: Pos) -> bool {
        p.seg == self.segs.len()
    }

    /// The first entry's position.
    #[inline]
    pub(crate) fn first(&self) -> Pos {
        Pos { seg: 0, rep: 0, m: 0 }
    }

    /// The last entry's position.
    #[inline]
    pub(crate) fn last(&self) -> Pos {
        let seg = self.segs.len() - 1;
        let s = &self.segs[seg];
        Pos { seg, rep: s.count - 1, m: s.k - 1 }
    }

    /// Every entry, ascending by original offset.
    fn iter(self) -> impl Iterator<Item = RunEntry> + 'a {
        self.segs.iter().flat_map(move |s| {
            (0..s.count).flat_map(move |rep| (0..s.k).map(move |m| self.expand(s, rep, m)))
        })
    }

    /// The last entry with `o_offset <= offset`, or the first entry: a
    /// binary search over the segment starts, then arithmetic in a
    /// repeat or a binary search in a literal.
    pub(crate) fn seek(&self, offset: u64) -> Pos {
        let Some(seg) = self.segs.partition_point(|s| s.first <= offset).checked_sub(1) else {
            return self.first();
        };
        let s = &self.segs[seg];
        let members = &self.ents[s.at..s.at + s.k as usize];
        if s.is_literal() {
            let m = members.partition_point(|e| e.o_offset <= offset) - 1;
            return Pos { seg, rep: 0, m: m as u32 };
        }
        let o_stride = self.o_stride(s);
        let rep = ((offset - s.first) / o_stride).min(u64::from(s.count - 1));
        let shift = rep * o_stride;
        let m = members.partition_point(|e| e.o_offset + shift <= offset) - 1;
        Pos { seg, rep: rep as u32, m: m as u32 }
    }

    /// The translation walk shared by [`Drt::translate_into`] and the
    /// resolver's cursor seek: append the pieces of `[offset, offset +
    /// len)` on `file` to `out`, walking from `p` (the last entry at or
    /// below `offset`, or the first entry). Returns the position the walk
    /// stopped at.
    pub(crate) fn walk(
        &self,
        mut p: Pos,
        file: FileId,
        offset: u64,
        len: u64,
        out: &mut Vec<PhysExtent>,
    ) -> Pos {
        let end = offset + len;
        let mut pos = offset;
        while !self.is_end(p) && pos < end {
            let e = self.entry(p);
            let e_end = e.end();
            if e_end <= pos {
                p = self.next(p);
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
            p = self.next(p);
        }
        if pos < end {
            out.push(PhysExtent { file, offset: pos, len: end - pos });
        }
        p
    }
}

/// The Data Reordering Table: original extents → region extents.
///
/// A sorted index of original files. Each file's entries, sorted by
/// original offset and pairwise disjoint, are a list of *segments*: a
/// literal stores its entries as they are (32 B each), a repeat stores a
/// motif of up to eight members once with one original stride and one
/// region stride per member. LANL's three interleaved size groups are one
/// three-member repeat however many loops the trace holds. Appends in
/// `(file, offset)` order — the planner's freeze and the store's bulk
/// load — go through one streaming builder that folds the tail of a
/// literal into a repeat once a motif has repeated four times and
/// extends a repeat while entries continue it. [`Drt::insert`] adds to a
/// literal in place and splits only a repeat it lands in.
///
/// A translation is a binary search for the file, one over its segment
/// starts, then arithmetic in a repeat or a binary search in a literal,
/// then a walk. Readers address an entry by its segment, repetition
/// and member, so [`Drt::len`], `Drt::iter` and every translation see
/// the expanded entries, and `==` compares them, not the segmentation.
/// [`crate::DrtResolver`] translates through the table without copying
/// it.
#[derive(Debug, Clone, Default)]
pub struct Drt {
    /// Original files with at least one entry, sorted by id.
    files: Vec<FileRun>,
    /// Every file's segments, file after file; never empty for a file.
    segs: Vec<Seg>,
    entries: usize,
}

impl PartialEq for Drt {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.iter().eq(other.iter())
    }
}

impl Eq for Drt {}

/// A segment-list index as stored in [`FileRun::segs_from`].
fn seg_index(i: usize) -> u32 {
    u32::try_from(i).expect("a table holds fewer than 2^32 segments")
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
    ///
    /// The entry joins the literal it lands in or borders; landing inside
    /// a repeat splits that repeat into the repetitions before, a literal
    /// holding the entry's repetition and the entry, and the repetitions
    /// after. No other segment changes.
    pub fn insert(&mut self, e: DrtEntry) -> bool {
        if e.length == 0 {
            return false;
        }
        let new = RunEntry::of(&e);
        let Some(slot) = self.slot(e.o_file) else {
            let slot = self.files.partition_point(|f| f.file < e.o_file);
            let from = self.seg_range(slot).start;
            self.segs.insert(from, Seg::literal(&new, 0));
            for f in &mut self.files[slot..] {
                f.segs_from += 1;
            }
            let segs_from = seg_index(from);
            self.files.insert(slot, FileRun { file: e.o_file, segs_from, ents: vec![new] });
            self.entries += 1;
            return true;
        };
        let view = self.view(slot);
        // Check the neighbour at or below and the first entry above.
        let below = view.seek(e.o_offset);
        let after = (view.entry(below).o_offset <= e.o_offset).then_some(below);
        if after.is_some_and(|p| view.entry(p).end() > e.o_offset) {
            return false;
        }
        let above = after.map_or(below, |p| view.next(p));
        if !view.is_end(above) && view.entry(above).o_offset < e.o_offset + e.length {
            return false;
        }
        let ends_segment = after.is_some_and(|p| view.is_end(above) || above.seg != p.seg);
        self.entries += 1;
        let range = self.seg_range(slot);
        match after {
            // Before every entry of the file.
            None if self.segs[range.start].is_literal() => self.grow_literal(slot, range.start, 0, new),
            None => self.put_literal(slot, range.start, 0, new),
            Some(p) => {
                let si = range.start + p.seg;
                let s = self.segs[si];
                if s.is_literal() {
                    self.grow_literal(slot, si, p.m as usize + 1, new);
                } else if !ends_segment {
                    self.split_repeat(slot, si, p, new);
                } else if si + 1 < range.end && self.segs[si + 1].is_literal() {
                    // Right after the repeat, into the literal that follows.
                    self.grow_literal(slot, si + 1, 0, new);
                } else {
                    self.put_literal(slot, si + 1, s.at + s.slots(), new);
                }
            }
        }
        true
    }

    /// Insert `e` as entry `i` of the literal `segs[si]` of file `slot`.
    fn grow_literal(&mut self, slot: usize, si: usize, i: usize, e: RunEntry) {
        let end = self.seg_range(slot).end;
        let s = &mut self.segs[si];
        s.k = s.k.checked_add(1).expect("a literal holds fewer than 2^32 entries");
        if i == 0 {
            s.first = e.o_offset;
        }
        self.files[slot].ents.insert(s.at + i, e);
        for s in &mut self.segs[si + 1..end] {
            s.at += 1;
        }
    }

    /// Put a literal holding `e` at segment index `si` of file `slot`,
    /// storing `e` at entry index `at`.
    fn put_literal(&mut self, slot: usize, si: usize, at: usize, e: RunEntry) {
        self.replace_segments(slot, si..si, at..at, &[Seg::literal(&e, 0)], &[e]);
    }

    /// Replace the segments `old` of file `slot`, which store the slots
    /// `old_slots`, with `segs` and their `slots` (each segment's `at`
    /// relative to the first of `slots`); shift what follows.
    fn replace_segments(
        &mut self,
        slot: usize,
        old: std::ops::Range<usize>,
        old_slots: std::ops::Range<usize>,
        segs: &[Seg],
        slots: &[RunEntry],
    ) {
        let grown = segs.len() as isize - old.len() as isize;
        let end = self.seg_range(slot).end.wrapping_add_signed(grown);
        let after = old.start + segs.len();
        let (at, removed) = (old_slots.start, old_slots.len());
        self.files[slot].ents.splice(old_slots, slots.iter().copied());
        self.segs.splice(old, segs.iter().map(|s| Seg { at: s.at + at, ..*s }));
        for s in &mut self.segs[after..end] {
            s.at = s.at + slots.len() - removed;
        }
        for f in &mut self.files[slot + 1..] {
            f.segs_from = seg_index((f.segs_from as usize).wrapping_add_signed(grown));
        }
    }

    /// Split the repeat `segs[si]` of file `slot` to insert `e` right
    /// after its entry `p`, which is not its last.
    fn split_repeat(&mut self, slot: usize, si: usize, p: Pos, e: RunEntry) {
        let s = self.segs[si];
        let view = self.view(slot);
        let mut segs: Vec<Seg> = Vec::with_capacity(3);
        let mut slots: Vec<RunEntry> = Vec::with_capacity(5 * s.k as usize + 1);
        let strides = &view.ents[s.at + s.k as usize..s.at + s.slots()];
        // The repetitions from `from` on, `count` of them.
        let reps = |segs: &mut Vec<Seg>, slots: &mut Vec<RunEntry>, from: u32, count: u32| {
            if count == 0 {
                return;
            }
            let first = view.expand(&s, from, 0).o_offset;
            segs.push(Seg { first, at: slots.len(), k: s.k, count });
            slots.extend((0..s.k).map(|m| view.expand(&s, from, m)));
            if count > 1 {
                slots.extend_from_slice(strides);
            }
        };
        reps(&mut segs, &mut slots, 0, p.rep);
        let first = view.expand(&s, p.rep, 0).o_offset;
        segs.push(Seg { first, at: slots.len(), k: s.k + 1, count: 1 });
        for m in 0..s.k {
            slots.push(view.expand(&s, p.rep, m));
            if m == p.m {
                slots.push(e);
            }
        }
        reps(&mut segs, &mut slots, p.rep + 1, s.count - p.rep - 1);
        self.replace_segments(slot, si..si + 1, s.at..s.at + s.slots(), &segs, &slots);
    }

    /// Append `e` behind every entry already in the table: the bulk-load
    /// path for tables read back in `(file, offset)` order, through the
    /// same segment builder as the planner's. Rejects, and appends
    /// nothing for, an entry that is zero-length, ends past `u64::MAX`,
    /// or is out of order with or overlaps the table's last entry. Call
    /// [`Drt::shrink_to_fit`] after the last one.
    pub(crate) fn push_sorted(&mut self, e: DrtEntry) -> Result<(), &'static str> {
        if e.length == 0 {
            return Err("zero-length entry");
        }
        if e.o_offset.checked_add(e.length).is_none() {
            return Err("entry ends past u64::MAX");
        }
        let new = RunEntry::of(&e);
        match self.files.last().map(|f| f.file) {
            // The last repeat's next entry lies past every entry.
            Some(f) if f == e.o_file && self.continue_repeat(new) => return Ok(()),
            Some(f) if f == e.o_file => {
                let view = self.view(self.files.len() - 1);
                let last = view.entry(view.last());
                if e.o_offset <= last.o_offset {
                    return Err("entry out of (file, offset) order");
                }
                if e.o_offset < last.end() {
                    return Err("entry overlaps the one before it");
                }
            }
            Some(f) if f > e.o_file => return Err("entry out of (file, offset) order"),
            _ => {}
        }
        self.push_literal(e.o_file, new);
        Ok(())
    }

    /// The segment builder: append `e`, which the caller has checked
    /// lies after every entry, to file `file`. It continues the last
    /// repeat if it is that repeat's next entry; otherwise it joins the
    /// open literal.
    fn append(&mut self, file: FileId, e: RunEntry) {
        if !(self.files.last().is_some_and(|f| f.file == file) && self.continue_repeat(e)) {
            self.push_literal(file, e);
        }
    }

    /// If the last file ends in a repeat, or a repeat and a literal
    /// holding the start of its next repetition, and `e` is that
    /// repetition's next member: take `e` into the repeat (or the
    /// literal, until the repetition is whole) and return `true`.
    fn continue_repeat(&mut self, e: RunEntry) -> bool {
        let Drt { files, segs, entries } = self;
        let fr = files.last_mut().expect("the table has a last file");
        let ents = &mut fr.ents;
        let (ri, have) = match segs[fr.segs_from as usize..] {
            [.., r] if !r.is_literal() => (segs.len() - 1, 0),
            [.., r, l] if !r.is_literal() && l.is_literal() && l.k < r.k => (segs.len() - 2, l.k),
            _ => return false,
        };
        let r = segs[ri];
        if r.count == u32::MAX {
            return false;
        }
        // Member `m` of the repetition after the last, if it fits in u64.
        let next = |m: u32| {
            let base = ents[r.at + m as usize];
            let stride = ents[r.at + (r.k + m) as usize];
            let rep = u64::from(r.count);
            Some(RunEntry {
                o_offset: base.o_offset.checked_add(rep.checked_mul(stride.o_offset)?)?,
                r_offset: base.r_offset.wrapping_add(rep.wrapping_mul(stride.r_offset)),
                ..base
            })
        };
        let lit_at = r.at + r.slots();
        if next(have) != Some(e) || (0..have).any(|m| next(m) != Some(ents[lit_at + m as usize])) {
            return false;
        }
        if have + 1 == r.k {
            ents.truncate(lit_at);
            segs.truncate(ri + 1);
            segs[ri].count += 1;
        } else if have == 0 {
            segs.push(Seg::literal(&e, ents.len()));
            ents.push(e);
        } else {
            segs[ri + 1].k += 1;
            ents.push(e);
        }
        *entries += 1;
        true
    }

    /// Append `e` to the open literal of file `file` (opening the file
    /// or the literal if need be). When the literal's tail then holds a
    /// motif of `k <= MOTIF_MAX` entries repeated `MIN_REPEATS` times
    /// (smallest `k` first), that tail becomes a repeat.
    fn push_literal(&mut self, file: FileId, e: RunEntry) {
        if self.files.last().is_none_or(|f| f.file != file) {
            if let Some(prev) = self.files.last_mut() {
                prev.ents.shrink_to_fit();
            }
            let segs_from = seg_index(self.segs.len());
            self.files.push(FileRun { file, segs_from, ents: Vec::new() });
        }
        self.entries += 1;
        let Drt { files, segs, .. } = self;
        let fr = files.last_mut().expect("a file was just ensured");
        let from = fr.segs_from as usize;
        let ents = &mut fr.ents;
        match segs[from..].last_mut() {
            Some(l) if l.is_literal() && l.k < u32::MAX => l.k += 1,
            _ => segs.push(Seg::literal(&e, ents.len())),
        }
        ents.push(e);
        let lit_k = segs.last().expect("a literal was just ensured").k as usize;
        let n = ents.len();
        for k in 1..=MOTIF_MAX {
            let w = k * MIN_REPEATS;
            if lit_k < w {
                break;
            }
            // The cheap test first: `e` repeats the entry `k` before it.
            let a = &ents[n - 1 - k];
            if a.length != e.length || a.r_file != e.r_file {
                continue;
            }
            let base = n - w;
            let Some(o_stride) = motif(&ents[base..], k) else { continue };
            // Keep the first repetition's members as the bases and write
            // each member's region stride into the slot after them.
            for m in 0..k {
                let r_stride = ents[base + k + m].r_offset.wrapping_sub(ents[base + m].r_offset);
                ents[base + k + m] = RunEntry::stride(o_stride, r_stride);
            }
            ents.truncate(base + 2 * k);
            let lit = segs.last_mut().expect("the literal holds the motif");
            lit.k -= w as u32;
            if lit.k == 0 {
                segs.pop();
            }
            let first = ents[base].o_offset;
            segs.push(Seg { first, at: base, k: k as u32, count: MIN_REPEATS as u32 });
            break;
        }
    }

    /// Give back the capacity the builder's appends left unused.
    pub(crate) fn shrink_to_fit(&mut self) {
        for f in &mut self.files {
            f.ents.shrink_to_fit();
        }
        self.files.shrink_to_fit();
        self.segs.shrink_to_fit();
    }

    /// Exact-extent lookup (fast path for replayed traces, which repeat
    /// the profiled requests verbatim).
    pub fn lookup_exact(&self, file: FileId, offset: u64, len: u64) -> Option<(FileId, u64)> {
        let view = self.view(self.slot(file)?);
        let e = view.entry(view.seek(offset));
        (e.o_offset == offset && e.length == len).then_some((e.r_file, e.r_offset))
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
    pub(crate) fn translate_into(&self, file: FileId, offset: u64, len: u64, out: &mut Vec<PhysExtent>) {
        out.clear();
        if len == 0 {
            return;
        }
        let Some(slot) = self.slot(file) else {
            out.push(PhysExtent { file, offset, len });
            return;
        };
        let view = self.view(slot);
        view.walk(view.seek(offset), file, offset, len, out);
    }

    /// All entries, ordered by (original file, offset).
    pub(crate) fn iter(&self) -> impl Iterator<Item = DrtEntry> + '_ {
        (0..self.files.len()).flat_map(move |slot| {
            let o_file = self.files[slot].file;
            self.view(slot).iter().map(move |e| DrtEntry {
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
    #[inline]
    pub(crate) fn slot(&self, file: FileId) -> Option<usize> {
        self.files.binary_search_by_key(&file, |f| f.file).ok()
    }

    /// The segment indices of the file at `slot` (where a new file at
    /// `slot` would start when `slot` is past the last file).
    #[inline]
    fn seg_range(&self, slot: usize) -> std::ops::Range<usize> {
        let start = self.files.get(slot).map_or(self.segs.len(), |f| f.segs_from as usize);
        let end = self.files.get(slot + 1).map_or(self.segs.len(), |f| f.segs_from as usize);
        start..end
    }

    /// The entries of the file at `slot`.
    #[inline]
    pub(crate) fn view(&self, slot: usize) -> FileView<'_> {
        FileView { segs: &self.segs[self.seg_range(slot)], ents: &self.files[slot].ents }
    }
}

/// The original stride if `tail` is a motif of `k` entries repeated:
/// every entry `k` places on has the same length and region file, lies
/// one common original stride further, and one region stride further
/// that is the same for every repetition of its member.
fn motif(tail: &[RunEntry], k: usize) -> Option<u64> {
    let o_stride = tail[k].o_offset - tail[0].o_offset;
    let r_stride = |j: usize| tail[j].r_offset.wrapping_sub(tail[j - k].r_offset);
    (k..tail.len())
        .rev()
        .all(|j| {
            let (a, b) = (&tail[j - k], &tail[j]);
            b.length == a.length
                && b.r_file == a.r_file
                && b.o_offset - a.o_offset == o_stride
                && r_stride(j) == r_stride(k + j % k)
        })
        .then_some(o_stride)
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

/// Build regions from a grouping over `trace`, packing each migrated
/// extent at an `align`-byte boundary in its region file. Region files
/// get ids `region_file_base`, `region_file_base + 1`, … (callers pick a
/// base beyond every original file id).
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
    let (aligns, include) = (vec![align; grouping.groups()], vec![true; grouping.groups()]);
    build_regions_filtered(trace, grouping, region_file_base, &aligns, &include)
}

/// [`build_regions_aligned`] with a per-group packing alignment and a
/// per-group include mask. The MHA planner's second pass repacks each
/// region aligned to the stripe size RSSD chose for it, so extents
/// decompose on the stripe grid. Excluded groups migrate nothing (their
/// requests stay in the original files, reported as residuals) — the
/// mechanism behind *selective* MHA, which the paper motivates by
/// applying the scheme only to critical data sections.
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
    // A group's members as (file, offset, index, length), decoded once
    // in index order (a cursor walks the runs) and then sorted.
    let mut member_buf: Vec<(FileId, u64, u32, u64)> = Vec::new();
    let mut gap_buf: Vec<(u64, u64)> = Vec::new();
    let mut covered_buf: Vec<(u64, u64)> = Vec::new();
    for &g in &order {
        if !include[g] {
            continue;
        }
        let r_file = FileId(region_file_base + g as u32);
        member_buf.clear();
        let mut cursor = records.cursor();
        member_buf.extend(index.members(g).iter().map(|&i| {
            let r = cursor.get(i as usize);
            (r.file, r.offset, i, r.len)
        }));
        // The index is part of the key, so keys are unique and the
        // unstable sort reproduces the original stable
        // `members().sort_by_key((file, offset, i))` order exactly.
        member_buf.sort_unstable_by_key(|&(file, offset, i, _)| (file, offset, i));
        for &(file, offset, _, len) in &member_buf {
            if len == 0 {
                continue;
            }
            // Migrate only the subranges no region owns yet.
            builder.gaps_into(file, offset, len, &mut gap_buf, &mut covered_buf);
            for &(off, len) in &gap_buf {
                builder.append(
                    file,
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

/// One group's arithmetic run of migrated extents in one file: `count`
/// extents of one length, the `i`-th at `o_offset + i·o_stride` in the
/// original file and `r_offset + i·r_stride` (wrapping) in the region
/// file.
#[derive(Debug, Clone, Copy)]
struct GroupRun {
    o_offset: u64,
    length: u64,
    r_offset: u64,
    o_stride: u64,
    r_stride: u64,
    r_file: FileId,
    count: u32,
}

impl GroupRun {
    fn of(e: RunEntry) -> Self {
        GroupRun {
            o_offset: e.o_offset,
            length: e.length,
            r_offset: e.r_offset,
            o_stride: 0,
            r_stride: 0,
            r_file: e.r_file,
            count: 1,
        }
    }

    fn entry(&self, i: u32) -> RunEntry {
        let i = u64::from(i);
        RunEntry {
            o_offset: self.o_offset + i * self.o_stride,
            length: self.length,
            r_file: self.r_file,
            r_offset: self.r_offset.wrapping_add(i.wrapping_mul(self.r_stride)),
        }
    }

    /// End of the last extent in the original file.
    fn end(&self) -> u64 {
        self.entry(self.count - 1).end()
    }

    /// Take `e`, which lies after the run, if it is the run's next
    /// extent. A one-extent run takes any extent of its length and
    /// region file, which sets the strides.
    fn extend(&mut self, e: RunEntry) -> bool {
        if e.length != self.length || e.r_file != self.r_file || self.count == u32::MAX {
            return false;
        }
        if self.count == 1 {
            self.o_stride = e.o_offset - self.o_offset;
            self.r_stride = e.r_offset.wrapping_sub(self.r_offset);
        } else if e != self.entry(self.count) {
            return false;
        }
        self.count += 1;
        true
    }
}

/// Per-file state of a [`DrtBuilder`]: the runs of every group that
/// touched the file, group after group in one vector.
#[derive(Debug, Default)]
struct FileSlab {
    /// The sealed groups' runs, then the current group's; each group's
    /// runs ascend by original offset.
    runs: Vec<GroupRun>,
    /// End of each sealed group's runs in `runs`; the current group's
    /// start at the last one.
    sealed: Vec<usize>,
}

impl FileSlab {
    /// Start of the current group's runs in `runs`.
    fn cur_start(&self) -> usize {
        self.sealed.last().copied().unwrap_or(0)
    }

    /// Every group's runs as a slice of `runs`, the current one last.
    fn groups(&self) -> impl Iterator<Item = &[GroupRun]> {
        let mut start = 0;
        self.sealed.iter().copied().chain(std::iter::once(self.runs.len())).map(move |end| {
            let runs = &self.runs[start..end];
            start = end;
            runs
        })
    }
}

/// Run builder behind [`build_regions_filtered`]'s migration pass.
///
/// The pass asks, record by record, which subranges are still
/// unmigrated. The builder keeps each file's extents as *sorted runs
/// per group*: within a group, members migrate in (file, offset) order,
/// so appends stay sorted for free, and an append that continues the
/// group's last run at its strides only bumps its count — a strided
/// pattern of any length is one run. A gap query binary-searches each
/// group's runs and steps through the overlapping extents
/// arithmetically into a reusable scratch buffer; groups are disjoint
/// (only gap subranges are ever appended), so the overlaps union into
/// disjoint intervals and one small sort yields the coverage in
/// ascending order. `freeze` merges each file's group runs by original
/// offset straight into the [`Drt`]'s segment builder, so no flat list
/// of the file's entries is ever held; pass 2 translates through the
/// finished table from every thread at once.
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
            for runs in self.slabs[slot].groups() {
                // First run whose last extent ends above `offset` (a
                // group's runs are sorted and disjoint, so ends ascend).
                let r0 = runs.partition_point(|r| r.end() <= offset);
                for r in &runs[r0..] {
                    if r.o_offset >= end {
                        break;
                    }
                    // First extent of the run that ends above `offset`.
                    let i0 = match offset.checked_sub(r.o_offset + r.length) {
                        Some(past) => past / r.o_stride + 1,
                        None => 0,
                    };
                    for i in i0 as u32..r.count {
                        let e = r.entry(i);
                        if e.o_offset >= end {
                            break;
                        }
                        covered.push((e.o_offset.max(offset), e.end().min(end)));
                    }
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
        let start = slab.cur_start();
        debug_assert!(
            slab.runs[start..].last().is_none_or(|l| l.end() <= e.o_offset),
            "per-group appends must ascend"
        );
        if !slab.runs[start..].last_mut().is_some_and(|l| l.extend(e)) {
            slab.runs.push(GroupRun::of(e));
        }
    }

    /// Seal the current group's appends; the next group starts fresh
    /// runs (its members revisit files in (file, offset) order again).
    fn seal_group(&mut self) {
        for slab in &mut self.slabs {
            if slab.runs.len() > slab.cur_start() {
                slab.sealed.push(slab.runs.len());
            }
        }
    }

    /// The finished table: file by file, the group runs merged by
    /// original offset through the table's segment builder. A file's
    /// runs are freed as soon as it is merged.
    fn freeze(mut self) -> Drt {
        self.seal_group();
        let mut drt = Drt::new();
        for (file, slab) in self.files.into_iter().zip(self.slabs) {
            // One cursor per group: (its runs, run index, extent index).
            let mut heads: Vec<(&[GroupRun], usize, u32)> =
                slab.groups().filter(|g| !g.is_empty()).map(|g| (g, 0, 0)).collect();
            loop {
                let next = heads
                    .iter()
                    .enumerate()
                    .filter(|(_, &(runs, r, _))| r < runs.len())
                    .min_by_key(|(_, &(runs, r, i))| runs[r].entry(i).o_offset);
                let Some((h, _)) = next else { break };
                let (runs, r, i) = &mut heads[h];
                drt.append(file, runs[*r].entry(*i));
                *i += 1;
                if *i == runs[*r].count {
                    (*r, *i) = (*r + 1, 0);
                }
            }
        }
        drt.shrink_to_fit();
        drt
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
    records: Records<'_>,
    conc: &[u32],
    drt: &Drt,
    region_file_base: u32,
    groups: usize,
) -> (Vec<Vec<ReqView>>, Vec<usize>) {
    let region_of = |piece: &PhysExtent| {
        piece.file.0.checked_sub(region_file_base).map(|g| g as usize)
    };
    // Chunk `ci`'s records, walked run by run from one search.
    let chunk = |ci: usize| records.iter_from(ci * PASS2_CHUNK).take(PASS2_CHUNK);
    let chunks = records.len().div_ceil(PASS2_CHUNK);
    let count = |ci: usize| {
        let mut counts = vec![0usize; groups];
        let mut residuals: Vec<usize> = Vec::new();
        let mut pieces: Vec<PhysExtent> = Vec::new();
        for (j, rec) in chunk(ci).enumerate() {
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
    let fill = |ci: usize, slots: &mut [&mut [ReqView]]| {
        let mut next = vec![0usize; groups];
        let mut pieces: Vec<PhysExtent> = Vec::new();
        for (rec, &concurrency) in chunk(ci).zip(&conc[ci * PASS2_CHUNK..]) {
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
        (0..chunks).into_par_iter().map(count).collect()
    } else {
        (0..chunks).map(count).collect()
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
        slots.par_chunks_mut(1).enumerate().for_each(|(ci, s)| fill(ci, &mut s[0]));
    } else {
        for (ci, s) in slots.iter_mut().enumerate() {
            fill(ci, s);
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
    use iotrace::TraceRecord;
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
            for x in &want {
                bulk.push_sorted(*x).expect("reference entries are sorted");
            }
            bulk.shrink_to_fit();
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
        let build = build_regions_aligned(&trace, &grouping, 1000, 4 << 10);
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
        let records = trace.records().to_vec();
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
            let want = extract_views_merge_oracle(&trace.records().to_vec(), &conc, &build.drt, 1000, k);
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

    /// Files that several groups migrate into hold several groups' runs;
    /// `freeze` merges them by offset. Interleaved group assignments
    /// over one and two files give every file two or more groups, and
    /// the build must match the BTreeMap oracle with every file's
    /// entries, the file index and the segment list sized exactly.
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
            for (slot, f) in got.drt.files.iter().enumerate() {
                let groups: std::collections::BTreeSet<FileId> =
                    got.drt.view(slot).iter().map(|e| e.r_file).collect();
                assert!(groups.len() >= 2, "{ctx}: file slot {slot} holds one group's runs");
                assert_eq!(f.ents.capacity(), f.ents.len(), "{ctx}: file slot {slot} sized exactly");
            }
            assert_eq!(got.drt.files.capacity(), got.drt.files.len(), "{ctx}: file index sized exactly");
            assert_eq!(got.drt.segs.capacity(), got.drt.segs.len(), "{ctx}: segments sized exactly");
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
        let build = build_regions_aligned(&trace, &grouping, 100, 4 << 10);
        assert_eq!(build.drt.len(), 1);
        let total_views: usize = build.region_views.iter().map(Vec::len).sum();
        assert_eq!(total_views, 5);
        let region_bytes: u64 = build.regions.iter().map(|r| r.len).sum();
        assert_eq!(region_bytes, 8192, "one copy of the data");
    }

    /// The segmented [`Drt`] against the flat table it replaced.
    ///
    /// `FlatDrt` and `flat_walk` are the previous implementation, one
    /// `Vec<RunEntry>` per file, kept verbatim (doc comments aside) as the
    /// oracle. Seeded random tables of every shape the segment builder and
    /// `insert` handle — literals, interleaved motifs, motifs broken
    /// mid-repeat, one-member runs beside literals — are built through
    /// `push_sorted`, through the planner's run builder and by `insert` in
    /// random order, then take inserts inside, before and after repeats and
    /// rejected overlaps. Every reader must agree with the oracle.
    mod segment_oracle {
        use super::*;
        use crate::redirect::DrtResolver;
        use iotrace::record::Rank;
        use pfs_sim::Resolver;
        use simrt::{SimDuration, SimTime};

        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct FlatDrt {
            files: Vec<FileId>,
            runs: Vec<Vec<RunEntry>>,
            entries: usize,
        }

        impl FlatDrt {
            fn new() -> Self {
                FlatDrt::default()
            }

            fn len(&self) -> usize {
                self.entries
            }

            fn is_empty(&self) -> bool {
                self.entries == 0
            }

            fn insert(&mut self, e: DrtEntry) -> bool {
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

            fn push_sorted(&mut self, e: DrtEntry, room: usize) -> Result<(), &'static str> {
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

            fn lookup_exact(&self, file: FileId, offset: u64, len: u64) -> Option<(FileId, u64)> {
                let run = self.run(self.slot(file)?);
                let e = &run[run.binary_search_by_key(&offset, |e| e.o_offset).ok()?];
                (e.length == len).then_some((e.r_file, e.r_offset))
            }

            fn translate_into(&self, file: FileId, offset: u64, len: u64, out: &mut Vec<PhysExtent>) {
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
                flat_walk(run, start, file, offset, len, out);
            }

            fn iter(&self) -> impl Iterator<Item = DrtEntry> + '_ {
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

            fn entries(&self) -> Vec<DrtEntry> {
                let mut v = Vec::with_capacity(self.entries);
                v.extend(self.iter());
                v
            }

            fn slot(&self, file: FileId) -> Option<usize> {
                self.files.binary_search(&file).ok()
            }

            fn run(&self, slot: usize) -> &[RunEntry] {
                &self.runs[slot]
            }

        }

        fn flat_walk(
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

        /// A uniform draw from `lo..hi`.
        fn draw(s: &mut u64, lo: u64, hi: u64) -> u64 {
            lo + xorshift(s) % (hi - lo)
        }

        /// The table shapes the segment builder must handle.
        #[derive(Debug, Clone, Copy)]
        enum Shape {
            /// Random extents, no pattern.
            Literal,
            /// Motifs of one to eight members repeated at one original stride,
            /// each member at its own region stride (some falling).
            Motifs,
            /// Motifs with one repetition broken: a member shortened, moved or
            /// sent to another region offset, or the motif cut short.
            Broken,
            /// One-member arithmetic runs between short literals.
            OneMemberRuns,
        }

        const SHAPES: [Shape; 4] = [Shape::Literal, Shape::Motifs, Shape::Broken, Shape::OneMemberRuns];

        /// `n` random extents from `*pos` on, ascending and disjoint; some touch.
        fn literal_stretch(s: &mut u64, file: FileId, pos: &mut u64, n: usize, out: &mut Vec<DrtEntry>) {
            for _ in 0..n {
                *pos += [0, 1, draw(s, 1, 5_000)][(xorshift(s) % 3) as usize];
                let length = draw(s, 1, 3_000);
                out.push(DrtEntry {
                    o_file: file,
                    o_offset: *pos,
                    r_file: FileId(100 + (xorshift(s) % 4) as u32),
                    r_offset: draw(s, 0, 1 << 40),
                    length,
                });
                *pos += length;
            }
        }

        /// A motif of `k` members repeated `count` times from `*pos` on; with
        /// `broken`, one member of one repetition is perturbed.
        fn motif_stretch(
            s: &mut u64,
            file: FileId,
            pos: &mut u64,
            k: usize,
            count: u64,
            broken: bool,
            out: &mut Vec<DrtEntry>,
        ) {
            let mut rel = 0u64;
            let members: Vec<(u64, u64, FileId, u64, u64)> = (0..k)
                .map(|_| {
                    rel += draw(s, 0, 600);
                    let at = rel;
                    let length = draw(s, 1, 2_000);
                    rel += length;
                    let r_stride = match xorshift(s) % 4 {
                        0 => 0,
                        1 => (draw(s, 1, 1 << 20) as i64).wrapping_neg() as u64,
                        _ => draw(s, 1, 1 << 20),
                    };
                    (at, length, FileId(100 + (xorshift(s) % 4) as u32), draw(s, 1 << 40, 1 << 41), r_stride)
                })
                .collect();
            let stride = rel + draw(s, 0, 700);
            let cut = broken.then(|| (draw(s, 0, count), draw(s, 0, k as u64) as usize, xorshift(s) % 4));
            for rep in 0..count {
                for (m, &(at, length, r_file, r_base, r_stride)) in members.iter().enumerate() {
                    let mut e = DrtEntry {
                        o_file: file,
                        o_offset: *pos + rep * stride + at,
                        r_file,
                        r_offset: r_base.wrapping_add(rep.wrapping_mul(r_stride)),
                        length,
                    };
                    if cut.is_some_and(|(r, j, _)| r == rep && j == m) {
                        match cut.expect("checked").2 {
                            0 if length > 1 => e.length -= 1,
                            1 if m == 0 && at > 0 => e.o_offset -= 1,
                            2 => e.r_offset += 4096,
                            _ => break,
                        }
                    }
                    out.push(e);
                }
            }
            *pos += count * stride;
        }

        /// The sorted entries of a random table of `shape` over `files` files.
        fn random_table(s: &mut u64, shape: Shape, files: u32) -> Vec<DrtEntry> {
            let mut out = Vec::new();
            for f in 0..files {
                let file = FileId(f * 3 + (xorshift(s) % 3) as u32);
                let mut pos = draw(s, 0, 10_000);
                for _ in 0..draw(s, 1, 6) {
                    match shape {
                        Shape::Literal => {
                            let n = draw(s, 1, 60) as usize;
                            literal_stretch(s, file, &mut pos, n, &mut out);
                        }
                        Shape::Motifs | Shape::Broken => {
                            if xorshift(s).is_multiple_of(3) {
                                let n = draw(s, 0, 6) as usize;
                                literal_stretch(s, file, &mut pos, n, &mut out);
                            }
                            let k = draw(s, 1, 9) as usize;
                            let count = draw(s, 1, 24);
                            motif_stretch(s, file, &mut pos, k, count, matches!(shape, Shape::Broken), &mut out);
                        }
                        Shape::OneMemberRuns => {
                            let n = draw(s, 0, 5) as usize;
                            literal_stretch(s, file, &mut pos, n, &mut out);
                            let count = draw(s, 2, 30);
                            motif_stretch(s, file, &mut pos, 1, count, false, &mut out);
                        }
                    }
                    pos += draw(s, 0, 3);
                }
            }
            out
        }

        /// The table built through the planner's run builder: the entries dealt
        /// to `groups` groups at random, each group's in order, then frozen.
        fn frozen(s: &mut u64, want: &[DrtEntry], groups: u64) -> Drt {
            let deal: Vec<u64> = want.iter().map(|_| xorshift(s) % groups).collect();
            let mut b = DrtBuilder::new();
            for g in 0..groups {
                for (x, _) in want.iter().zip(&deal).filter(|&(_, &d)| d == g) {
                    b.append(x.o_file, RunEntry::of(x));
                }
                b.seal_group();
            }
            b.freeze()
        }

        /// A candidate insert: mostly into a gap of the table (so it is
        /// accepted), sometimes overlapping an entry, before the first or after
        /// the last entry of a file.
        fn candidate(s: &mut u64, want: &[DrtEntry]) -> DrtEntry {
            let e = want[(xorshift(s) % want.len() as u64) as usize];
            let r_file = FileId(100 + (xorshift(s) % 4) as u32);
            let r_offset = draw(s, 0, 1 << 40);
            let (o_offset, length) = match xorshift(s) % 6 {
                // Overlapping the entry.
                0 => (e.o_offset + xorshift(s) % e.length, draw(s, 1, 500)),
                // Before the file's entries.
                1 => (e.o_offset.saturating_sub(draw(s, 1, 20_000)), draw(s, 1, 400)),
                // Far past them.
                2 => (e.o_offset + draw(s, 1 << 30, 1 << 31), draw(s, 1, 400)),
                // Right after the entry, in whatever gap follows it.
                _ => (e.o_offset + e.length + xorshift(s) % 3, draw(s, 1, 300)),
            };
            DrtEntry { o_file: e.o_file, o_offset, r_file, r_offset, length }
        }

        /// Where an insert at `offset` lands in `d` relative to its repeats:
        /// 0 inside one, 1 right before one, 2 right after one, 3 elsewhere.
        fn landing(d: &Drt, file: FileId, offset: u64) -> usize {
            let Some(slot) = d.slot(file) else { return 3 };
            let view = d.view(slot);
            let p = view.seek(offset);
            let is_repeat = |seg: usize| view.segs.get(seg).is_some_and(|g| !g.is_literal());
            if view.entry(p).o_offset > offset {
                return if is_repeat(0) { 1 } else { 3 };
            }
            let next = view.next(p);
            match (is_repeat(p.seg), next.seg == p.seg) {
                (true, true) => 0,
                (true, false) => 2,
                (false, _) if next.seg != p.seg && is_repeat(next.seg) => 1,
                _ => 3,
            }
        }

        /// Every reader of `d` against the oracle `flat`.
        fn assert_agrees(s: &mut u64, d: &Drt, flat: &FlatDrt, ctx: &str) {
            assert_eq!(d.len(), flat.len(), "{ctx}: len");
            assert_eq!(d.is_empty(), flat.is_empty(), "{ctx}: is_empty");
            assert!(d.iter().eq(flat.iter()), "{ctx}: iter");
            let entries = flat.entries();
            for x in &entries {
                assert_eq!(d.lookup_exact(x.o_file, x.o_offset, x.length), Some((x.r_file, x.r_offset)), "{ctx}");
            }
            let Some(last) = entries.last() else { return };
            let files = last.o_file.0 + 2;
            let span = entries.iter().map(|x| x.o_offset + x.length).max().expect("not empty") + 10_000;
            let mut res = DrtResolver::new(d.clone(), SimDuration::from_micros(5));
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
            let mut got = vec![PhysExtent { file: FileId(77), offset: 1, len: 1 }];
            let mut want = Vec::new();
            let mut check = |res: &mut DrtResolver, file: FileId, offset: u64, len: u64| {
                let c = || format!("{ctx} {file:?} [{offset}, +{len})");
                flat.translate_into(file, offset, len, &mut want);
                d.translate_into(file, offset, len, &mut got);
                assert!(got == want, "{}: translate_into {got:?}, flat {want:?}", c());
                res.resolve_into(&rec(file, offset, len), &mut got);
                assert!(got == want, "{}: resolver {got:?}, flat {want:?}", c());
                let exact = d.lookup_exact(file, offset, len);
                assert!(exact == flat.lookup_exact(file, offset, len), "{}: lookup_exact {exact:?}", c());
            };
            // Random ranges, then entry-aligned ones, then per-file forward and
            // backward walks through the resolver's cursor.
            for _ in 0..300 {
                let file = FileId((xorshift(s) % u64::from(files)) as u32);
                check(&mut res, file, xorshift(s) % span, xorshift(s) % 8_000);
            }
            for _ in 0..200 {
                let x = entries[(xorshift(s) % entries.len() as u64) as usize];
                check(&mut res, x.o_file, x.o_offset, x.length);
                check(&mut res, x.o_file, x.o_offset + x.length - 1, draw(s, 1, 3));
            }
            for f in 0..files {
                let step = span / draw(s, 50, 400) + 1;
                let len = xorshift(s) % 900;
                for off in (0..span).step_by(step as usize) {
                    check(&mut res, FileId(f), off, len);
                }
                check(&mut res, FileId(f), 0, span);
                for off in (0..span).rev().step_by(3 * step as usize) {
                    check(&mut res, FileId(f), off, len);
                }
            }
        }

        #[test]
        fn drt_segments_match_the_flat_table() {
            let mut s = 0x5E6_0A11_7ED5_EED5u64;
            // Accepted inserts into the bulk-loaded tables, by `landing`.
            let mut landed = [0usize; 4];
            for trial in 0..48 {
                let shape = SHAPES[trial % SHAPES.len()];
                let want = random_table(&mut s, shape, 1 + (trial % 3) as u32);
                let ctx = format!("trial {trial} ({shape:?}, {} entries)", want.len());
                let mut flat = FlatDrt::new();
                let mut bulk = Drt::new();
                for (i, x) in want.iter().enumerate() {
                    flat.push_sorted(*x, want.len() - i).expect("sorted");
                    bulk.push_sorted(*x).expect("sorted");
                }
                bulk.shrink_to_fit();
                assert_agrees(&mut s, &bulk, &flat, &format!("{ctx} bulk"));
                if matches!(shape, Shape::Motifs | Shape::OneMemberRuns) {
                    assert!(bulk.segs.iter().any(|g| !g.is_literal()), "{ctx}: no repeat segment");
                }

                // The planner's builder and `insert` in random order segment the
                // table differently; it is the same mapping.
                let groups = 1 + xorshift(&mut s) % 3;
                let planned = frozen(&mut s, &want, groups);
                assert_agrees(&mut s, &planned, &flat, &format!("{ctx} frozen from {groups} groups"));
                let mut shuffled = want.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
                }
                let mut inserted = Drt::new();
                for x in &shuffled {
                    assert!(inserted.insert(*x), "{ctx}: disjoint entries insert");
                }
                assert!(inserted.segs.iter().all(Seg::is_literal), "{ctx}: insert builds literals");
                assert_eq!(bulk, planned, "{ctx}");
                assert_eq!(bulk, inserted, "{ctx}");

                // Inserts into the segmented tables: in gaps (inside, before and
                // after repeats), overlapping (rejected), new files.
                let mut tables = [bulk, planned];
                for _ in 0..150 {
                    let cand = match xorshift(&mut s) % 20 {
                        0 => DrtEntry { o_file: FileId(1000 + (xorshift(&mut s) % 3) as u32), ..want[0] },
                        _ => candidate(&mut s, &want),
                    };
                    let verdict = flat.insert(cand);
                    if verdict {
                        landed[landing(&tables[0], cand.o_file, cand.o_offset)] += 1;
                    }
                    for t in &mut tables {
                        assert_eq!(t.insert(cand), verdict, "{ctx}: insert {cand:?}");
                    }
                }
                for (t, how) in tables.iter().zip(["bulk", "frozen"]) {
                    assert_agrees(&mut s, t, &flat, &format!("{ctx} {how} after inserts"));
                }
                assert_eq!(tables[0], tables[1], "{ctx}");
                let mut more = tables[0].clone();
                assert!(more.insert(DrtEntry { o_file: FileId(5_000), ..want[0] }));
                assert_ne!(more, tables[0], "{ctx}: one more entry");
            }
            assert!(landed[..3].iter().all(|&n| n >= 20), "inserts inside, before, after repeats: {landed:?}");
        }
    }
}
