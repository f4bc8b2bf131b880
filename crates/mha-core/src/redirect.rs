//! The runtime I/O Redirector.
//!
//! On the application's subsequent runs every `MPI_File_read/write` is
//! intercepted; the redirector looks the request up in the DRT and
//! forwards the I/O to the region files (§III-G, §IV-B). Lookups cost
//! time — the paper's Fig. 14 measures exactly this overhead — so the
//! resolver charges a configurable per-lookup latency, with a default
//! derived from measuring our kvstore-backed DRT (single-digit
//! microseconds for a cached entry; we charge a conservative in-memory
//! hash-lookup cost).

use crate::region::{walk, Drt, RunEntry};
use iotrace::{FileId, TraceRecord};
use pfs_sim::{PhysExtent, Resolver};
use simrt::SimDuration;

/// DRT-backed resolver: the MHA (and HARL) redirection path.
///
/// Translates through the [`Drt`] it owns, reusing the caller's extent
/// buffer on the [`Resolver::resolve_into`] fast path. A last-hit cursor
/// remembers where the previous translation stopped: region traces
/// replay in near-sequential offset order, which turns most seeks into
/// an O(1) neighbour check. Cold seeks interpolate a starting guess from
/// the file's offset density and gallop out from it. Translations are
/// byte-for-byte identical to [`Drt::translate`].
#[derive(Debug, Clone)]
pub struct DrtResolver {
    drt: Drt,
    /// Per file slot: entries per byte over the run's offset range.
    scales: Vec<f64>,
    /// `(file slot, entry index)` where the last translation stopped.
    cursor: (usize, usize),
    lookup_cost: SimDuration,
    lookups: u64,
    redirected: u64,
    fallbacks: u64,
}

impl DrtResolver {
    /// Resolver over `drt`, charging `lookup_cost` per request.
    pub fn new(drt: Drt, lookup_cost: SimDuration) -> Self {
        // Degenerate runs (one entry, or all at one offset) scale to 0,
        // i.e. "guess the front".
        let scales = (0..drt.files())
            .map(|slot| {
                let run = drt.run(slot);
                match (run.first(), run.last()) {
                    (Some(f), Some(l)) if l.o_offset > f.o_offset => {
                        (run.len() - 1) as f64 / (l.o_offset - f.o_offset) as f64
                    }
                    _ => 0.0,
                }
            })
            .collect();
        DrtResolver {
            drt,
            scales,
            cursor: (usize::MAX, 0),
            lookup_cost,
            lookups: 0,
            redirected: 0,
            fallbacks: 0,
        }
    }

    /// Default lookup cost: an in-memory hash probe plus bookkeeping at
    /// the MPI-IO layer (~5 µs, consistent with the paper's "acceptable"
    /// Fig. 14 overhead on a 2008-era Opteron).
    pub fn with_default_cost(drt: Drt) -> Self {
        Self::new(drt, SimDuration::from_micros(5))
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Requests that were (at least partially) redirected to a region.
    pub fn redirected(&self) -> u64 {
        self.redirected
    }

    /// Requests served entirely from their original file.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// The table this resolver consults.
    pub fn drt(&self) -> &Drt {
        &self.drt
    }

    /// [`Drt::translate_into`], seeded from the cursor.
    fn translate_into(&mut self, file: FileId, offset: u64, len: u64, out: &mut Vec<PhysExtent>) {
        out.clear();
        if len == 0 {
            return;
        }
        let Some(slot) = self.drt.slot(file) else {
            out.push(PhysExtent { file, offset, len });
            return;
        };
        let run = self.drt.run(slot);
        let (c_slot, c_idx) = self.cursor;
        let start = if c_slot == slot && is_start(run, c_idx, offset) {
            c_idx
        } else if c_slot == slot && is_start(run, c_idx + 1, offset) {
            c_idx + 1
        } else {
            seek(run, self.scales[slot], offset)
        };
        let stop = walk(run, start, file, offset, len, out);
        self.cursor = (slot, stop.min(run.len() - 1));
    }
}

/// Index the walk starts from: the last entry with `o_offset <= offset`,
/// or `0` when every entry lies above `offset`. Interpolates a guess
/// from the run's offset density (`scale`, entries per byte) and gallops
/// out from it — region files pack extents nearly uniformly, so the
/// guess usually lands within a step or two of the target, beating a
/// full-width binary search.
fn seek(run: &[RunEntry], scale: f64, offset: u64) -> usize {
    let first = run[0].o_offset;
    if offset <= first {
        return 0;
    }
    let guess = ((offset - first) as f64 * scale) as usize;
    gallop_partition(run, offset, guess.min(run.len() - 1)).saturating_sub(1)
}

/// `run.partition_point(|e| e.o_offset <= offset)`, started from an
/// interpolated `guess` instead of the slice midpoint: double the step
/// away from the guess until the answer is bracketed, then binary-search
/// the bracket. Exact for any guess; O(log distance) from the guess
/// rather than O(log n).
fn gallop_partition(run: &[RunEntry], offset: u64, guess: usize) -> usize {
    let n = run.len();
    let le = |i: usize| run[i].o_offset <= offset;
    if le(guess) {
        let mut lo = guess;
        let mut step = 1usize;
        let mut hi = guess + step;
        while hi < n && le(hi) {
            lo = hi;
            step <<= 1;
            hi = guess + step;
        }
        let hi = hi.min(n);
        lo + 1 + run[lo + 1..hi].partition_point(|e| e.o_offset <= offset)
    } else {
        let mut hi = guess;
        let mut step = 1usize;
        let mut lo = guess.saturating_sub(step);
        while lo > 0 && !le(lo) {
            hi = lo;
            step <<= 1;
            lo = guess.saturating_sub(step);
        }
        if !le(lo) {
            return 0;
        }
        lo + 1 + run[lo + 1..hi].partition_point(|e| e.o_offset <= offset)
    }
}

/// Whether the walk for `offset` starts at entry `i`.
fn is_start(run: &[RunEntry], i: usize, offset: u64) -> bool {
    match run.get(i) {
        Some(e) if e.o_offset <= offset => run.get(i + 1).is_none_or(|next| next.o_offset > offset),
        Some(_) => i == 0,
        None => false,
    }
}

impl Resolver for DrtResolver {
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
        self.lookups += 1;
        self.translate_into(rec.file, rec.offset, rec.len, out);
        let any_moved = out.iter().any(|e| e.file != rec.file);
        if any_moved {
            self.redirected += 1;
        } else {
            self.fallbacks += 1;
        }
        self.lookup_cost
    }
}

/// A resolver that charges lookup cost but never moves data — the paper's
/// Fig. 14 methodology ("we intentionally do not make data reordering so
/// that I/O requests are redirected to the original I/O system").
#[derive(Debug, Clone)]
pub struct NullRedirectResolver {
    lookup_cost: SimDuration,
}

impl NullRedirectResolver {
    /// Charge `lookup_cost` per request, redirect nothing.
    pub fn new(lookup_cost: SimDuration) -> Self {
        NullRedirectResolver { lookup_cost }
    }

    /// The default redirection cost (see [`DrtResolver::with_default_cost`]).
    pub fn with_default_cost() -> Self {
        Self::new(SimDuration::from_micros(5))
    }
}

impl Resolver for NullRedirectResolver {
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
        out.clear();
        out.push(PhysExtent { file: rec.file, offset: rec.offset, len: rec.len });
        self.lookup_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DrtEntry;
    use iotrace::record::Rank;
    use simrt::SimTime;
    use storage_model::IoOp;

    fn rec(offset: u64, len: u64) -> TraceRecord {
        TraceRecord {
            pid: 0,
            rank: Rank(0),
            file: FileId(0),
            op: IoOp::Read,
            offset,
            len,
            ts: SimTime::ZERO,
            phase: 0,
        }
    }

    fn resolver() -> DrtResolver {
        let mut drt = Drt::new();
        drt.insert(DrtEntry {
            o_file: FileId(0),
            o_offset: 1000,
            r_file: FileId(50),
            r_offset: 0,
            length: 500,
        });
        DrtResolver::with_default_cost(drt)
    }

    #[test]
    fn redirects_mapped_extent() {
        let mut r = resolver();
        let res = r.resolve(&rec(1000, 500));
        assert_eq!(res.extents, vec![PhysExtent { file: FileId(50), offset: 0, len: 500 }]);
        assert_eq!(res.overhead, SimDuration::from_micros(5));
        assert_eq!(r.redirected(), 1);
        assert_eq!(r.fallbacks(), 0);
    }

    #[test]
    fn falls_back_for_unmapped_extent() {
        let mut r = resolver();
        let res = r.resolve(&rec(0, 100));
        assert_eq!(res.extents[0].file, FileId(0));
        assert_eq!(r.fallbacks(), 1);
    }

    #[test]
    fn partial_coverage_splits() {
        let mut r = resolver();
        let res = r.resolve(&rec(900, 300));
        // [900,1000) original + [1000,1200) region.
        assert_eq!(res.extents.len(), 2);
        assert_eq!(res.extents[0].file, FileId(0));
        assert_eq!(res.extents[1].file, FileId(50));
        assert_eq!(res.extents.iter().map(|e| e.len).sum::<u64>(), 300);
        assert_eq!(r.redirected(), 1, "partially moved still counts");
    }

    #[test]
    fn null_resolver_charges_but_never_moves() {
        let mut r = NullRedirectResolver::with_default_cost();
        let res = r.resolve(&rec(1000, 500));
        assert_eq!(res.extents[0].file, FileId(0));
        assert!(res.overhead > SimDuration::ZERO);
    }

    #[test]
    fn lookup_counter_advances() {
        let mut r = resolver();
        for i in 0..10 {
            r.resolve(&rec(i * 100, 50));
        }
        assert_eq!(r.lookups(), 10);
    }

    #[test]
    fn resolve_into_matches_resolve() {
        // Two independent resolvers over a multi-entry table; every
        // request pattern (full hit, partial, gap-straddling, miss,
        // zero-length) must yield identical extents, overhead and
        // counters through both paths.
        let mut drt = Drt::new();
        for (oo, rf, ro, len) in
            [(1000, 50, 0, 500), (2000, 51, 128, 300), (2500, 50, 4096, 100)]
        {
            drt.insert(DrtEntry {
                o_file: FileId(0),
                o_offset: oo,
                r_file: FileId(rf),
                r_offset: ro,
                length: len,
            });
        }
        let mut a = DrtResolver::with_default_cost(drt.clone());
        let mut b = DrtResolver::with_default_cost(drt);
        let mut out = vec![PhysExtent { file: FileId(99), offset: 7, len: 7 }];
        let cases =
            [(1000, 500), (900, 300), (1900, 800), (0, 100), (2450, 200), (1200, 0), (3000, 64)];
        for (offset, len) in cases {
            let want = a.resolve(&rec(offset, len));
            let overhead = b.resolve_into(&rec(offset, len), &mut out);
            assert_eq!(out, want.extents, "extents for [{offset}, +{len})");
            assert_eq!(overhead, want.overhead);
        }
        assert_eq!(a.lookups(), b.lookups());
        assert_eq!(a.redirected(), b.redirected());
        assert_eq!(a.fallbacks(), b.fallbacks());

        let mut n = NullRedirectResolver::with_default_cost();
        let want = n.resolve(&rec(1000, 500));
        let overhead = n.resolve_into(&rec(1000, 500), &mut out);
        assert_eq!(out, want.extents);
        assert_eq!(overhead, want.overhead);
    }
}
