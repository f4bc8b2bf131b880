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

use crate::region::{Drt, Pos};
use iotrace::{FileId, TraceRecord};
use pfs_sim::{PhysExtent, Resolver};
use simrt::SimDuration;

/// DRT-backed resolver: the MHA (and HARL) redirection path.
///
/// Translates through the [`Drt`] it owns, reusing the caller's extent
/// buffer on the [`Resolver::resolve_into`] fast path. A last-hit cursor
/// remembers where the previous translation stopped, so a request that
/// starts there — a sequential replay's next one — skips the seek. Any
/// other request seeks as [`Drt::translate`] does: a binary search over
/// the file's segment starts, then arithmetic in a repeat or a binary
/// search in a literal. Translations are byte-for-byte identical to
/// [`Drt::translate`].
#[derive(Debug, Clone)]
pub struct DrtResolver {
    drt: Drt,
    /// `(file slot, position)` where the last translation stopped.
    cursor: Option<(usize, Pos)>,
    lookup_cost: SimDuration,
    lookups: u64,
    redirected: u64,
    fallbacks: u64,
}

impl DrtResolver {
    /// Resolver over `drt`, charging `lookup_cost` per request.
    pub fn new(drt: Drt, lookup_cost: SimDuration) -> Self {
        DrtResolver { drt, cursor: None, lookup_cost, lookups: 0, redirected: 0, fallbacks: 0 }
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
        let view = self.drt.view(slot);
        let start = match self.cursor {
            // A request that starts where the last one stopped.
            Some((c_slot, c)) if c_slot == slot && view.entry(c).o_offset == offset => c,
            _ => view.seek(offset),
        };
        let stop = view.walk(start, file, offset, len, out);
        self.cursor = Some((slot, if view.is_end(stop) { view.last() } else { stop }));
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
