//! Striped data layouts and the request → sub-request decomposition.
//!
//! A layout is an ordered list of `(server, stripe_size)` assignments.
//! One *round* of the layout covers `Σ stripe_i` consecutive file bytes:
//! within a round, the first `stripe_0` bytes live on server 0, the next
//! `stripe_1` on server 1, and so on; rounds repeat ad infinitum. With
//! equal stripes this is the classic fixed-size round-robin of Fig. 1;
//! with per-class sizes it is the varied-size striping of AAL/HARL/MHA
//! (`<h, s>` stripe pairs, including the `h = 0` "SServers only" extreme).

/// Index of a storage server within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

/// How a layout places redundancy on top of its striped data path.
///
/// `Striped` is the paper's single-copy baseline: every byte lives on
/// exactly one server and a permanent server loss is fatal to the data
/// it held. The redundant variants derive their geometry from the
/// layout's segment list (see DESIGN.md §17):
///
/// * `Replicated(k)`: copy `r` of the stripe unit homed on segment `i`
///   lives on segment `(i + r) mod n` (`n` = segment count), so the
///   copies of one unit always occupy `k` distinct servers.
/// * `ErasureCoded(k, m)`: stripe units are numbered in file order
///   (unit `u` is homed on segment `u mod n`); each run of `k`
///   consecutive units forms a parity group `g = u / k`, whose `m`
///   parity units live on segments `(g·k + k + p) mod n` — the `m`
///   segments immediately after the group's data, rotating with `g`
///   like RAID-5 parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One copy of every byte (the historical layouts).
    Striped,
    /// `k` full copies of every stripe unit (`2 ≤ k ≤` segments).
    Replicated(usize),
    /// `k` data + `m` parity units per group (`k + m ≤` segments).
    ErasureCoded(usize, usize),
}

impl Placement {
    /// True for the single-copy baseline.
    pub fn is_striped(&self) -> bool {
        matches!(self, Placement::Striped)
    }

    /// Physical bytes written per logical byte: 1 for striping, `k` for
    /// `k`-way replication, `(k + m)/k` for erasure coding.
    pub(crate) fn write_amplification(&self) -> f64 {
        match *self {
            Placement::Striped => 1.0,
            Placement::Replicated(k) => k as f64,
            Placement::ErasureCoded(k, m) => (k + m) as f64 / k as f64,
        }
    }

    /// Physical bytes stored per logical byte — numerically the same as
    /// `Self::write_amplification`, named for the capacity question.
    pub fn storage_overhead(&self) -> f64 {
        self.write_amplification()
    }
}

/// One server's share of a layout round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    server: ServerId,
    stripe: u64,
    /// Byte offset of this segment within a round (prefix sum).
    start: u64,
}

/// A piece of a file request mapped onto one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubExtent {
    /// Target server.
    pub server: ServerId,
    /// Byte offset within the server's local object store.
    pub server_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A striped layout over a set of servers. Equality compares the shape
/// and placement; the cached reciprocal is a function of `round`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSpec {
    segments: Vec<Segment>,
    round: u64,
    /// `floor(2^64 / round)`: cached reciprocal that strength-reduces the
    /// per-request round-index division in [`Self::map_extent_into`] to a
    /// widening multiply (round sizes are rarely powers of two, so the
    /// hardware divide would otherwise sit on the replay hot path).
    round_magic: u64,
    /// Redundancy scheme layered over the striped data path.
    placement: Placement,
}

/// `floor(2^64 / round)` (saturated for `round == 1`, where the true
/// value does not fit; the fixup step absorbs the error).
fn round_magic_for(round: u64) -> u64 {
    if round <= 1 {
        u64::MAX
    } else {
        ((1u128 << 64) / round as u128) as u64
    }
}

/// Reusable accumulators for [`LayoutSpec::per_server_load_into`].
///
/// Holds per-server `(bytes, runs)` totals indexed by `ServerId.0`, plus
/// the list of servers actually touched so clearing is O(touched) rather
/// than O(table). Reusing one scratch across calls makes the whole
/// decomposition allocation-free after the first call.
#[derive(Debug, Default, Clone)]
pub struct LoadScratch {
    bytes: Vec<u64>,
    runs: Vec<u32>,
    /// Server ids with nonzero load, in layout (round) order.
    touched: Vec<usize>,
}

impl LoadScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-server loads of the last decomposition, in layout round order:
    /// `(server, bytes, runs)` for every server with nonzero bytes.
    pub fn entries(&self) -> impl Iterator<Item = (ServerId, u64, u32)> + '_ {
        self.touched
            .iter()
            .map(|&i| (ServerId(i), self.bytes[i], self.runs[i]))
    }

    /// Reset all accumulators (O(touched)).
    pub(crate) fn clear(&mut self) {
        for &i in &self.touched {
            self.bytes[i] = 0;
            self.runs[i] = 0;
        }
        self.touched.clear();
    }

    fn ensure_capacity(&mut self, max_id: usize) {
        if self.bytes.len() <= max_id {
            self.bytes.resize(max_id + 1, 0);
            self.runs.resize(max_id + 1, 0);
        }
    }

    fn add(&mut self, server: usize, bytes: u64, runs: u32) {
        if self.bytes[server] == 0 && self.runs[server] == 0 {
            self.touched.push(server);
        }
        self.bytes[server] += bytes;
        self.runs[server] += runs;
    }
}

impl LayoutSpec {
    /// Fixed-size round-robin striping (the DEF scheme's shape).
    ///
    /// # Panics
    /// If `servers` is empty or `stripe` is zero.
    pub fn fixed(servers: &[ServerId], stripe: u64) -> Self {
        assert!(stripe > 0, "stripe must be positive");
        Self::from_assignments(servers.iter().map(|&s| (s, stripe)))
    }

    /// Hybrid `<h, s>` striping: stripe `h` on each HServer and `s` on
    /// each SServer, round-robin HServers first (the paper's Fig. 2/4
    /// shape). A zero stripe excludes that server class entirely — the
    /// paper's `h = 0` extreme dispatches data only to SServers.
    ///
    /// # Panics
    /// If no server ends up with a positive stripe.
    pub fn hybrid(hservers: &[ServerId], h: u64, sservers: &[ServerId], s: u64) -> Self {
        let assigns = hservers
            .iter()
            .map(|&sv| (sv, h))
            .chain(sservers.iter().map(|&sv| (sv, s)))
            .filter(|&(_, sz)| sz > 0);
        Self::from_assignments(assigns)
    }

    /// Build from explicit `(server, stripe)` pairs in round-robin order.
    ///
    /// # Panics
    /// If no pair has a positive stripe.
    pub fn from_assignments(assigns: impl IntoIterator<Item = (ServerId, u64)>) -> Self {
        let mut segments = Vec::new();
        let mut start = 0u64;
        for (server, stripe) in assigns {
            if stripe == 0 {
                continue;
            }
            segments.push(Segment { server, stripe, start });
            start += stripe;
        }
        assert!(!segments.is_empty(), "layout must include at least one server");
        LayoutSpec {
            segments,
            round: start,
            round_magic: round_magic_for(start),
            placement: Placement::Striped,
        }
    }

    /// Layer a redundancy placement over this layout. The replay cores
    /// and cost model consult it; the striped data geometry (rounds,
    /// stripes, `map_extent`) is unchanged.
    ///
    /// # Panics
    /// If the layout cannot host the placement: replication needs
    /// `2 ≤ k ≤ segments`, erasure coding needs `k ≥ 1`, `m ≥ 1` and
    /// `k + m ≤ segments`; both need every segment on a distinct server
    /// (otherwise "distinct copies" is meaningless). Use
    /// [`Self::try_with_placement`] for a non-panicking check.
    #[must_use]
    pub fn with_placement(self, placement: Placement) -> Self {
        match self.try_with_placement(placement) {
            Ok(l) => l,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Fallible [`Self::with_placement`]: returns the reason the layout
    /// cannot host `placement` instead of panicking.
    pub fn try_with_placement(mut self, placement: Placement) -> Result<Self, String> {
        let n = self.segments.len();
        match placement {
            Placement::Striped => {}
            Placement::Replicated(k) => {
                if k < 2 {
                    return Err(format!("replication needs k >= 2 copies, got {k}"));
                }
                if k > n {
                    return Err(format!("replication needs k <= segments ({k} > {n})"));
                }
                if !self.servers_distinct() {
                    return Err("replication needs distinct servers per segment".into());
                }
            }
            Placement::ErasureCoded(k, m) => {
                if k == 0 || m == 0 {
                    return Err(format!("EC needs k >= 1 data and m >= 1 parity, got ({k},{m})"));
                }
                if k > n || m > n - k {
                    return Err(format!("EC needs k+m <= segments ({k}+{m} > {n})"));
                }
                if !self.servers_distinct() {
                    return Err("EC needs distinct servers per segment".into());
                }
            }
        }
        self.placement = placement;
        Ok(self)
    }

    /// The redundancy placement layered over this layout.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of segments (participating servers) in one round.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Server owning segment `idx` (round order).
    ///
    /// # Panics
    /// If `idx` is out of range.
    pub(crate) fn server_at(&self, idx: usize) -> ServerId {
        self.segments[idx].server
    }

    /// Stripe size of segment `idx` (round order).
    ///
    /// # Panics
    /// If `idx` is out of range.
    pub(crate) fn stripe_at(&self, idx: usize) -> u64 {
        self.segments[idx].stripe
    }

    /// Position of `server` in the segment list, if it participates.
    pub fn position_of(&self, server: ServerId) -> Option<usize> {
        self.segments.iter().position(|s| s.server == server)
    }

    /// Largest stripe size in the layout (the erasure-coding parity unit
    /// size: one parity unit must cover the widest data unit it protects).
    pub fn max_stripe(&self) -> u64 {
        self.segments.iter().map(|s| s.stripe).max().unwrap_or(0)
    }

    /// Copy of this layout with every occurrence of `from` replaced by
    /// `to`, preserving stripes, segment order, and placement — the
    /// layout update a rebuild-onto-spare publishes after reconstructing
    /// a lost server's data on the spare.
    #[must_use]
    pub fn swap_server(&self, from: ServerId, to: ServerId) -> Self {
        let mut out = self.clone();
        for seg in &mut out.segments {
            if seg.server == from {
                seg.server = to;
            }
        }
        out
    }

    /// Bytes covered by one round of the layout.
    pub fn round_size(&self) -> u64 {
        self.round
    }

    /// Servers participating in the layout, in round order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.segments.iter().map(|s| s.server)
    }

    /// `(server, stripe)` assignments in round order.
    pub fn assignments(&self) -> impl Iterator<Item = (ServerId, u64)> + '_ {
        self.segments.iter().map(|s| (s.server, s.stripe))
    }

    /// Stripe size assigned to `server` (0 if not participating).
    pub fn stripe_of(&self, server: ServerId) -> u64 {
        self.segments
            .iter()
            .find(|s| s.server == server)
            .map_or(0, |s| s.stripe)
    }

    /// Decompose the file extent `[offset, offset + len)` into per-server
    /// sub-extents, merging contiguous pieces that land on the same server
    /// across adjacent rounds is NOT done — each round contributes its own
    /// piece, mirroring how a PFS issues one contiguous server I/O per
    /// stripe unit run. Pieces are returned in file order.
    pub fn map_extent(&self, offset: u64, len: u64) -> Vec<SubExtent> {
        let mut out = Vec::new();
        self.map_extent_into(offset, len, &mut out);
        out
    }

    /// [`Self::map_extent`] into a caller-owned buffer: `out` is cleared
    /// and refilled with exactly the pieces `map_extent` would return, so
    /// a replay loop reusing one buffer decomposes requests without any
    /// per-request allocation once the buffer has warmed up.
    ///
    /// The walk locates the starting segment once (one reciprocal-multiply
    /// division plus a short scan) and then advances segment by segment,
    /// wrapping at round boundaries — no per-piece division or segment
    /// search.
    pub fn map_extent_into(&self, offset: u64, len: u64, out: &mut Vec<SubExtent>) {
        out.clear();
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut pos = offset;
        let mut round_idx = self.round_index(pos);
        let mut round_base = round_idx * self.round;
        let mut seg_idx = self.segment_index_at(pos - round_base);
        loop {
            let seg = &self.segments[seg_idx];
            let within = pos - round_base;
            let take = (seg.start + seg.stripe - within).min(end - pos);
            let server_offset = round_idx * seg.stripe + (within - seg.start);
            // Merge with the previous piece when it continues the same
            // server-local run (happens when only one server participates).
            match out.last_mut() {
                Some(last)
                    if last.server == seg.server
                        && last.server_offset + last.len == server_offset =>
                {
                    last.len += take;
                }
                _ => out.push(SubExtent { server: seg.server, server_offset, len: take }),
            }
            pos += take;
            if pos >= end {
                return;
            }
            seg_idx += 1;
            if seg_idx == self.segments.len() {
                seg_idx = 0;
                round_idx += 1;
                round_base += self.round;
            }
        }
    }

    /// `pos / self.round` via the cached reciprocal: the multiply-high
    /// estimate is off by at most one, fixed up with a single comparison.
    #[inline]
    fn round_index(&self, pos: u64) -> u64 {
        let mut q = ((pos as u128 * self.round_magic as u128) >> 64) as u64;
        if pos - q * self.round >= self.round {
            q += 1;
        }
        q
    }

    /// Aggregate `map_extent` pieces per server: total bytes and number of
    /// contiguous runs for each involved server, in first-touch (file)
    /// order. This is the oracle path — it walks the extent one stripe
    /// unit at a time; [`Self::per_server_load_into`] computes the same
    /// totals in closed form.
    pub fn per_server_load(&self, offset: u64, len: u64) -> Vec<(ServerId, u64, u32)> {
        // Index-by-ServerId accumulation: O(pieces), not O(pieces²).
        let max_id = self.segments.iter().map(|s| s.server.0).max().unwrap_or(0);
        let mut slot = vec![usize::MAX; max_id + 1];
        let mut acc: Vec<(ServerId, u64, u32)> = Vec::new();
        for piece in self.map_extent(offset, len) {
            let s = &mut slot[piece.server.0];
            if *s == usize::MAX {
                *s = acc.len();
                acc.push((piece.server, piece.len, 1));
            } else {
                let (_, bytes, runs) = &mut acc[*s];
                *bytes += piece.len;
                *runs += 1;
            }
        }
        acc
    }

    /// Closed-form per-server decomposition of `[offset, offset + len)`:
    /// computes each server's `(bytes, runs)` arithmetically from full-
    /// round counts plus head/tail partial rounds, in O(segments) time
    /// with zero allocation once `scratch` has warmed up. Produces the
    /// same totals as aggregating [`Self::map_extent`] (the oracle in
    /// [`Self::per_server_load`]), but never materializes the pieces —
    /// a `len/stripe`-independent cost that makes scanning millions of
    /// candidate layouts viable.
    ///
    /// `scratch` is cleared on entry; results are read via
    /// [`LoadScratch::entries`] and stay valid until the next call.
    /// Entries come back in layout (round) order rather than the oracle's
    /// first-touch order; totals per server are identical.
    ///
    /// Requires every segment to name a distinct server (true for all
    /// [`Self::fixed`]/[`Self::hybrid`] layouts over distinct ids);
    /// duplicate-server layouts must use the oracle path, whose
    /// cross-round merge rules the closed form does not model.
    pub fn per_server_load_into(&self, offset: u64, len: u64, scratch: &mut LoadScratch) {
        debug_assert!(self.servers_distinct(), "closed form needs distinct servers");
        scratch.clear();
        if len == 0 {
            return;
        }
        let max_id = self.segments.iter().map(|s| s.server.0).max().unwrap_or(0);
        scratch.ensure_capacity(max_id);
        // A single-segment layout is one contiguous server-local run:
        // stripe == round, so consecutive rounds merge (as map_extent does).
        if self.segments.len() == 1 {
            scratch.add(self.segments[0].server.0, len, 1);
            return;
        }
        let round = self.round;
        let end = offset + len;
        for seg in &self.segments {
            // Bytes: prefix-count difference. bytes_before(x) = bytes of
            // [0, x) landing on this segment = full rounds · stripe plus
            // the clamped share of the partial round.
            let bytes_before = |x: u64| -> u64 {
                (x / round) * seg.stripe + (x % round).saturating_sub(seg.start).min(seg.stripe)
            };
            let bytes = bytes_before(end) - bytes_before(offset);
            if bytes == 0 {
                continue;
            }
            // Runs: with ≥ 2 segments, adjacent pieces land on different
            // servers and never merge, so runs = number of rounds r whose
            // segment window [r·round + start, r·round + start + stripe)
            // intersects [offset, end).
            let r_hi = (end - seg.start - 1) / round; // end > start ⇐ bytes > 0
            let r_lo = if seg.start + seg.stripe > offset {
                0
            } else {
                (offset - seg.start - seg.stripe) / round + 1
            };
            debug_assert!(r_hi >= r_lo, "bytes > 0 implies a touched round");
            let runs = (r_hi - r_lo + 1).min(u64::from(u32::MAX)) as u32;
            scratch.add(seg.server.0, bytes, runs);
        }
    }

    /// Rebuild this layout in place from `(server, stripe)` assignments,
    /// reusing the segment buffer — the allocation-free counterpart of
    /// [`Self::from_assignments`] for tight candidate-scan loops.
    ///
    /// Returns `false` (leaving the layout **empty and unusable** until
    /// the next successful rebuild) when no assignment has a positive
    /// stripe; callers must check the return value before using the
    /// layout.
    ///
    /// Rebuilding resets the placement to [`Placement::Striped`]: the new
    /// segment list may not be able to host the old placement, so callers
    /// re-attach one with [`Self::with_placement`] if they want it.
    pub fn rebuild(&mut self, assigns: impl IntoIterator<Item = (ServerId, u64)>) -> bool {
        self.placement = Placement::Striped;
        self.segments.clear();
        let mut start = 0u64;
        for (server, stripe) in assigns {
            if stripe == 0 {
                continue;
            }
            self.segments.push(Segment { server, stripe, start });
            start += stripe;
        }
        self.round = start;
        self.round_magic = round_magic_for(start);
        !self.segments.is_empty()
    }

    /// True when every segment names a distinct server.
    fn servers_distinct(&self) -> bool {
        self.segments
            .iter()
            .enumerate()
            .all(|(i, a)| self.segments[..i].iter().all(|b| b.server != a.server))
    }

    fn segment_index_at(&self, within_round: u64) -> usize {
        debug_assert!(within_round < self.round);
        // Small layouts (the paper's 8-server testbed) win with a linear
        // scan; wide layouts (hundreds of servers striping every file
        // over the whole cluster) need the binary search — the backward
        // scan was O(servers) per extent and dominated replay at 1024
        // servers.
        if self.segments.len() <= 16 {
            self.segments
                .iter()
                .rposition(|s| s.start <= within_round)
                .expect("segment_index_at: within_round < round implies a segment exists")
        } else {
            self.segments.partition_point(|s| s.start <= within_round) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: std::ops::Range<usize>) -> Vec<ServerId> {
        v.map(ServerId).collect()
    }

    #[test]
    fn fixed_round_robin_matches_fig1() {
        // 4 servers, 64 KB stripes: offset 256K..512K covers each server once.
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10);
        assert_eq!(l.round_size(), 256 << 10);
        let subs = l.map_extent(256 << 10, 256 << 10);
        assert_eq!(subs.len(), 4);
        for (i, s) in subs.iter().enumerate() {
            assert_eq!(s.server, ServerId(i));
            assert_eq!(s.len, 64 << 10);
            assert_eq!(s.server_offset, 64 << 10); // second round
        }
    }

    #[test]
    fn hybrid_pair_assigns_class_stripes() {
        let h = ids(0..2);
        let s = ids(2..4);
        let l = LayoutSpec::hybrid(&h, 32 << 10, &s, 96 << 10);
        assert_eq!(l.round_size(), (32 + 32 + 96 + 96) << 10);
        assert_eq!(l.stripe_of(ServerId(0)), 32 << 10);
        assert_eq!(l.stripe_of(ServerId(3)), 96 << 10);
    }

    #[test]
    fn zero_h_excludes_hservers() {
        let l = LayoutSpec::hybrid(&ids(0..6), 0, &ids(6..8), 128 << 10);
        let servers: Vec<_> = l.servers().collect();
        assert_eq!(servers, vec![ServerId(6), ServerId(7)]);
        assert_eq!(l.stripe_of(ServerId(0)), 0);
        let subs = l.map_extent(0, 512 << 10);
        assert!(subs.iter().all(|s| s.server.0 >= 6));
    }

    #[test]
    fn map_extent_partitions_the_request() {
        let l = LayoutSpec::hybrid(&ids(0..3), 10, &ids(3..5), 25);
        // Arbitrary unaligned extent must be exactly partitioned.
        let (off, len) = (7u64, 533u64);
        let subs = l.map_extent(off, len);
        let total: u64 = subs.iter().map(|s| s.len).sum();
        assert_eq!(total, len);
        assert!(subs.iter().all(|s| s.len > 0));
    }

    #[test]
    fn server_offsets_are_dense_per_server() {
        // Mapping the whole file prefix must produce contiguous,
        // non-overlapping server-local extents starting at 0.
        let l = LayoutSpec::hybrid(&ids(0..2), 8, &ids(2..3), 16);
        let subs = l.map_extent(0, 320);
        let mut per_server: std::collections::BTreeMap<ServerId, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for s in subs {
            per_server.entry(s.server).or_default().push((s.server_offset, s.len));
        }
        for (sid, mut spans) in per_server {
            spans.sort_unstable();
            let mut cursor = 0;
            for (o, l) in spans {
                assert_eq!(o, cursor, "hole in server {sid:?} object");
                cursor = o + l;
            }
            // 320 bytes / round 32 = 10 rounds; server share = stripe * 10.
            assert_eq!(cursor, l.stripe_of(sid) * 10);
        }
    }

    #[test]
    fn sub_extent_within_one_stripe_unit() {
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10);
        // A 16 KB request fits in one stripe on one server.
        let subs = l.map_extent(100 << 10, 16 << 10);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].server, ServerId(1)); // 100K lies in [64K,128K)
        assert_eq!(subs[0].len, 16 << 10);
        assert_eq!(subs[0].server_offset, 36 << 10);
    }

    #[test]
    fn map_extent_into_reuses_a_dirty_buffer() {
        let l = LayoutSpec::hybrid(&ids(0..3), 10, &ids(3..5), 25);
        let mut buf = vec![SubExtent { server: ServerId(9), server_offset: 7, len: 7 }];
        for (off, len) in [(0u64, 0u64), (7, 533), (79, 2), (0, 1), (100, 95)] {
            l.map_extent_into(off, len, &mut buf);
            assert_eq!(buf, l.map_extent(off, len), "off={off} len={len}");
        }
    }

    #[test]
    fn single_server_runs_merge() {
        let l = LayoutSpec::fixed(&[ServerId(5)], 4 << 10);
        let subs = l.map_extent(1000, 100_000);
        assert_eq!(subs.len(), 1, "single-server layout is one contiguous run");
        assert_eq!(subs[0].server_offset, 1000);
        assert_eq!(subs[0].len, 100_000);
    }

    #[test]
    fn per_server_load_aggregates() {
        let l = LayoutSpec::fixed(&ids(0..2), 10);
        // 50 bytes from 0: rounds of 20; server0 gets 30 (3 runs), server1 20 (2 runs).
        let load = l.per_server_load(0, 50);
        assert_eq!(load, vec![(ServerId(0), 30, 3), (ServerId(1), 20, 2)]);
    }

    #[test]
    fn zero_length_maps_to_nothing() {
        let l = LayoutSpec::fixed(&ids(0..2), 10);
        assert!(l.map_extent(5, 0).is_empty());
        assert!(l.per_server_load(5, 0).is_empty());
        let mut scratch = LoadScratch::new();
        l.per_server_load_into(5, 0, &mut scratch);
        assert_eq!(scratch.entries().count(), 0);
    }

    /// Compare the closed-form kernel against the map_extent oracle as
    /// per-server (bytes, runs) maps (the kernel reports in round order,
    /// the oracle in first-touch order).
    fn assert_kernel_matches_oracle(l: &LayoutSpec, offset: u64, len: u64) {
        let mut oracle: Vec<(ServerId, u64, u32)> = l.per_server_load(offset, len);
        oracle.sort_unstable_by_key(|e| e.0);
        let mut scratch = LoadScratch::new();
        l.per_server_load_into(offset, len, &mut scratch);
        let mut kernel: Vec<(ServerId, u64, u32)> = scratch.entries().collect();
        kernel.sort_unstable_by_key(|e| e.0);
        assert_eq!(kernel, oracle, "layout={l:?} offset={offset} len={len}");
    }

    #[test]
    fn closed_form_matches_oracle_on_known_cases() {
        let l = LayoutSpec::fixed(&ids(0..2), 10);
        assert_kernel_matches_oracle(&l, 0, 50);
        let l = LayoutSpec::hybrid(&ids(0..3), 10, &ids(3..5), 25);
        assert_kernel_matches_oracle(&l, 7, 533);
        assert_kernel_matches_oracle(&l, 0, 1);
        assert_kernel_matches_oracle(&l, 79, 2); // straddles a segment edge
        let l = LayoutSpec::hybrid(&ids(0..6), 0, &ids(6..8), 128 << 10);
        assert_kernel_matches_oracle(&l, 3 << 10, 512 << 10);
    }

    #[test]
    fn closed_form_matches_oracle_randomized() {
        // Hand-rolled xorshift so the sweep needs no external crates.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let m = (rng() % 6) as usize + 1;
            let n = (rng() % 5) as usize;
            let h = (rng() % 64 + 1) * 512;
            let s = (rng() % 128 + 1) * 512;
            let l = LayoutSpec::hybrid(&ids(0..m), h, &ids(m..m + n), s);
            for _ in 0..8 {
                let offset = rng() % (1 << 22);
                let len = rng() % (1 << 21);
                assert_kernel_matches_oracle(&l, offset, len);
            }
        }
    }

    #[test]
    fn closed_form_reuses_scratch_across_layouts() {
        // The same scratch must give correct answers after switching to a
        // layout with different servers (stale accumulators cleared).
        let mut scratch = LoadScratch::new();
        let a = LayoutSpec::fixed(&ids(0..4), 8 << 10);
        a.per_server_load_into(0, 64 << 10, &mut scratch);
        assert_eq!(scratch.entries().count(), 4);
        let b = LayoutSpec::hybrid(&ids(0..6), 0, &ids(6..8), 16 << 10);
        b.per_server_load_into(0, 64 << 10, &mut scratch);
        let servers: Vec<ServerId> = scratch.entries().map(|e| e.0).collect();
        assert_eq!(servers, vec![ServerId(6), ServerId(7)]);
        let total: u64 = scratch.entries().map(|e| e.1).sum();
        assert_eq!(total, 64 << 10);
    }

    #[test]
    fn single_segment_closed_form_merges_rounds() {
        let l = LayoutSpec::fixed(&[ServerId(5)], 4 << 10);
        let mut scratch = LoadScratch::new();
        l.per_server_load_into(1000, 100_000, &mut scratch);
        let entries: Vec<_> = scratch.entries().collect();
        assert_eq!(entries, vec![(ServerId(5), 100_000, 1)]);
    }

    #[test]
    fn rebuild_matches_from_assignments() {
        let mut l = LayoutSpec::fixed(&ids(0..2), 10);
        let assigns = [(ServerId(0), 32u64), (ServerId(1), 0), (ServerId(2), 96)];
        assert!(l.rebuild(assigns));
        assert_eq!(l, LayoutSpec::from_assignments(assigns));
        assert_eq!(l.round_size(), 128);
        // All-zero rebuild fails and reports unusable.
        assert!(!l.rebuild([(ServerId(0), 0u64)]));
        // A later successful rebuild restores the layout.
        assert!(l.rebuild([(ServerId(3), 7u64)]));
        assert_eq!(l.stripe_of(ServerId(3)), 7);
    }

    #[test]
    fn placement_defaults_to_striped_and_joins_equality() {
        let base = LayoutSpec::fixed(&ids(0..4), 64 << 10);
        assert_eq!(base.placement(), Placement::Striped);
        assert!(base.placement().is_striped());
        let repl = base.clone().with_placement(Placement::Replicated(3));
        assert_eq!(repl.placement(), Placement::Replicated(3));
        assert_ne!(base, repl, "placement is part of layout identity");
        assert_eq!(repl, base.clone().with_placement(Placement::Replicated(3)));
        // Geometry is untouched by the placement.
        assert_eq!(repl.map_extent(7, 533), base.map_extent(7, 533));
    }

    #[test]
    fn placement_validation_rejects_misfits() {
        let narrow = LayoutSpec::fixed(&ids(0..2), 10);
        assert!(narrow.clone().try_with_placement(Placement::Replicated(3)).is_err());
        assert!(narrow.clone().try_with_placement(Placement::Replicated(1)).is_err());
        assert!(narrow.clone().try_with_placement(Placement::ErasureCoded(2, 1)).is_err());
        assert!(narrow.clone().try_with_placement(Placement::ErasureCoded(0, 2)).is_err());
        assert!(narrow.try_with_placement(Placement::Replicated(2)).is_ok());
        // Duplicate-server layouts cannot host redundancy.
        let dup = LayoutSpec::from_assignments([(ServerId(0), 8u64), (ServerId(0), 8)]);
        assert!(dup.try_with_placement(Placement::Replicated(2)).is_err());
        let wide = LayoutSpec::hybrid(&ids(0..6), 32 << 10, &ids(6..8), 96 << 10);
        assert!(wide.clone().try_with_placement(Placement::ErasureCoded(4, 2)).is_ok());
        assert!(wide.try_with_placement(Placement::ErasureCoded(7, 2)).is_err());
    }

    #[test]
    fn placement_overheads() {
        assert_eq!(Placement::Striped.write_amplification(), 1.0);
        assert_eq!(Placement::Replicated(3).write_amplification(), 3.0);
        assert_eq!(Placement::ErasureCoded(4, 2).write_amplification(), 1.5);
        assert_eq!(Placement::ErasureCoded(4, 2).storage_overhead(), 1.5);
    }

    #[test]
    fn rebuild_resets_placement_and_swap_preserves_it() {
        let mut l = LayoutSpec::fixed(&ids(0..4), 10).with_placement(Placement::Replicated(2));
        assert!(l.rebuild([(ServerId(0), 32u64), (ServerId(1), 32)]));
        assert_eq!(l.placement(), Placement::Striped, "rebuild resets placement");

        let ec = LayoutSpec::hybrid(&ids(0..6), 8, &ids(6..8), 16)
            .with_placement(Placement::ErasureCoded(4, 2));
        let swapped = ec.swap_server(ServerId(3), ServerId(9));
        assert_eq!(swapped.placement(), Placement::ErasureCoded(4, 2));
        assert_eq!(swapped.position_of(ServerId(9)), Some(3));
        assert_eq!(swapped.position_of(ServerId(3)), None);
        assert_eq!(swapped.stripe_at(3), 8);
        assert_eq!(swapped.round_size(), ec.round_size());
        // Untouched servers keep their positions.
        assert_eq!(swapped.server_at(0), ServerId(0));
        assert_eq!(swapped.server_at(7), ServerId(7));
        assert_eq!(ec.max_stripe(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn all_zero_stripes_rejected() {
        LayoutSpec::hybrid(&ids(0..2), 0, &ids(2..4), 0);
    }

    #[test]
    #[should_panic(expected = "stripe must be positive")]
    fn fixed_zero_stripe_rejected() {
        LayoutSpec::fixed(&ids(0..2), 0);
    }
}
