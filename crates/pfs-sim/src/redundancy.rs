//! Redundancy-aware sub-request expansion.
//!
//! `RedundancyState::expand` turns one logical extent into the physical
//! sub-requests its layout's [`Placement`] implies, consulting per-server
//! health so every sub-request targets a *live* source:
//!
//! * `Striped` delegates verbatim to [`LayoutSpec::map_extent_into`] —
//!   the historical single-copy path, bit-identical to pre-redundancy
//!   replays.
//! * `Replicated(k)` writes every stripe unit to its home segment plus
//!   `k − 1` follower segments; reads pick the fastest live copy
//!   (primary preferred at equal speed), so a lost or slow server is
//!   dodged instead of timing the request out.
//! * `ErasureCoded(k, m)` writes each data unit plus the `m` parity
//!   units of its group (delta-parity: one parity write per touched
//!   group, sized to the widest touched run); a read whose home server
//!   is lost becomes `k` reconstruction reads from the surviving group
//!   members plus a client-side decode penalty.
//!
//! Health is sampled **once per run** from the fault plan: permanent
//! losses are known cluster-wide (the MDS health map) before the first
//! request, which keeps source selection time-independent — a property
//! the sharded core's lane-parallel passes rely on. Both replay cores
//! call `expand` from their serial front section, so the emitted
//! sub-request order (and therefore every FIFO arrival order) is shared
//! and the serial/sharded bit-identity invariant survives.
//!
//! Redundant objects (replica copies, parity units) live in the second
//! half of the file's 6 GiB device slot, `REDUNDANCY_REGION` bytes in.
//! Distinct source segments may collide there; in a timing simulator a
//! collision just means two redundant objects share a block range, which
//! costs exactly as much as being adjacent, so the scheme stays simple.

use crate::fault::FaultRuntime;
use crate::layout::{LayoutSpec, Placement, ServerId, SubExtent};
use crate::replay::Counters;
use simrt::{ServerHealth, SimDuration};
use storage_model::IoOp;

/// Device-space offset of the redundancy region within a file's 6 GiB
/// device slot: primary stripes occupy `[0, 3 GiB)`, replica copies and
/// parity units `[3 GiB, 6 GiB)`. The split keeps redundant writes from
/// aliasing primary data while preserving the per-file seek locality the
/// slot scheme models.
pub(crate) const REDUNDANCY_REGION: u64 = 3 << 30;

/// Client-side erasure-decode throughput in bytes/second. A degraded
/// read pays `k · reconstructed_bytes / DECODE_BW` of extra latency on
/// top of its `k` reconstruction reads — XOR/RS decode is fast but not
/// free, and charging it keeps EC honest against plain replication.
const DECODE_BW: f64 = 2.0e9;

/// Extra client latency for decoding `bytes` of reconstruction input.
pub(crate) fn decode_penalty(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / DECODE_BW)
}

fn bump(v: &mut Vec<u64>, idx: usize, by: u64) {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
    v[idx] += by;
}

/// Per-run redundancy machinery owned by a replay scratch: the sampled
/// health map, degraded-mode counters, and internal expansion buffers.
/// Reset once per run; allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct RedundancyState {
    /// Health sampled at run start, indexed by server id.
    health: Vec<ServerHealth>,
    /// Degraded (reconstruction) reads, charged to the *lost* server.
    degraded_reads: Vec<u64>,
    /// Bytes reconstructed in degraded reads, charged to the lost server.
    reconstructed_bytes: Vec<u64>,
    /// Reads served by a non-primary replica, charged to the avoided
    /// primary server.
    failovers: Vec<u64>,
    /// Internal buffer for the primary (striped) decomposition.
    base: Vec<SubExtent>,
    /// Degraded-read candidate buffer: `(speed bits, server, offset)`.
    cand: Vec<(u64, usize, u64)>,
}

impl RedundancyState {
    /// Sample health for `n_servers` from the fault runtime (nominal when
    /// running fault-free) and zero the counters. Called once per run.
    pub(crate) fn reset(&mut self, n_servers: usize, faults: Option<&FaultRuntime>) {
        self.health.clear();
        self.health.extend(
            (0..n_servers).map(|i| faults.map_or_else(ServerHealth::nominal, |rt| rt.server_health(i))),
        );
        self.degraded_reads.clear();
        self.degraded_reads.resize(n_servers, 0);
        self.reconstructed_bytes.clear();
        self.reconstructed_bytes.resize(n_servers, 0);
        self.failovers.clear();
        self.failovers.resize(n_servers, 0);
    }

    /// `server`'s degraded reads, reconstructed bytes and failovers
    /// (every other count is 0).
    pub(crate) fn server_counters(&self, server: usize) -> Counters {
        let at = |v: &[u64]| v.get(server).copied().unwrap_or(0);
        Counters {
            degraded_reads: at(&self.degraded_reads),
            reconstructed_bytes: at(&self.reconstructed_bytes),
            failovers: at(&self.failovers),
            ..Counters::default()
        }
    }

    fn alive(&self, server: ServerId) -> bool {
        self.health.get(server.0).is_none_or(|h| !h.down)
    }

    /// Speed factor as orderable bits (factors are positive, so the IEEE
    /// bit pattern orders them like the floats).
    fn speed_bits(&self, server: ServerId) -> u64 {
        self.health.get(server.0).map_or(1.0f64, |h| h.speed_factor).to_bits()
    }

    /// Expand `[offset, offset + len)` of a file laid out by `layout`
    /// into physical sub-requests appended to `out` (cleared first), in
    /// deterministic file order. Returns the number of bytes the client
    /// must feed through erasure decode for this extent (0 unless a
    /// degraded EC read happened).
    pub(crate) fn expand(
        &mut self,
        layout: &LayoutSpec,
        offset: u64,
        len: u64,
        op: IoOp,
        out: &mut Vec<SubExtent>,
    ) -> u64 {
        match layout.placement() {
            // Verbatim historical path: no counters, no extra work.
            Placement::Striped => {
                layout.map_extent_into(offset, len, out);
                0
            }
            Placement::Replicated(k) => {
                self.expand_replicated(layout, offset, len, op, k, out);
                0
            }
            Placement::ErasureCoded(k, m) => self.expand_ec(layout, offset, len, op, k, m, out),
        }
    }

    fn expand_replicated(
        &mut self,
        layout: &LayoutSpec,
        offset: u64,
        len: u64,
        op: IoOp,
        k: usize,
        out: &mut Vec<SubExtent>,
    ) {
        let mut base = std::mem::take(&mut self.base);
        layout.map_extent_into(offset, len, &mut base);
        out.clear();
        let n = layout.segment_count();
        for piece in &base {
            let seg = layout
                .position_of(piece.server)
                .expect("map_extent piece names a layout segment");
            match op {
                IoOp::Write => {
                    // All live copies are written; a dead follower is
                    // simply skipped (it will be rebuilt from a survivor).
                    let mut wrote = false;
                    for r in 0..k {
                        let target = layout.server_at((seg + r) % n);
                        if !self.alive(target) {
                            continue;
                        }
                        let server_offset = if r == 0 {
                            piece.server_offset
                        } else {
                            REDUNDANCY_REGION + piece.server_offset
                        };
                        out.push(SubExtent { server: target, server_offset, len: piece.len });
                        wrote = true;
                    }
                    if !wrote {
                        // Every copy lost: fall back to the primary so the
                        // request keeps the historical timeout semantics.
                        out.push(*piece);
                    }
                }
                IoOp::Read => {
                    // Fastest live copy, primary preferred at equal speed
                    // (so a healthy cluster reads exactly like striping).
                    let mut best: Option<(u64, bool, usize)> = None;
                    for r in 0..k {
                        let target = layout.server_at((seg + r) % n);
                        if !self.alive(target) {
                            continue;
                        }
                        let key = (self.speed_bits(target), r != 0, target.0);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                    match best {
                        // Primary wins (or nothing is alive): historical path.
                        None | Some((_, false, _)) => out.push(*piece),
                        Some((_, true, srv)) => {
                            out.push(SubExtent {
                                server: ServerId(srv),
                                server_offset: REDUNDANCY_REGION + piece.server_offset,
                                len: piece.len,
                            });
                            bump(&mut self.failovers, piece.server.0, 1);
                        }
                    }
                }
            }
        }
        self.base = base;
    }

    /// Parity segment of group `g`, parity index `p`: the `m` segments
    /// immediately after the group's `k` data units, rotating with `g`.
    fn parity_segment(g: u64, p: usize, k: usize, n: usize) -> usize {
        ((g * k as u64 + k as u64 + p as u64) % n as u64) as usize
    }

    fn push_parities(
        &self,
        layout: &LayoutSpec,
        g: u64,
        widest: u64,
        k: usize,
        m: usize,
        out: &mut Vec<SubExtent>,
    ) {
        let n = layout.segment_count();
        let parity_unit = layout.max_stripe();
        for p in 0..m {
            let server = layout.server_at(Self::parity_segment(g, p, k, n));
            if !self.alive(server) {
                continue;
            }
            out.push(SubExtent {
                server,
                server_offset: REDUNDANCY_REGION + g * parity_unit,
                len: widest,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn expand_ec(
        &mut self,
        layout: &LayoutSpec,
        offset: u64,
        len: u64,
        op: IoOp,
        k: usize,
        m: usize,
        out: &mut Vec<SubExtent>,
    ) -> u64 {
        let mut base = std::mem::take(&mut self.base);
        layout.map_extent_into(offset, len, &mut base);
        out.clear();
        let n = layout.segment_count();
        let parity_unit = layout.max_stripe();
        let mut decode_bytes = 0u64;
        // Delta-parity accumulator: `(group, widest touched run)` of the
        // group currently being walked. Units are numbered in file order,
        // so groups appear consecutively and one pending slot suffices.
        let mut pending: Option<(u64, u64)> = None;
        for piece in &base {
            let seg = layout
                .position_of(piece.server)
                .expect("map_extent piece names a layout segment");
            let stripe = layout.stripe_at(seg);
            let round_idx = piece.server_offset / stripe;
            let within = piece.server_offset % stripe;
            let unit = round_idx * n as u64 + seg as u64;
            let group = unit / k as u64;
            match op {
                IoOp::Write => {
                    if self.alive(piece.server) {
                        out.push(*piece);
                    }
                    // else: degraded write — the data unit's server is
                    // lost; parity still captures the update, and the
                    // rebuild reconstructs the unit onto the spare.
                    pending = match pending {
                        Some((g, w)) if g == group => Some((g, w.max(piece.len))),
                        Some((g, w)) => {
                            self.push_parities(layout, g, w, k, m, out);
                            Some((group, piece.len))
                        }
                        None => Some((group, piece.len)),
                    };
                }
                IoOp::Read => {
                    if self.alive(piece.server) {
                        out.push(*piece);
                        continue;
                    }
                    // Degraded read: any `k` live members of the group
                    // (sibling data units or parities) reconstruct the
                    // lost range. Offsets are clamped to the same
                    // `[within, within + len)` window of each unit.
                    self.cand.clear();
                    for j in 0..k as u64 {
                        let sibling = group * k as u64 + j;
                        if sibling == unit {
                            continue;
                        }
                        let sib_seg = (sibling % n as u64) as usize;
                        let server = layout.server_at(sib_seg);
                        if !self.alive(server) {
                            continue;
                        }
                        let off = (sibling / n as u64) * layout.stripe_at(sib_seg) + within;
                        self.cand.push((self.speed_bits(server), server.0, off));
                    }
                    for p in 0..m {
                        let server = layout.server_at(Self::parity_segment(group, p, k, n));
                        if !self.alive(server) {
                            continue;
                        }
                        let off = REDUNDANCY_REGION + group * parity_unit + within;
                        self.cand.push((self.speed_bits(server), server.0, off));
                    }
                    if self.cand.len() < k {
                        // Beyond the code's loss tolerance: keep the
                        // historical dead-server timeout semantics.
                        out.push(*piece);
                        continue;
                    }
                    self.cand.sort_unstable();
                    for &(_, srv, off) in self.cand.iter().take(k) {
                        out.push(SubExtent {
                            server: ServerId(srv),
                            server_offset: off,
                            len: piece.len,
                        });
                    }
                    bump(&mut self.degraded_reads, piece.server.0, 1);
                    bump(&mut self.reconstructed_bytes, piece.server.0, piece.len);
                    decode_bytes += piece.len * k as u64;
                }
            }
        }
        if op == IoOp::Write {
            if let Some((g, w)) = pending {
                self.push_parities(layout, g, w, k, m, out);
            }
        }
        self.base = base;
        decode_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutSpec;
    use simrt::FaultPlan;

    fn ids(v: std::ops::Range<usize>) -> Vec<ServerId> {
        v.map(ServerId).collect()
    }

    fn state(n: usize, plan: Option<&FaultPlan>) -> RedundancyState {
        let mut s = RedundancyState::default();
        match plan {
            None => s.reset(n, None),
            Some(p) => {
                let rt = FaultRuntime::new(p, n);
                s.reset(n, Some(&rt));
            }
        }
        s
    }

    #[test]
    fn striped_expansion_is_map_extent_verbatim() {
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10);
        let mut s = state(4, None);
        let mut out = Vec::new();
        let dec = s.expand(&l, 7 << 10, 200 << 10, IoOp::Read, &mut out);
        assert_eq!(dec, 0);
        assert_eq!(out, l.map_extent(7 << 10, 200 << 10));
    }

    #[test]
    fn healthy_replicated_reads_match_striped() {
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10)
            .with_placement(Placement::Replicated(3));
        let mut s = state(4, None);
        let mut out = Vec::new();
        s.expand(&l, 0, 256 << 10, IoOp::Read, &mut out);
        assert_eq!(out, l.map_extent(0, 256 << 10), "primary copies serve healthy reads");
        assert_eq!(s.server_counters(0), Counters::default());
    }

    #[test]
    fn replicated_writes_fan_out_k_fold() {
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10)
            .with_placement(Placement::Replicated(3));
        let mut s = state(4, None);
        let mut out = Vec::new();
        s.expand(&l, 0, 256 << 10, IoOp::Write, &mut out);
        // 4 stripe units × 3 copies.
        assert_eq!(out.len(), 12);
        let total: u64 = out.iter().map(|x| x.len).sum();
        assert_eq!(total, 3 * (256 << 10));
        // Copy r of unit homed on segment i lands on segment (i + r) % n,
        // shifted into the redundancy region.
        assert_eq!(out[0], SubExtent { server: ServerId(0), server_offset: 0, len: 64 << 10 });
        assert_eq!(
            out[1],
            SubExtent { server: ServerId(1), server_offset: REDUNDANCY_REGION, len: 64 << 10 }
        );
        assert_eq!(
            out[2],
            SubExtent { server: ServerId(2), server_offset: REDUNDANCY_REGION, len: 64 << 10 }
        );
    }

    #[test]
    fn lost_primary_fails_over_to_a_replica() {
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10)
            .with_placement(Placement::Replicated(2));
        let plan = FaultPlan::none().down(1, 0.0);
        let mut s = state(4, Some(&plan));
        let mut out = Vec::new();
        // Unit on segment 1 (offset 64K) is homed on the dead server.
        s.expand(&l, 64 << 10, 64 << 10, IoOp::Read, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].server, ServerId(2), "copy 1 of segment 1 lives on segment 2");
        assert_eq!(out[0].server_offset, REDUNDANCY_REGION);
        assert_eq!(
            s.server_counters(1),
            Counters { failovers: 1, ..Counters::default() },
            "failover charged to the lost primary"
        );
        // Writes skip the dead copy but still write the live one.
        s.expand(&l, 64 << 10, 64 << 10, IoOp::Write, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].server, ServerId(2));
    }

    #[test]
    fn replica_reads_prefer_faster_servers() {
        // Primary alive but 4× slowed; replica nominal → replica wins.
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10)
            .with_placement(Placement::Replicated(2));
        let plan = FaultPlan::none().slow_server(0, 4.0);
        let mut s = state(4, Some(&plan));
        let mut out = Vec::new();
        s.expand(&l, 0, 64 << 10, IoOp::Read, &mut out);
        assert_eq!(out[0].server, ServerId(1), "nominal replica beats slowed primary");
        assert_eq!(s.server_counters(0).failovers, 1);
    }

    #[test]
    fn all_copies_lost_keeps_timeout_semantics() {
        let l = LayoutSpec::fixed(&ids(0..4), 64 << 10)
            .with_placement(Placement::Replicated(2));
        let plan = FaultPlan::none().down(0, 0.0).down(1, 0.0);
        let mut s = state(4, Some(&plan));
        let mut out = Vec::new();
        s.expand(&l, 0, 64 << 10, IoOp::Read, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].server, ServerId(0), "falls back to the (dead) primary");
        s.expand(&l, 0, 64 << 10, IoOp::Write, &mut out);
        assert_eq!(out[0].server, ServerId(0));
    }

    #[test]
    fn ec_writes_add_parity_per_group() {
        let l = LayoutSpec::fixed(&ids(0..8), 64 << 10)
            .with_placement(Placement::ErasureCoded(4, 2));
        let mut s = state(8, None);
        let mut out = Vec::new();
        // One full group: units 0..4 on segments 0..4.
        let dec = s.expand(&l, 0, 256 << 10, IoOp::Write, &mut out);
        assert_eq!(dec, 0);
        assert_eq!(out.len(), 6, "4 data + 2 parity");
        // Group 0's parities live on segments 4 and 5.
        assert_eq!(out[4].server, ServerId(4));
        assert_eq!(out[5].server, ServerId(5));
        assert_eq!(out[4].server_offset, REDUNDANCY_REGION);
        assert_eq!(out[4].len, 64 << 10);
        // Group 1 (units 4..8) parities rotate to segments (8+0)%8, (8+1)%8.
        s.expand(&l, 256 << 10, 256 << 10, IoOp::Write, &mut out);
        let parities: Vec<_> = out.iter().filter(|x| x.server_offset >= REDUNDANCY_REGION).collect();
        assert_eq!(parities.len(), 2);
        assert_eq!(parities[0].server, ServerId(0));
        assert_eq!(parities[1].server, ServerId(1));
        assert_eq!(parities[0].server_offset, REDUNDANCY_REGION + (64 << 10));
    }

    #[test]
    fn ec_degraded_read_reconstructs_from_k_sources() {
        let l = LayoutSpec::fixed(&ids(0..8), 64 << 10)
            .with_placement(Placement::ErasureCoded(4, 2));
        let plan = FaultPlan::none().down(2, 0.0);
        let mut s = state(8, Some(&plan));
        let mut out = Vec::new();
        // Unit 2 (segment 2) is lost: reconstruct from 4 of {0,1,3,parity4,parity5}.
        let dec = s.expand(&l, 128 << 10, 64 << 10, IoOp::Read, &mut out);
        assert_eq!(out.len(), 4, "k reconstruction reads");
        assert!(out.iter().all(|x| x.server != ServerId(2)), "no read hits the lost server");
        assert!(out.iter().all(|x| x.len == 64 << 10));
        assert_eq!(dec, 4 * (64 << 10), "decode over k unit-lengths");
        assert_eq!(
            s.server_counters(2),
            Counters { degraded_reads: 1, reconstructed_bytes: 64 << 10, ..Counters::default() }
        );
    }

    #[test]
    fn ec_beyond_tolerance_keeps_timeout_semantics() {
        let l = LayoutSpec::fixed(&ids(0..6), 64 << 10)
            .with_placement(Placement::ErasureCoded(4, 2));
        // Three losses exceed m = 2: group 0 has only 3 live members.
        let plan = FaultPlan::none().down(0, 0.0).down(1, 0.0).down(4, 0.0);
        let mut s = state(6, Some(&plan));
        let mut out = Vec::new();
        let dec = s.expand(&l, 0, 64 << 10, IoOp::Read, &mut out);
        assert_eq!(dec, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].server, ServerId(0), "unrecoverable read falls through to time out");
    }

    #[test]
    fn ec_handles_hybrid_stripe_sizes() {
        // Non-uniform MHA-style layout: parity units are max_stripe wide.
        let l = LayoutSpec::hybrid(&ids(0..6), 32 << 10, &ids(6..8), 96 << 10)
            .with_placement(Placement::ErasureCoded(4, 2));
        let mut s = state(8, None);
        let mut out = Vec::new();
        s.expand(&l, 0, l.round_size(), IoOp::Write, &mut out);
        let data_bytes: u64 =
            out.iter().filter(|x| x.server_offset < REDUNDANCY_REGION).map(|x| x.len).sum();
        assert_eq!(data_bytes, l.round_size(), "every data byte lands once");
        let parities: Vec<_> = out.iter().filter(|x| x.server_offset >= REDUNDANCY_REGION).collect();
        assert_eq!(parities.len(), 4, "8 units = 2 groups × 2 parities");
        // Degraded read of a wide (96K) unit on a lost SServer.
        let plan = FaultPlan::none().down(6, 0.0);
        let mut s = state(8, Some(&plan));
        let pos = 6 * (32 << 10); // start of segment 6's unit in round 0
        let dec = s.expand(&l, pos, 96 << 10, IoOp::Read, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|x| x.server != ServerId(6)));
        assert_eq!(dec, 4 * (96 << 10));
    }

    #[test]
    fn expansion_is_deterministic() {
        let l = LayoutSpec::fixed(&ids(0..8), 64 << 10)
            .with_placement(Placement::ErasureCoded(4, 2));
        let plan = FaultPlan::none().down(3, 0.0).slow_server(5, 2.0);
        let mut a = state(8, Some(&plan));
        let mut b = state(8, Some(&plan));
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for (off, len, op) in
            [(0u64, 512u64 << 10, IoOp::Read), (7 << 10, 200 << 10, IoOp::Write), (128 << 10, 64 << 10, IoOp::Read)]
        {
            let da = a.expand(&l, off, len, op, &mut oa);
            let db = b.expand(&l, off, len, op, &mut ob);
            assert_eq!(oa, ob);
            assert_eq!(da, db);
        }
    }
}
