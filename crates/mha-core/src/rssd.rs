//! Algorithm 2: Region Stripe Size Determination (RSSD).
//!
//! Exhaustive search over candidate `<h, s>` stripe pairs in `step`
//! increments, scoring each pair by the summed Eq. 2 cost of every request
//! in the region, and keeping the cheapest. Faithful to the paper:
//!
//! * `h` starts at **0** — dispatching data only on SServers is a legal
//!   extreme when it wins,
//! * `s` starts at `h + step`, keeping the SServer stripe strictly larger
//!   (SServers are faster; a smaller stripe there could only add
//!   imbalance),
//! * bounds adapt to the region's largest request `r_max`: small regions
//!   search up to `r_max` on both classes (more candidates, bounded
//!   space); large regions search up to `r_max/M` and `r_max/N`, which
//!   keeps every server involved for big requests and prunes pointless
//!   candidates,
//! * the default `step` is 4 KiB and is user-configurable.
//!
//! The outer loop is data-parallel (rayon): candidate pairs are scored
//! independently, with a deterministic reduction (min by cost, ties to
//! the smaller pair) so parallelism never changes the result.
//!
//! ## The fast cost kernel
//!
//! Scoring a candidate is the hot path: every request in the region is
//! decomposed onto the candidate layout. The kernel keeps that scan
//! allocation-free and output-identical to the naive implementation:
//!
//! * requests decompose through the closed-form
//!   [`pfs_sim::LayoutSpec::per_server_load_into`] (O(servers) per
//!   request instead of O(len/stripe) stripe-unit walking),
//! * each rayon worker threads one `CostScratch` through the whole
//!   candidate scan — candidate layouts are rebuilt in place and all
//!   accumulators are reused, so steady-state scoring performs no heap
//!   allocation,
//! * an admissible per-candidate lower bound (a network/transfer floor
//!   that is independent of how bytes spread over servers, precomputed
//!   once per region) plus a shared best-so-far (atomic `f64` bits) lets
//!   workers skip candidates outright or abandon the phase loop as soon
//!   as a candidate's running sum exceeds the incumbent.
//!
//! Pruning is exact: a candidate is only skipped when its cost provably
//! *exceeds* the incumbent (strict), so it can neither win nor tie — the
//! returned `(pair, cost)` is bit-identical to the unpruned search.

use crate::cost::{CostParams, OpFactors, ReqView};
use pfs_sim::{LayoutSpec, LoadScratch, ServerId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use storage_model::IoOp;

/// A `<h, s>` stripe pair, bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StripePair {
    /// Stripe size on each HServer (0 = HServers excluded).
    pub h: u64,
    /// Stripe size on each SServer.
    pub s: u64,
}

/// Threshold multiplier for the adaptive bounds: regions with
/// `r_max < (M + N) * SMALL_REGION_UNIT` use `r_max` as both bounds.
/// 64 KiB is the paper's value.
const SMALL_REGION_UNIT: u64 = 64 << 10;

/// RSSD tuning.
#[derive(Debug, Clone)]
pub struct RssdConfig {
    /// Search step, bytes (paper default 4 KiB).
    pub step: u64,
    /// Use the adaptive bounds of the paper (true) or the plain
    /// `r_max` bound of HARL (false) — the `ablation_bounds` knob.
    pub adaptive_bounds: bool,
    /// Replace the region's `r_max` with a fixed value before computing
    /// bounds. HARL bounds its search by the *average* request size; MHA
    /// leaves this `None` and uses the true maximum.
    pub bound_override: Option<u64>,
    /// Branch-and-bound pruning (on by default). Pruning is admissible —
    /// it never changes the returned `(pair, cost)` — so this knob exists
    /// only for A/B verification and benchmarking.
    pub pruning: bool,
    /// Multiplier on every read request's cost during the search
    /// (redundancy-aware planning: the expected degraded-read
    /// amplification of an EC layout, see
    /// [`crate::cost::placement_factors`]). The pruning floor is scaled
    /// by the same factor, so any positive value keeps the search exact;
    /// 1.0 is bit-identical to the unfactored model.
    pub read_factor: f64,
    /// Multiplier on every write request's cost during the search (the
    /// k-fold replica fan-out or `(k + m)/k` parity overhead of a
    /// redundant layout).
    pub write_factor: f64,
}

impl Default for RssdConfig {
    fn default() -> Self {
        RssdConfig {
            step: 4 << 10,
            adaptive_bounds: true,
            bound_override: None,
            pruning: true,
            read_factor: 1.0,
            write_factor: 1.0,
        }
    }
}

impl RssdConfig {
    /// The per-op factors this config scores with.
    pub(crate) fn factors(&self) -> OpFactors {
        OpFactors { read: self.read_factor, write: self.write_factor }
    }
}

/// Result of a stripe search.
#[derive(Debug, Clone, Copy)]
pub struct RssdResult {
    /// The winning pair.
    pub pair: StripePair,
    /// Its total region cost (sum of Eq. 2 over requests), seconds.
    pub cost: f64,
    /// Number of candidate pairs considered (the full candidate grid —
    /// independent of pruning, so step/bound comparisons stay meaningful).
    pub evaluated: u64,
    /// Of `evaluated`, how many were skipped by the lower bound or
    /// abandoned mid-scan by the incumbent cutoff. `0` when
    /// [`RssdConfig::pruning`] is off. The count depends on parallel
    /// scheduling (which worker finds a good incumbent first); the
    /// returned `(pair, cost)` never does.
    pub pruned: u64,
}

/// Compute the search bounds `(B_h, B_s)` for a region with largest
/// request `r_max`.
pub(crate) fn bounds(r_max: u64, params: &CostParams, cfg: &RssdConfig) -> (u64, u64) {
    let servers = (params.m + params.n) as u64;
    if !cfg.adaptive_bounds || r_max < servers * SMALL_REGION_UNIT {
        (r_max, r_max)
    } else {
        (
            r_max / (params.m.max(1) as u64),
            r_max / (params.n.max(1) as u64),
        )
    }
}

/// Number of `s` candidates scored for the lane at `h`: the step-grid
/// points in `(h, B_s]`, but never fewer than one — the minimal legal
/// pair `<h, h + step>` is always scored even when `B_s < h + step`, so
/// no lane is empty (SServer stripes must stay strictly larger than `h`).
fn lane_candidates(h: u64, b_s: u64, step: u64) -> u64 {
    (b_s.saturating_sub(h) / step).max(1)
}

/// Run RSSD over the region's requests. Returns `None` for an empty
/// region (nothing to optimize).
pub fn rssd(requests: &[ReqView], params: &CostParams, cfg: &RssdConfig) -> Option<RssdResult> {
    if requests.is_empty() {
        return None;
    }
    let r_max = cfg
        .bound_override
        .unwrap_or_else(|| requests.iter().map(|r| r.len).max().expect("nonempty"));
    let step = cfg.step.max(1);
    let (b_h, b_s) = bounds(r_max.max(step), params, cfg);
    // Candidate h values: 0, step, 2·step, … ≤ B_h (h = 0 is the
    // SServers-only extreme). When the cluster has no SServers the pair
    // degenerates to <h, 0>, searched the same way with roles flipped.
    let n_h = b_h / step + 1;

    let factors = cfg.factors();

    // Region-level floors for branch-and-bound, computed once; the shared
    // incumbent holds the best exact cost seen so far as f64 bits (costs
    // are non-negative, so bit order equals float order and fetch_min on
    // the raw bits is a float min).
    let lb = RegionLowerBounds::compute(requests, params, factors);
    let incumbent = AtomicU64::new(f64::INFINITY.to_bits());

    let best = (0..n_h)
        .into_par_iter()
        .map_init(CostScratch::new, |scratch, lane| {
            let h = lane * step;
            let n_s = lane_candidates(h, b_s, step);
            let mut local_best: Option<(f64, StripePair)> = None;
            let mut pruned = 0u64;
            for k in 1..=n_s {
                let pair = StripePair { h, s: h + k * step };
                let inc = f64::from_bits(incumbent.load(Ordering::Relaxed));
                if cfg.pruning && lb.for_pair(params, pair) > inc {
                    // The floor already exceeds the best exact cost seen:
                    // this candidate can neither win nor tie. Skip it.
                    pruned += 1;
                    continue;
                }
                let cutoff = if cfg.pruning { inc } else { f64::INFINITY };
                match region_cost_factored(requests, params, pair, factors, cutoff, scratch) {
                    None => pruned += 1, // running sum exceeded the incumbent
                    Some(cost) => {
                        if cost.is_finite() {
                            incumbent.fetch_min(cost.to_bits(), Ordering::Relaxed);
                            let better = match local_best {
                                None => true,
                                Some((c, _)) => cost < c,
                            };
                            if better {
                                local_best = Some((cost, pair));
                            }
                        }
                    }
                }
            }
            (local_best, n_s, pruned)
        })
        .reduce(
            || (None, 0, 0),
            |a, b| {
                let pick = match (a.0, b.0) {
                    (None, x) => x,
                    (x, None) => x,
                    (Some((ca, pa)), Some((cb, pb))) => {
                        // Deterministic: strictly-lower cost wins; ties go
                        // to the lexicographically smaller pair.
                        if cb < ca || (cb == ca && (pb.h, pb.s) < (pa.h, pa.s)) {
                            Some((cb, pb))
                        } else {
                            Some((ca, pa))
                        }
                    }
                };
                (pick, a.1 + b.1, a.2 + b.2)
            },
        );

    let (opt, evaluated, pruned) = best;
    let (cost, pair) = opt?;
    Some(RssdResult { pair, cost, evaluated, pruned })
}

/// Reusable per-worker buffers for the candidate scan: the in-place
/// candidate layout, the closed-form decomposition scratch, and the
/// per-server phase accumulators. One instance per rayon worker makes the
/// entire scan allocation-free at steady state.
#[derive(Debug, Clone)]
pub(crate) struct CostScratch {
    /// Candidate layout, rebuilt in place for each `<h, s>` pair.
    layout: LayoutSpec,
    /// Closed-form per-request decomposition buffers.
    loads: LoadScratch,
    /// Per-server accumulated phase time, indexed by `ServerId.0`.
    acc: Vec<f64>,
    /// Servers with nonzero accumulation in the current phase.
    touched: Vec<usize>,
}

impl CostScratch {
    /// Fresh scratch; all buffers grow on first use and are then reused.
    pub(crate) fn new() -> Self {
        CostScratch {
            // Placeholder — overwritten by `rebuild` before first use.
            layout: LayoutSpec::fixed(&[ServerId(0)], 1),
            loads: LoadScratch::new(),
            acc: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl Default for CostScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Total region cost: the sum of per-phase Eq. 2 costs.
///
/// This is the paper's cost model "extended by considering I/O
/// concurrency" evaluated *exactly*: requests are walked in trace order
/// and grouped into phases of `concurrency` consecutive requests (the
/// requests issued simultaneously); every request in a phase is
/// decomposed onto the candidate layout at its **actual** offset, and the
/// phase costs `max_i(p_i·α_i + s_i·(t + β_i))` over the accumulated
/// per-server startups `p_i` and bytes `s_i` — the phase finishes with
/// its slowest server. Using actual offsets (rather than a statistical
/// mates term) lets the search see alignment resonance: a stripe pair
/// that systematically lands every request's large piece on the same
/// server scores as badly as it will perform.
///
/// Concurrency-1 views (HARL's model predates the extension) degenerate
/// to the plain per-request Eq. 2 sum.
pub fn region_cost(requests: &[ReqView], params: &CostParams, pair: StripePair) -> f64 {
    let mut scratch = CostScratch::new();
    region_cost_bounded(requests, params, pair, f64::INFINITY, &mut scratch)
        .expect("an infinite cutoff is never exceeded")
}

/// [`region_cost`] with reusable buffers and an early-exit cutoff: returns
/// `None` as soon as the phase-by-phase running sum strictly exceeds
/// `cutoff` (the candidate provably cannot win or tie the incumbent),
/// `Some(total)` otherwise. With `cutoff = f64::INFINITY` this is exactly
/// `region_cost` — same arithmetic in the same order, bit-identical
/// totals. Degenerate pairs (no participating server) cost
/// `Some(f64::INFINITY)`.
pub(crate) fn region_cost_bounded(
    requests: &[ReqView],
    params: &CostParams,
    pair: StripePair,
    cutoff: f64,
    scratch: &mut CostScratch,
) -> Option<f64> {
    region_cost_factored(requests, params, pair, OpFactors::neutral(), cutoff, scratch)
}

/// [`region_cost_bounded`] with per-op redundancy factors: each request's
/// per-server cost is scaled by `factors.for_op(op)` before the phase
/// max. Neutral factors multiply by exactly 1.0, which is bit-identical
/// to the unfactored kernel.
pub(crate) fn region_cost_factored(
    requests: &[ReqView],
    params: &CostParams,
    pair: StripePair,
    factors: OpFactors,
    cutoff: f64,
    scratch: &mut CostScratch,
) -> Option<f64> {
    // Rebuild the candidate layout in place: HServers 0..m with stripe h,
    // then SServers m..m+n with stripe s (the `CostParams::layout_for`
    // shape, without its allocations).
    let m = params.m;
    let assigns = (0..m)
        .map(|i| (ServerId(i), pair.h))
        .chain((m..m + params.n).map(|i| (ServerId(i), pair.s)));
    if !scratch.layout.rebuild(assigns) {
        return Some(f64::INFINITY);
    }
    let servers = params.m + params.n;
    if scratch.acc.len() < servers {
        scratch.acc.resize(servers, 0.0);
    }
    let mut total = 0.0;
    let mut i = 0;
    while i < requests.len() {
        let c = (requests[i].concurrency.max(1)) as usize;
        let mut j = i;
        scratch.touched.clear();
        while j < requests.len() && j - i < c && requests[j].concurrency.max(1) as usize == c {
            let req = &requests[j];
            let factor = factors.for_op(req.op);
            scratch
                .layout
                .per_server_load_into(req.offset, req.len, &mut scratch.loads);
            for (server, bytes, runs) in scratch.loads.entries() {
                let hserver = params.is_hserver(server);
                let cost = factor
                    * (f64::from(runs) * params.alpha(hserver, req.op)
                        + bytes as f64 * params.unit_time(hserver, req.op));
                if scratch.acc[server.0] == 0.0 {
                    scratch.touched.push(server.0);
                }
                scratch.acc[server.0] += cost;
            }
            j += 1;
        }
        let mut phase_max = 0.0f64;
        for &s in &scratch.touched {
            phase_max = phase_max.max(scratch.acc[s]);
            scratch.acc[s] = 0.0;
        }
        total += phase_max;
        // Early exit: phase costs are non-negative, so once the running
        // sum strictly exceeds the cutoff the final total must too. The
        // accumulators were reset above, so the scratch stays clean.
        if total > cutoff {
            return None;
        }
        i = j;
    }
    Some(total)
}

/// Admissible per-candidate lower bounds on the region cost, precomputed
/// once per region. A candidate pair only determines *which* server
/// classes participate (H iff `h > 0`, S iff `s > 0`), so three floors —
/// one per participation case — cover every candidate:
///
/// * **byte floor** — each phase's cost is `max_i acc_i ≥ Σ_i acc_i / P`
///   over the `P` participating servers, and `Σ_i acc_i` is at least the
///   phase's bytes times the cheapest participating per-byte time
///   (network + storage). This is the data-distribution-independent
///   network/transfer floor.
/// * **startup floor** — any nonempty request pays at least one storage
///   startup on some participating server.
///
/// Each phase contributes `max(byte floor, startup floor)`; phases sum.
/// Both floors hold for *every* possible distribution of bytes over the
/// participating servers, so `for_pair(..) ≤ region_cost(..)` always —
/// pruning on a strict comparison against an exact incumbent can never
/// drop the winner or a tie-break candidate.
#[derive(Debug, Clone, Copy)]
struct RegionLowerBounds {
    both: f64,
    h_only: f64,
    s_only: f64,
}

impl RegionLowerBounds {
    fn compute(requests: &[ReqView], params: &CostParams, factors: OpFactors) -> Self {
        // (participating server count, unit minima, alpha minima) per
        // case. The kernel scales each request's per-server cost by its
        // op factor, so the floors carry the same factor on their per-op
        // minima — admissible for any positive factors, not just ≥ 1.
        let case = |use_h: bool, use_s: bool, p: usize| -> CaseFloor {
            let unit = |op: IoOp| match (use_h, use_s) {
                (true, true) => params.unit_time(true, op).min(params.unit_time(false, op)),
                (true, false) => params.unit_time(true, op),
                _ => params.unit_time(false, op),
            };
            let alpha = |op: IoOp| match (use_h, use_s) {
                (true, true) => params.alpha(true, op).min(params.alpha(false, op)),
                (true, false) => params.alpha(true, op),
                _ => params.alpha(false, op),
            };
            CaseFloor {
                n_part: p.max(1) as f64,
                usable: p > 0,
                unit_r: unit(IoOp::Read) * factors.read,
                unit_w: unit(IoOp::Write) * factors.write,
                alpha_r: alpha(IoOp::Read) * factors.read,
                alpha_w: alpha(IoOp::Write) * factors.write,
            }
        };
        let cases = [
            case(true, true, params.m + params.n),
            case(true, false, params.m),
            case(false, true, params.n),
        ];
        let mut totals = [0.0f64; 3];
        let mut i = 0;
        while i < requests.len() {
            // Identical phase grouping to `region_cost_bounded`.
            let c = (requests[i].concurrency.max(1)) as usize;
            let mut j = i;
            let (mut rb, mut wb) = (0u64, 0u64);
            let (mut has_r, mut has_w) = (false, false);
            while j < requests.len() && j - i < c && requests[j].concurrency.max(1) as usize == c {
                let req = &requests[j];
                if req.len > 0 {
                    match req.op {
                        IoOp::Read => {
                            rb += req.len;
                            has_r = true;
                        }
                        IoOp::Write => {
                            wb += req.len;
                            has_w = true;
                        }
                    }
                }
                j += 1;
            }
            for (t, f) in totals.iter_mut().zip(&cases) {
                if !f.usable {
                    continue; // case unreachable for this cluster shape
                }
                let byte_floor = (rb as f64 * f.unit_r + wb as f64 * f.unit_w) / f.n_part;
                let startup_floor = f64::max(
                    if has_r { f.alpha_r } else { 0.0 },
                    if has_w { f.alpha_w } else { 0.0 },
                );
                *t += byte_floor.max(startup_floor);
            }
            i = j;
        }
        // Tiny relative margin: the floors are mathematically strict
        // (every phase leaves at least one startup or the max/avg gap on
        // the table), but this keeps pruning safe even if a future cost
        // model change erodes that slack to within f64 rounding.
        let shave = |x: f64| x * (1.0 - 1e-9);
        RegionLowerBounds {
            both: shave(totals[0]),
            h_only: shave(totals[1]),
            s_only: shave(totals[2]),
        }
    }

    /// The floor for one candidate pair. Degenerate pairs (no
    /// participating server) are floored at `+∞` — their exact cost is
    /// `+∞` too, so pruning them is still exact.
    fn for_pair(&self, params: &CostParams, pair: StripePair) -> f64 {
        let h_active = pair.h > 0 && params.m > 0;
        let s_active = pair.s > 0 && params.n > 0;
        match (h_active, s_active) {
            (true, true) => self.both,
            (true, false) => self.h_only,
            (false, true) => self.s_only,
            (false, false) => f64::INFINITY,
        }
    }
}

/// Per-participation-case constants for [`RegionLowerBounds`].
#[derive(Debug, Clone, Copy)]
struct CaseFloor {
    n_part: f64,
    usable: bool,
    unit_r: f64,
    unit_w: f64,
    alpha_r: f64,
    alpha_w: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_model::IoOp;

    fn params() -> CostParams {
        CostParams {
            m: 6,
            n: 2,
            t: 1.0 / 117.0e6,
            alpha_h: 12.7e-3,
            beta_h: 1.0 / 90.0e6,
            alpha_sr: 80.0e-6,
            beta_sr: 1.0 / 700.0e6,
            alpha_sw: 170.0e-6,
            beta_sw: 1.0 / 450.0e6,
        }
    }

    fn reqs(len: u64, op: IoOp, conc: u32, count: usize) -> Vec<ReqView> {
        (0..count)
            .map(|i| ReqView { offset: i as u64 * len, len, op, concurrency: conc })
            .collect()
    }

    #[test]
    fn empty_region_yields_none() {
        assert!(rssd(&[], &params(), &RssdConfig::default()).is_none());
    }

    #[test]
    fn result_respects_bounds_and_step() {
        let p = params();
        let cfg = RssdConfig::default();
        let rs = reqs(256 << 10, IoOp::Write, 8, 32);
        let r = rssd(&rs, &p, &cfg).unwrap();
        let (bh, bs) = bounds(256 << 10, &p, &cfg);
        assert!(r.pair.h <= bh);
        assert!(r.pair.s <= bs.max(r.pair.h + cfg.step));
        assert_eq!(r.pair.h % cfg.step, 0);
        assert_eq!(r.pair.s % cfg.step, 0);
        assert!(r.pair.s > r.pair.h);
        // Pin the exact candidate set: for each h lane the s grid covers
        // (h, B_s] — but never fewer than one candidate (the minimal legal
        // pair <h, h + step> is scored even when B_s < h + step, which
        // here is exactly the h = B_h lane).
        let expected: u64 = (0..=bh / cfg.step)
            .map(|lane| ((bs - lane * cfg.step) / cfg.step).max(1))
            .sum();
        assert_eq!(r.evaluated, expected);
        assert_eq!(expected, 2081, "65 lanes: 64 + 63 + … + 1 + 1");
        assert!(r.pruned <= r.evaluated);
    }

    #[test]
    fn small_requests_prefer_ssd_only() {
        // 16 KiB requests: any positive h forces HDD startups; the h = 0
        // extreme must win by a wide margin.
        let p = params();
        let r = rssd(&reqs(16 << 10, IoOp::Read, 8, 64), &p, &RssdConfig::default()).unwrap();
        assert_eq!(r.pair.h, 0, "got {:?}", r.pair);
    }

    #[test]
    fn large_requests_involve_hservers() {
        // 8 MiB requests at low concurrency: HDD streaming bandwidth is
        // worth the startup, so h > 0.
        let p = params();
        let r = rssd(&reqs(8 << 20, IoOp::Read, 1, 8), &p, &RssdConfig::default()).unwrap();
        assert!(r.pair.h > 0, "got {:?}", r.pair);
        assert!(r.pair.s > r.pair.h, "SServers get the bigger stripe");
    }

    #[test]
    fn rssd_never_worse_than_def_under_the_model() {
        let p = params();
        for (len, conc) in [(16u64 << 10, 8u32), (256 << 10, 32), (1 << 20, 4)] {
            let rs = reqs(len, IoOp::Write, conc, 24);
            let opt = rssd(&rs, &p, &RssdConfig::default()).unwrap();
            let def = region_cost(&rs, &p, StripePair { h: 64 << 10, s: 64 << 10 });
            assert!(
                opt.cost <= def + 1e-12,
                "len={len} conc={conc}: opt={} def={def}",
                opt.cost
            );
        }
    }

    #[test]
    fn adaptive_bounds_switch() {
        let p = params();
        let cfg = RssdConfig::default();
        // Small r_max: bounds collapse to r_max on both classes.
        assert_eq!(bounds(128 << 10, &p, &cfg), (128 << 10, 128 << 10));
        // Large r_max: divided by M and N.
        let big = 16 << 20;
        assert_eq!(bounds(big, &p, &cfg), (big / 6, big / 2));
        // Non-adaptive (HARL-style) keeps r_max.
        let harl = RssdConfig { adaptive_bounds: false, ..cfg };
        assert_eq!(bounds(big, &p, &harl), (big, big));
    }

    #[test]
    fn deterministic_under_parallelism() {
        let p = params();
        let rs: Vec<ReqView> = (0..50)
            .map(|i| ReqView {
                offset: i * 4096,
                len: 4096 * (1 + i % 7),
                op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
                concurrency: 1 + (i % 16) as u32,
            })
            .collect();
        let a = rssd(&rs, &p, &RssdConfig::default()).unwrap();
        let b = rssd(&rs, &p, &RssdConfig::default()).unwrap();
        assert_eq!(a.pair, b.pair);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn pruned_search_matches_unpruned_bit_for_bit() {
        let p = params();
        let workloads: Vec<Vec<ReqView>> = vec![
            reqs(16 << 10, IoOp::Read, 8, 64),
            reqs(256 << 10, IoOp::Write, 8, 32),
            (0..60)
                .map(|i| ReqView {
                    offset: i * 8192,
                    len: 4096 * (1 + i % 9),
                    op: if i % 4 == 0 { IoOp::Read } else { IoOp::Write },
                    concurrency: 1 + (i % 8) as u32,
                })
                .collect(),
        ];
        for rs in &workloads {
            let pruned = rssd(rs, &p, &RssdConfig::default()).unwrap();
            let plain = rssd(
                rs,
                &p,
                &RssdConfig { pruning: false, ..RssdConfig::default() },
            )
            .unwrap();
            assert_eq!(plain.pruned, 0, "pruning off must not prune");
            assert_eq!(pruned.pair, plain.pair);
            assert_eq!(pruned.cost.to_bits(), plain.cost.to_bits(), "bit-identical cost");
            assert_eq!(pruned.evaluated, plain.evaluated, "grid size is prune-independent");
            assert!(pruned.pruned <= pruned.evaluated);
        }
    }

    #[test]
    fn lower_bound_is_admissible() {
        let p = params();
        let rs: Vec<ReqView> = (0..40)
            .map(|i| ReqView {
                offset: i * 16384,
                len: 1024 * (1 + i % 33),
                op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                concurrency: 1 + (i % 6) as u32,
            })
            .collect();
        let lb = RegionLowerBounds::compute(&rs, &p, OpFactors::neutral());
        for h in [0u64, 4 << 10, 64 << 10] {
            for s in [4u64 << 10, 32 << 10, 128 << 10] {
                if s <= h {
                    continue;
                }
                let pair = StripePair { h, s };
                let cost = region_cost(&rs, &p, pair);
                assert!(
                    lb.for_pair(&p, pair) <= cost,
                    "floor {} above cost {cost} for {pair:?}",
                    lb.for_pair(&p, pair)
                );
            }
        }
    }

    #[test]
    fn neutral_factors_are_bit_identical_to_the_unfactored_search() {
        let p = params();
        let rs: Vec<ReqView> = (0..48)
            .map(|i| ReqView {
                offset: i * 12288,
                len: 4096 * (1 + i % 11),
                op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
                concurrency: 1 + (i % 5) as u32,
            })
            .collect();
        let plain = rssd(&rs, &p, &RssdConfig::default()).unwrap();
        let neutral = rssd(
            &rs,
            &p,
            &RssdConfig { read_factor: 1.0, write_factor: 1.0, ..RssdConfig::default() },
        )
        .unwrap();
        assert_eq!(plain.pair, neutral.pair);
        assert_eq!(plain.cost.to_bits(), neutral.cost.to_bits());
    }

    #[test]
    fn single_op_factors_scale_cost_without_moving_the_winner() {
        // A uniform factor on a single-op workload multiplies every
        // candidate's cost by the same constant, so the argmin must not
        // move and the cost scales (up to fp association).
        let p = params();
        let rs = reqs(256 << 10, IoOp::Write, 8, 32);
        let base = rssd(&rs, &p, &RssdConfig::default()).unwrap();
        let amp = rssd(
            &rs,
            &p,
            &RssdConfig { read_factor: 1.0, write_factor: 3.0, ..RssdConfig::default() },
        )
        .unwrap();
        assert_eq!(base.pair, amp.pair);
        let ratio = amp.cost / base.cost;
        assert!((ratio - 3.0).abs() < 1e-9, "ratio={ratio}");
        // Read factor is inert on an all-write region.
        let inert = rssd(
            &rs,
            &p,
            &RssdConfig { read_factor: 5.0, write_factor: 1.0, ..RssdConfig::default() },
        )
        .unwrap();
        assert_eq!(base.pair, inert.pair);
        assert_eq!(base.cost.to_bits(), inert.cost.to_bits());
    }

    #[test]
    fn factored_pruning_stays_exact() {
        let p = params();
        let rs: Vec<ReqView> = (0..60)
            .map(|i| ReqView {
                offset: i * 8192,
                len: 4096 * (1 + i % 9),
                op: if i % 4 == 0 { IoOp::Read } else { IoOp::Write },
                concurrency: 1 + (i % 8) as u32,
            })
            .collect();
        let factors = OpFactors { read: 2.5, write: 1.5 };
        let factored = RssdConfig { read_factor: 2.5, write_factor: 1.5, ..RssdConfig::default() };
        let pruned = rssd(&rs, &p, &factored).unwrap();
        let plain = rssd(&rs, &p, &RssdConfig { pruning: false, ..factored }).unwrap();
        assert_eq!(pruned.pair, plain.pair);
        assert_eq!(pruned.cost.to_bits(), plain.cost.to_bits());
        // The scaled floor stays below every scaled exact cost.
        let lb = RegionLowerBounds::compute(&rs, &p, factors);
        let mut scratch = CostScratch::new();
        for h in [0u64, 8 << 10, 32 << 10] {
            for s in [8u64 << 10, 64 << 10] {
                if s <= h {
                    continue;
                }
                let pair = StripePair { h, s };
                let cost =
                    region_cost_factored(&rs, &p, pair, factors, f64::INFINITY, &mut scratch)
                        .unwrap();
                assert!(lb.for_pair(&p, pair) <= cost, "{pair:?}");
            }
        }
    }

    #[test]
    fn write_amplification_steers_mixed_workloads_toward_reads() {
        // Mixed region: large sequential reads (which like HDDs) plus
        // small writes. Amplifying writes (a redundant layout's parity
        // fan-out) must never *lower* the modelled cost.
        let p = params();
        let mut rs = reqs(4 << 20, IoOp::Read, 2, 8);
        rs.extend(reqs(16 << 10, IoOp::Write, 8, 32));
        let base = rssd(&rs, &p, &RssdConfig::default()).unwrap();
        let amp = rssd(
            &rs,
            &p,
            &RssdConfig { read_factor: 1.0, write_factor: 4.0, ..RssdConfig::default() },
        )
        .unwrap();
        assert!(amp.cost >= base.cost, "amp={} base={}", amp.cost, base.cost);
    }

    #[test]
    fn bounded_cost_early_exits_below_true_cost() {
        let p = params();
        let rs = reqs(128 << 10, IoOp::Write, 4, 16);
        let pair = StripePair { h: 16 << 10, s: 64 << 10 };
        let exact = region_cost(&rs, &p, pair);
        let mut scratch = CostScratch::new();
        assert_eq!(
            region_cost_bounded(&rs, &p, pair, f64::INFINITY, &mut scratch),
            Some(exact)
        );
        assert_eq!(region_cost_bounded(&rs, &p, pair, exact / 2.0, &mut scratch), None);
        // At exactly the true cost the comparison is strict: no exit.
        assert_eq!(region_cost_bounded(&rs, &p, pair, exact, &mut scratch), Some(exact));
        // The scratch stays clean after an early exit.
        assert_eq!(
            region_cost_bounded(&rs, &p, pair, f64::INFINITY, &mut scratch),
            Some(exact)
        );
    }

    #[test]
    fn finer_step_never_hurts() {
        let p = params();
        let rs = reqs(96 << 10, IoOp::Write, 16, 32);
        let coarse = rssd(&rs, &p, &RssdConfig { step: 32 << 10, ..Default::default() }).unwrap();
        let fine = rssd(&rs, &p, &RssdConfig { step: 4 << 10, ..Default::default() }).unwrap();
        assert!(fine.cost <= coarse.cost + 1e-12);
        assert!(fine.evaluated > coarse.evaluated);
    }

    #[test]
    fn hserver_only_cluster_still_optimizes() {
        // n = 0: the <h, s> pair degenerates; s candidates are dead
        // (no SServers), so the layout is H-only and the search still
        // returns a finite answer.
        let p = CostParams { m: 4, n: 0, ..params() };
        let r = rssd(&reqs(256 << 10, IoOp::Read, 4, 8), &p, &RssdConfig::default()).unwrap();
        assert!(r.cost.is_finite());
        assert!(r.pair.h > 0, "H-only cluster needs h > 0: {:?}", r.pair);
    }
}
