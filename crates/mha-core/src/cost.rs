//! The data access cost model: Table I parameters and Eq. 2.
//!
//! The cost of a request under a candidate `<h, s>` stripe pair is the
//! *maximum* over the involved servers of an affine service estimate —
//! the request is only done when its slowest sub-request is done:
//!
//! ```text
//! T_R(r, h, s) = max{ p_i·α_h  + s_i·(t + β_h),
//!                     p_j·α_sr + s_j·(t + β_sr) | i ∈ H, j ∈ S }      (Eq. 2)
//! ```
//!
//! with `p` the number of I/O startups a server pays during the request's
//! phase and `s` the bytes it must move. Writes use `(α_sw, β_sw)`.
//!
//! Like the paper, we extend the per-request view with **I/O concurrency**:
//! a request with phase concurrency `c` shares its servers with `c − 1`
//! similar simultaneous requests, whose expected per-server load (startup
//! probability × α + expected bytes × (t + β)) is added before taking the
//! max. The model deliberately ignores what the simulator knows —
//! network flow serialization, HDD head locality, SSD garbage collection —
//! so planner and ground truth stay separate.

use iotrace::Trace;
use netsim::LinkParams;
use pfs_sim::{LayoutSpec, Placement, ServerId};
use simrt::SeedSeq;
use storage_model::{calibrate, Device, HddModel, HddParams, IoOp, SsdModel, SsdParams};

/// Table I: the parameters of the cost model.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// `M` — number of HServers.
    pub m: usize,
    /// `N` — number of SServers.
    pub n: usize,
    /// `t` — unit data network transfer time, seconds/byte.
    pub t: f64,
    /// `α_h` — average storage startup time on an HServer, seconds.
    pub alpha_h: f64,
    /// `β_h` — unit data transfer time on an HServer, seconds/byte.
    pub beta_h: f64,
    /// `α_sr` — average read startup time on an SServer, seconds.
    pub alpha_sr: f64,
    /// `β_sr` — unit read transfer time on an SServer, seconds/byte.
    pub beta_sr: f64,
    /// `α_sw` — average write startup time on an SServer, seconds.
    pub alpha_sw: f64,
    /// `β_sw` — unit write transfer time on an SServer, seconds/byte.
    pub beta_sw: f64,
}

impl CostParams {
    /// Calibrate the parameters by probing fresh device models — the
    /// in-simulation analogue of the paper measuring its servers. `m`/`n`
    /// give the cluster shape; `t` comes from the NIC parameters.
    pub(crate) fn calibrate(m: usize, n: usize, hdd: &HddParams, ssd: &SsdParams, link: &LinkParams) -> Self {
        let sizes = calibrate::default_probe_sizes();
        let seed = SeedSeq::new(0xCA11B);
        let extent = 64 << 30;
        let mut hdev = HddModel::new(hdd.clone());
        // Probe the HDD under a realistic locality mix (half the striped
        // sub-requests a data server sees continue the previous one) —
        // see `calibrate_with_locality`.
        let hfit = calibrate::calibrate_with_locality(
            &mut hdev,
            IoOp::Read,
            &sizes,
            24,
            extent,
            seed,
            0.5,
        );
        let mut sdev = SsdModel::new(ssd.clone());
        let srfit = calibrate::calibrate(&mut sdev, IoOp::Read, &sizes, 24, extent, seed);
        sdev.reset();
        let swfit = calibrate::calibrate(&mut sdev, IoOp::Write, &sizes, 24, extent, seed);
        CostParams {
            m,
            n,
            t: link.unit_transfer_time(),
            alpha_h: hfit.alpha,
            beta_h: hfit.beta,
            alpha_sr: srfit.alpha,
            beta_sr: srfit.beta,
            alpha_sw: swfit.alpha,
            beta_sw: swfit.beta,
        }
    }

    /// Calibrated parameters for the paper's default testbed shape
    /// (6 HServers, 2 SServers, Gigabit Ethernet).
    pub fn paper_default() -> Self {
        Self::calibrate(
            6,
            2,
            &HddParams::sata2_250gb(),
            &SsdParams::pcie_100gb(),
            &LinkParams::gigabit_ethernet(),
        )
    }

    /// Same parameters for a different server split.
    pub fn with_shape(&self, m: usize, n: usize) -> Self {
        CostParams { m, n, ..self.clone() }
    }

    /// Startup time on a server of the given class for `op`.
    pub(crate) fn alpha(&self, hserver: bool, op: IoOp) -> f64 {
        match (hserver, op) {
            (true, _) => self.alpha_h,
            (false, IoOp::Read) => self.alpha_sr,
            (false, IoOp::Write) => self.alpha_sw,
        }
    }

    /// Per-byte service time (network + storage) on a server class:
    /// Eq. 2's `t + β` serial transfer term.
    pub(crate) fn unit_time(&self, hserver: bool, op: IoOp) -> f64 {
        let beta = match (hserver, op) {
            (true, _) => self.beta_h,
            (false, IoOp::Read) => self.beta_sr,
            (false, IoOp::Write) => self.beta_sw,
        };
        self.t + beta
    }

    /// Build the layout a `<h, s>` pair denotes for this cluster shape.
    /// Returns `None` for the degenerate all-zero pair.
    pub(crate) fn layout_for(&self, h: u64, s: u64) -> Option<LayoutSpec> {
        if (h == 0 || self.m == 0) && (s == 0 || self.n == 0) {
            return None;
        }
        let hs: Vec<ServerId> = (0..self.m).map(ServerId).collect();
        let ss: Vec<ServerId> = (self.m..self.m + self.n).map(ServerId).collect();
        Some(LayoutSpec::hybrid(&hs, h, &ss, s))
    }

    /// Is server `i` (in the layout numbering) an HServer?
    pub(crate) fn is_hserver(&self, server: ServerId) -> bool {
        server.0 < self.m
    }

    /// Eq. 2 (and its write counterpart): access cost of one request under
    /// the `<h, s>` layout, in seconds. `None`-layout pairs cost infinity.
    pub fn request_cost(&self, req: &ReqView, h: u64, s: u64) -> f64 {
        let Some(layout) = self.layout_for(h, s) else {
            return f64::INFINITY;
        };
        self.request_cost_on(&layout, req)
    }

    /// Eq. 2 evaluated against an explicit layout.
    pub(crate) fn request_cost_on(&self, layout: &LayoutSpec, req: &ReqView) -> f64 {
        let round = layout.round_size() as f64;
        let mates = req.concurrency.saturating_sub(1) as f64;
        // Mate load depends only on a server's class stripe, and every
        // layout this crate builds assigns one stripe per class — so
        // compute the two mate constants once per request instead of
        // re-scanning the segment list per server (`stripe_of` is
        // O(segments)). A layout with mixed stripes inside a class (not
        // constructible via `fixed`/`hybrid`, but legal through
        // `from_assignments`) falls back to the per-server scan.
        let (mate_h, mate_s) = self.class_mate_loads(layout, req, mates);
        let mut worst: f64 = 0.0;
        // Own, concrete decomposition: p_i = contiguous runs (startups),
        // s_i = bytes, on each server this request actually touches.
        for (server, bytes, runs) in layout.per_server_load(req.offset, req.len) {
            let hserver = self.is_hserver(server);
            let alpha = self.alpha(hserver, req.op);
            let unit = self.unit_time(hserver, req.op);
            let own = f64::from(runs) * alpha + bytes as f64 * unit;
            let mate_load = match (hserver, mate_h, mate_s) {
                (true, Some(m), _) | (false, _, Some(m)) => m,
                _ => self.mate_load(round, layout.stripe_of(server) as f64, hserver, req, mates),
            };
            worst = worst.max(own + mate_load);
        }
        debug_assert!(round > 0.0);
        worst
    }

    /// Precompute the per-class mate loads for one request: `Some(load)`
    /// for each class whose participating servers share one stripe size,
    /// `None` for a class with mixed stripes (caller falls back to the
    /// per-server computation — identical arithmetic either way).
    fn class_mate_loads(
        &self,
        layout: &LayoutSpec,
        req: &ReqView,
        mates: f64,
    ) -> (Option<f64>, Option<f64>) {
        let round = layout.round_size() as f64;
        let (mut h_stripe, mut s_stripe): (Option<u64>, Option<u64>) = (None, None);
        let (mut h_uniform, mut s_uniform) = (true, true);
        for (server, stripe) in layout.assignments() {
            let (slot, uniform) = if self.is_hserver(server) {
                (&mut h_stripe, &mut h_uniform)
            } else {
                (&mut s_stripe, &mut s_uniform)
            };
            match slot {
                None => *slot = Some(stripe),
                Some(x) if *x != stripe => *uniform = false,
                _ => {}
            }
        }
        let class = |stripe: Option<u64>, uniform: bool, hserver: bool| {
            match (stripe, uniform) {
                (Some(st), true) => Some(self.mate_load(round, st as f64, hserver, req, mates)),
                _ => None,
            }
        };
        (
            class(h_stripe, h_uniform, true),
            class(s_stripe, s_uniform, false),
        )
    }

    /// Expected queueing contribution of the `mates` concurrent similar
    /// requests on a server with the given `stripe`: each touches the
    /// server with probability `min(1, (l + stripe/2)/round)`, paying one
    /// startup when it does, and contributes `l·stripe/round` expected
    /// bytes.
    ///
    /// On the touch probability: a request of length `l` at a *uniformly
    /// random* position on the round circle overlaps a `stripe`-long
    /// segment with probability `(l + stripe)/round`; a request whose
    /// start is *aligned to the stripe grid* touches exactly
    /// `ceil(l/stripe)` segments, i.e. probability `≈ l/round`. Region
    /// files pack extents step-aligned, so real placements sit between
    /// the two — we use the midpoint. (The fully random form makes fine
    /// striping look free and drives RSSD toward needless splitting.)
    fn mate_load(&self, round: f64, stripe: f64, hserver: bool, req: &ReqView, mates: f64) -> f64 {
        if mates <= 0.0 {
            return 0.0;
        }
        let l = req.len as f64;
        let touch = ((l + stripe / 2.0) / round).min(1.0);
        let bytes = l * stripe / round;
        mates * (touch * self.alpha(hserver, req.op) + bytes * self.unit_time(hserver, req.op))
    }
}

/// Per-operation cost multipliers, the planner-side shadow of a layout's
/// redundancy. Eq. 2 prices one logical request against one physical
/// copy of its data; redundancy changes how many physical bytes a
/// logical byte stands for, and these factors carry that into the model:
///
/// * **writes** amplify deterministically — `k` full copies under
///   `k`-way replication, `(k + m)/k` under EC(`k`, `m`) (data plus
///   parity),
/// * **reads** amplify only in expectation — a replicated read still
///   touches one copy (failover swaps *which* copy, not how many), while
///   a degraded EC read reconstructs from `k` surviving units, so with
///   loss probability `p` the expected factor is `(1 − p) + p·k`.
///
/// Factors below 1 are never produced by [`placement_factors`]; the RSSD
/// search accepts any positive factors (its pruning floor is scaled by
/// the same factors, so admissibility is unconditional).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpFactors {
    /// Multiplier on each read request's Eq. 2 cost.
    pub read: f64,
    /// Multiplier on each write request's Eq. 2 cost.
    pub write: f64,
}

impl Default for OpFactors {
    fn default() -> Self {
        OpFactors { read: 1.0, write: 1.0 }
    }
}

impl OpFactors {
    /// The identity factors (striped layouts, the pre-redundancy model).
    pub(crate) fn neutral() -> Self {
        Self::default()
    }

    /// The factor for one operation.
    pub(crate) fn for_op(&self, op: IoOp) -> f64 {
        match op {
            IoOp::Read => self.read,
            IoOp::Write => self.write,
        }
    }
}

/// The [`OpFactors`] a placement implies, given the probability `p_loss`
/// that a read finds its home unit lost (0 = healthy cluster, 1 = every
/// read of the affected range is degraded). `p_loss` is clamped to
/// `[0, 1]`.
pub fn placement_factors(placement: Placement, p_loss: f64) -> OpFactors {
    let p = p_loss.clamp(0.0, 1.0);
    match placement {
        Placement::Striped => OpFactors::neutral(),
        // Replicated reads hit exactly one copy, healthy or not; writes
        // fan out to all k copies.
        Placement::Replicated(k) => OpFactors { read: 1.0, write: k as f64 },
        // EC writes carry the parity overhead; a degraded read gathers k
        // surviving units instead of 1.
        Placement::ErasureCoded(k, m) => {
            let kf = k.max(1) as f64;
            OpFactors {
                read: (1.0 - p) + p * kf,
                write: (kf + m as f64) / kf,
            }
        }
    }
}

/// The planner's view of one request: where it will live, how big it is,
/// its operation, and how many requests share its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqView {
    /// Offset the request will have in the (region) file being planned.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Read or write.
    pub op: IoOp,
    /// Phase concurrency (≥ 1 for a real request).
    pub concurrency: u32,
}

/// Extract [`ReqView`]s from a trace, using each record's own offsets
/// (the *inherent* order — what DEF/AAL/HARL plan against).
pub fn views_of(trace: &Trace) -> Vec<ReqView> {
    let conc = trace.concurrency();
    trace
        .records()
        .iter()
        .zip(conc)
        .map(|(r, c)| ReqView { offset: r.offset, len: r.len, op: r.op, concurrency: c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        // Hand-set values: round numbers make assertions exact.
        CostParams {
            m: 2,
            n: 2,
            t: 1e-8,
            alpha_h: 1e-2,
            beta_h: 1e-8,
            alpha_sr: 1e-4,
            beta_sr: 1e-9,
            alpha_sw: 2e-4,
            beta_sw: 2e-9,
        }
    }

    fn req(len: u64, op: IoOp, conc: u32) -> ReqView {
        ReqView { offset: 0, len, op, concurrency: conc }
    }

    #[test]
    fn single_server_request_costs_one_startup() {
        let p = params();
        // 4 KiB at offset 0 under <64K, 64K>: one run on HServer 0.
        let c = p.request_cost(&req(4096, IoOp::Read, 1), 64 << 10, 64 << 10);
        let expect = p.alpha_h + 4096.0 * (p.t + p.beta_h);
        assert!((c - expect).abs() < 1e-12, "c={c} expect={expect}");
    }

    #[test]
    fn cost_is_max_not_sum_over_servers() {
        let p = params();
        // A request spanning one full round of <h, s> = <10, 10>: every
        // server gets 10 bytes, 1 run. Max = slowest class (HServer).
        let c = p.request_cost(&req(40, IoOp::Read, 1), 10, 10);
        let h_cost = p.alpha_h + 10.0 * (p.t + p.beta_h);
        assert!((c - h_cost).abs() < 1e-12);
    }

    #[test]
    fn h_zero_layout_uses_only_sservers() {
        let p = params();
        let c = p.request_cost(&req(4096, IoOp::Read, 1), 0, 4096);
        // One run on the first SServer.
        let expect = p.alpha_sr + 4096.0 * (p.t + p.beta_sr);
        assert!((c - expect).abs() < 1e-12);
    }

    #[test]
    fn writes_cost_more_on_sservers() {
        let p = params();
        let r = p.request_cost(&req(4096, IoOp::Read, 1), 0, 64 << 10);
        let w = p.request_cost(&req(4096, IoOp::Write, 1), 0, 64 << 10);
        assert!(w > r);
    }

    #[test]
    fn concurrency_raises_cost() {
        let p = params();
        let lone = p.request_cost(&req(64 << 10, IoOp::Read, 1), 16 << 10, 16 << 10);
        let crowded = p.request_cost(&req(64 << 10, IoOp::Read, 16), 16 << 10, 16 << 10);
        assert!(crowded > lone);
    }

    #[test]
    fn degenerate_pair_is_infinite() {
        let p = params();
        assert!(p.request_cost(&req(4096, IoOp::Read, 1), 0, 0).is_infinite());
        assert!(p.layout_for(0, 0).is_none());
    }

    #[test]
    fn cost_monotone_in_request_size() {
        let p = params();
        let mut prev = 0.0;
        for len in [4096u64, 8192, 65536, 1 << 20] {
            let c = p.request_cost(&req(len, IoOp::Read, 4), 32 << 10, 96 << 10);
            assert!(c > prev, "len={len}");
            prev = c;
        }
    }

    #[test]
    fn splitting_small_requests_over_hdds_is_penalized() {
        let p = params();
        let small = req(16 << 10, IoOp::Read, 8);
        // <4K, 4K> scatters the 16 KiB over four servers (several HDD
        // startups among them); <32K, 96K> keeps it on one server.
        let scattered = p.request_cost(&small, 4 << 10, 4 << 10);
        let compact = p.request_cost(&small, 32 << 10, 96 << 10);
        assert!(compact < scattered, "compact={compact} scattered={scattered}");
    }

    #[test]
    fn mixed_class_stripes_fall_back_to_per_server_scan() {
        let p = params(); // m = 2, n = 2
        // Two HServers with *different* stripes — not constructible via
        // fixed/hybrid, so the per-class constants must defer to the
        // per-server stripe scan.
        let layout = LayoutSpec::from_assignments([
            (ServerId(0), 8u64 << 10),
            (ServerId(1), 16 << 10),
            (ServerId(2), 32 << 10),
            (ServerId(3), 32 << 10),
        ]);
        let req = ReqView { offset: 0, len: 96 << 10, op: IoOp::Read, concurrency: 4 };
        let got = p.request_cost_on(&layout, &req);
        // Oracle: the pre-kernel per-server formula, verbatim.
        let round = layout.round_size() as f64;
        let mates = 3.0;
        let mut expect = 0.0f64;
        for (server, bytes, runs) in layout.per_server_load(req.offset, req.len) {
            let hserver = p.is_hserver(server);
            let own = f64::from(runs) * p.alpha(hserver, req.op)
                + bytes as f64 * p.unit_time(hserver, req.op);
            let stripe = layout.stripe_of(server) as f64;
            let l = req.len as f64;
            let touch = ((l + stripe / 2.0) / round).min(1.0);
            let mb = l * stripe / round;
            let mate =
                mates * (touch * p.alpha(hserver, req.op) + mb * p.unit_time(hserver, req.op));
            expect = expect.max(own + mate);
        }
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn calibrated_params_have_hdd_ssd_gap() {
        let p = CostParams::paper_default();
        assert!(p.alpha_h > 10.0 * p.alpha_sr, "α_h={} α_sr={}", p.alpha_h, p.alpha_sr);
        assert!(p.alpha_sw > p.alpha_sr);
        assert!(p.beta_sw > p.beta_sr);
        assert!(p.beta_h > p.beta_sr);
        assert!((p.t - 1.0 / 117.0e6).abs() < 1e-12);
        assert_eq!((p.m, p.n), (6, 2));
    }

    #[test]
    fn alpha_and_unit_time_dispatch_by_class_and_op() {
        let p = params();
        assert_eq!(p.alpha(true, IoOp::Read), p.alpha_h);
        assert_eq!(p.alpha(true, IoOp::Write), p.alpha_h);
        assert_eq!(p.alpha(false, IoOp::Read), p.alpha_sr);
        assert_eq!(p.alpha(false, IoOp::Write), p.alpha_sw);
        assert_eq!(p.unit_time(false, IoOp::Read), p.t + p.beta_sr);
        assert_eq!(p.unit_time(true, IoOp::Read), p.t + p.beta_h);
    }

    #[test]
    fn layout_for_hserver_only_and_shape_override() {
        let p = params().with_shape(3, 0);
        assert_eq!((p.m, p.n), (3, 0));
        let layout = p.layout_for(8192, 0).expect("H-only layout");
        assert_eq!(layout.servers().count(), 3);
        assert!(p.layout_for(0, 8192).is_none(), "no SServers to hold s");
    }

    #[test]
    fn placement_factors_cover_the_grid() {
        let f = placement_factors(Placement::Striped, 0.7);
        assert_eq!((f.read, f.write), (1.0, 1.0));
        let f = placement_factors(Placement::Replicated(3), 0.5);
        assert_eq!((f.read, f.write), (1.0, 3.0));
        // EC(4+2): writes always pay 6/4; reads pay k-fold only on the
        // lost fraction.
        let healthy = placement_factors(Placement::ErasureCoded(4, 2), 0.0);
        assert_eq!((healthy.read, healthy.write), (1.0, 1.5));
        let lost = placement_factors(Placement::ErasureCoded(4, 2), 1.0);
        assert_eq!((lost.read, lost.write), (4.0, 1.5));
        let half = placement_factors(Placement::ErasureCoded(4, 2), 0.5);
        assert_eq!(half.read, 2.5);
        // p_loss clamps rather than extrapolating.
        let over = placement_factors(Placement::ErasureCoded(4, 2), 7.0);
        assert_eq!(over.read, 4.0);
    }

    #[test]
    fn views_of_carries_concurrency() {
        use iotrace::gen::lanl::{generate, LanlConfig};
        let t = generate(&LanlConfig::paper(2, IoOp::Write));
        let views = views_of(&t);
        assert_eq!(views.len(), t.len());
        assert!(views.iter().all(|v| v.concurrency == 8));
        assert_eq!(views[0].len, 16);
    }
}
