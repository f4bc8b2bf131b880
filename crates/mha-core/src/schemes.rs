//! The four layout schemes the paper evaluates, behind one planner trait.
//!
//! | Scheme | Pattern-aware | Server-aware | Reordering |
//! |--------|---------------|--------------|------------|
//! | DEF    | no            | no           | no         |
//! | AAL    | yes           | no           | no         |
//! | HARL   | yes (per fixed region) | yes | no         |
//! | MHA    | yes (per request group) | yes | **yes**   |
//!
//! * **DEF** — the file system default: fixed 64 KB stripes over all
//!   servers; the plan is empty.
//! * **AAL** (application-aware layout, \[10\]) — picks one stripe size per
//!   file from the traced access pattern but assigns it uniformly to
//!   every server, evaluating costs under a *homogeneous* model (all
//!   servers treated as HServers) — server heterogeneity is ignored.
//! * **HARL** (\[8\], the authors' prior work) — divides each file into
//!   fixed offset-contiguous regions and runs the stripe search per
//!   region against the *inherent* request order; no data migration, no
//!   concurrency term, and search bounds from the average request size.
//! * **MHA** — the paper's contribution: group requests by pattern
//!   (Algorithm 1), migrate each group into its own region, run RSSD
//!   (Algorithm 2) per region with the concurrency-aware cost model, and
//!   redirect at runtime through the DRT.

use crate::cost::{views_of, CostParams, ReqView};
use crate::grouping::{group_requests, GroupingConfig};
use crate::pattern::features_of;
use crate::redirect::DrtResolver;
use crate::region::{build_regions_with_conc, Drt, DrtEntry, RegionInfo, Rst};
use crate::rssd::{region_cost, rssd, RssdConfig, StripePair};
use iotrace::{FileId, Trace};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, FaultPlan, IdentityResolver, LayoutSpec, Placement,
    ReplayError, ReplayInput, ReplayReport, ReplaySession, Resolver, ServerHealth, ServerId,
};
use rayon::prelude::*;
use simrt::{SchedPolicy, SimDuration};

/// The schemes compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Default fixed striping.
    Def,
    /// Application-aware layout (heterogeneity-blind).
    Aal,
    /// Heterogeneity-aware region-level layout (no reordering).
    Harl,
    /// Migratory heterogeneity-aware layout (this paper).
    Mha,
}

impl Scheme {
    /// All schemes in the paper's presentation order.
    pub fn all() -> [Scheme; 4] {
        [Scheme::Def, Scheme::Aal, Scheme::Harl, Scheme::Mha]
    }

    /// Display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Def => "DEF",
            Scheme::Aal => "AAL",
            Scheme::Harl => "HARL",
            Scheme::Mha => "MHA",
        }
    }

    /// The planner implementing this scheme.
    pub fn planner(self) -> Box<dyn LayoutPlanner> {
        match self {
            Scheme::Def => Box::new(DefPlanner),
            Scheme::Aal => Box::new(AalPlanner),
            Scheme::Harl => Box::new(HarlPlanner),
            Scheme::Mha => Box::new(MhaPlanner),
        }
    }
}

/// Everything a planner needs besides the trace.
#[derive(Debug, Clone)]
pub struct PlannerContext {
    /// Calibrated cost model matching the target cluster's shape.
    pub params: CostParams,
    /// RSSD search configuration.
    pub rssd: RssdConfig,
    /// Request grouping configuration (MHA).
    pub grouping: GroupingConfig,
    /// Fixed region count per file for HARL.
    pub harl_regions: u32,
    /// First file id usable for region files (above all original ids).
    pub region_file_base: u32,
    /// Per-request DRT lookup cost charged by redirecting resolvers.
    pub lookup_cost: SimDuration,
    /// Packing alignment for migrated extents (defaults to the RSSD step
    /// when `None`). Larger alignments trade padding for stripe-grid
    /// friendliness of the extent pitch.
    pub region_align: Option<u64>,
    /// Selective application (§I: "not necessary to apply to the entire
    /// file system, but rather to critical data sets and data sections"):
    /// a group is only migrated when its model-predicted cost improvement
    /// over the DEF layout exceeds this fraction. `0.0` migrates every
    /// group (the default, matching the paper's evaluation).
    pub selective_min_gain: f64,
    /// Per-server health, as reported by a replay under faults
    /// ([`FaultPlan::health_view`] or [`pfs_sim::ServerIoStat`]). Empty —
    /// the default — means a pristine cluster, and planning is exactly
    /// what it was before health existed. Non-empty health makes the
    /// planners degrade gracefully: lost/excluded servers drop out of new
    /// layouts and the cost model re-weights by the surviving servers'
    /// slowdowns (failover restriping).
    pub health: Vec<ServerHealth>,
}

/// Slowdown factor at which a degraded server is *excluded* from new
/// layouts entirely rather than merely down-weighted: 3.0 excludes
/// permanent-loss servers (infinite), outage-penalized servers (4.0) and
/// worn-SSD-class stragglers (≥ 3.0).
const EXCLUDE_SLOWDOWN: f64 = 3.0;

impl PlannerContext {
    /// Context calibrated for `cfg` (device probing happens here, once).
    pub fn for_cluster(cfg: &ClusterConfig) -> Self {
        PlannerContext {
            params: CostParams::calibrate(cfg.hservers, cfg.sservers, &cfg.hdd, &cfg.ssd, &cfg.link),
            rssd: RssdConfig::default(),
            grouping: GroupingConfig::default(),
            harl_regions: 8,
            region_file_base: 1 << 20,
            lookup_cost: SimDuration::from_micros(5),
            region_align: None,
            selective_min_gain: 0.0,
            health: Vec::new(),
        }
    }

    /// Attach per-server health (e.g. `plan.health_view(servers)`), for
    /// planning around a degraded cluster. Returns `self` for chaining.
    #[must_use]
    pub(crate) fn with_health(mut self, health: Vec<ServerHealth>) -> Self {
        self.health = health;
        self
    }

    /// Is server `i` usable for new layouts under the current health?
    /// (Not lost, and not slowed past `EXCLUDE_SLOWDOWN`, 3.0.)
    pub(crate) fn server_usable(&self, i: usize) -> bool {
        self.health
            .get(i)
            .is_none_or(|h| !h.down && h.speed_factor < EXCLUDE_SLOWDOWN)
    }

    /// The cost parameters the planners should optimize against: with no
    /// health attached this is exactly [`Self::params`] (bit-identical
    /// plans); with health, the cluster shape shrinks to the usable
    /// servers and each class's service terms are inflated by the mean
    /// slowdown of its survivors.
    pub fn effective_params(&self) -> CostParams {
        if self.health.is_empty() {
            return self.params.clone();
        }
        let factors = |range: std::ops::Range<usize>| -> (usize, f64) {
            let alive: Vec<f64> = range
                .filter(|&i| self.server_usable(i))
                .map(|i| self.health.get(i).map_or(1.0, |h| h.speed_factor))
                .collect();
            let mean = if alive.is_empty() {
                1.0
            } else {
                alive.iter().sum::<f64>() / alive.len() as f64
            };
            (alive.len(), mean)
        };
        let (m, fh) = factors(0..self.params.m);
        let (n, fs) = factors(self.params.m..self.params.m + self.params.n);
        CostParams {
            m,
            n,
            alpha_h: self.params.alpha_h * fh,
            beta_h: self.params.beta_h * fh,
            alpha_sr: self.params.alpha_sr * fs,
            beta_sr: self.params.beta_sr * fs,
            alpha_sw: self.params.alpha_sw * fs,
            beta_sw: self.params.beta_sw * fs,
            ..self.params.clone()
        }
    }

    /// Build the layout an `<h, s>` pair denotes over the *usable*
    /// servers. With no health attached this is exactly
    /// `self.params.layout_for(h, s)`; with health, lost and excluded
    /// servers are left out, so new data never lands on them.
    pub fn layout_for(&self, h: u64, s: u64) -> Option<LayoutSpec> {
        if self.health.is_empty() {
            return self.params.layout_for(h, s);
        }
        let hs: Vec<ServerId> = (0..self.params.m)
            .filter(|&i| self.server_usable(i))
            .map(ServerId)
            .collect();
        let ss: Vec<ServerId> = (self.params.m..self.params.m + self.params.n)
            .filter(|&i| self.server_usable(i))
            .map(ServerId)
            .collect();
        if (h == 0 || hs.is_empty()) && (s == 0 || ss.is_empty()) {
            return None;
        }
        Some(LayoutSpec::hybrid(&hs, h, &ss, s))
    }

    /// Adapt the RSSD step to a workload's largest request: the 4 KiB
    /// default is kept for small-request workloads, while multi-megabyte
    /// workloads (BTIO-class) coarsen the step so the candidate grid
    /// stays tractable — the paper notes the step "can be configured by
    /// the user". Returns `self` for chaining.
    pub fn with_step_for(mut self, trace: &Trace) -> Self {
        let r_max = trace.max_request_size();
        let step = (r_max / 256).div_ceil(4096).max(1) * 4096;
        self.rssd.step = step.max(4096);
        self
    }
}

/// How a plan resolves logical requests at runtime.
#[derive(Debug, Clone)]
pub enum PlanResolver {
    /// Direct access (DEF, AAL).
    Identity,
    /// DRT-based redirection (HARL's region split, MHA's migration).
    Drt(Drt),
}

/// A computed layout plan, ready to install on a cluster.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which scheme produced this plan.
    pub scheme: Scheme,
    /// Layouts to install, per physical file.
    pub layouts: Vec<(FileId, LayoutSpec)>,
    /// Runtime resolution strategy.
    pub resolver: PlanResolver,
    /// The region stripe table (empty for DEF/AAL).
    pub rst: Rst,
    /// Regions created by the plan (empty for DEF/AAL).
    pub regions: Vec<RegionInfo>,
}

impl Plan {
    /// This plan with `placement` attached to every layout wide enough
    /// to carry it. Layouts with fewer segments than the placement needs
    /// (a replica per distinct server, `k + m` shards for EC) stay
    /// striped rather than failing the whole plan — an SServer-only
    /// region of a mostly-hybrid plan just forgoes redundancy.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        for (_, spec) in &mut self.layouts {
            *spec = spec.clone().try_with_placement(placement).unwrap_or_else(|_| spec.clone());
        }
        self
    }

    /// How many of the plan's layouts carry a non-striped placement.
    pub fn redundant_layouts(&self) -> usize {
        self.layouts.iter().filter(|(_, s)| !s.placement().is_striped()).count()
    }

    /// Build the runtime resolver for this plan.
    pub fn make_resolver(&self, lookup_cost: SimDuration) -> Box<dyn Resolver> {
        match &self.resolver {
            PlanResolver::Identity => Box::new(IdentityResolver),
            PlanResolver::Drt(drt) => Box::new(DrtResolver::new(drt.clone(), lookup_cost)),
        }
    }
}

/// A layout planner: turns a profiled trace into a [`Plan`].
pub trait LayoutPlanner {
    /// Scheme name.
    fn name(&self) -> &'static str;
    /// Compute the plan for `trace` under `ctx`.
    fn plan(&self, trace: &Trace, ctx: &PlannerContext) -> Plan;
}

/// Install a plan's layouts into a cluster's metadata server.
pub fn apply_plan(cluster: &mut Cluster, plan: &Plan) {
    for (file, layout) in &plan.layouts {
        cluster.mds_mut().set_layout(*file, layout.clone());
    }
}

// ---------------------------------------------------------------- DEF --

/// The file system default: nothing to plan.
pub(crate) struct DefPlanner;

impl LayoutPlanner for DefPlanner {
    fn name(&self) -> &'static str {
        "DEF"
    }

    fn plan(&self, _trace: &Trace, _ctx: &PlannerContext) -> Plan {
        Plan {
            scheme: Scheme::Def,
            layouts: Vec::new(),
            resolver: PlanResolver::Identity,
            rst: Rst::new(),
            regions: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- AAL --

/// Application-aware layout: one traced-pattern-optimized stripe size per
/// file, uniform across all servers (server heterogeneity ignored).
pub(crate) struct AalPlanner;

impl LayoutPlanner for AalPlanner {
    fn name(&self) -> &'static str {
        "AAL"
    }

    fn plan(&self, trace: &Trace, ctx: &PlannerContext) -> Plan {
        // Heterogeneity-blind view: all M + N (usable) servers look like
        // HServers.
        let params = ctx.effective_params();
        let servers = params.m + params.n;
        let homog = CostParams {
            m: servers,
            n: 0,
            alpha_sr: params.alpha_h,
            beta_sr: params.beta_h,
            alpha_sw: params.alpha_h,
            beta_sw: params.beta_h,
            ..params.clone()
        };
        let views_all = views_of(trace);
        let mut layouts = Vec::new();
        // One scratch serves every file's candidate scan (no per-candidate
        // allocation); with an infinite cutoff `region_cost_bounded` is
        // exactly `region_cost`.
        let mut scratch = crate::rssd::CostScratch::new();
        for file in trace.files() {
            let views: Vec<ReqView> = trace
                .records()
                .iter()
                .zip(&views_all)
                .filter(|(r, _)| r.file == file)
                .map(|(_, v)| *v)
                .collect();
            if views.is_empty() {
                continue;
            }
            let step = ctx.rssd.step.max(1);
            let r_max = views.iter().map(|v| v.len).max().expect("nonempty");
            // AAL sees the full application pattern (sizes *and*
            // concurrency) — only the servers look identical to it.
            let mut best: Option<(f64, u64)> = None;
            let mut st = step;
            while st <= r_max.max(step) {
                let cost = crate::rssd::region_cost_bounded(
                    &views,
                    &homog,
                    StripePair { h: st, s: 0 },
                    f64::INFINITY,
                    &mut scratch,
                )
                .expect("an infinite cutoff is never exceeded");
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, st));
                }
                if st >= r_max {
                    break;
                }
                st += step;
            }
            let (_, stripe) = best.expect("at least one candidate");
            // The homogeneous layout assigns `stripe` to every usable
            // real server.
            if let Some(layout) = ctx.layout_for(stripe, stripe) {
                layouts.push((file, layout));
            }
        }
        Plan {
            scheme: Scheme::Aal,
            layouts,
            resolver: PlanResolver::Identity,
            rst: Rst::new(),
            regions: Vec::new(),
        }
    }
}

// --------------------------------------------------------------- HARL --

/// Heterogeneity-aware region-level layout: fixed offset regions, per-
/// region stripe search on the inherent order, no migration.
pub(crate) struct HarlPlanner;

impl LayoutPlanner for HarlPlanner {
    fn name(&self) -> &'static str {
        "HARL"
    }

    fn plan(&self, trace: &Trace, ctx: &PlannerContext) -> Plan {
        let params = ctx.effective_params();
        let mut layouts = Vec::new();
        let mut drt = Drt::new();
        let mut rst = Rst::new();
        let mut regions = Vec::new();
        let mut next_region_file = ctx.region_file_base;
        let views_all = views_of(trace);
        let step = ctx.rssd.step.max(1);

        for (file, extent) in trace.file_extents() {
            if extent == 0 {
                continue;
            }
            // Fixed division: `harl_regions` equal regions, 4 KiB aligned.
            let raw = extent.div_ceil(u64::from(ctx.harl_regions.max(1)));
            let region_size = raw.div_ceil(step) * step;
            let n_regions = extent.div_ceil(region_size);
            // Per-region inherent requests (assigned by start offset),
            // concurrency-free (HARL's model predates the extension).
            let file_views: Vec<ReqView> = trace
                .records()
                .iter()
                .zip(&views_all)
                .filter(|(r, _)| r.file == file)
                .map(|(_, v)| ReqView { concurrency: 1, ..*v })
                .collect();
            let avg = if file_views.is_empty() {
                step
            } else {
                (file_views.iter().map(|v| v.len).sum::<u64>() / file_views.len() as u64).max(step)
            };
            let harl_rssd = RssdConfig {
                adaptive_bounds: false,
                bound_override: Some(avg),
                ..ctx.rssd.clone()
            };
            for ridx in 0..n_regions {
                let base = ridx * region_size;
                let len = region_size.min(extent - base);
                let region_file = FileId(next_region_file);
                next_region_file += 1;
                let inserted = drt.insert(DrtEntry {
                    o_file: file,
                    o_offset: base,
                    r_file: region_file,
                    r_offset: 0,
                    length: len,
                });
                debug_assert!(inserted, "HARL regions are disjoint by construction");
                // Requests of this region, shifted to region-local offsets.
                let region_views: Vec<ReqView> = file_views
                    .iter()
                    .filter(|v| v.offset >= base && v.offset < base + len)
                    .map(|v| ReqView { offset: v.offset - base, ..*v })
                    .collect();
                if let Some(result) = rssd(&region_views, &params, &harl_rssd) {
                    rst.set(region_file, result.pair);
                    if let Some(layout) = ctx.layout_for(result.pair.h, result.pair.s) {
                        layouts.push((region_file, layout));
                    }
                }
                regions.push(RegionInfo {
                    file: region_file,
                    len,
                    group: ridx as usize,
                    extents: 1,
                });
            }
        }
        Plan { scheme: Scheme::Harl, layouts, resolver: PlanResolver::Drt(drt), rst, regions }
    }
}

// ---------------------------------------------------------------- MHA --

/// The paper's scheme: group → migrate → per-region RSSD → redirect.
pub struct MhaPlanner;

impl LayoutPlanner for MhaPlanner {
    fn name(&self) -> &'static str {
        "MHA"
    }

    fn plan(&self, trace: &Trace, ctx: &PlannerContext) -> Plan {
        let params = ctx.effective_params();
        // One concurrency annotation serves the grouping and both region
        // builds. The features feed only the grouping, so they die with it.
        let conc = trace.concurrency();
        let grouping = group_requests(&features_of(trace.records(), &conc), &ctx.grouping);
        let groups = grouping.groups();
        let base_align = ctx.region_align.unwrap_or(ctx.rssd.step.max(4096));

        // Pass 1: pack step-aligned, search stripe pairs per region.
        // Regions are independent searches, so they fan out across cores
        // (rayon) instead of serializing k stripe searches; the indexed
        // collect keeps region order — and therefore the plan — exactly
        // deterministic. Each search is itself data-parallel; rayon's
        // work-stealing composes the two levels.
        let build = build_regions_with_conc(
            trace,
            &conc,
            &grouping,
            ctx.region_file_base,
            &vec![base_align; groups],
            &vec![true; groups],
        );
        let pairs: Vec<Option<StripePair>> = build
            .region_views
            .par_iter()
            .map(|v| rssd(v, &params, &ctx.rssd).map(|r| r.pair))
            .collect();

        // Selective application: keep only groups whose optimized layout
        // beats DEF's fixed 64 KB striping by the configured margin
        // (under the cost model, on the pass-1 region offsets).
        let include: Vec<bool> = build
            .region_views
            .par_iter()
            .zip(&pairs)
            .map(|(region_views, pair)| {
                if ctx.selective_min_gain <= 0.0 {
                    return true;
                }
                let Some(p) = pair else { return false };
                let def_cost = region_cost(
                    region_views,
                    &params,
                    StripePair { h: 64 << 10, s: 64 << 10 },
                );
                let opt_cost = region_cost(region_views, &params, *p);
                def_cost.is_finite()
                    && def_cost > 0.0
                    && (def_cost - opt_cost) / def_cost >= ctx.selective_min_gain
            })
            .collect();

        // Pass 2: repack each region aligned to its chosen SServer stripe
        // (when extents are at least that big), so the extent pitch sits
        // on the stripe grid and requests decompose without ragged tails;
        // then re-run the search on the final offsets.
        let aligns: Vec<u64> = build
            .region_views
            .iter()
            .zip(&pairs)
            .map(|(region_views, pair)| {
                let max_len = region_views.iter().map(|v| v.len).max().unwrap_or(0);
                match pair {
                    Some(p) if ctx.region_align.is_none() && p.s > 0 && max_len >= p.s => p.s,
                    _ => base_align,
                }
            })
            .collect();
        // Pass 1's table and views are spent: free them before pass 2
        // builds its own.
        drop(build);
        let build = build_regions_with_conc(
            trace,
            &conc,
            &grouping,
            ctx.region_file_base,
            &aligns,
            &include,
        );

        // Final searches on the repacked offsets, again region-parallel;
        // the table/layout installation below stays sequential in region
        // order so the plan is reproducible run to run.
        let results: Vec<Option<crate::rssd::RssdResult>> = build
            .region_views
            .par_iter()
            .map(|region_views| rssd(region_views, &params, &ctx.rssd))
            .collect();
        let mut layouts = Vec::new();
        let mut rst = Rst::new();
        for (region, result) in build.regions.iter().zip(results) {
            if let Some(result) = result {
                rst.set(region.file, result.pair);
                if let Some(layout) = ctx.layout_for(result.pair.h, result.pair.s) {
                    layouts.push((region.file, layout));
                }
            }
        }
        Plan {
            scheme: Scheme::Mha,
            layouts,
            resolver: PlanResolver::Drt(build.drt),
            rst,
            regions: build.regions,
        }
    }
}

// ---------------------------------------------------------- evaluation --

/// End-to-end evaluation of one scheme on one workload, as a builder:
/// build a fresh cluster, profile-plan from the trace, install, and
/// replay — the "subsequent run" of the paper's five-phase flow.
///
/// ```no_run
/// # use mha_core::schemes::{Evaluation, Scheme};
/// # use pfs_sim::{ClusterConfig, FaultPlan};
/// # let trace = iotrace::Trace::new();
/// # let cfg = ClusterConfig::paper_default();
/// # let faults = FaultPlan::none();
/// let healthy = Evaluation::of(Scheme::Mha, &trace, &cfg).report();
/// let degraded = Evaluation::of(Scheme::Mha, &trace, &cfg)
///     .faults(&faults)
///     .replan_around_faults(true)
///     .report();
/// ```
pub struct Evaluation<'a> {
    scheme: Scheme,
    trace: &'a Trace,
    cluster_cfg: &'a ClusterConfig,
    ctx: Option<&'a PlannerContext>,
    fault: Option<&'a FaultPlan>,
    replan: bool,
    sched: Option<SchedPolicy>,
    core: CoreSel,
}

impl<'a> Evaluation<'a> {
    /// Evaluate `scheme` on `trace` over a fresh cluster of shape
    /// `cluster_cfg`. Without further configuration, [`Self::run`]
    /// calibrates a default [`PlannerContext`] and replays fault-free.
    pub fn of(scheme: Scheme, trace: &'a Trace, cluster_cfg: &'a ClusterConfig) -> Self {
        Evaluation {
            scheme,
            trace,
            cluster_cfg,
            ctx: None,
            fault: None,
            replan: false,
            sched: None,
            core: CoreSel::Auto,
        }
    }

    /// Plan under `ctx` instead of a freshly calibrated default context
    /// (calibration probes device models — hoist it when evaluating many
    /// cells).
    #[must_use]
    pub fn context(mut self, ctx: &'a PlannerContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Inject `faults` during the replay (stragglers, outages, losses,
    /// degraded devices). An empty plan leaves the evaluation bit-for-bit
    /// identical to a fault-free one.
    #[must_use]
    pub fn faults(mut self, faults: &'a FaultPlan) -> Self {
        self.fault = Some(faults);
        self
    }

    /// Let the planner see the fault plan's health view
    /// ([`FaultPlan::health_view`]) so it re-plans around lost and
    /// degraded servers (failover restriping). Without faults this is a
    /// no-op.
    #[must_use]
    pub fn replan_around_faults(mut self, replan: bool) -> Self {
        self.replan = replan;
        self
    }

    /// Replay under `policy` instead of whatever the session carries —
    /// the scheduler axis of the straggler study (client-side dispatch
    /// vs. layout replanning). An `Evaluation` that never calls this
    /// leaves the session's policy untouched.
    #[must_use]
    pub fn sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.sched = Some(policy);
        self
    }

    /// Pin the replay core (default [`CoreSel::Auto`]) — experiment
    /// grids use this to assert serial/sharded equivalence per cell.
    #[must_use]
    pub fn core(mut self, core: CoreSel) -> Self {
        self.core = core;
        self
    }

    /// Run inside a caller-owned [`ReplaySession`] — the experiment grid
    /// threads one session (warm scratch, pinned schedule) through many
    /// cells. An `Evaluation` carrying faults installs its plan into the
    /// session; otherwise the session's existing fault plan applies.
    pub fn run_in(&self, session: &mut ReplaySession) -> Result<ReplayReport, ReplayError> {
        let calibrated;
        let base_ctx = match self.ctx {
            Some(ctx) => ctx,
            None => {
                calibrated = PlannerContext::for_cluster(self.cluster_cfg);
                &calibrated
            }
        };
        let degraded;
        let ctx = match (self.replan, self.fault) {
            (true, Some(plan)) if !plan.is_empty() => {
                let servers = self.cluster_cfg.hservers + self.cluster_cfg.sservers;
                degraded = base_ctx.clone().with_health(plan.health_view(servers));
                &degraded
            }
            _ => base_ctx,
        };
        let mut cluster = Cluster::try_new(self.cluster_cfg.clone())?;
        let plan = self.scheme.planner().plan(self.trace, ctx);
        apply_plan(&mut cluster, &plan);
        let mut resolver = plan.make_resolver(ctx.lookup_cost);
        if let Some(faults) = self.fault {
            session.set_fault_plan(faults.clone());
        }
        if let Some(policy) = self.sched {
            session.set_sched_policy(policy);
        }
        session.run(ReplayInput::trace(&mut cluster, self.trace, resolver.as_mut()), self.core)
    }

    /// Run in a fresh session.
    pub fn run(&self) -> Result<ReplayReport, ReplayError> {
        self.run_in(&mut ReplaySession::new())
    }

    /// [`Self::run`], panicking on error — the ergonomic form for tests
    /// and experiments where every input is known-good.
    pub fn report(&self) -> ReplayReport {
        self.run().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace::gen::ior::{generate as gen_ior, IorConfig};
    use iotrace::gen::lanl::{generate as gen_lanl, LanlConfig};
    use storage_model::IoOp;

    fn ctx() -> PlannerContext {
        PlannerContext::for_cluster(&ClusterConfig::paper_default())
    }

    fn eval(scheme: Scheme, t: &Trace, cfg: &ClusterConfig, c: &PlannerContext) -> ReplayReport {
        Evaluation::of(scheme, t, cfg).context(c).report()
    }

    fn mixed_ior() -> Trace {
        let mut cfg = IorConfig::mixed_sizes(&[128 << 10, 256 << 10], IoOp::Write);
        cfg.reqs_per_proc = 16;
        cfg.proc_mix = vec![16];
        gen_ior(&cfg)
    }

    #[test]
    fn def_plan_is_empty() {
        let p = DefPlanner.plan(&mixed_ior(), &ctx());
        assert!(p.layouts.is_empty());
        assert!(matches!(p.resolver, PlanResolver::Identity));
        assert_eq!(p.scheme.name(), "DEF");
    }

    #[test]
    fn plan_with_placement_attaches_where_it_fits() {
        let t = mixed_ior();
        let plan = MhaPlanner.plan(&t, &ctx());
        assert!(!plan.layouts.is_empty());
        assert_eq!(plan.redundant_layouts(), 0, "plans start striped");
        let rep = plan.clone().with_placement(Placement::Replicated(3));
        for ((file, orig), (_, with)) in plan.layouts.iter().zip(&rep.layouts) {
            if orig.segment_count() >= 3 {
                assert_eq!(with.placement(), Placement::Replicated(3), "{file:?}");
            } else {
                assert!(with.placement().is_striped(), "{file:?} too narrow, stays striped");
            }
            // Geometry is untouched either way.
            assert_eq!(with.round_size(), orig.round_size(), "{file:?}");
        }
        // A placement no layout can hold degrades the whole plan to
        // striped instead of failing it.
        let huge = plan.clone().with_placement(Placement::ErasureCoded(64, 8));
        assert_eq!(huge.redundant_layouts(), 0);
    }

    #[test]
    fn aal_assigns_uniform_stripes() {
        let c = ctx();
        let p = AalPlanner.plan(&mixed_ior(), &c);
        assert_eq!(p.layouts.len(), 1);
        let (_, layout) = &p.layouts[0];
        // Uniform: every server carries the same stripe.
        let stripes: Vec<u64> = layout.servers().map(|s| layout.stripe_of(s)).collect();
        assert_eq!(stripes.len(), 8);
        assert!(stripes.windows(2).all(|w| w[0] == w[1]), "{stripes:?}");
        assert!(stripes[0] > 0);
    }

    #[test]
    fn harl_divides_file_into_fixed_regions() {
        let c = ctx();
        let t = mixed_ior();
        let p = HarlPlanner.plan(&t, &c);
        assert_eq!(p.regions.len(), 8, "harl_regions = 8");
        let PlanResolver::Drt(drt) = &p.resolver else {
            panic!("HARL must redirect")
        };
        // Every byte of the file extent is covered by exactly one region.
        let extent = t.file_extents()[&FileId(0)];
        let covered: u64 = drt.entries().iter().map(|e| e.length).sum();
        assert_eq!(covered, {
            let step = 4096;
            let rsize = extent.div_ceil(8).div_ceil(step) * step;
            (extent.div_ceil(rsize) - 1) * rsize + {
                let last = extent % rsize;
                if last == 0 {
                    rsize
                } else {
                    last
                }
            }
        });
        assert!(!p.rst.is_empty());
    }

    #[test]
    fn harl_stripe_pairs_differ_from_uniform() {
        let c = ctx();
        let p = HarlPlanner.plan(&mixed_ior(), &c);
        for (_, pair) in p.rst.iter() {
            assert!(pair.s > pair.h, "SServer stripe strictly larger: {pair:?}");
        }
    }

    #[test]
    fn mha_builds_regions_and_rst() {
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(10, IoOp::Write));
        let p = MhaPlanner.plan(&t, &c);
        assert!(!p.regions.is_empty());
        assert_eq!(p.rst.len(), p.regions.len());
        let PlanResolver::Drt(drt) = &p.resolver else {
            panic!("MHA must redirect")
        };
        assert!(!drt.is_empty());
        // Region bytes cover the trace bytes (plus alignment padding).
        let bytes: u64 = p.regions.iter().map(|r| r.len).sum();
        assert!(bytes >= t.total_bytes());
    }

    #[test]
    fn mha_separates_lanl_size_classes_into_regions() {
        let c = PlannerContext {
            grouping: GroupingConfig { k: 2, ..Default::default() },
            ..ctx()
        };
        let t = gen_lanl(&LanlConfig::paper(10, IoOp::Write));
        let p = MhaPlanner.plan(&t, &c);
        assert_eq!(p.regions.len(), 2);
        // The small-request region holds 16-byte extents only, one
        // aligned 4 KiB slot each: its length is loops · procs · 4096.
        let lens: Vec<u64> = p.regions.iter().map(|r| r.len).collect();
        let small = *lens.iter().min().expect("two regions");
        assert_eq!(small, 10 * 8 * 4096);
    }

    #[test]
    fn evaluate_runs_all_schemes() {
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(4, IoOp::Write));
        let cfg = ClusterConfig::paper_default();
        for scheme in Scheme::all() {
            let r = eval(scheme, &t, &cfg, &c);
            assert!(r.bandwidth_mbps() > 0.0, "{}: zero bandwidth", scheme.name());
            assert_eq!(r.total_bytes, t.total_bytes(), "{}", scheme.name());
        }
    }

    #[test]
    fn mha_beats_def_on_heterogeneous_lanl() {
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(12, IoOp::Write));
        let cfg = ClusterConfig::paper_default();
        let def = eval(Scheme::Def, &t, &cfg, &c);
        let mha = eval(Scheme::Mha, &t, &cfg, &c);
        assert!(
            mha.bandwidth_mbps() > def.bandwidth_mbps(),
            "MHA {} vs DEF {}",
            mha.bandwidth_mbps(),
            def.bandwidth_mbps()
        );
    }

    #[test]
    fn selective_zero_gain_migrates_everything() {
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(8, IoOp::Write));
        let p = MhaPlanner.plan(&t, &c);
        let PlanResolver::Drt(drt) = &p.resolver else { panic!() };
        assert!(!drt.is_empty());
        assert!(p.regions.iter().all(|r| r.len > 0));
    }

    #[test]
    fn selective_impossible_gain_migrates_nothing() {
        let c = PlannerContext { selective_min_gain: 10.0, ..ctx() };
        let t = gen_lanl(&LanlConfig::paper(8, IoOp::Write));
        let p = MhaPlanner.plan(&t, &c);
        let PlanResolver::Drt(drt) = &p.resolver else { panic!() };
        assert!(drt.is_empty(), "no group can gain 1000%");
        assert!(p.rst.is_empty());
        // Replay still works: everything falls back to the original file.
        let r = eval(Scheme::Mha, &t, &ClusterConfig::paper_default(), &c);
        assert_eq!(r.total_bytes, t.total_bytes());
    }

    #[test]
    fn selective_moderate_gain_keeps_high_value_regions() {
        // LANL's large-request groups gain hugely over DEF; a moderate
        // threshold keeps them while still migrating less than everything
        // OR everything if all groups clear the bar — but never nothing.
        let c = PlannerContext { selective_min_gain: 0.3, ..ctx() };
        let t = gen_lanl(&LanlConfig::paper(8, IoOp::Write));
        let p = MhaPlanner.plan(&t, &c);
        let migrated: u64 = p.regions.iter().map(|r| r.len).sum();
        assert!(migrated > 0, "high-gain regions must be kept");
        let cfg = ClusterConfig::paper_default();
        let sel = eval(Scheme::Mha, &t, &cfg, &c);
        let def = eval(Scheme::Def, &t, &cfg, &ctx());
        assert!(sel.bandwidth_mbps() > def.bandwidth_mbps());
    }

    #[test]
    fn scheme_enum_roundtrip() {
        for s in Scheme::all() {
            assert_eq!(s.planner().name(), s.name());
        }
    }

    #[test]
    fn pristine_health_plans_identically() {
        // All-nominal health must change nothing: same effective params
        // (bit for bit) and the same MHA plan.
        let base = ctx();
        let nominal = ctx().with_health(vec![ServerHealth::nominal(); 8]);
        let e0 = base.effective_params();
        let e1 = nominal.effective_params();
        assert_eq!((e1.m, e1.n), (6, 2));
        assert_eq!(e0.alpha_h.to_bits(), e1.alpha_h.to_bits());
        assert_eq!(e0.beta_sw.to_bits(), e1.beta_sw.to_bits());
        let t = gen_lanl(&LanlConfig::paper(6, IoOp::Write));
        let p0 = MhaPlanner.plan(&t, &base);
        let p1 = MhaPlanner.plan(&t, &nominal);
        assert_eq!(p0.layouts.len(), p1.layouts.len());
        for ((f0, l0), (f1, l1)) in p0.layouts.iter().zip(&p1.layouts) {
            assert_eq!(f0, f1);
            assert_eq!(l0.round_size(), l1.round_size());
            assert!(l0.servers().eq(l1.servers()));
        }
    }

    #[test]
    fn dead_and_excluded_servers_drop_out_of_new_layouts() {
        // HServer 0 is lost, SServer 6 is slowed past the exclusion
        // threshold: no planner may place new data on either.
        let faults = FaultPlan::none().down(0, 0.0).slow_server(6, 4.0);
        let c = ctx().with_health(faults.health_view(8));
        assert!(!c.server_usable(0) && !c.server_usable(6));
        let eff = c.effective_params();
        assert_eq!((eff.m, eff.n), (5, 1));
        let t = gen_lanl(&LanlConfig::paper(6, IoOp::Write));
        for scheme in [Scheme::Aal, Scheme::Harl, Scheme::Mha] {
            let p = scheme.planner().plan(&t, &c);
            assert!(!p.layouts.is_empty(), "{}", scheme.name());
            for (_, layout) in &p.layouts {
                assert!(
                    layout.servers().all(|s| s.0 != 0 && s.0 != 6),
                    "{} placed data on a dead/excluded server",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn surviving_slowdowns_reweight_the_cost_model() {
        // A tolerable (below-threshold) straggler stays usable but
        // inflates its class's service terms.
        let faults = FaultPlan::none().slow_server(0, 2.0);
        let c = ctx().with_health(faults.health_view(8));
        assert!(c.server_usable(0));
        let eff = c.effective_params();
        assert_eq!((eff.m, eff.n), (6, 2));
        let mean = (2.0 + 5.0) / 6.0;
        assert!((eff.alpha_h / c.params.alpha_h - mean).abs() < 1e-12);
        assert_eq!(eff.alpha_sr.to_bits(), c.params.alpha_sr.to_bits());
    }

    #[test]
    fn replanning_beats_static_mha_under_a_straggler() {
        // The degraded-mode payoff: MHA re-planned around a straggling
        // SServer (which its layouts lean on for LANL's small requests)
        // outperforms the same scheme planned blind.
        let cfg = ClusterConfig::paper_default();
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(8, IoOp::Write));
        let faults = FaultPlan::none().slow_server(6, 8.0);
        let blind = Evaluation::of(Scheme::Mha, &t, &cfg)
            .context(&c)
            .faults(&faults)
            .report();
        let replanned = Evaluation::of(Scheme::Mha, &t, &cfg)
            .context(&c)
            .faults(&faults)
            .replan_around_faults(true)
            .report();
        assert!(
            replanned.bandwidth_mbps() > blind.bandwidth_mbps(),
            "replanned {} <= blind {}",
            replanned.bandwidth_mbps(),
            blind.bandwidth_mbps()
        );
    }

    #[test]
    fn evaluation_with_empty_faults_is_bit_identical() {
        let cfg = ClusterConfig::paper_default();
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(4, IoOp::Write));
        let plain = eval(Scheme::Mha, &t, &cfg, &c);
        let empty = FaultPlan::none();
        let faultless = Evaluation::of(Scheme::Mha, &t, &cfg)
            .context(&c)
            .faults(&empty)
            .replan_around_faults(true)
            .report();
        assert_eq!(plain, faultless);
    }

    #[test]
    fn pinned_schedule_evaluation_matches_the_builder() {
        // Hoisting the replay schedule into a pinned session changes
        // where the ordering work happens, never the report.
        let c = ctx();
        let t = gen_lanl(&LanlConfig::paper(4, IoOp::Write));
        let cfg = ClusterConfig::paper_default();
        let via_builder = eval(Scheme::Harl, &t, &cfg, &c);
        let schedule = pfs_sim::ReplaySchedule::for_trace(&t);
        let mut pinned = ReplaySession::new().with_schedule(schedule);
        let via_sched = Evaluation::of(Scheme::Harl, &t, &cfg)
            .context(&c)
            .run_in(&mut pinned)
            .expect("pinned evaluation");
        assert_eq!(via_builder, via_sched);
    }
}
