//! Online incremental re-planning over windowed traces.
//!
//! The offline MHA flow plans once from a full profiled trace. The
//! online loop instead sees the trace as a sequence of windows (a
//! service job, or a run of phases from [`iotrace::Trace::phase_windows`])
//! and keeps an [`OnlinePlanner`] that decides, per window:
//!
//! 1. **Quiet or drifted?** The window's summary signature (mean
//!    request size, size CV, peak concurrency, offset heat), computed
//!    here from one [`TraceStats`] rescan of the window, is compared
//!    against the previous window's; movement below `DRIFT_THRESHOLD`
//!    (0.25) on every component (relative change, and total-variation
//!    distance for the heat) means the current plan still fits and the
//!    window costs nothing but the rescan and the comparison.
//! 2. **Incremental regroup.** A drifted window re-runs Algorithm 1
//!    *seeded from the previous window's centroids*
//!    (`crate::grouping::group_requests_seeded`): converged seeds
//!    make the k-means exit after one assignment pass, so the regroup
//!    cost tracks how far the workload actually moved.
//! 3. **Selective RSSD.** Each new group is matched to the nearest
//!    cached group of the previous plan (normalized Eq. 1 distance).
//!    Groups whose centroid moved less than `CENTER_TOLERANCE` (0.05)
//!    and whose byte load changed by less than `LOAD_TOLERANCE` (0.5)
//!    reuse the cached stripe pair; only genuinely moved groups pay the
//!    exhaustive `<h, s>` search.
//!
//! The emitted [`Plan`] is MHA-shaped (regions, DRT, RST) but built
//! single-pass: the offline planner's second repack-to-stripe pass
//! trades plan latency for extent-pitch alignment, which is the wrong
//! trade while requests are waiting. Region files advance
//! generationally (each replan allocates fresh region file ids above
//! all previous ones), so a new plan's DRT entries can be handed
//! straight to [`crate::dynamic::LazyMigrator::add_pending`]: extents
//! that were already published carry forward, superseded unmigrated
//! redirects get cancelled, and the copies happen lazily on first
//! access.
//!
//! [`crate::TenantPipeline`] is the one driver of this loop: it feeds
//! each window to `OnlinePlanner::observe`, commits and journals the
//! plan, and returns its layouts to install.

use crate::grouping::{group_requests_seeded, GroupIndex, Grouping};
use crate::pattern::{FeatureSpace, Points, ReqFeature, TracePoints};
use crate::region::{migrate, RegionViews};
use crate::rssd::{rssd, StripePair};
use crate::schemes::{Plan, PlanResolver, PlannerContext, Scheme};
use iotrace::{Trace, TraceStats};

/// Movement of any signature component past which a window is
/// *drifted* and triggers a replan: relative change of the mean request,
/// size CV or peak concurrency, or total-variation distance between the
/// offset heat histograms. Matches the dynamic optimizer's default.
const DRIFT_THRESHOLD: f64 = 0.25;

/// Normalized Eq. 1 distance below which a group's centroid is
/// considered unmoved and its cached stripe pair is reused.
const CENTER_TOLERANCE: f64 = 0.05;

/// Relative byte-load change below which pair reuse is allowed.
const LOAD_TOLERANCE: f64 = 0.5;

/// How the online loop migrates: the two options callers set
/// differently. The drift trigger and the pair-reuse tolerances are
/// fixed (`DRIFT_THRESHOLD`, `CENTER_TOLERANCE`, `LOAD_TOLERANCE`). The
/// defaults migrate exact extents; a zero in either field behaves
/// exactly like 1.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Unit of lazy migration, bytes: every migrated extent is rounded
    /// outward to this block in the *original* file, so a plan built
    /// from one window's sample redirects the whole spatial
    /// neighborhood it profiled — future requests landing near (not
    /// exactly on) profiled offsets still resolve to the region file.
    /// `1` migrates exactly the profiled byte ranges (the offline
    /// planner's behavior, appropriate when the replayed trace is the
    /// profiled trace).
    pub coverage_block: u64,
    /// Minimum profiled accesses a coverage block needs before it is
    /// migrated (only meaningful with `coverage_block > 1`). Zipf-tail
    /// blocks seen once in a window rarely earn their copy back —
    /// leaving them in place keeps lazy-migration traffic proportional
    /// to the *hot* set. `1` migrates every profiled block.
    pub coverage_min_hits: u32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            coverage_block: 1,
            coverage_min_hits: 1,
        }
    }
}

/// Records per octave of start offset, as [`TraceStats::heat`] bins them.
type Heat = [u64; 8];

/// A window's drift signature: the summary statistics the replan
/// trigger compares, taken from the window's [`TraceStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct WindowSig {
    /// Mean request size, bytes.
    mean_request: f64,
    /// Request-size coefficient of variation.
    size_cv: f64,
    /// Peak per-(file, phase) concurrency.
    max_concurrency: u32,
    /// Offset heat — the spatial component: a hot-spot move drifts it
    /// even when the size mix holds still.
    heat: Heat,
}

impl WindowSig {
    /// The signature of `trace` (one full rescan).
    fn of(trace: &Trace) -> Self {
        let s = TraceStats::of(trace);
        WindowSig {
            mean_request: s.mean_request,
            size_cv: s.size_cv,
            max_concurrency: s.max_concurrency,
            heat: s.heat,
        }
    }

    /// Has this signature moved past `threshold` relative to `prev` on
    /// any component? (The same test the dynamic optimizer applies to
    /// full epoch statistics.)
    fn drifted_from(&self, prev: &WindowSig, threshold: f64) -> bool {
        rel_change(self.mean_request, prev.mean_request) > threshold
            || rel_change(self.size_cv, prev.size_cv) > threshold
            || rel_change(
                f64::from(self.max_concurrency),
                f64::from(prev.max_concurrency),
            ) > threshold
            || heat_distance(&self.heat, &prev.heat) > threshold
    }
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplanStats {
    /// Windows observed.
    pub windows: usize,
    /// Windows dismissed as quiet (no replan).
    pub quiet_windows: usize,
    /// Replans performed.
    pub replans: usize,
    /// RSSD searches actually run across all replans.
    pub searches_run: usize,
    /// RSSD searches skipped by centroid/load pair reuse.
    pub searches_reused: usize,
}

/// What [`OnlinePlanner::observe`] decided for a window.
pub(crate) enum Replan {
    /// The window's signature is within the drift threshold of the
    /// previous one — keep the installed plan.
    Quiet,
    /// A fresh plan; [`ReplanStats`] counts how many of its region
    /// stripe pairs were carried over from the previous plan's cache.
    Plan {
        /// The new MHA-shaped plan (hand its DRT entries to the lazy
        /// migrator, install its layouts and RST).
        plan: Plan,
    },
}

/// Cached per-group outcome of the previous replan.
#[derive(Debug, Clone, Copy)]
struct GroupCache {
    center: ReqFeature,
    load: f64,
    pair: Option<StripePair>,
}

/// The online re-planner: windowed drift detection, centroid-seeded
/// regrouping, and per-group RSSD reuse. See the module docs for the
/// loop structure and DESIGN.md §15 for the invariants.
pub struct OnlinePlanner {
    ctx: PlannerContext,
    cfg: OnlineConfig,
    sig: Option<WindowSig>,
    centers: Vec<ReqFeature>,
    cache: Vec<GroupCache>,
    next_region_file: u32,
    /// Running counters (windows, replans, search reuse).
    pub stats: ReplanStats,
}

impl OnlinePlanner {
    /// A fresh planner; the first observed window always plans.
    pub(crate) fn new(ctx: PlannerContext, cfg: OnlineConfig) -> Self {
        let next_region_file = ctx.region_file_base;
        OnlinePlanner {
            ctx,
            cfg,
            sig: None,
            centers: Vec::new(),
            cache: Vec::new(),
            next_region_file,
            stats: ReplanStats::default(),
        }
    }

    /// Observe one window (its records as `trace`) and decide whether
    /// to replan. The window's signature costs one rescan of `trace`.
    pub(crate) fn observe(&mut self, trace: &Trace) -> Replan {
        let sig = WindowSig::of(trace);
        self.stats.windows += 1;
        if let Some(prev) = &self.sig {
            if !sig.drifted_from(prev, DRIFT_THRESHOLD) {
                self.stats.quiet_windows += 1;
                self.sig = Some(sig);
                return Replan::Quiet;
            }
        }
        self.sig = Some(sig);
        self.stats.replans += 1;
        self.replan(trace)
    }

    /// Build a plan for `trace`, reusing the previous generation's
    /// stripe pairs for groups that did not move.
    fn replan(&mut self, trace: &Trace) -> Replan {
        let params = self.ctx.effective_params();
        let records = trace.records();
        // One concurrency annotation serves the grouping and the views:
        // widening keeps every record's file and phase. The k-means
        // streams its points from the trace, and one group index serves
        // both region builds and the load gate.
        let conc = trace.concurrency();
        let points = TracePoints::new(records, &conc);
        let grouping = group_requests_seeded(&points, &self.ctx.grouping, &self.centers);
        let space = FeatureSpace::fit(points.iter_from(0));
        let index = GroupIndex::new(&grouping);
        let Grouping { centers, .. } = grouping;
        let groups = centers.len();
        let base = self.next_region_file;
        let base_align = self.ctx.region_align.unwrap_or(self.ctx.rssd.step.max(4096));
        let aligns = vec![base_align; groups];
        let include = vec![true; groups];
        let exact = migrate(records, &index, base, &aligns, &include);
        // With a coverage block, the *migrated* extents are the profiled
        // extents rounded outward to block granularity in the original
        // file — one window's sample then redirects its whole spatial
        // neighborhood. The RSSD search below still scores the exact
        // per-request views: stripe sizing must follow the real request
        // mix, not the widened copy units.
        let widened = (self.cfg.coverage_block > 1).then(|| {
            let b = self.cfg.coverage_block;
            let mut hits: std::collections::HashMap<(u32, u64), u32> = std::collections::HashMap::new();
            if self.cfg.coverage_min_hits > 1 {
                for r in trace.records() {
                    *hits.entry((r.file.0, r.offset / b)).or_insert(0) += 1;
                }
            }
            // Cold-block records keep `len: 0`: the region builder
            // skips them, so their bytes stay in the original file
            // (served at the default layout, but never paying a copy).
            let widened: Vec<iotrace::TraceRecord> = trace
                .records()
                .iter()
                .map(|r| {
                    let hot = self.cfg.coverage_min_hits <= 1
                        || hits.get(&(r.file.0, r.offset / b)).copied().unwrap_or(0)
                            >= self.cfg.coverage_min_hits;
                    let start = r.offset / b * b;
                    let end = (r.offset + r.len).div_ceil(b) * b;
                    let len = if hot { end - start } else { 0 };
                    iotrace::TraceRecord { offset: start, len, ..r }
                })
                .collect();
            migrate(Trace::from_records(widened).records(), &index, base, &aligns, &include)
        });
        let regions = &widened.as_ref().unwrap_or(&exact).0;

        // Per-group byte load: the second reuse gate. A group whose
        // centroid held still but whose traffic doubled deserves a
        // fresh search — the concurrency-aware cost model is load-
        // sensitive.
        let load_of = |g: usize| -> f64 {
            let mut records = records.cursor();
            index.members(g).iter().map(|&i| records.get(i as usize).len as f64).sum()
        };

        // The exact views are counted only once a region needs a search,
        // and each searched region's views live only for its search.
        let mut views: Option<RegionViews<'_>> = None;
        let mut reused = 0usize;
        let mut searched = 0usize;
        let mut new_cache: Vec<GroupCache> = Vec::with_capacity(regions.len());
        let mut layouts = Vec::new();
        let mut rst = crate::region::Rst::new();
        for region in regions {
            let g = region.group;
            let center = centers[g];
            let load = load_of(g);
            let cached = self
                .cache
                .iter()
                .min_by(|a, b| {
                    space
                        .distance_sq(&a.center, &center)
                        .total_cmp(&space.distance_sq(&b.center, &center))
                })
                .copied();
            let pair = match cached {
                Some(c)
                    if space.distance(&c.center, &center) <= CENTER_TOLERANCE
                        && rel_change(c.load, load) <= LOAD_TOLERANCE =>
                {
                    reused += 1;
                    c.pair
                }
                _ => {
                    searched += 1;
                    let views = views.get_or_insert_with(|| {
                        RegionViews::new(records, &conc, &exact.1, base, groups)
                    });
                    rssd(&views.region(g), &params, &self.ctx.rssd).map(|r| r.pair)
                }
            };
            if let Some(p) = pair {
                rst.set(region.file, p);
                if let Some(layout) = self.ctx.layout_for(p.h, p.s) {
                    layouts.push((region.file, layout));
                }
            }
            new_cache.push(GroupCache { center, load, pair });
        }
        drop(views);
        self.stats.searches_run += searched;
        self.stats.searches_reused += reused;
        self.centers = centers;
        self.cache = new_cache;
        self.next_region_file += regions.len() as u32;
        let (regions, drt) = widened.unwrap_or(exact);

        Replan::Plan {
            plan: Plan {
                scheme: Scheme::Mha,
                layouts,
                resolver: PlanResolver::Drt(drt),
                rst,
                regions,
            },
        }
    }
}

/// Total-variation distance between two heat histograms: half the L1
/// distance between their normalized bins, 0 for the same shape and 1
/// for disjoint ones. An empty histogram normalizes to all zeros.
fn heat_distance(a: &Heat, b: &Heat) -> f64 {
    let total = |h: &Heat| h.iter().sum::<u64>().max(1) as f64;
    let (na, nb) = (total(a), total(b));
    let mut l1 = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        l1 += (x as f64 / na - y as f64 / nb).abs();
    }
    l1 / 2.0
}

/// Relative change between two magnitudes (0 when both are zero).
pub(crate) fn rel_change(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Drt;
    use iotrace::gen::skewed::{self, SkewedConfig};
    use pfs_sim::ClusterConfig;
    use storage_model::IoOp;

    fn ctx() -> PlannerContext {
        PlannerContext::for_cluster(&ClusterConfig::paper_default())
    }

    fn skewed_trace(request_size: u64, phases: usize, seed: u64) -> Trace {
        let mut cfg = SkewedConfig::default_run(IoOp::Read);
        cfg.procs = 8;
        cfg.phases = phases;
        cfg.request_size = request_size;
        cfg.seed = seed;
        skewed::generate(&cfg)
    }

    #[test]
    fn first_window_always_plans() {
        let mut planner = OnlinePlanner::new(ctx(), OnlineConfig::default());
        let t = skewed_trace(64 << 10, 8, 1);
        match planner.observe(&t) {
            Replan::Plan { plan, .. } => {
                assert!(!plan.regions.is_empty());
                let PlanResolver::Drt(drt) = &plan.resolver else { panic!("MHA redirects") };
                assert!(!drt.is_empty());
            }
            Replan::Quiet => panic!("a cold planner has no plan to keep"),
        }
        assert_eq!(planner.stats.replans, 1);
    }

    #[test]
    fn steady_windows_are_quiet_and_reuse_everything_on_a_forced_replan() {
        let mut planner = OnlinePlanner::new(ctx(), OnlineConfig::default());
        let windows = [skewed_trace(64 << 10, 8, 1), skewed_trace(64 << 10, 8, 2)];
        assert!(matches!(planner.observe(&windows[0]), Replan::Plan { .. }));
        assert!(
            matches!(planner.observe(&windows[1]), Replan::Quiet),
            "same workload shape, different sample: quiet"
        );
        assert_eq!(planner.stats.quiet_windows, 1);
        // Force a replan of an unchanged workload by observing a window
        // with a cooked signature: every group should reuse its pair.
        let forced = WindowSig {
            mean_request: 1.0,
            size_cv: 0.0,
            max_concurrency: 1,
            heat: [0; 8],
        };
        planner.sig = Some(forced);
        let before = planner.stats;
        let replan = planner.observe(&windows[1]);
        assert!(matches!(replan, Replan::Plan { .. }), "cooked signature must drift");
        let searched = planner.stats.searches_run - before.searches_run;
        assert!(searched == 0, "unmoved groups must not re-search ({searched} did)");
        assert!(planner.stats.searches_reused > before.searches_reused);
    }

    #[test]
    fn phase_shift_triggers_a_replan_with_fresh_searches() {
        let mut planner = OnlinePlanner::new(ctx(), OnlineConfig::default());
        let before = skewed_trace(16 << 10, 8, 1);
        let after = skewed_trace(512 << 10, 8, 1);
        assert!(matches!(planner.observe(&before), Replan::Plan { .. }));
        let searched = planner.stats.searches_run;
        let replan = planner.observe(&after);
        assert!(matches!(replan, Replan::Plan { .. }), "32x request-size shift must drift");
        assert!(planner.stats.searches_run > searched, "a 32x request-size shift must re-search");
        assert_eq!(planner.stats.replans, 2);
    }

    #[test]
    fn hot_spot_move_drifts_even_with_an_unchanged_size_mix() {
        use iotrace::TraceRecord;
        let mut planner = OnlinePlanner::new(ctx(), OnlineConfig::default());
        let before = skewed_trace(64 << 10, 8, 1);
        let span = before.records().iter().map(|r| r.offset).max().unwrap() + (64 << 10);
        // Same records, hot spot rotated half the span away: sizes and
        // concurrency are untouched, only the spatial signature moves.
        let after = Trace::from_records(
            before
                .records()
                .iter()
                .map(|r| TraceRecord {
                    offset: ((r.offset + span / 2) % span).min(span - r.len),
                    ..r
                })
                .collect(),
        );
        assert!(matches!(planner.observe(&before), Replan::Plan { .. }));
        assert!(
            matches!(planner.observe(&after), Replan::Plan { .. }),
            "a span-scale offset move must replan"
        );
    }

    #[test]
    fn coverage_block_widens_migrated_extents_without_distorting_regions() {
        let exact = OnlineConfig::default();
        let block = OnlineConfig { coverage_block: 1 << 20, ..OnlineConfig::default() };
        let t = skewed_trace(64 << 10, 8, 5);
        let plan_of = |cfg: OnlineConfig| {
            let mut p = OnlinePlanner::new(ctx(), cfg);
            let Replan::Plan { plan, .. } = p.observe(&t) else { panic!("cold plan") };
            plan
        };
        let (pe, pb) = (plan_of(exact), plan_of(block));
        let PlanResolver::Drt(de) = &pe.resolver else { panic!() };
        let PlanResolver::Drt(db) = &pb.resolver else { panic!() };
        // Every exact byte stays covered, block alignment holds, and
        // the widened table never redirects *less*.
        for e in de.entries() {
            let phys = db.translate(e.o_file, e.o_offset, e.length);
            assert!(
                phys.iter().all(|p| p.file != e.o_file),
                "widened plan must still redirect {e:?}"
            );
        }
        for e in db.entries() {
            assert_eq!(e.o_offset % (1 << 20), 0, "block-aligned start: {e:?}");
            assert_eq!(e.length % (1 << 20), 0, "block-aligned length: {e:?}");
        }
        // Stripe decisions follow the real request mix, not the widened
        // copies: both plans chose from identical per-request views.
        for (re, rb) in pe.regions.iter().zip(&pb.regions) {
            assert_eq!(pe.rst.get(re.file), pb.rst.get(rb.file));
        }
    }

    #[test]
    fn generations_never_reuse_region_files() {
        let mut planner = OnlinePlanner::new(ctx(), OnlineConfig::default());
        let mut seen = std::collections::HashSet::new();
        for (i, size) in [16 << 10, 512 << 10, 16 << 10].iter().enumerate() {
            let t = skewed_trace(*size, 8, i as u64 + 1);
            if let Replan::Plan { plan, .. } = planner.observe(&t) {
                for r in &plan.regions {
                    assert!(seen.insert(r.file), "region file {:?} reused across plans", r.file);
                }
            }
        }
        assert!(planner.stats.replans >= 2);
    }

    #[test]
    fn zero_coverage_knobs_plan_exactly_like_one() {
        let t = skewed_trace(64 << 10, 8, 5);
        let plan_of = |coverage_block, coverage_min_hits| {
            let cfg = OnlineConfig { coverage_block, coverage_min_hits };
            let Replan::Plan { plan, .. } = OnlinePlanner::new(ctx(), cfg).observe(&t) else {
                panic!("cold plan")
            };
            format!("{plan:?}")
        };
        assert_eq!(plan_of(0, 1), plan_of(1, 1), "a zero block migrates exact extents");
        assert_eq!(plan_of(1 << 20, 0), plan_of(1 << 20, 1), "zero hits migrate every block");
        assert_ne!(plan_of(1 << 20, 1), plan_of(1 << 20, 2), "the heat gate is live here");
    }

    #[test]
    fn online_plan_entries_feed_the_lazy_migrator_shape() {
        // The plan's DRT entries must be disjoint per original file —
        // the contract add_pending's cancellation logic assumes.
        let mut planner = OnlinePlanner::new(ctx(), OnlineConfig::default());
        let t = skewed_trace(64 << 10, 8, 3);
        let Replan::Plan { plan, .. } = planner.observe(&t) else { panic!() };
        let PlanResolver::Drt(drt) = &plan.resolver else { panic!() };
        let mut probe = Drt::new();
        for e in drt.entries() {
            assert!(probe.insert(e), "plan entries must be disjoint: {e:?}");
        }
    }
}
