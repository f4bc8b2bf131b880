//! Algorithm 1: iterative request grouping.
//!
//! A bounded k-means over (size, concurrency) feature points with the
//! Eq. 1 normalized distance. Faithful to the paper:
//!
//! * if there are no more points than groups, every point seeds its own
//!   group (the paper seeds centers from randomly selected requests),
//! * otherwise centers refine iteratively — assign each point to its
//!   nearest center, recompute centers — until the centers stop changing
//!   or the iteration cap (3, per the paper) is hit,
//! * `k` is capped to bound the number of regions and thus metadata
//!   overhead (§III-D).
//!
//! The refinement loop is chunked: nearest-center assignment and the
//! per-group feature sums are computed per fixed-size chunk of points
//! (in parallel with rayon on large inputs) and the chunk partials are
//! folded **in chunk index order**. That ordered reduction makes the
//! arithmetic — and therefore the grouping — independent of worker
//! count and bit-identical between the serial and parallel paths.

use crate::pattern::{FeatureSpace, ReqFeature};
use rayon::prelude::*;
use simrt::SeedSeq;

/// Fixed reduction chunk size. Partial sums are produced per `CHUNK`
/// points and folded in chunk order, so results never depend on how
/// rayon schedules the chunks.
const CHUNK: usize = 4096;

/// Below this many points the parallel path's spawn overhead outweighs
/// the work. Both paths are bit-identical, so the cutover is purely a
/// performance knob.
const PAR_MIN_POINTS: usize = 4 * CHUNK;

/// Refinement iteration cap: Algorithm 1's bound of 3.
const MAX_ITERS: usize = 3;

/// Grouping configuration.
#[derive(Debug, Clone)]
pub struct GroupingConfig {
    /// Upper bound on the number of groups (regions).
    pub k: usize,
    /// Seed for the initial center choice.
    pub seed: u64,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig { k: 8, seed: 0x6120 }
    }
}

/// Result of grouping: per-point group assignment plus group centers.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// `assignment[i]` is the group of point `i` (dense ids `0..groups`).
    pub assignment: Vec<usize>,
    /// Group centers, indexed by group id.
    pub centers: Vec<ReqFeature>,
    /// Refinement iterations actually performed.
    pub iterations: usize,
}

impl Grouping {
    /// Number of (non-empty) groups.
    pub fn groups(&self) -> usize {
        self.centers.len()
    }
}

/// Members-of-group index over a [`Grouping`]: one counting-sort pass
/// over the assignment replaces every O(n) `members(g)` rescan with a
/// borrowed slice lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupIndex {
    /// Per group `g`: `starts[g]..starts[g + 1]` slices `members`.
    starts: Vec<u32>,
    /// Point indices grouped by group id, ascending within each group.
    members: Vec<u32>,
}

impl GroupIndex {
    /// Index a grouping.
    pub(crate) fn new(grouping: &Grouping) -> Self {
        Self::from_assignment(&grouping.assignment, grouping.groups())
    }

    /// Index a raw assignment over dense group ids `0..groups`.
    pub(crate) fn from_assignment(assignment: &[usize], groups: usize) -> Self {
        assert!(assignment.len() < u32::MAX as usize, "group index is u32-sized");
        let mut starts = vec![0u32; groups + 1];
        for &a in assignment {
            starts[a + 1] += 1;
        }
        for g in 0..groups {
            starts[g + 1] += starts[g];
        }
        let mut cursor: Vec<u32> = starts[..groups].to_vec();
        let mut members = vec![0u32; assignment.len()];
        for (i, &a) in assignment.iter().enumerate() {
            let c = &mut cursor[a];
            members[*c as usize] = i as u32;
            *c += 1;
        }
        GroupIndex { starts, members }
    }

    /// Point indices of group `g`, ascending — borrowed, no allocation.
    pub(crate) fn members(&self, g: usize) -> &[u32] {
        &self.members[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

/// Run Algorithm 1 on `points`. Dispatches to the rayon-parallel path on
/// large inputs; both paths are bit-identical (see the module docs and
/// the `grouping_serial_matches_parallel_*` property tests).
pub fn group_requests(points: &[ReqFeature], cfg: &GroupingConfig) -> Grouping {
    run(points, cfg, points.len() >= PAR_MIN_POINTS)
}

/// Algorithm 1 re-seeded from a previous window's centers — the
/// incremental path of the online re-planner.
///
/// Instead of the k-means++-style farthest-point seeding, refinement
/// starts from `seeds` (a previous [`Grouping::centers`]), extended by
/// farthest-point selection up to `cfg.k` when the seed set is smaller
/// (so a workload that grows a new feature cluster can still claim a
/// fresh group). On a quiet window the seeds are already converged for
/// the new points, the first update step changes nothing, and the loop
/// exits after a single assignment pass — that is what makes a quiet
/// window cost near zero. Empty `seeds` falls back to the cold path.
pub(crate) fn group_requests_seeded(
    points: &[ReqFeature],
    cfg: &GroupingConfig,
    seeds: &[ReqFeature],
) -> Grouping {
    run_from(points, cfg, seeds, points.len() >= PAR_MIN_POINTS)
}

fn run(points: &[ReqFeature], cfg: &GroupingConfig, parallel: bool) -> Grouping {
    run_from(points, cfg, &[], parallel)
}

fn run_from(
    points: &[ReqFeature],
    cfg: &GroupingConfig,
    seeds: &[ReqFeature],
    parallel: bool,
) -> Grouping {
    assert!(cfg.k > 0, "need at least one group");
    if points.is_empty() {
        return Grouping { assignment: Vec::new(), centers: Vec::new(), iterations: 0 };
    }
    let space = FeatureSpace::fit(points);
    if points.len() <= cfg.k {
        // Fewer points than groups: each point is its own group.
        return Grouping {
            assignment: (0..points.len()).collect(),
            centers: points.to_vec(),
            iterations: 0,
        };
    }

    let mut centers = if seeds.is_empty() {
        initial_centers(points, cfg.k, cfg.seed, &space, parallel)
    } else {
        extend_centers(points, seeds.to_vec(), cfg.k, &space, parallel)
    };
    let k = centers.len();
    let mut assignment = vec![0usize; points.len()];
    let n_chunks = points.len().div_ceil(CHUNK);
    // One partial-sum row per chunk, reused across iterations.
    let mut partials = vec![(0.0f64, 0.0f64, 0usize); n_chunks * k];
    let mut iterations = 0;
    for _ in 0..MAX_ITERS {
        iterations += 1;
        // Assignment step: nearest center (Eq. 1 distance) per chunk,
        // with per-chunk per-group feature sums.
        if parallel {
            assignment
                .par_chunks_mut(CHUNK)
                .zip(points.par_chunks(CHUNK))
                .zip(partials.par_chunks_mut(k))
                .for_each(|((a_chunk, p_chunk), sums)| {
                    assign_chunk(p_chunk, &centers, &space, a_chunk, sums)
                });
        } else {
            for ((a_chunk, p_chunk), sums) in assignment
                .chunks_mut(CHUNK)
                .zip(points.chunks(CHUNK))
                .zip(partials.chunks_mut(k))
            {
                assign_chunk(p_chunk, &centers, &space, a_chunk, sums);
            }
        }
        // Update step: centroid of each group, from the chunk partials
        // folded in chunk index order (deterministic reduction).
        let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
        for chunk in partials.chunks(k) {
            for (s, c) in sums.iter_mut().zip(chunk) {
                s.0 += c.0;
                s.1 += c.1;
                s.2 += c.2;
            }
        }
        let mut changed = false;
        for (c, &(sx, sy, n)) in centers.iter_mut().zip(&sums) {
            if n == 0 {
                continue; // empty group keeps its center
            }
            let next = ReqFeature { size: sx / n as f64, concurrency: sy / n as f64 };
            if space.distance(c, &next) > 1e-12 {
                *c = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    compact(assignment, centers, iterations)
}

/// Assign each point of one chunk to its nearest center and accumulate
/// the chunk's per-group `(Σsize, Σconcurrency, count)` partials.
fn assign_chunk(
    points: &[ReqFeature],
    centers: &[ReqFeature],
    space: &FeatureSpace,
    assignment: &mut [usize],
    sums: &mut [(f64, f64, usize)],
) {
    for s in sums.iter_mut() {
        *s = (0.0, 0.0, 0);
    }
    for (a, p) in assignment.iter_mut().zip(points) {
        let g = nearest(centers, p, space);
        *a = g;
        let s = &mut sums[g];
        s.0 += p.size;
        s.1 += p.concurrency;
        s.2 += 1;
    }
}

/// Seed centers: k-means++-style — first center random, each next center
/// the point farthest from its nearest chosen center (ties resolve to
/// the last maximum, matching `Iterator::max_by`). Deterministic given
/// the seed. Each point's minimum distance is maintained incrementally
/// against the newest center instead of rescanned over all centers —
/// `min` is exact, so the maintained value equals the rescan's.
fn initial_centers(
    points: &[ReqFeature],
    k: usize,
    seed: u64,
    space: &FeatureSpace,
    parallel: bool,
) -> Vec<ReqFeature> {
    let mut rng = SeedSeq::new(seed).derive("grouping").rng();
    extend_centers(points, vec![points[rng.gen_range(0..points.len())]], k, space, parallel)
}

/// Grow a nonempty center set to `k` by farthest-point selection (the
/// loop of [`initial_centers`], shared with the seeded path). Centers
/// beyond `k` are dropped; with one starting center this is exactly the
/// original seeding loop, bit for bit.
fn extend_centers(
    points: &[ReqFeature],
    mut centers: Vec<ReqFeature>,
    k: usize,
    space: &FeatureSpace,
    parallel: bool,
) -> Vec<ReqFeature> {
    debug_assert!(!centers.is_empty(), "extension needs a starting center");
    centers.truncate(k.max(1));
    let mut min_sq = vec![f64::INFINITY; points.len()];
    // Fold all but the newest center into the maintained minimum (a
    // no-op for the cold single-center start); the loop below folds the
    // newest one exactly as the original seeding did.
    for c in &centers[..centers.len() - 1] {
        for (p, m) in points.iter().zip(min_sq.iter_mut()) {
            let d = space.distance_sq(p, c);
            if d < *m {
                *m = d;
            }
        }
    }
    while centers.len() < k {
        let newest = *centers.last().expect("centers nonempty");
        let scan = |(ci, (p_chunk, m_chunk)): (usize, (&[ReqFeature], &mut [f64]))| {
            let mut best = f64::NEG_INFINITY;
            let mut best_i = 0usize;
            for (j, (p, m)) in p_chunk.iter().zip(m_chunk.iter_mut()).enumerate() {
                let d = space.distance_sq(p, &newest);
                if d < *m {
                    *m = d;
                }
                if *m >= best {
                    best = *m;
                    best_i = ci * CHUNK + j;
                }
            }
            (best, best_i)
        };
        let parts: Vec<(f64, usize)> = if parallel {
            points
                .par_chunks(CHUNK)
                .zip(min_sq.par_chunks_mut(CHUNK))
                .enumerate()
                .map(scan)
                .collect()
        } else {
            points
                .chunks(CHUNK)
                .zip(min_sq.chunks_mut(CHUNK))
                .enumerate()
                .map(scan)
                .collect()
        };
        let mut far_sq = f64::NEG_INFINITY;
        let mut far_i = 0usize;
        for (d, i) in parts {
            if d >= far_sq {
                far_sq = d;
                far_i = i;
            }
        }
        if far_sq.sqrt() <= 1e-12 {
            break; // all remaining points coincide with a center
        }
        centers.push(points[far_i]);
    }
    centers
}

/// Nearest center by Eq. 1 distance, first minimum on ties. Compares
/// squared distances — `sqrt` is monotone, so the argmin is unchanged
/// while the innermost loop drops its sqrt.
fn nearest(centers: &[ReqFeature], p: &ReqFeature, space: &FeatureSpace) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (g, c) in centers.iter().enumerate() {
        let d = space.distance_sq(p, c);
        if d < best_d {
            best_d = d;
            best = g;
        }
    }
    best
}

/// Drop empty groups and renumber assignments densely.
fn compact(assignment: Vec<usize>, centers: Vec<ReqFeature>, iterations: usize) -> Grouping {
    let mut used = vec![false; centers.len()];
    for &a in &assignment {
        used[a] = true;
    }
    let mut remap = vec![usize::MAX; centers.len()];
    let mut kept = Vec::new();
    for (old, c) in centers.into_iter().enumerate() {
        if used[old] {
            remap[old] = kept.len();
            kept.push(c);
        }
    }
    let assignment = assignment.into_iter().map(|a| remap[a]).collect();
    Grouping { assignment, centers: kept, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(size: f64, conc: f64) -> ReqFeature {
        ReqFeature { size, concurrency: conc }
    }

    fn lanl_points(loops: usize) -> Vec<ReqFeature> {
        // The LANL pattern: sizes 16 / 131056 / 131072 at concurrency 8.
        let mut v = Vec::new();
        for _ in 0..loops {
            v.push(f(16.0, 8.0));
            v.push(f(131_056.0, 8.0));
            v.push(f(131_072.0, 8.0));
        }
        v
    }

    #[test]
    fn lanl_pattern_separates_small_from_large() {
        let pts = lanl_points(20);
        let g = group_requests(&pts, &GroupingConfig { k: 2, ..Default::default() });
        assert_eq!(g.groups(), 2);
        // All 16-byte requests share a group; the two ~128K sizes share
        // the other (they are within 16 bytes of each other).
        let small_group = g.assignment[0];
        for (i, p) in pts.iter().enumerate() {
            if p.size < 1000.0 {
                assert_eq!(g.assignment[i], small_group);
            } else {
                assert_ne!(g.assignment[i], small_group);
            }
        }
    }

    #[test]
    fn uniform_requests_collapse_to_one_group() {
        let pts = vec![f(65536.0, 16.0); 100];
        let g = group_requests(&pts, &GroupingConfig { k: 8, ..Default::default() });
        assert_eq!(g.groups(), 1, "identical points need one region");
        assert!(g.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn few_points_get_singleton_groups() {
        let pts = vec![f(1.0, 1.0), f(2.0, 2.0)];
        let g = group_requests(&pts, &GroupingConfig { k: 8, ..Default::default() });
        assert_eq!(g.groups(), 2);
        assert_eq!(g.assignment, vec![0, 1]);
        assert_eq!(g.iterations, 0);
    }

    #[test]
    fn group_count_never_exceeds_k() {
        let mut rng = SeedSeq::new(7).rng();
        let pts: Vec<ReqFeature> = (0..500)
            .map(|_| f(rng.gen_range(1.0..1e7), rng.gen_range(1.0..64.0)))
            .collect();
        for k in [1, 2, 4, 8] {
            let g = group_requests(&pts, &GroupingConfig { k, ..Default::default() });
            assert!(g.groups() <= k, "k={k} got {}", g.groups());
            assert!(g.groups() >= 1);
            assert_eq!(g.assignment.len(), pts.len());
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let mut rng = SeedSeq::new(9).rng();
        let pts: Vec<ReqFeature> = (0..200)
            .map(|_| f(rng.gen_range(1.0..1e6), rng.gen_range(1.0..32.0)))
            .collect();
        let g = group_requests(&pts, &GroupingConfig { k: 4, seed: 1 });
        assert!(g.iterations <= 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = lanl_points(10);
        let cfg = GroupingConfig::default();
        let a = group_requests(&pts, &cfg);
        let b = group_requests(&pts, &cfg);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn group_index_partitions_points() {
        let pts = lanl_points(5);
        let g = group_requests(&pts, &GroupingConfig { k: 3, ..Default::default() });
        let idx = GroupIndex::new(&g);
        assert_eq!(idx.starts.len(), g.groups() + 1);
        assert_eq!(idx.members.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for grp in 0..g.groups() {
            let mut prev = None;
            for &m in idx.members(grp) {
                assert!(!seen[m as usize], "point in two groups");
                seen[m as usize] = true;
                assert!(prev.is_none_or(|p| p < m), "members ascend");
                prev = Some(m);
            }
        }
        assert!(seen.iter().all(|&s| s), "every point in some group");
    }

    #[test]
    fn group_index_matches_assignment_rescan() {
        // The index must agree with a direct O(n) rescan of the
        // assignment (the behaviour of the removed `Grouping::members`).
        let pts = lanl_points(7);
        let g = group_requests(&pts, &GroupingConfig { k: 3, ..Default::default() });
        let idx = GroupIndex::new(&g);
        for grp in 0..g.groups() {
            let rescan: Vec<usize> = g
                .assignment
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == grp)
                .map(|(i, _)| i)
                .collect();
            let new: Vec<usize> = idx.members(grp).iter().map(|&i| i as usize).collect();
            assert_eq!(rescan, new, "group {grp}");
        }
    }

    #[test]
    fn group_index_handles_empty_grouping() {
        let g = group_requests(&[], &GroupingConfig::default());
        let idx = GroupIndex::new(&g);
        assert_eq!(idx.starts, [0]);
        assert!(idx.members.is_empty());
    }

    #[test]
    fn empty_input_is_empty_grouping() {
        let g = group_requests(&[], &GroupingConfig::default());
        assert_eq!(g.groups(), 0);
        assert!(g.assignment.is_empty());
    }

    #[test]
    fn concurrency_dimension_separates_equal_sizes() {
        // Same size, two distinct concurrency levels (the Fig. 9 mix).
        let mut pts = vec![f(262_144.0, 8.0); 50];
        pts.extend(vec![f(262_144.0, 32.0); 50]);
        let g = group_requests(&pts, &GroupingConfig { k: 2, ..Default::default() });
        assert_eq!(g.groups(), 2);
        assert_ne!(g.assignment[0], g.assignment[99]);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn assert_groupings_bit_identical(a: &Grouping, b: &Grouping, ctx: &str) {
        assert_eq!(a.assignment, b.assignment, "{ctx}: assignment");
        assert_eq!(a.iterations, b.iterations, "{ctx}: iterations");
        assert_eq!(a.centers.len(), b.centers.len(), "{ctx}: center count");
        for (i, (ca, cb)) in a.centers.iter().zip(&b.centers).enumerate() {
            assert_eq!(ca.size.to_bits(), cb.size.to_bits(), "{ctx}: center {i} size");
            assert_eq!(
                ca.concurrency.to_bits(),
                cb.concurrency.to_bits(),
                "{ctx}: center {i} concurrency"
            );
        }
    }

    /// The serial and rayon-parallel paths share the chunked arithmetic
    /// and the ordered reduction, so they must agree bit for bit — on
    /// fractional features too, and on inputs large enough that the
    /// parallel path actually fans out.
    #[test]
    fn grouping_serial_matches_parallel_randomized() {
        let mut s = 0xA11C_E000_5EED_0001u64;
        for trial in 0..12 {
            let n = if trial < 10 {
                1 + (xorshift(&mut s) % 3000) as usize
            } else {
                PAR_MIN_POINTS + (xorshift(&mut s) % 5000) as usize
            };
            let fractional = trial % 2 == 1;
            let pts: Vec<ReqFeature> = (0..n)
                .map(|_| {
                    let size = (xorshift(&mut s) % (1 << 21)) as f64;
                    let conc = (1 + xorshift(&mut s) % 64) as f64;
                    if fractional {
                        f(size + 0.25, conc + 0.5)
                    } else {
                        f(size, conc)
                    }
                })
                .collect();
            let k = 1 + (xorshift(&mut s) % 12) as usize;
            let cfg = GroupingConfig { k, seed: xorshift(&mut s) };
            let ser = run(&pts, &cfg, false);
            let par = run(&pts, &cfg, true);
            assert_groupings_bit_identical(&ser, &par, &format!("trial {trial} (n={n}, k={k})"));
            // And the dispatching entry point picks one of the two.
            let auto = group_requests(&pts, &cfg);
            assert_groupings_bit_identical(&ser, &auto, &format!("trial {trial} dispatch"));
        }
    }

    /// The original implementation (sqrt distances, full rescans, point-
    /// order sums), kept as the oracle: on integer-valued features — the
    /// only kind `ReqFeature::of` produces — partial sums below 2^53 are
    /// exact, so the chunked path must reproduce it bit for bit.
    fn group_requests_oracle(points: &[ReqFeature], cfg: &GroupingConfig) -> Grouping {
        assert!(cfg.k > 0, "need at least one group");
        if points.is_empty() {
            return Grouping { assignment: Vec::new(), centers: Vec::new(), iterations: 0 };
        }
        let space = FeatureSpace::fit(points);
        if points.len() <= cfg.k {
            return Grouping {
                assignment: (0..points.len()).collect(),
                centers: points.to_vec(),
                iterations: 0,
            };
        }
        let oracle_nearest = |centers: &[ReqFeature], p: &ReqFeature| {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (g, c) in centers.iter().enumerate() {
                let d = space.distance(p, c);
                if d < best_d {
                    best_d = d;
                    best = g;
                }
            }
            best
        };
        let mut rng = SeedSeq::new(cfg.seed).derive("grouping").rng();
        let mut centers = Vec::with_capacity(cfg.k);
        centers.push(points[rng.gen_range(0..points.len())]);
        while centers.len() < cfg.k {
            let far = points
                .iter()
                .map(|p| {
                    let d = centers
                        .iter()
                        .map(|c| space.distance(p, c))
                        .fold(f64::INFINITY, f64::min);
                    (p, d)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                .map(|(p, d)| (*p, d))
                .expect("points nonempty");
            if far.1 <= 1e-12 {
                break;
            }
            centers.push(far.0);
        }
        let mut assignment = vec![0usize; points.len()];
        let mut iterations = 0;
        for _ in 0..MAX_ITERS {
            iterations += 1;
            for (i, p) in points.iter().enumerate() {
                assignment[i] = oracle_nearest(&centers, p);
            }
            let mut sums = vec![(0.0f64, 0.0f64, 0usize); centers.len()];
            for (i, p) in points.iter().enumerate() {
                let s = &mut sums[assignment[i]];
                s.0 += p.size;
                s.1 += p.concurrency;
                s.2 += 1;
            }
            let mut changed = false;
            for (c, &(sx, sy, n)) in centers.iter_mut().zip(&sums) {
                if n == 0 {
                    continue;
                }
                let next = ReqFeature { size: sx / n as f64, concurrency: sy / n as f64 };
                if space.distance(c, &next) > 1e-12 {
                    *c = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        compact(assignment, centers, iterations)
    }

    #[test]
    fn grouping_matches_original_oracle_on_integer_features() {
        let mut s = 0xB0B5_1ED5_0000_0002u64;
        for trial in 0..20 {
            let n = 1 + (xorshift(&mut s) % 2000) as usize;
            let pts: Vec<ReqFeature> = (0..n)
                .map(|_| {
                    f(
                        (xorshift(&mut s) % (1 << 22)) as f64,
                        (1 + xorshift(&mut s) % 128) as f64,
                    )
                })
                .collect();
            let k = 1 + (xorshift(&mut s) % 10) as usize;
            let cfg = GroupingConfig { k, seed: xorshift(&mut s) };
            let want = group_requests_oracle(&pts, &cfg);
            let got = group_requests(&pts, &cfg);
            assert_groupings_bit_identical(&want, &got, &format!("trial {trial} (n={n}, k={k})"));
        }
    }

    #[test]
    fn seeded_with_empty_seeds_is_the_cold_path() {
        let pts = lanl_points(30);
        let cfg = GroupingConfig::default();
        let cold = group_requests(&pts, &cfg);
        let seeded = group_requests_seeded(&pts, &cfg, &[]);
        assert_groupings_bit_identical(&cold, &seeded, "empty seeds");
    }

    #[test]
    fn reseeding_from_converged_centers_converges_in_one_pass() {
        let pts = lanl_points(40);
        let cfg = GroupingConfig { k: 3, ..Default::default() };
        let cold = group_requests(&pts, &cfg);
        let warm = group_requests_seeded(&pts, &cfg, &cold.centers);
        assert_eq!(warm.iterations, 1, "converged seeds stop after one assignment pass");
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.groups(), cold.groups());
    }

    #[test]
    fn seeded_centers_extend_to_claim_new_clusters() {
        // Seed with one center near the small-size cluster; the data has
        // a second far cluster, so the extension must claim it.
        let mut pts = vec![f(16.0, 8.0); 40];
        pts.extend(vec![f(1_048_576.0, 8.0); 40]);
        let cfg = GroupingConfig { k: 2, ..Default::default() };
        let warm = group_requests_seeded(&pts, &cfg, &[f(20.0, 8.0)]);
        assert_eq!(warm.groups(), 2, "farthest-point extension finds the far cluster");
        assert_ne!(warm.assignment[0], warm.assignment[79]);
    }

    #[test]
    fn seeded_group_count_never_exceeds_k() {
        let mut rng = SeedSeq::new(77).rng();
        let pts: Vec<ReqFeature> = (0..400)
            .map(|_| f(rng.gen_range(1.0..1e7), rng.gen_range(1.0..64.0)))
            .collect();
        // More seeds than k: the seed set must be truncated, not grown.
        let seeds: Vec<ReqFeature> =
            (0..8).map(|i| f(1e6 * (i + 1) as f64, 4.0 * (i + 1) as f64)).collect();
        for k in [1, 2, 4] {
            let g = group_requests_seeded(&pts, &GroupingConfig { k, ..Default::default() }, &seeds);
            assert!(g.groups() <= k, "k={k} got {}", g.groups());
            assert_eq!(g.assignment.len(), pts.len());
        }
    }

    #[test]
    fn seeded_grouping_tracks_a_drifted_workload() {
        // Window 1: two clusters. Window 2: the clusters moved. The
        // seeded grouping must still separate them cleanly.
        let mut w1 = vec![f(4096.0, 4.0); 50];
        w1.extend(vec![f(262_144.0, 16.0); 50]);
        let cfg = GroupingConfig { k: 2, ..Default::default() };
        let g1 = group_requests(&w1, &cfg);
        let mut w2 = vec![f(8192.0, 6.0); 50];
        w2.extend(vec![f(524_288.0, 24.0); 50]);
        let g2 = group_requests_seeded(&w2, &cfg, &g1.centers);
        assert_eq!(g2.groups(), 2);
        assert_ne!(g2.assignment[0], g2.assignment[99]);
        assert!(g2.assignment[..50].iter().all(|&a| a == g2.assignment[0]));
        assert!(g2.assignment[50..].iter().all(|&a| a == g2.assignment[99]));
    }

    #[test]
    fn grouping_matches_original_oracle_on_paper_workload_shapes() {
        for loops in [1, 5, 20, 64] {
            let pts = lanl_points(loops);
            for k in [1, 2, 4, 8] {
                let cfg = GroupingConfig { k, ..Default::default() };
                let want = group_requests_oracle(&pts, &cfg);
                let got = group_requests(&pts, &cfg);
                assert_groupings_bit_identical(&want, &got, &format!("loops {loops} k {k}"));
            }
        }
    }
}
