//! Seeded Zipfian workload with a shifting hot set.
//!
//! Production PFS traces are rarely uniform: a few file regions are hot
//! (checkpoint headers, index blocks) and the hot set drifts over time as
//! the application moves through its working set. This generator
//! reproduces that shape: the file is divided into equal regions, each
//! phase draws every rank's request region from a Zipf(θ) distribution,
//! and every `shift_every` phases the region ranking rotates by one — the
//! previously hottest region cools off and its neighbour heats up.
//!
//! Like every generator in [`crate::gen`], output is deterministic per
//! seed. `generate` and `stream` run one phase emitter, so
//! `generate(cfg)` equals the concatenated stream bit for bit, and every
//! trace of one `(regions, θ)` shares one memoized Zipf table.

use std::sync::Arc;

use crate::batch::{BatchSource, PhaseSink, RecordBatch};
use crate::gen::{collect, zipf_cdf, PhaseClock};
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::rng::SmallRng;
use simrt::SeedSeq;
use storage_model::IoOp;

/// Ranks whose offsets are drawn before they are emitted together: a
/// stack buffer small enough that clearing it per phase costs nothing.
const CHUNK: usize = 8;

/// Skewed-workload configuration.
#[derive(Debug, Clone)]
pub struct SkewedConfig {
    /// Number of client processes (one request per process per phase).
    pub procs: u32,
    /// Number of barrier phases.
    pub phases: usize,
    /// Shared file size, bytes.
    pub file_size: u64,
    /// Request size, bytes.
    pub request_size: u64,
    /// Number of equal file regions the Zipf ranking runs over.
    pub regions: u64,
    /// Zipf exponent θ: 0 = uniform, ~0.99 = classic web-trace skew.
    pub theta: f64,
    /// Phases between hot-set rotations; 0 disables the shift.
    pub shift_every: usize,
    /// Operation type.
    pub op: IoOp,
    /// Workload seed.
    pub seed: u64,
}

impl SkewedConfig {
    /// A hot/cold-shifting default: 16 processes, 64 KiB requests over a
    /// 16 GB file in 64 regions, θ = 0.99, hot set rotating every 8
    /// phases.
    pub fn default_run(op: IoOp) -> Self {
        SkewedConfig {
            procs: 16,
            phases: 64,
            file_size: 16 << 30,
            request_size: 64 << 10,
            regions: 64,
            theta: 0.99,
            shift_every: 8,
            op,
            seed: 0x21F,
        }
    }
}

/// Generate the full skewed trace: the [`stream`] emitter run into one
/// trace's store.
pub fn generate(cfg: &SkewedConfig) -> Trace {
    let mut src = stream(cfg);
    collect(src.len_hint(), |out| src.emit(out))
}

/// Stream the skewed workload one phase at a time.
pub fn stream(cfg: &SkewedConfig) -> SkewedStream {
    assert!(cfg.procs > 0 && cfg.regions > 0, "degenerate skewed config");
    assert!(cfg.request_size > 0 && cfg.file_size >= cfg.request_size, "request exceeds file");
    let region_size = (cfg.file_size / cfg.regions).max(cfg.request_size);
    SkewedStream {
        cfg: cfg.clone(),
        cdf: zipf_cdf(cfg.regions, cfg.theta),
        rng: SeedSeq::new(cfg.seed).derive("skewed").rng(),
        clock: PhaseClock::new(),
        phase: 0,
        region_size,
        slots: (region_size / cfg.request_size).max(1),
    }
}

/// Streaming Zipfian generator (see module docs).
#[derive(Debug, Clone)]
pub struct SkewedStream {
    cfg: SkewedConfig,
    /// Normalized cumulative Zipf weights over region ranks.
    cdf: Arc<[f64]>,
    rng: SmallRng,
    clock: PhaseClock,
    phase: usize,
    /// Bytes per region, and request-sized slots per region.
    region_size: u64,
    slots: u64,
}

impl SkewedStream {
    /// Map a uniform draw to a region rank via the CDF.
    fn draw_rank(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= u) as u64
    }

    /// Emit the next phase into `out`; `false` when exhausted. Inlined
    /// into `generate` (see `collect`).
    #[inline]
    pub(super) fn emit<S: PhaseSink>(&mut self, out: &mut S) -> bool {
        if self.phase >= self.cfg.phases {
            out.begin(0);
            return false;
        }
        let (phase, ts) = self.clock.tick();
        out.begin(phase);
        // Hot-set rotation: epoch e maps Zipf rank r to region (r + e),
        // so the hottest region steps through the file one region per
        // epoch while the skew shape stays fixed.
        let epoch = match self.cfg.shift_every {
            0 => 0,
            n => (self.phase / n) as u64,
        };
        let regions = self.cfg.regions;
        // A rank is below `regions`, so `(rank + epoch) % regions` is
        // one conditional subtraction from the epoch's remainder.
        let shift = epoch % regions;
        let (region_size, slots, size) = (self.region_size, self.slots, self.cfg.request_size);
        let mut offsets = [0u64; CHUNK];
        for first in (0..self.cfg.procs).step_by(CHUNK) {
            let n = (self.cfg.procs - first).min(CHUNK as u32) as usize;
            for offset in &mut offsets[..n] {
                let rank = self.draw_rank();
                let region = match rank + shift {
                    r if r >= regions => r - regions,
                    r => r,
                };
                let slot = self.rng.gen_range(0..slots);
                *offset = (region * region_size + slot * size).min(self.cfg.file_size - size);
            }
            let head = TraceRecord {
                pid: 6000 + first,
                rank: Rank(first),
                file: FileId(0),
                op: self.cfg.op,
                offset: 0,
                len: size,
                ts,
                phase,
            };
            out.push_ranks(&head, &offsets[..n]);
        }
        self.phase += 1;
        true
    }
}

impl BatchSource for SkewedStream {
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool {
        self.emit(batch)
    }

    fn len_hint(&self) -> Option<usize> {
        Some((self.cfg.phases - self.phase) * self.cfg.procs as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = SkewedConfig::default_run(IoOp::Write);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.records(), b.records());
        let mut other = cfg.clone();
        other.seed = 7;
        assert_ne!(generate(&other).records(), a.records());
    }

    #[test]
    #[should_panic(expected = "Zipf theta must be finite")]
    fn nan_theta_rejected() {
        let mut cfg = SkewedConfig::default_run(IoOp::Write);
        cfg.theta = f64::NAN;
        stream(&cfg);
    }

    #[test]
    fn streaming_phases_match_materialized_records() {
        let cfg = SkewedConfig::default_run(IoOp::Read);
        let t = generate(&cfg);
        let mut src = stream(&cfg);
        let mut batch = RecordBatch::new();
        let mut cursor = 0;
        while src.next_phase(&mut batch) {
            assert_eq!(batch.len(), cfg.procs as usize);
            for i in 0..batch.len() {
                assert_eq!(Some(batch.record(i)), t.records().get(cursor));
                cursor += 1;
            }
        }
        assert_eq!(cursor, t.len());
    }

    /// Requests per region within one epoch; region ids are derived from
    /// offsets so the test observes exactly what a server would.
    fn region_histogram(t: &Trace, cfg: &SkewedConfig, phase_lo: u32, phase_hi: u32) -> Vec<u64> {
        let region_size = (cfg.file_size / cfg.regions).max(cfg.request_size);
        let mut hist = vec![0u64; cfg.regions as usize];
        for r in t.records() {
            if r.phase >= phase_lo && r.phase < phase_hi {
                hist[((r.offset / region_size) % cfg.regions) as usize] += 1;
            }
        }
        hist
    }

    #[test]
    fn zipf_concentrates_on_the_hot_region() {
        let mut cfg = SkewedConfig::default_run(IoOp::Write);
        cfg.shift_every = 0;
        cfg.phases = 128;
        let t = generate(&cfg);
        let hist = region_histogram(&t, &cfg, 0, cfg.phases as u32);
        let total: u64 = hist.iter().sum();
        let uniform_share = total / cfg.regions;
        // θ ≈ 1 over 64 regions gives the top region ~21% of the mass —
        // more than 10x its uniform 1/64 share.
        assert!(
            hist[0] > 8 * uniform_share,
            "hot region got {} of {total}, uniform share {uniform_share}",
            hist[0]
        );
        let max = *hist.iter().max().unwrap();
        assert_eq!(hist[0], max, "region 0 is the unshifted hot spot");
    }

    #[test]
    fn zipf_top_k_regions_hold_the_bulk_of_the_mass() {
        // The headline property the online experiments lean on: a small
        // top-k of regions carries most of the traffic, and the mass
        // profile is monotone in rank.
        let mut cfg = SkewedConfig::default_run(IoOp::Write);
        cfg.shift_every = 0;
        cfg.phases = 256;
        let t = generate(&cfg);
        let mut hist = region_histogram(&t, &cfg, 0, cfg.phases as u32);
        let total: u64 = hist.iter().sum();
        hist.sort_unstable_by(|a, b| b.cmp(a));
        let top = |k: usize| -> f64 {
            hist[..k].iter().sum::<u64>() as f64 / total as f64
        };
        // θ = 0.99 over 64 regions: H ≈ 14.6, so the analytic shares are
        // ~32% for the top 4 and ~55% for the top 16. Assert loose
        // sampled bounds around them, plus dominance over uniform.
        assert!(top(4) > 0.25, "top-4 share {:.3} too flat", top(4));
        assert!(top(16) > 0.45, "top-16 share {:.3} too flat", top(16));
        assert!(top(16) < 0.95, "top-16 share {:.3} too peaked for θ<1", top(16));
        let uniform_top16 = 16.0 / cfg.regions as f64;
        assert!(top(16) > 2.0 * uniform_top16, "must dwarf the uniform share");
        assert!(hist.windows(2).all(|w| w[0] >= w[1]), "sorted view is monotone");
    }

    #[test]
    fn hot_set_shifts_between_epochs() {
        let mut cfg = SkewedConfig::default_run(IoOp::Write);
        cfg.phases = 32;
        cfg.shift_every = 16;
        let t = generate(&cfg);
        let first = region_histogram(&t, &cfg, 0, 16);
        let second = region_histogram(&t, &cfg, 16, 32);
        let hot = |h: &[u64]| h.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap().0;
        assert_eq!(hot(&first), 0);
        assert_eq!(hot(&second), 1, "hot region rotated by one");
    }

    #[test]
    fn offsets_stay_in_file_and_stats_are_sane() {
        let cfg = SkewedConfig::default_run(IoOp::Write);
        let t = generate(&cfg);
        assert!(t.validate().is_ok());
        for r in t.records() {
            assert!(r.end() <= cfg.file_size);
        }
        let s = TraceStats::of(&t);
        assert_eq!(s.requests, cfg.phases * cfg.procs as usize);
        assert_eq!(s.max_request, cfg.request_size);
    }
}
