//! Seeded temporal-burst arrival generator (Harmonia-style on/off load).
//!
//! Real PFS clients do not submit at a steady rate: checkpoint storms and
//! analysis sweeps arrive in *bursts* separated by quiet stretches. This
//! generator layers a two-state on/off arrival modulator over the
//! building blocks the other generators already use — per-process
//! Poisson request counts for volume and a Zipf(θ) region distribution
//! for spatial skew. Each phase the modulator is either *off* (baseline
//! load, `mean_reqs` expected requests per process) or *on* (burst load,
//! `on_mult × mean_reqs`); state dwell times are geometric with means
//! `mean_off` / `mean_on` phases, the textbook Markov on/off source.
//!
//! Like every generator in [`crate::gen`], output is deterministic per
//! seed. `generate` and `stream` run one phase emitter, so
//! `generate(cfg)` equals the concatenated stream bit for bit (a phase
//! that draws no request is an empty batch in the stream and absent from
//! the trace), and the region CDF is the memoized table `gen::skewed`
//! uses.

use std::sync::Arc;

use crate::batch::{BatchSource, PhaseSink, RecordBatch};
use crate::gen::{collect, zipf_cdf, PhaseClock};
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::rng::SmallRng;
use simrt::SeedSeq;
use storage_model::IoOp;

/// Bursty-workload configuration.
#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// Number of client processes.
    pub procs: u32,
    /// Number of barrier phases.
    pub phases: usize,
    /// Shared file size, bytes.
    pub file_size: u64,
    /// Request size, bytes.
    pub request_size: u64,
    /// Number of equal file regions the Zipf ranking runs over.
    pub regions: u64,
    /// Zipf exponent θ over regions: 0 = uniform spatial load.
    pub theta: f64,
    /// Expected requests per process per off-phase (Poisson mean).
    pub mean_reqs: f64,
    /// Load multiplier while a burst is on.
    pub on_mult: f64,
    /// Mean burst length, phases (geometric dwell).
    pub mean_on: f64,
    /// Mean quiet-stretch length, phases (geometric dwell).
    pub mean_off: f64,
    /// Operation type.
    pub op: IoOp,
    /// Workload seed.
    pub seed: u64,
}

impl BurstConfig {
    /// A checkpoint-storm default: 16 processes over a 16 GB file in 64
    /// regions (θ = 0.9), ~1 request per process per quiet phase, 8x
    /// bursts averaging 4 phases on / 12 phases off.
    pub fn default_run(op: IoOp) -> Self {
        BurstConfig {
            procs: 16,
            phases: 64,
            file_size: 16 << 30,
            request_size: 64 << 10,
            regions: 64,
            theta: 0.9,
            mean_reqs: 1.0,
            on_mult: 8.0,
            mean_on: 4.0,
            mean_off: 12.0,
            op,
            seed: 0xB57,
        }
    }
}

/// Generate the full bursty trace: the [`stream`] emitter run into one
/// trace's store.
pub fn generate(cfg: &BurstConfig) -> Trace {
    let mut src = stream(cfg);
    collect(src.len_hint(), |out| src.emit(out))
}

/// Stream the bursty workload one phase at a time.
pub fn stream(cfg: &BurstConfig) -> BurstStream {
    assert!(cfg.procs > 0 && cfg.regions > 0, "degenerate burst config");
    assert!(cfg.request_size > 0 && cfg.file_size >= cfg.request_size, "request exceeds file");
    assert!(cfg.mean_reqs > 0.0 && cfg.on_mult >= 1.0, "burst must not thin the load");
    assert!(cfg.mean_on >= 1.0 && cfg.mean_off >= 1.0, "dwell means are in phases");
    BurstStream {
        cfg: cfg.clone(),
        cdf: zipf_cdf(cfg.regions, cfg.theta),
        rng: SeedSeq::new(cfg.seed).derive("burst").rng(),
        clock: PhaseClock::new(),
        phase: 0,
        on: false,
    }
}

/// Streaming on/off burst generator (see module docs).
#[derive(Debug, Clone)]
pub struct BurstStream {
    cfg: BurstConfig,
    /// Normalized cumulative Zipf weights over region ranks.
    cdf: Arc<[f64]>,
    rng: SmallRng,
    clock: PhaseClock,
    phase: usize,
    /// Current modulator state (starts off: traces open quiet).
    on: bool,
}

impl BurstStream {
    /// Map a uniform draw to a region rank via the CDF.
    fn draw_rank(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= u) as u64
    }

    /// One Poisson(λ) draw (Knuth multiplication; λ stays small here).
    fn draw_poisson(&mut self, lambda: f64) -> u64 {
        let floor = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= self.rng.gen_range(0.0..1.0f64);
            if p <= floor {
                return k;
            }
            k += 1;
        }
    }

    /// Emit the next phase into `out`; `false` when exhausted.
    pub(super) fn emit<S: PhaseSink>(&mut self, out: &mut S) -> bool {
        if self.phase >= self.cfg.phases {
            out.begin(0);
            return false;
        }
        let (phase, ts) = self.clock.tick();
        out.begin(phase);
        // Markov on/off modulator: geometric dwells with the configured
        // means (P(switch) = 1/mean). Advanced before emission so a
        // mean_off of 1 can burst from the very first phase.
        let flip = 1.0
            / if self.on {
                self.cfg.mean_on
            } else {
                self.cfg.mean_off
            };
        if self.rng.gen_range(0.0..1.0f64) < flip {
            self.on = !self.on;
        }
        let lambda = if self.on {
            self.cfg.mean_reqs * self.cfg.on_mult
        } else {
            self.cfg.mean_reqs
        };
        let regions = self.cfg.regions;
        let region_size = (self.cfg.file_size / regions).max(self.cfg.request_size);
        let size = self.cfg.request_size;
        let slots = (region_size / size).max(1);
        for p in 0..self.cfg.procs {
            let count = self.draw_poisson(lambda);
            for _ in 0..count {
                let region = self.draw_rank() % regions;
                let slot = self.rng.gen_range(0..slots);
                let offset = (region * region_size + slot * size)
                    .min(self.cfg.file_size - size);
                out.push(&TraceRecord {
                    pid: 7000 + p,
                    rank: Rank(p),
                    file: FileId(0),
                    op: self.cfg.op,
                    offset,
                    len: size,
                    ts,
                    phase,
                });
            }
        }
        self.phase += 1;
        true
    }
}

impl BatchSource for BurstStream {
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool {
        self.emit(batch)
    }

    fn len_hint(&self) -> Option<usize> {
        // Request counts are random per phase; no exact hint exists.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = BurstConfig::default_run(IoOp::Write);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.records(), b.records());
        let mut other = cfg.clone();
        other.seed = 99;
        assert_ne!(generate(&other).records(), a.records());
    }

    #[test]
    #[should_panic(expected = "Zipf theta must be finite")]
    fn nan_theta_rejected() {
        let mut cfg = BurstConfig::default_run(IoOp::Write);
        cfg.theta = f64::NAN;
        stream(&cfg);
    }

    #[test]
    fn streaming_phases_match_materialized_records() {
        let cfg = BurstConfig::default_run(IoOp::Read);
        let t = generate(&cfg);
        let mut src = stream(&cfg);
        let mut batch = RecordBatch::new();
        let mut cursor = 0;
        while src.next_phase(&mut batch) {
            for i in 0..batch.len() {
                assert_eq!(Some(batch.record(i)), t.records().get(cursor));
                cursor += 1;
            }
        }
        assert_eq!(cursor, t.len());
    }

    #[test]
    fn bursts_carry_far_more_load_than_quiet_phases() {
        let mut cfg = BurstConfig::default_run(IoOp::Write);
        cfg.phases = 512;
        let t = generate(&cfg);
        let mut per_phase = vec![0u64; cfg.phases];
        for r in t.records() {
            per_phase[r.phase as usize] += 1;
        }
        // Split phases into heavy and light halves around the midpoint
        // between the two regimes' expected per-phase counts.
        let base = cfg.mean_reqs * f64::from(cfg.procs);
        let cut = (base * (1.0 + cfg.on_mult) / 2.0) as u64;
        let heavy: Vec<u64> = per_phase.iter().copied().filter(|&c| c > cut).collect();
        let light: Vec<u64> = per_phase.iter().copied().filter(|&c| c <= cut).collect();
        assert!(!heavy.is_empty(), "no burst phase observed in 512 phases");
        assert!(light.len() > heavy.len(), "off dwell (12) outweighs on dwell (4)");
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&heavy) > 4.0 * mean(&light).max(1.0),
            "bursts must dominate: heavy {:.1} vs light {:.1}",
            mean(&heavy),
            mean(&light)
        );
    }

    #[test]
    fn offsets_stay_in_file_and_trace_validates() {
        let cfg = BurstConfig::default_run(IoOp::Write);
        let t = generate(&cfg);
        assert!(t.validate().is_ok());
        for r in t.records() {
            assert!(r.end() <= cfg.file_size);
        }
        let s = TraceStats::of(&t);
        assert!(s.requests > 0);
        assert_eq!(s.max_request, cfg.request_size);
    }
}
