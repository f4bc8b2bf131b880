//! Seeded open-loop arrival processes.
//!
//! An open-loop workload submits jobs on its own schedule, regardless of
//! how fast the system drains them — the methodology behind sustained
//! throughput / tail-latency studies (as opposed to closed-loop
//! benchmarks, whose submission rate collapses to the service rate).
//! [`ArrivalProcess`] generates a deterministic Poisson arrival stream:
//! exponential interarrival gaps drawn from a [`SeedSeq`]-derived RNG,
//! so the same seed always produces the same arrival instants.

use crate::rng::{SeedSeq, SmallRng};
use crate::time::{SimDuration, SimTime};

/// A deterministic Poisson (exponential-interarrival) arrival process.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    rng: SmallRng,
    mean: f64,
    now: SimTime,
}

impl ArrivalProcess {
    /// An arrival stream starting at `SimTime::ZERO` with the given mean
    /// interarrival gap, seeded from `seed`.
    ///
    /// # Panics
    /// If the mean gap is zero (the process would never advance).
    pub fn new(seed: SeedSeq, mean_interarrival: SimDuration) -> Self {
        assert!(!mean_interarrival.is_zero(), "mean interarrival must be positive");
        ArrivalProcess {
            rng: seed.rng(),
            mean: mean_interarrival.as_secs_f64(),
            now: SimTime::ZERO,
        }
    }

    /// The next arrival instant: strictly monotone, exponentially
    /// distributed gaps with the configured mean.
    pub fn next_arrival(&mut self) -> SimTime {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = -u.ln() * self.mean;
        self.now += SimDuration::from_secs_f64(gap.max(1e-9));
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mk = || ArrivalProcess::new(SeedSeq::new(42).derive("arrivals"), SimDuration::from_millis(10));
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..1000 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    fn arrivals_are_strictly_monotone() {
        let mut p = ArrivalProcess::new(SeedSeq::new(7), SimDuration::from_micros(1));
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            let t = p.next_arrival();
            assert!(t > last, "arrivals must advance: {t:?} after {last:?}");
            last = t;
        }
    }

    #[test]
    fn mean_gap_tracks_the_configured_rate() {
        let mean = SimDuration::from_millis(5);
        let mut p = ArrivalProcess::new(SeedSeq::new(1).derive("rate"), mean);
        let n = 20_000;
        let mut last = SimTime::ZERO;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = p.next_arrival();
            sum += t.since(last).as_secs_f64();
            last = t;
        }
        let got = sum / n as f64;
        let want = mean.as_secs_f64();
        assert!(
            (got - want).abs() / want < 0.05,
            "empirical mean gap {got} vs configured {want}"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ArrivalProcess::new(SeedSeq::new(1), SimDuration::from_millis(1));
        let mut b = ArrivalProcess::new(SeedSeq::new(2), SimDuration::from_millis(1));
        assert_ne!(a.next_arrival(), b.next_arrival());
    }

    #[test]
    #[should_panic(expected = "mean interarrival must be positive")]
    fn zero_mean_rejected() {
        ArrivalProcess::new(SeedSeq::new(0), SimDuration::ZERO);
    }
}
