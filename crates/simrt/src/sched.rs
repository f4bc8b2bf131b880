//! Client-side straggler-aware scheduling state: per-server service-
//! latency EWMAs and the dispatch policy knob.
//!
//! The client of a parallel file system sees each server's service
//! latency on every sub-request it issues; a fast EWMA over those
//! observations reacts to a *transient* straggler within a handful of
//! requests, long before a window-granularity replanner can. This module
//! holds the policy type and the per-server latency trackers; the replay
//! cores own *when* observations happen (so the serial and sharded cores
//! feed each tracker the identical per-server sequence and the f64 state
//! stays bit-for-bit reproducible).
//!
//! A server is flagged *suspect* by comparing its fast EWMA against its
//! **own** long-run Welford mean ([`crate::stats::OnlineStats`]): on a
//! heterogeneous cluster an HDD is always slower than an SSD, so any
//! cross-server baseline would misfire permanently. Self-relative
//! triggering also guarantees the fault-free no-op: without a fault, the
//! fast EWMA never exceeds `STRAGGLER_TRIGGER`× the server's own mean
//! (the worst within-phase queue ramp tops out near 2×), no server is
//! ever suspect and every issue delay is zero — the schedule is
//! bit-identical to the blind shuffle.

use crate::stats::OnlineStats;

/// Fast-EWMA-to-own-mean ratio above which a server is suspect. A
/// within-phase FIFO queue ramp reaches ~2× (the mean of a linear ramp
/// is half its peak), so 4× keeps a 2× safety margin for the fault-free
/// identity while still firing on any real straggler (outage retries and
/// timeouts inflate observations by orders of magnitude).
pub(crate) const STRAGGLER_TRIGGER: f64 = 4.0;

/// Minimum observations a server needs before it can be suspect: below
/// this the Welford mean is too noisy to trust as a baseline.
pub const MIN_OBS: u64 = 8;

/// How a replay phase dispatches its requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedPolicy {
    /// The historical blind dispatch: requests replay in the seeded
    /// per-phase shuffle, all issued at the phase barrier. Bit-identical
    /// to every pre-scheduler release.
    #[default]
    SeededShuffle,
    /// Straggler-aware dispatch: per-server latency EWMAs flag suspect
    /// servers; requests targeting a suspect are issue-throttled (at
    /// most `inflight_cap` per EWMA interval). Requests keep their
    /// shuffled order; only their issue times move. With no suspect this
    /// degenerates to exactly `SeededShuffle`.
    StragglerAware {
        /// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
        alpha: f64,
        /// Requests admitted per suspect server per EWMA interval.
        inflight_cap: u32,
    },
}

impl SchedPolicy {
    /// The straggler-aware policy at its default operating point:
    /// `alpha` 0.3 (reacts within ~3 observations), cap 4.
    pub fn straggler_aware() -> Self {
        SchedPolicy::StragglerAware { alpha: 0.3, inflight_cap: 4 }
    }

    /// Validate the knobs; `Err` carries the reason.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchedPolicy::SeededShuffle => Ok(()),
            SchedPolicy::StragglerAware { alpha, inflight_cap } => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(format!("alpha must be in (0, 1], got {alpha}"));
                }
                if inflight_cap == 0 {
                    return Err("inflight_cap must be at least 1".into());
                }
                Ok(())
            }
        }
    }
}

/// Per-server service-latency tracker: a fast EWMA over the most recent
/// observations plus the server's own long-run Welford baseline.
#[derive(Debug, Clone, Default)]
pub struct ServerLat {
    fast: f64,
    seeded: bool,
    baseline: OnlineStats,
}

impl ServerLat {
    /// Record one service-latency observation (seconds): the span from a
    /// sub-request's issue to its device-stage completion — admission
    /// waits, retries and timeout charges included, which is exactly what
    /// makes a straggler visible from the client side.
    pub fn observe(&mut self, alpha: f64, x: f64) {
        if self.seeded {
            self.fast = alpha * x + (1.0 - alpha) * self.fast;
        } else {
            self.fast = x;
            self.seeded = true;
        }
        self.baseline.push(x);
    }

    /// Current fast EWMA (0 before the first observation).
    pub fn fast(&self) -> f64 {
        self.fast
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.baseline.count()
    }

    /// True when this server currently looks like a straggler: at least
    /// [`MIN_OBS`] observations and a fast EWMA above
    /// `STRAGGLER_TRIGGER`× its own long-run mean.
    pub fn is_suspect(&self) -> bool {
        self.baseline.count() >= MIN_OBS
            && self.fast > STRAGGLER_TRIGGER * self.baseline.mean()
    }
}

/// Per-server latency trackers for one replay run.
#[derive(Debug, Clone, Default)]
pub struct SchedState {
    servers: Vec<ServerLat>,
}

impl SchedState {
    /// Reset for a run over `n` servers: every tracker starts cold, so
    /// reruns of the same input are bit-identical.
    pub fn reset(&mut self, n: usize) {
        self.servers.clear();
        self.servers.resize_with(n, ServerLat::default);
    }

    /// Number of tracked servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when no server is tracked.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Tracker of server `i`.
    pub fn server(&self, i: usize) -> &ServerLat {
        &self.servers[i]
    }

    /// Mutable tracker of server `i`.
    pub fn server_mut(&mut self, i: usize) -> &mut ServerLat {
        &mut self.servers[i]
    }

    /// All trackers, for lane-parallel observation via
    /// [`crate::DisjointSlice`] (one lane per server).
    pub fn as_mut_slice(&mut self) -> &mut [ServerLat] {
        &mut self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_seeded_shuffle() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::SeededShuffle);
    }

    #[test]
    fn policy_validation_rejects_bad_knobs() {
        assert!(SchedPolicy::SeededShuffle.validate().is_ok());
        assert!(SchedPolicy::straggler_aware().validate().is_ok());
        for bad in [
            SchedPolicy::StragglerAware { alpha: 0.0, inflight_cap: 4 },
            SchedPolicy::StragglerAware { alpha: 1.5, inflight_cap: 4 },
            SchedPolicy::StragglerAware { alpha: f64::NAN, inflight_cap: 4 },
            SchedPolicy::StragglerAware { alpha: 0.3, inflight_cap: 0 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ewma_seeds_on_first_observation() {
        let mut lat = ServerLat::default();
        assert_eq!(lat.fast(), 0.0);
        lat.observe(0.3, 10.0);
        assert_eq!(lat.fast(), 10.0, "first observation seeds the EWMA");
        lat.observe(0.3, 0.0);
        assert!((lat.fast() - 7.0).abs() < 1e-12);
        assert_eq!(lat.count(), 2);
    }

    #[test]
    fn suspect_needs_min_obs_and_trigger_ratio() {
        let mut lat = ServerLat::default();
        for _ in 0..24 {
            lat.observe(0.5, 1.0);
        }
        assert!(!lat.is_suspect(), "steady latency is never suspect");
        // A burst of 100x observations drags the fast EWMA far above the
        // (still healthy-history-anchored) long-run mean.
        for _ in 0..4 {
            lat.observe(0.5, 100.0);
        }
        assert!(lat.is_suspect(), "fast={} mean={}", lat.fast(), lat.baseline.mean());
        // Below MIN_OBS the flag must stay off regardless of ratio.
        let mut young = ServerLat::default();
        for _ in 0..(MIN_OBS - 1) {
            young.observe(0.5, 100.0);
        }
        assert!(!young.is_suspect());
    }

    #[test]
    fn queue_ramp_stays_below_trigger() {
        // A linear within-phase queue ramp (the worst fault-free shape)
        // ends with fast ≈ peak and mean ≈ peak/2 — safely inside the 4x
        // trigger.
        let mut lat = ServerLat::default();
        for i in 1..=100 {
            lat.observe(0.3, i as f64);
        }
        assert!(lat.count() >= MIN_OBS);
        assert!(!lat.is_suspect(), "fast={} mean={}", lat.fast(), lat.baseline.mean());
    }

    #[test]
    fn state_reset_forgets_history() {
        let mut s = SchedState::default();
        s.reset(3);
        s.server_mut(1).observe(0.3, 5.0);
        assert_eq!(s.server(1).count(), 1);
        s.reset(3);
        assert_eq!(s.server(1).count(), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn identical_observation_sequences_are_bit_identical() {
        // The determinism contract the replay cores rely on: feeding two
        // trackers the same sequence yields the same f64 bits.
        let xs = [0.25, 3.5, 0.125, 2.0, 9.75, 0.5];
        let mut a = ServerLat::default();
        let mut b = ServerLat::default();
        for &x in &xs {
            a.observe(0.3, x);
            b.observe(0.3, x);
        }
        assert_eq!(a.fast().to_bits(), b.fast().to_bits());
        assert_eq!(a.baseline.mean().to_bits(), b.baseline.mean().to_bits());
    }
}
