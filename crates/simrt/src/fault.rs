//! Deterministic fault injection: the shared vocabulary for describing
//! degraded clusters.
//!
//! A [`FaultPlan`] is a deterministic description of everything
//! that is wrong with a cluster during one measurement window: per-server
//! slowdown factors (stragglers), degraded-device profiles, transient
//! unavailability windows, and permanent server loss. The plan itself is
//! pure data — `storage-model` maps device profiles onto concrete model
//! parameters, `netsim` applies link slowdowns, and `pfs-sim` drives the
//! retry/timeout state machine during replay. Keeping the vocabulary here
//! (the bottom of the crate stack) lets every layer speak it without
//! circular dependencies.
//!
//! Times are carried as `f64` seconds rather than [`crate::SimTime`]; the
//! consumers convert to nanosecond ticks at the boundary. An **empty
//! plan is a guarantee**: every consumer must behave bit-for-bit
//! identically to the fault-free code path when handed one.

/// What kind of degraded hardware a server pretends to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceProfile {
    /// Flash near end-of-life: the write cliff — heavy garbage collection,
    /// depressed sustained write rate. Reads are largely unaffected.
    WornSsd,
    /// An aged disk with grown defects: a fraction of blocks are remapped
    /// to the spare area, each access paying an extra full seek.
    AgedHdd,
}

impl DeviceProfile {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DeviceProfile::WornSsd => "worn-ssd",
            DeviceProfile::AgedHdd => "aged-hdd",
        }
    }

    /// Pessimistic service-time inflation this profile implies, used when
    /// summarizing a plan into per-server health factors.
    pub(crate) fn slowdown_estimate(self) -> f64 {
        match self {
            DeviceProfile::WornSsd => 3.0,
            DeviceProfile::AgedHdd => 1.5,
        }
    }
}

/// One fault pinned to one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Straggler: every device service time is multiplied by `factor`.
    Slowdown {
        /// Service-time multiplier (≥ 1; > 1 is slower).
        factor: f64,
    },
    /// Degraded NIC/link: wire times to and from the server's node are
    /// multiplied by `factor`.
    SlowLink {
        /// Wire-time multiplier (≥ 1; > 1 is slower).
        factor: f64,
    },
    /// Transient unavailability: requests arriving inside the window
    /// retry with exponential backoff until the window passes (or the
    /// retry budget runs out, which counts as a timeout).
    Outage {
        /// Window start, seconds of simulated time.
        start_s: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
    /// Permanent loss: every request arriving at or after `at_s` times
    /// out. The server never comes back.
    Down {
        /// Failure instant, seconds of simulated time.
        at_s: f64,
    },
    /// The server's device behaves like the given degraded profile.
    Degraded {
        /// Which degraded hardware profile to apply.
        profile: DeviceProfile,
    },
}

impl FaultKind {
    /// The factor of a `Slowdown` or `SlowLink` that is not finite or is
    /// below 1 (nominal speed); `None` for a usable factor and for every
    /// other kind. Consumers reject such a fault rather than apply it.
    pub fn bad_factor(&self) -> Option<f64> {
        match *self {
            FaultKind::Slowdown { factor } | FaultKind::SlowLink { factor }
                if !(factor.is_finite() && factor >= 1.0) =>
            {
                Some(factor)
            }
            _ => None,
        }
    }
}

/// A fault attached to a server index (cluster server numbering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFault {
    /// Target server index.
    pub server: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// Client-side retry/timeout policy used when a server is unavailable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First retry delay, seconds; doubles on every further retry.
    pub backoff_s: f64,
    /// Retries before the client gives up on a sub-request.
    pub max_retries: u32,
    /// Time a client waits on a lost server before declaring the
    /// sub-request failed, seconds.
    pub timeout_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { backoff_s: 10.0e-3, max_retries: 12, timeout_s: 2.0 }
    }
}

/// Observed health of one server, as a planner sees it: a summary of the
/// plan's faults suitable for down-weighting or excluding the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerHealth {
    /// Permanently lost (every request to it times out).
    pub down: bool,
    /// Combined service-time inflation (1.0 = nominal).
    pub speed_factor: f64,
}

impl ServerHealth {
    /// A healthy server.
    pub fn nominal() -> Self {
        ServerHealth { down: false, speed_factor: 1.0 }
    }
}

/// A deterministic fault schedule for one replay.
///
/// The empty plan ([`FaultPlan::none`]) is the common case and is
/// guaranteed to change nothing: replaying with it produces bit-identical
/// reports to not passing a plan at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The injected faults.
    pub faults: Vec<ServerFault>,
    /// Retry/timeout behaviour of clients facing unavailable servers.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty plan: nothing is wrong.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects no faults (the bit-identical path).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add a straggler: server `server` serves `factor`× slower.
    pub fn slow_server(mut self, server: usize, factor: f64) -> Self {
        self.faults.push(ServerFault { server, kind: FaultKind::Slowdown { factor } });
        self
    }

    /// Add a degraded link on `server`'s node.
    pub fn slow_link(mut self, server: usize, factor: f64) -> Self {
        self.faults.push(ServerFault { server, kind: FaultKind::SlowLink { factor } });
        self
    }

    /// Add a transient outage window on `server`.
    pub fn outage(mut self, server: usize, start_s: f64, duration_s: f64) -> Self {
        self.faults
            .push(ServerFault { server, kind: FaultKind::Outage { start_s, duration_s } });
        self
    }

    /// Permanently lose `server` at `at_s` seconds.
    pub fn down(mut self, server: usize, at_s: f64) -> Self {
        self.faults.push(ServerFault { server, kind: FaultKind::Down { at_s } });
        self
    }

    /// Replace `server`'s device with a degraded profile.
    pub fn degraded(mut self, server: usize, profile: DeviceProfile) -> Self {
        self.faults.push(ServerFault { server, kind: FaultKind::Degraded { profile } });
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Summarize the plan into per-server health, the planner-facing
    /// view: slowdowns, slow links and degraded profiles multiply into a
    /// `speed_factor`; outages apply `outage_penalty` (they make a server
    /// unreliable for the whole window, which a planner cannot schedule
    /// around at finer grain); `Down` marks the server lost.
    pub fn health_view(&self, servers: usize) -> Vec<ServerHealth> {
        let mut health = vec![ServerHealth::nominal(); servers];
        const OUTAGE_PENALTY: f64 = 4.0;
        for f in &self.faults {
            let Some(h) = health.get_mut(f.server) else { continue };
            match f.kind {
                FaultKind::Slowdown { factor } | FaultKind::SlowLink { factor } => {
                    h.speed_factor *= factor;
                }
                FaultKind::Outage { .. } => h.speed_factor *= OUTAGE_PENALTY,
                FaultKind::Down { .. } => h.down = true,
                FaultKind::Degraded { profile } => {
                    h.speed_factor *= profile.slowdown_estimate();
                }
            }
        }
        health
    }

    /// Largest server index referenced by the plan, if any.
    pub fn max_server(&self) -> Option<usize> {
        self.faults.iter().map(|f| f.server).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::none().max_server().is_none());
    }

    #[test]
    fn builders_accumulate_faults() {
        let p = FaultPlan::none()
            .slow_server(2, 6.0)
            .outage(6, 1.0, 2.0)
            .down(0, 0.0)
            .degraded(7, DeviceProfile::WornSsd);
        assert_eq!(p.faults.len(), 4);
        assert_eq!(p.max_server(), Some(7));
        assert!(!p.is_empty());
    }

    #[test]
    fn health_view_summarizes_faults() {
        let p = FaultPlan::none().slow_server(1, 3.0).slow_link(1, 2.0).down(4, 0.5);
        let h = p.health_view(6);
        assert_eq!(h.len(), 6);
        assert_eq!(h[0], ServerHealth::nominal());
        assert!((h[1].speed_factor - 6.0).abs() < 1e-12, "factors multiply");
        assert!(h[4].down);
        assert_eq!(h[5], ServerHealth::nominal());
    }

    #[test]
    fn health_view_ignores_out_of_range_targets() {
        let p = FaultPlan::none().slow_server(99, 2.0);
        let h = p.health_view(4);
        assert!(h.iter().all(|x| *x == ServerHealth::nominal()));
    }
}
