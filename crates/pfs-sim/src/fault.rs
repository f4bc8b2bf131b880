//! Replay-side fault state machine: turns a declarative
//! [`simrt::FaultPlan`] into per-server admission decisions with retry,
//! backoff and timeout accounting.
//!
//! Device and link faults (slowdowns, degraded profiles) are materialized
//! once by [`crate::Cluster::apply_fault_plan`]; this runtime handles the
//! *temporal* faults — outage windows and permanent loss — which depend on
//! when each sub-request is issued.
//!
//! All accounting is **per server**: every counter lives in that server's
//! [`ServerFaultState`], and run totals are integer sums over servers.
//! This is what lets the sharded replay admit sub-requests lane-parallel
//! (one lane owns one server's state exclusively) and still report
//! bit-identical totals — integer sums are order-independent, so the
//! deterministic merge is just the sum in server order.

use crate::replay::Counters;
use simrt::{FaultKind, FaultPlan, ServerHealth, SimDuration, SimTime};

/// Outcome of asking whether a server will accept a sub-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Accepted at this (possibly backed-off) time.
    At(SimTime),
    /// The client gave up: retry budget exhausted or the server is gone.
    TimedOut,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct ServerFaultState {
    /// Instant the server is permanently lost, if ever.
    down_at: Option<SimTime>,
    /// Transient unavailability windows, half-open `[start, end)`.
    outages: Vec<(SimTime, SimTime)>,
    /// Retries spent against this server.
    retries: u64,
    /// Sub-requests abandoned against this server.
    timeouts: u64,
    /// Backoff time burned waiting out this server's outages.
    fault_wait: SimDuration,
}

impl ServerFaultState {
    fn covering_outage_end(&self, at: SimTime) -> Option<SimTime> {
        self.outages.iter().find(|&&(s, e)| at >= s && at < e).map(|&(_, e)| e)
    }
}

/// The scalar retry knobs shared by all servers — split from the mutable
/// per-server states so a lane-parallel admission pass can borrow the
/// policy immutably alongside disjoint `&mut ServerFaultState`s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryParams {
    backoff: SimDuration,
    max_retries: u32,
    /// Wall-clock charge for an abandoned sub-request.
    pub(crate) timeout: SimDuration,
}

impl RetryParams {
    /// Decide whether (and when) a sub-request issued at `at` is accepted
    /// by the server owning `state`. Requests inside an outage window
    /// retry with exponential backoff (`backoff · 2^i` after the i-th
    /// attempt) until the window passes or the budget runs out; requests
    /// at or after a permanent loss time out immediately.
    pub(crate) fn admit(&self, state: &mut ServerFaultState, at: SimTime) -> Admission {
        let mut t = at;
        let mut tries = 0u32;
        loop {
            if state.down_at.is_some_and(|d| t >= d) {
                state.timeouts += 1;
                return Admission::TimedOut;
            }
            if state.covering_outage_end(t).is_none() {
                break;
            }
            if tries >= self.max_retries {
                state.timeouts += 1;
                return Admission::TimedOut;
            }
            t += self.backoff * (1u64 << tries.min(32));
            tries += 1;
        }
        if tries > 0 {
            state.retries += u64::from(tries);
            state.fault_wait += t.since(at);
        }
        Admission::At(t)
    }
}

/// Mutable fault state for one replay run. Built fresh per run so the
/// counters always describe exactly one report.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    servers: Vec<ServerFaultState>,
    params: RetryParams,
    /// Planner-facing health summary echoed into the report.
    health: Vec<ServerHealth>,
}

impl FaultRuntime {
    /// Compile `plan` against a cluster of `servers` servers. Out-of-range
    /// targets must have been rejected earlier (by
    /// [`crate::Cluster::apply_fault_plan`]); here they are ignored so the
    /// runtime can never index out of bounds.
    pub(crate) fn new(plan: &FaultPlan, servers: usize) -> Self {
        let mut states = vec![ServerFaultState::default(); servers];
        for f in &plan.faults {
            let Some(s) = states.get_mut(f.server) else { continue };
            match f.kind {
                FaultKind::Outage { start_s, duration_s } => {
                    let start = SimTime::ZERO + SimDuration::from_secs_f64(start_s);
                    let end = start + SimDuration::from_secs_f64(duration_s);
                    s.outages.push((start, end));
                }
                FaultKind::Down { at_s } => {
                    let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
                    s.down_at = Some(s.down_at.map_or(at, |d: SimTime| d.min(at)));
                }
                FaultKind::Slowdown { .. }
                | FaultKind::SlowLink { .. }
                | FaultKind::Degraded { .. } => {}
            }
        }
        FaultRuntime {
            servers: states,
            params: RetryParams {
                backoff: SimDuration::from_secs_f64(plan.retry.backoff_s),
                max_retries: plan.retry.max_retries,
                timeout: SimDuration::from_secs_f64(plan.retry.timeout_s),
            },
            health: plan.health_view(servers),
        }
    }

    /// Wall-clock charge for an abandoned sub-request.
    pub(crate) fn timeout(&self) -> SimDuration {
        self.params.timeout
    }

    /// Serial admission against `server`'s state.
    pub(crate) fn admit(&mut self, server: usize, at: SimTime) -> Admission {
        self.params.admit(&mut self.servers[server], at)
    }

    /// The retry policy and the per-server states, for a lane-parallel
    /// admission pass (each lane takes exactly one state).
    pub(crate) fn lanes(&mut self) -> (RetryParams, &mut [ServerFaultState]) {
        (self.params, &mut self.servers)
    }

    /// Total time requests spent backed off in retry loops.
    pub(crate) fn fault_wait(&self) -> SimDuration {
        self.servers
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.fault_wait)
    }

    /// `server`'s retries and timeouts (every other count is 0).
    pub(crate) fn server_counters(&self, server: usize) -> Counters {
        self.servers.get(server).map_or_else(Counters::default, |s| Counters {
            retries: s.retries,
            timeouts: s.timeouts,
            ..Counters::default()
        })
    }

    /// The plan's health summary for `server`.
    pub(crate) fn server_health(&self, server: usize) -> ServerHealth {
        self.health.get(server).copied().unwrap_or_else(ServerHealth::nominal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrt::RetryPolicy;

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn counters(retries: u64, timeouts: u64) -> Counters {
        Counters { retries, timeouts, ..Counters::default() }
    }

    /// Every server's counters, in server order.
    fn all_counters(rt: &FaultRuntime) -> Vec<Counters> {
        (0..rt.servers.len()).map(|s| rt.server_counters(s)).collect()
    }

    #[test]
    fn healthy_server_admits_immediately() {
        let plan = FaultPlan::none().outage(1, 1.0, 1.0);
        let mut rt = FaultRuntime::new(&plan, 4);
        assert_eq!(rt.admit(0, at(1.5)), Admission::At(at(1.5)));
        assert_eq!(rt.admit(1, at(0.5)), Admission::At(at(0.5)), "before the window");
        assert_eq!(rt.admit(1, at(2.5)), Admission::At(at(2.5)), "after the window");
        assert_eq!(all_counters(&rt), vec![Counters::default(); 4]);
        assert_eq!(rt.fault_wait(), SimDuration::ZERO);
    }

    #[test]
    fn outage_backs_off_exponentially_until_clear() {
        // Window [1.0, 1.035): from t=1.0 the retries land at +10ms,
        // +30ms, +70ms — the third attempt clears the window.
        let plan = FaultPlan::none().outage(0, 1.0, 0.035);
        let mut rt = FaultRuntime::new(&plan, 1);
        let got = rt.admit(0, at(1.0));
        assert_eq!(got, Admission::At(at(1.0) + SimDuration::from_secs_f64(0.07)));
        assert_eq!(rt.server_counters(0), counters(3, 0));
        assert!((rt.fault_wait().as_secs_f64() - 0.07).abs() < 1e-9);
    }

    #[test]
    fn exhausted_retry_budget_times_out() {
        let plan = FaultPlan::none()
            .outage(0, 0.0, 3600.0)
            .with_retry(RetryPolicy { backoff_s: 1.0e-3, max_retries: 3, timeout_s: 2.0 });
        let mut rt = FaultRuntime::new(&plan, 1);
        assert_eq!(rt.admit(0, at(0.0)), Admission::TimedOut);
        assert_eq!(all_counters(&rt), vec![counters(0, 1)]);
        assert_eq!(rt.timeout(), SimDuration::from_secs_f64(2.0));
    }

    #[test]
    fn down_server_times_out_from_the_instant_of_loss() {
        let plan = FaultPlan::none().down(0, 1.0);
        let mut rt = FaultRuntime::new(&plan, 2);
        assert_eq!(rt.admit(0, at(0.5)), Admission::At(at(0.5)), "still alive");
        assert_eq!(rt.admit(0, at(1.0)), Admission::TimedOut);
        assert_eq!(rt.admit(0, at(7.0)), Admission::TimedOut, "never comes back");
        assert_eq!(rt.server_counters(0), counters(0, 2));
    }

    #[test]
    fn backoff_into_a_downed_server_times_out() {
        // Outage pushes the retry past the permanent-loss instant: the
        // retried attempt must hit the down check, not sneak through.
        let plan = FaultPlan::none().outage(0, 1.0, 0.05).down(0, 1.02);
        let mut rt = FaultRuntime::new(&plan, 1);
        assert_eq!(rt.admit(0, at(1.0)), Admission::TimedOut);
    }

    #[test]
    fn health_echo_matches_plan_view() {
        let plan = FaultPlan::none().slow_server(1, 5.0).down(2, 0.0);
        let rt = FaultRuntime::new(&plan, 3);
        assert_eq!(rt.server_health(0), ServerHealth::nominal());
        assert!((rt.server_health(1).speed_factor - 5.0).abs() < 1e-12);
        assert!(rt.server_health(2).down);
    }

    #[test]
    fn totals_are_sums_of_per_server_counters() {
        // Two servers with different fault shapes: each keeps its own
        // counts, and their merge is the run total a report carries (the
        // sharded merge invariant).
        let plan = FaultPlan::none().outage(0, 1.0, 0.035).down(1, 0.0);
        let mut rt = FaultRuntime::new(&plan, 2);
        rt.admit(0, at(1.0));
        rt.admit(1, at(0.5));
        rt.admit(1, at(2.0));
        assert_eq!(all_counters(&rt), vec![counters(3, 0), counters(0, 2)]);
        let mut total = Counters::default();
        all_counters(&rt).into_iter().for_each(|c| total.merge(c));
        assert_eq!(total, counters(3, 2));
    }

    #[test]
    fn lane_split_admission_matches_serial() {
        let plan = FaultPlan::none().outage(0, 1.0, 0.035).outage(1, 0.0, 0.5);
        let mut serial = FaultRuntime::new(&plan, 2);
        let a = serial.admit(0, at(1.0));
        let b = serial.admit(1, at(0.1));
        let mut laned = FaultRuntime::new(&plan, 2);
        let (params, states) = laned.lanes();
        // Admit in the opposite order through disjoint states — results
        // and totals must be unchanged.
        let (s0, s1) = states.split_at_mut(1);
        let b2 = params.admit(&mut s1[0], at(0.1));
        let a2 = params.admit(&mut s0[0], at(1.0));
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert_eq!(all_counters(&serial), all_counters(&laned));
        assert_eq!(serial.fault_wait(), laned.fault_wait());
    }
}
