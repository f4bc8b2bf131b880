//! [`ReplaySession`]: the single entry point for replaying traces.
//!
//! A session owns the replay's working state — scratch buffers, an
//! optional pinned schedule — plus the fault-injection state
//! ([`simrt::FaultPlan`]). One session replayed across a whole
//! experiment grid keeps the per-request path allocation-free, and
//! every failure mode surfaces as a [`ReplayError`] instead of a panic.
//!
//! Since 0.8 there is one `run` method: the payload (a materialized
//! [`Trace`] or a streaming [`BatchSource`]) travels inside a
//! [`ReplayInput`], and the replay core is picked by [`CoreSel`].
//! `CoreSel::Auto` reproduces the pre-0.8 defaults exactly: traces run
//! on the serial core, streams on the sharded per-server-lane core.
//! The two cores are bit-for-bit identical, so the selector is a
//! performance knob, never a semantics knob.

use crate::cluster::Cluster;
use crate::error::ReplayError;
use crate::fault::FaultRuntime;
use crate::replay::{replay_core, ReplayReport, ReplaySchedule, ReplayScratch, Resolver};
use crate::sched::SchedRuntime;
use crate::sharded::{sharded_core, ShardedScratch};
use iotrace::{BatchSource, Trace, TraceBatches};
use simrt::{FaultPlan, SchedPolicy};

/// What a replay consumes: a materialized trace or a phase stream.
pub(crate) enum ReplayPayload<'a> {
    /// A fully materialized trace (replayable by either core).
    Trace(&'a Trace),
    /// A streaming phase source (sharded core only; the full trace
    /// never materializes: peak memory is the widest single phase's
    /// records plus one replay window's sub-requests).
    Stream(&'a mut dyn BatchSource),
}

/// Everything one replay needs: the cluster, the payload, and the
/// resolver translating logical requests to physical extents.
pub struct ReplayInput<'a> {
    cluster: &'a mut Cluster,
    payload: ReplayPayload<'a>,
    resolver: &'a mut dyn Resolver,
}

impl<'a> ReplayInput<'a> {
    /// Replay a materialized `trace` against `cluster` through `resolver`.
    pub fn trace(
        cluster: &'a mut Cluster,
        trace: &'a Trace,
        resolver: &'a mut dyn Resolver,
    ) -> Self {
        ReplayInput { cluster, payload: ReplayPayload::Trace(trace), resolver }
    }

    /// Replay a streaming `source` against `cluster` through `resolver`.
    pub fn stream(
        cluster: &'a mut Cluster,
        source: &'a mut dyn BatchSource,
        resolver: &'a mut dyn Resolver,
    ) -> Self {
        ReplayInput { cluster, payload: ReplayPayload::Stream(source), resolver }
    }
}

/// Which replay core executes a [`ReplayInput`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreSel {
    /// Pick per payload: serial for traces, sharded for streams (the
    /// pre-0.8 behavior of `run` / `run_stream`).
    #[default]
    Auto,
    /// The serial replay loop. Requires a materialized trace; honors a
    /// pinned [`ReplaySchedule`].
    Serial,
    /// The per-server-lane core ([`crate::sharded`]): bit-identical to
    /// serial and several times faster at scale. A pinned schedule is
    /// ignored — the sharded core derives the same deterministic order
    /// from the phases themselves.
    Sharded,
}

/// Reusable replay context: scratch buffers, an optional pinned
/// [`ReplaySchedule`], and an optional [`FaultPlan`].
///
/// ```
/// use pfs_sim::{Cluster, ClusterConfig, CoreSel, IdentityResolver, ReplayInput, ReplaySession};
/// # use iotrace::Trace;
/// let mut cluster = Cluster::new(ClusterConfig::paper_default());
/// let mut session = ReplaySession::new();
/// let report = session
///     .run(
///         ReplayInput::trace(&mut cluster, &Trace::new(), &mut IdentityResolver),
///         CoreSel::Auto,
///     )
///     .unwrap();
/// assert_eq!(report.requests, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplaySession {
    /// Pinned schedule, when the caller hoisted it; otherwise the order
    /// is rebuilt per run from the scratch's schedule buffers.
    schedule: Option<ReplaySchedule>,
    scratch: ReplayScratch,
    sharded: ShardedScratch,
    fault: FaultPlan,
    sched: SchedRuntime,
}

impl ReplaySession {
    /// Fresh session: no pinned schedule, no faults, cold buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin a prebuilt schedule. Every subsequent serial run replays in
    /// exactly this order and rejects traces of a different shape with
    /// [`ReplayError::ScheduleMismatch`].
    #[must_use]
    pub fn with_schedule(mut self, schedule: ReplaySchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Attach a fault plan. An empty plan ([`FaultPlan::none`]) leaves
    /// replay bit-for-bit identical to the fault-free path.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Replace the fault plan in place (e.g. to sweep fault scenarios
    /// over one warmed-up session).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Attach a dispatch policy. The default
    /// [`SchedPolicy::SeededShuffle`] replays bit-identically to every
    /// pre-scheduler release; [`SchedPolicy::StragglerAware`] paces
    /// within-phase issue times by per-server latency EWMAs
    /// (and still degenerates to the exact blind schedule while no
    /// server looks suspect).
    #[must_use]
    pub fn with_sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.sched.set_policy(policy);
        self
    }

    /// Replace the dispatch policy in place (e.g. per tenant, or to
    /// sweep policies over one warmed-up session).
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.sched.set_policy(policy);
    }

    /// Replay `input` on the core picked by `core`.
    ///
    /// When the session carries a non-empty fault plan, the plan's
    /// device/link faults are materialized into the cluster first (once —
    /// `Cluster::apply_fault_plan` is skipped if faults were already
    /// applied, so repeated runs don't stack slowdowns), and its temporal
    /// faults drive per-sub-request admission during the run. Retry,
    /// timeout and health accounting land in the returned
    /// [`ReplayReport`].
    ///
    /// A streaming payload on [`CoreSel::Serial`] fails with
    /// [`ReplayError::StreamRequiresSharded`]; every other combination
    /// produces bit-identical reports across cores.
    pub fn run(
        &mut self,
        input: ReplayInput<'_>,
        core: CoreSel,
    ) -> Result<ReplayReport, ReplayError> {
        let ReplayInput { cluster, payload, resolver } = input;
        if let Err(reason) = self.sched.policy().validate() {
            return Err(ReplayError::InvalidSchedPolicy(reason));
        }
        let mut runtime = if self.fault.is_empty() {
            None
        } else {
            if !cluster.faults_applied() {
                cluster.apply_fault_plan(&self.fault)?;
            }
            Some(FaultRuntime::new(&self.fault, cluster.servers().len()))
        };
        match (payload, core) {
            (ReplayPayload::Trace(trace), CoreSel::Auto | CoreSel::Serial) => {
                match &self.schedule {
                    Some(schedule) => replay_core(
                        cluster,
                        trace,
                        schedule,
                        resolver,
                        &mut self.scratch,
                        runtime.as_mut(),
                        &mut self.sched,
                    ),
                    None => {
                        // Borrow dance: the schedule buffers live inside
                        // the scratch, so take them out while the scratch
                        // is mutably borrowed by the core.
                        let mut schedule = self.scratch.take_schedule();
                        schedule.rebuild(trace);
                        let report = replay_core(
                            cluster,
                            trace,
                            &schedule,
                            resolver,
                            &mut self.scratch,
                            runtime.as_mut(),
                            &mut self.sched,
                        );
                        self.scratch.put_schedule(schedule);
                        report
                    }
                }
            }
            (ReplayPayload::Trace(trace), CoreSel::Sharded) => sharded_core(
                cluster,
                &mut TraceBatches::new(trace),
                resolver,
                &mut self.sharded,
                runtime.as_mut(),
                &mut self.sched,
            ),
            (ReplayPayload::Stream(source), CoreSel::Auto | CoreSel::Sharded) => sharded_core(
                cluster,
                source,
                resolver,
                &mut self.sharded,
                runtime.as_mut(),
                &mut self.sched,
            ),
            (ReplayPayload::Stream(_), CoreSel::Serial) => {
                Err(ReplayError::StreamRequiresSharded)
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::replay::{Counters, IdentityResolver};
    use iotrace::gen::ior::{generate, IorConfig};
    use storage_model::IoOp;

    fn small_ior(op: IoOp) -> Trace {
        let mut cfg = IorConfig::default_run(op);
        cfg.reqs_per_proc = 8;
        cfg.proc_mix = vec![8];
        generate(&cfg)
    }

    fn run_serial(t: &Trace) -> ReplayReport {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        ReplaySession::new()
            .run(ReplayInput::trace(&mut c, t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap()
    }

    #[test]
    fn independent_sessions_are_bit_identical() {
        // Two fresh sessions over the same trace must agree bit for bit
        // on the fault-free path (the replay order depends only on the
        // trace, never on session history).
        for t in [small_ior(IoOp::Write), small_ior(IoOp::Read)] {
            let a = run_serial(&t);
            let b = run_serial(&t);
            assert_eq!(a, b);
            assert_eq!(b.counters, Counters::default());
        }
    }

    #[test]
    fn explicit_core_selection_is_bit_identical_to_auto() {
        let t = small_ior(IoOp::Write);
        let auto = run_serial(&t);
        for core in [CoreSel::Serial, CoreSel::Sharded] {
            let mut c = Cluster::new(ClusterConfig::paper_default());
            let r = ReplaySession::new()
                .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), core)
                .unwrap();
            assert_eq!(r, auto, "{core:?}");
        }
    }

    #[test]
    fn stream_on_serial_core_is_rejected() {
        let t = small_ior(IoOp::Write);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let err = ReplaySession::new()
            .run(
                ReplayInput::stream(&mut c, &mut TraceBatches::new(&t), &mut IdentityResolver),
                CoreSel::Serial,
            )
            .unwrap_err();
        assert_eq!(err, ReplayError::StreamRequiresSharded);
    }

    #[test]
    fn deprecated_shims_are_gone_and_run_covers_their_contracts() {
        // The 0.8 `run_sharded`/`run_stream` shims have been removed
        // after their one-release grace period; the unified `run` entry
        // point must deliver both contracts bit-identically: trace on
        // the sharded core, and a streamed source on the Auto pick.
        let t = small_ior(IoOp::Read);
        let unified = {
            let mut c = Cluster::new(ClusterConfig::paper_default());
            ReplaySession::new()
                .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Sharded)
                .unwrap()
        };
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let streamed = ReplaySession::new()
            .run(
                ReplayInput::stream(&mut c2, &mut TraceBatches::new(&t), &mut IdentityResolver),
                CoreSel::Auto,
            )
            .unwrap();
        assert_eq!(streamed, unified);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let t = small_ior(IoOp::Write);
        let plain = run_serial(&t);
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let faultless = ReplaySession::new()
            .with_fault_plan(FaultPlan::none())
            .run(ReplayInput::trace(&mut c2, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert_eq!(plain, faultless);
        assert!(!c2.faults_applied(), "empty plan must not touch the cluster");
    }

    #[test]
    fn pinned_schedule_rejects_wrong_trace() {
        let t = small_ior(IoOp::Write);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let err = ReplaySession::new()
            .with_schedule(ReplaySchedule::for_trace(&Trace::new()))
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap_err();
        assert_eq!(err, ReplayError::ScheduleMismatch { schedule: 0, trace: t.len() });
    }

    #[test]
    fn straggler_plan_slows_the_run_deterministically() {
        let t = small_ior(IoOp::Write);
        let base = run_serial(&t);
        let plan = FaultPlan::none().slow_server(0, 4.0);
        let run = |plan: FaultPlan| {
            let mut c = Cluster::new(ClusterConfig::paper_default());
            ReplaySession::new()
                .with_fault_plan(plan)
                .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
                .unwrap()
        };
        let r1 = run(plan.clone());
        let r2 = run(plan);
        assert!(r1.makespan > base.makespan, "straggler must cost time");
        assert_eq!(r1, r2, "same plan, same report");
        assert!((r1.per_server[0].slowdown - 4.0).abs() < 1e-12);
    }

    #[test]
    fn outage_accounts_retries_and_down_server_times_out() {
        let t = small_ior(IoOp::Write);
        // Server 0 is unreachable for the first 50 ms, server 1 dies at
        // t = 0: every sub-request to it burns the 2 s timeout.
        let plan = FaultPlan::none().outage(0, 0.0, 0.05).down(1, 0.0);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let r = ReplaySession::new()
            .with_fault_plan(plan)
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert!(r.counters.retries > 0, "outage must force retries");
        assert!(r.counters.timeouts > 0, "down server must time out");
        assert!(r.fault_wait > simrt::SimDuration::ZERO);
        assert_eq!(r.per_server[0].counters.retries, r.counters.retries);
        assert_eq!(r.per_server[1].counters.timeouts, r.counters.timeouts);
        assert!(r.per_server[1].down);
        assert_eq!(
            r.per_server[1].bytes_written, 0,
            "a dead server moves no bytes"
        );
        assert!(
            r.makespan.as_secs_f64() >= 2.0,
            "timeouts dominate the makespan: {:?}",
            r.makespan
        );
    }

    #[test]
    fn repeated_runs_do_not_stack_device_faults() {
        let t = small_ior(IoOp::Write);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let mut session = ReplaySession::new().with_fault_plan(FaultPlan::none().slow_server(0, 3.0));
        let r1 = session
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        let r2 = session
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert_eq!(r1, r2, "second run must not re-wrap the device");
    }

    #[test]
    fn fault_plan_out_of_range_surfaces_as_error() {
        let t = small_ior(IoOp::Write);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let servers = c.servers().len();
        let err = ReplaySession::new()
            .with_fault_plan(FaultPlan::none().slow_server(servers, 2.0))
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap_err();
        assert_eq!(err, ReplayError::FaultTargetOutOfRange { server: servers, servers });
    }

    #[test]
    fn bad_fault_factor_surfaces_as_error() {
        let t = small_ior(IoOp::Write);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let err = ReplaySession::new()
            .with_fault_plan(FaultPlan::none().slow_server(0, f64::NAN))
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap_err();
        assert!(matches!(err, ReplayError::InvalidFaultFactor { server: 0, .. }), "{err}");
    }
}
