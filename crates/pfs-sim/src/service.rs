//! [`LayoutService`]: a long-running, multi-tenant layout service over
//! one shared cluster.
//!
//! The single-shot pipeline (trace in, report out) models one experiment.
//! A real deployment is a *service*: many tenants submit job streams
//! against the same cluster and metadata server, and the interesting
//! questions become sustained throughput, per-tenant tail latency, and
//! whether one tenant's layout churn can corrupt another's results.
//!
//! The service is fully deterministic:
//!
//! * **Arrivals** come from a seeded open-loop Poisson process
//!   ([`simrt::ArrivalProcess`]), one per tenant, derived from the
//!   service seed and the tenant id — the same seed always yields the
//!   same interleaving, regardless of tenant registration order.
//! * **Admission** is a bounded per-tenant queue: a job arriving while
//!   `queue_depth` of its tenant's jobs are still in flight is rejected
//!   (open-loop systems shed load instead of slowing the submitter).
//! * **Execution** is FIFO over the shared cluster: each admitted job
//!   replays through the sharded streaming core, and the service clock
//!   advances by the job's makespan. `crate::cluster::Cluster::reset`
//!   at each replay keeps device/queue state from leaking across jobs
//!   while installed MDS layouts persist — exactly the composition model
//!   the single-shot pipeline already used for sequential runs.
//! * **Tenancy** lives in the file-id namespace: each job is retagged
//!   into its tenant's id space ([`iotrace::FileId::with_tenant`]) when
//!   it is dispatched, so the shared MDS shards rows per tenant and
//!   layout updates can never collide. Queued jobs are held as
//!   submitted, and one reused buffer holds the dispatched job's tagged
//!   records. Tenant 0 is the identity namespace: a 1-tenant service
//!   run is bit-identical to a plain streaming replay of the same trace.
//!
//! Per-tenant planning (online re-planning, lazy migration) plugs in
//! through [`TenantRuntime`]: the service calls back after every
//! completed job and installs whatever layout updates the runtime
//! returns into the shared MDS.

use crate::cluster::Cluster;
use crate::error::ReplayError;
use crate::layout::LayoutSpec;
use crate::replay::{Counters, IdentityResolver, ReplayReport, Resolver, ServerIoStat};
use crate::session::{CoreSel, ReplayInput, ReplaySession};
use iotrace::{FileId, TenantId, Trace, TraceBatches};
use simrt::{ArrivalProcess, SeedSeq, SimDuration, SimTime};

/// Per-tenant planning hook: how a tenant's jobs resolve requests, and
/// what layout updates each completed job feeds back into the shared
/// MDS.
pub trait TenantRuntime {
    /// Resolver used while replaying this tenant's jobs (e.g. a lazy
    /// migrator's redirect table). Called once per job.
    fn resolver(&mut self) -> &mut dyn Resolver;

    /// Observe a completed job (records already retagged into the
    /// tenant's namespace) and return layout updates for the shared MDS.
    /// File ids in the updates must live in the tenant's namespace.
    fn after_job(&mut self, trace: &Trace) -> Vec<(FileId, LayoutSpec)>;
}

/// The no-op runtime: identity resolution, no layout feedback. A service
/// of `NullRuntime` tenants measures pure replay interleaving.
#[derive(Debug, Default)]
pub struct NullRuntime(IdentityResolver);

impl NullRuntime {
    /// A fresh no-op runtime.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TenantRuntime for NullRuntime {
    fn resolver(&mut self) -> &mut dyn Resolver {
        &mut self.0
    }

    fn after_job(&mut self, _trace: &Trace) -> Vec<(FileId, LayoutSpec)> {
        Vec::new()
    }
}

/// Service-level knobs: the arrival seed, the open-loop arrival rate,
/// and the per-tenant admission bound.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    seed: u64,
    mean_interarrival: SimDuration,
    queue_depth: usize,
}

impl ServiceConfig {
    /// Defaults: 50 ms mean interarrival per tenant, queue depth 4.
    pub fn new(seed: u64) -> Self {
        ServiceConfig {
            seed,
            mean_interarrival: SimDuration::from_millis(50),
            queue_depth: 4,
        }
    }

    /// Per-tenant admission bound: a job arriving with this many of its
    /// tenant's jobs still in flight is rejected.
    ///
    /// # Panics
    /// If zero (every job would be rejected).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }
}

/// One admitted job's lifecycle inside a [`ServiceReport`]. Its
/// per-server breakdown is folded into its tenant's
/// [`TenantSummary::per_server`], so a job record's size does not grow
/// with the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Submission index within the tenant (0-based).
    pub seq: u32,
    /// Open-loop arrival instant.
    pub arrival: SimTime,
    /// When the shared cluster started serving the job.
    pub start: SimTime,
    /// `start + report.makespan`.
    pub completion: SimTime,
    /// The job's replay report: bit-identical to a standalone replay of
    /// the same trace against the same installed layouts, except that
    /// its `per_server` is empty (the service folds it into
    /// [`TenantSummary::per_server`]).
    pub report: ReplayReport,
}

impl JobRecord {
    /// Arrival-to-completion latency in seconds (queueing + service).
    pub fn latency_secs(&self) -> f64 {
        self.completion.since(self.arrival).as_secs_f64()
    }
}

/// Per-tenant roll-up of completion latencies and per-server load.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: TenantId,
    /// Jobs admitted and completed.
    pub completed: usize,
    /// Jobs shed by the admission bound.
    pub rejected: usize,
    /// Median arrival-to-completion latency, seconds (0 if none completed).
    pub p50_latency: f64,
    /// 95th-percentile latency, seconds.
    pub p95_latency: f64,
    /// 99th-percentile latency, seconds.
    pub p99_latency: f64,
    /// The tenant's per-server load: every completed job's
    /// [`ReplayReport::per_server`] merged with `ServerIoStat::merge`,
    /// one entry per server in server order (empty if no job completed).
    pub per_server: Vec<ServerIoStat>,
}

/// What a service run produces: every admitted job's lifecycle, the
/// shed-load count, and per-tenant summaries. Jobs carry no per-server
/// stats; each tenant's summary holds their totals, so a report holds
/// O(jobs + tenants × servers) bytes. Two reports compare equal only
/// when every job's lifecycle and replay report and every tenant's
/// summary match exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Admitted jobs in service (start-time) order.
    pub jobs: Vec<JobRecord>,
    /// Total jobs rejected by the admission bound.
    pub rejected: usize,
    /// Last completion instant (ZERO when nothing was admitted).
    pub makespan: SimTime,
    /// Bytes moved by all admitted jobs.
    pub total_bytes: u64,
    /// Per-tenant summaries, in tenant-id order.
    pub tenants: Vec<TenantSummary>,
    /// The merge of every job's counters: retries, timeouts, degraded-mode
    /// work and straggler-aware deferrals across the whole service run.
    pub counters: Counters,
}

impl ServiceReport {
    /// Sustained aggregate bandwidth over the whole service run, MB/s
    /// (decimal megabytes — comparable to [`ReplayReport::bandwidth_mbps`]).
    pub fn aggregate_mbps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / secs
    }
}

struct TenantEntry<'a> {
    tenant: TenantId,
    runtime: Box<dyn TenantRuntime + 'a>,
    jobs: Vec<Trace>,
}

/// The multi-tenant layout service (see the module docs for the model).
pub struct LayoutService<'a> {
    cluster: &'a mut Cluster,
    cfg: ServiceConfig,
    /// Sorted by tenant id, so arrivals and reports never depend on
    /// registration order.
    tenants: Vec<TenantEntry<'a>>,
    session: ReplaySession,
}

impl<'a> LayoutService<'a> {
    /// A service over `cluster` with the given config and no tenants.
    pub fn new(cluster: &'a mut Cluster, cfg: ServiceConfig) -> Self {
        LayoutService { cluster, cfg, tenants: Vec::new(), session: ReplaySession::new() }
    }

    /// Register `tenant` with its planning runtime.
    ///
    /// # Panics
    /// If the tenant is already registered.
    pub fn add_tenant(&mut self, tenant: TenantId, runtime: Box<dyn TenantRuntime + 'a>) {
        match self.tenants.binary_search_by_key(&tenant, |e| e.tenant) {
            Ok(_) => panic!("tenant {} registered twice", tenant.0),
            Err(i) => self.tenants.insert(
                i,
                TenantEntry {
                    tenant,
                    runtime,
                    jobs: Vec::new(),
                },
            ),
        }
    }

    /// Submit one job for `tenant` and return its submission index.
    /// The service keeps `trace` as given (a [`Trace`] clone shares its
    /// records); [`LayoutService::run`] retags each job into the
    /// tenant's file-id namespace when it dispatches it (tenant 0 is the
    /// identity, so legacy traces pass through untouched).
    ///
    /// # Panics
    /// If the tenant is unknown, or a record's file id overflows the
    /// tenant-local namespace ([`iotrace::FileId::with_tenant`]) — here,
    /// not later in `run`.
    pub fn submit(&mut self, tenant: TenantId, trace: Trace) -> u32 {
        let i = self
            .tenants
            .binary_search_by_key(&tenant, |e| e.tenant)
            .unwrap_or_else(|_| panic!("tenant {} not registered", tenant.0));
        // The retag waits for dispatch; its overflow check runs now.
        if tenant.0 != 0 {
            for r in trace.records() {
                FileId::with_tenant(tenant, r.file);
            }
        }
        let entry = &mut self.tenants[i];
        entry.jobs.push(trace);
        (entry.jobs.len() - 1) as u32
    }

    /// Run the service to completion over every submitted job.
    ///
    /// Arrivals are drawn per tenant from the service seed, merged into
    /// one schedule (ties broken by tenant id, then submission index),
    /// gated by the admission bound, and served FIFO on the shared
    /// cluster. Deterministic: same seed, same tenants, same jobs —
    /// bit-identical report.
    pub fn run(&mut self) -> Result<ServiceReport, ReplayError> {
        struct Pending {
            tenant_ix: usize,
            tenant: TenantId,
            seq: u32,
            arrival: SimTime,
        }
        let mut schedule: Vec<Pending> = Vec::new();
        for (ix, entry) in self.tenants.iter().enumerate() {
            let seed = SeedSeq::new(self.cfg.seed)
                .derive_idx("tenant-arrivals", u64::from(entry.tenant.0));
            let mut arrivals = ArrivalProcess::new(seed, self.cfg.mean_interarrival);
            for seq in 0..entry.jobs.len() {
                schedule.push(Pending {
                    tenant_ix: ix,
                    tenant: entry.tenant,
                    seq: seq as u32,
                    arrival: arrivals.next_arrival(),
                });
            }
        }
        schedule.sort_by_key(|p| (p.arrival, p.tenant, p.seq));

        let mut free_at = SimTime::ZERO;
        // Admitted jobs still running at the latest arrival.
        let mut in_flight: Vec<(usize, SimTime)> = Vec::new();
        let mut jobs: Vec<JobRecord> = Vec::new();
        let mut rejected_by_tenant = vec![0usize; self.tenants.len()];
        let mut per_server: Vec<Vec<ServerIoStat>> = vec![Vec::new(); self.tenants.len()];
        let mut total_bytes = 0u64;
        let mut counters = Counters::default();
        // One retag buffer serves every dispatched job of a non-zero tenant.
        let mut tagged = Trace::new();
        for p in schedule {
            // Arrivals come in order: a job done by this one is done by
            // every later one too.
            in_flight.retain(|&(_, done)| done > p.arrival);
            let backlog = in_flight.iter().filter(|&&(ix, _)| ix == p.tenant_ix).count();
            if backlog >= self.cfg.queue_depth {
                rejected_by_tenant[p.tenant_ix] += 1;
                continue;
            }
            let entry = &mut self.tenants[p.tenant_ix];
            let mut trace = &entry.jobs[p.seq as usize];
            if p.tenant.0 != 0 {
                trace.retag_into(p.tenant, &mut tagged);
                trace = &tagged;
            }
            let mut batches = TraceBatches::new(trace);
            let mut report = self.session.run(
                ReplayInput::stream(self.cluster, &mut batches, entry.runtime.resolver()),
                CoreSel::Sharded,
            )?;
            let start = free_at.max(p.arrival);
            let completion = start + report.makespan;
            free_at = completion;
            in_flight.push((p.tenant_ix, completion));
            total_bytes += report.total_bytes;
            counters.merge(report.counters);
            let servers = std::mem::take(&mut report.per_server);
            let totals = &mut per_server[p.tenant_ix];
            if totals.is_empty() {
                *totals = servers;
            } else {
                for (total, s) in totals.iter_mut().zip(&servers) {
                    total.merge(s);
                }
            }
            for (file, layout) in entry.runtime.after_job(trace) {
                self.cluster.mds_mut().set_layout(file, layout);
            }
            jobs.push(JobRecord {
                tenant: p.tenant,
                seq: p.seq,
                arrival: p.arrival,
                start,
                completion,
                report,
            });
        }

        let tenants = self
            .tenants
            .iter()
            .zip(per_server)
            .enumerate()
            .map(|(ix, (entry, per_server))| {
                let lat: Vec<f64> = jobs
                    .iter()
                    .filter(|j| j.tenant == entry.tenant)
                    .map(JobRecord::latency_secs)
                    .collect();
                let pct = |q: f64| if lat.is_empty() { 0.0 } else { simrt::stats::percentile(&lat, q) };
                TenantSummary {
                    tenant: entry.tenant,
                    completed: lat.len(),
                    rejected: rejected_by_tenant[ix],
                    p50_latency: pct(0.50),
                    p95_latency: pct(0.95),
                    p99_latency: pct(0.99),
                    per_server,
                }
            })
            .collect();
        Ok(ServiceReport {
            rejected: rejected_by_tenant.iter().sum(),
            makespan: free_at,
            total_bytes,
            jobs,
            tenants,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::layout::ServerId;
    use crate::replay::PhysExtent;
    use iotrace::gen::ior::{generate, IorConfig};
    use iotrace::TraceRecord;
    use std::cell::RefCell;
    use std::rc::Rc;
    use storage_model::IoOp;

    fn small_ior(reqs: usize) -> Trace {
        let mut cfg = IorConfig::default_run(IoOp::Write);
        cfg.reqs_per_proc = reqs;
        cfg.proc_mix = vec![4];
        generate(&cfg)
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::paper_default())
    }

    /// Test runtime: installs one fixed layout per file it sees, counts
    /// callbacks.
    struct Recorder {
        resolver: IdentityResolver,
        seen_jobs: usize,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder { resolver: IdentityResolver, seen_jobs: 0 }
        }
    }

    impl TenantRuntime for Recorder {
        fn resolver(&mut self) -> &mut dyn Resolver {
            &mut self.resolver
        }

        fn after_job(&mut self, trace: &Trace) -> Vec<(FileId, LayoutSpec)> {
            self.seen_jobs += 1;
            trace
                .files()
                .into_iter()
                .map(|f| (f, LayoutSpec::fixed(&[ServerId(0)], 4 << 10)))
                .collect()
        }
    }

    #[test]
    fn one_tenant_run_is_bit_identical_to_a_plain_streaming_replay() {
        let t = small_ior(6);
        let mut standalone = {
            let mut c = cluster();
            ReplaySession::new()
                .run(
                    ReplayInput::stream(&mut c, &mut TraceBatches::new(&t), &mut IdentityResolver),
                    CoreSel::Auto,
                )
                .unwrap()
        };
        let mut c = cluster();
        let mut svc = LayoutService::new(&mut c, ServiceConfig::new(7));
        svc.add_tenant(TenantId(0), Box::new(NullRuntime::new()));
        svc.submit(TenantId(0), t);
        let report = svc.run().unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.rejected, 0);
        // The job's per-server stats live in its tenant's summary.
        let per_server = std::mem::take(&mut standalone.per_server);
        assert_eq!(per_server.len(), 8);
        assert_eq!(report.jobs[0].report, standalone);
        assert_eq!(report.tenants[0].per_server, per_server);
    }

    #[test]
    fn degraded_service_run_surfaces_redundancy_accounting() {
        // A replicated layout, one lost server, a read-heavy tenant: the
        // service must complete every job via replica failovers and roll
        // the degraded-mode counters up into the ServiceReport.
        let t = {
            let mut cfg = IorConfig::default_run(IoOp::Read);
            cfg.reqs_per_proc = 4;
            cfg.proc_mix = vec![4];
            generate(&cfg)
        };
        let mut c = cluster();
        let all: Vec<ServerId> = (0..8).map(ServerId).collect();
        c.mds_mut().set_layout(
            FileId(0),
            LayoutSpec::fixed(&all, 64 << 10).with_placement(crate::Placement::Replicated(3)),
        );
        let mut svc = LayoutService::new(&mut c, ServiceConfig::new(7));
        svc.session.set_fault_plan(simrt::FaultPlan::none().down(1, 0.0));
        svc.add_tenant(TenantId(0), Box::new(NullRuntime::new()));
        svc.submit(TenantId(0), t.clone());
        svc.submit(TenantId(0), t);
        let report = svc.run().unwrap();
        assert_eq!(report.jobs.len(), 2);
        assert!(report.counters.failovers > 0, "lost primary must fail over");
        assert_eq!(report.counters.degraded_reads, 0, "replication reconstructs nothing");
        // Each level is the merge of the one below: a tenant's jobs'
        // counters are its servers' totals plus its deferrals, the
        // service's are its jobs'.
        let mut service_total = Counters::default();
        for tenant in &report.tenants {
            let mut jobs_total = Counters::default();
            for j in report.jobs.iter().filter(|j| j.tenant == tenant.tenant) {
                assert_eq!(j.report.counters.timeouts, 0, "redundant jobs must complete");
                assert!(j.report.per_server.is_empty(), "per-server stats live in the tenant");
                jobs_total.merge(j.report.counters);
            }
            let mut servers_total = Counters {
                deferred_requests: jobs_total.deferred_requests,
                ..Counters::default()
            };
            assert_eq!(tenant.per_server.len(), 8);
            for s in &tenant.per_server {
                assert_eq!(s.counters.deferred_requests, 0, "deferral is per request");
                servers_total.merge(s.counters);
            }
            assert!(tenant.per_server[1].down, "the lost server stays marked down");
            assert_eq!(jobs_total, servers_total);
            service_total.merge(jobs_total);
        }
        assert_eq!(report.counters, service_total);
    }

    #[test]
    fn same_seed_same_interleaving_bit_for_bit() {
        let run = || {
            let mut c = cluster();
            let mut svc = LayoutService::new(
                &mut c,
                ServiceConfig {
                    mean_interarrival: SimDuration::from_millis(5),
                    ..ServiceConfig::new(42)
                },
            );
            for t in 0..3u32 {
                svc.add_tenant(TenantId(t), Box::new(NullRuntime::new()));
                for reqs in [2usize, 3, 4] {
                    svc.submit(TenantId(t), small_ior(reqs));
                }
            }
            svc.run().unwrap()
        };
        assert!(run() == run(), "same seed, same service report");
    }

    #[test]
    fn registration_order_does_not_change_the_schedule() {
        let run = |order: &[u32]| {
            let mut c = cluster();
            let mut svc = LayoutService::new(&mut c, ServiceConfig::new(9));
            for &t in order {
                svc.add_tenant(TenantId(t), Box::new(NullRuntime::new()));
            }
            for &t in order {
                svc.submit(TenantId(t), small_ior(2));
            }
            svc.run().unwrap()
        };
        assert!(run(&[2, 0, 1]) == run(&[0, 1, 2]), "registration order leaked into the report");
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed: u64| {
            let mut c = cluster();
            let mut svc = LayoutService::new(&mut c, ServiceConfig::new(seed));
            svc.add_tenant(TenantId(1), Box::new(NullRuntime::new()));
            svc.submit(TenantId(1), small_ior(2));
            svc.run().unwrap()
        };
        assert_ne!(
            run(1).jobs[0].arrival.as_nanos(),
            run(2).jobs[0].arrival.as_nanos()
        );
    }

    #[test]
    fn admission_bound_sheds_load() {
        // Arrivals every ~1 µs against multi-ms jobs: with depth 1 most
        // of the burst must be shed; with a deep queue nothing is.
        let run = |depth: usize| {
            let mut c = cluster();
            let mut svc = LayoutService::new(
                &mut c,
                ServiceConfig {
                    mean_interarrival: SimDuration::from_micros(1),
                    ..ServiceConfig::new(3)
                }
                .queue_depth(depth),
            );
            svc.add_tenant(TenantId(1), Box::new(NullRuntime::new()));
            for _ in 0..6 {
                svc.submit(TenantId(1), small_ior(4));
            }
            svc.run().unwrap()
        };
        let shallow = run(1);
        assert!(shallow.rejected > 0, "burst against depth 1 must shed");
        assert_eq!(shallow.jobs.len() + shallow.rejected, 6);
        assert_eq!(shallow.tenants[0].rejected, shallow.rejected);
        let deep = run(64);
        assert_eq!(deep.rejected, 0, "deep queue admits everything");
        assert_eq!(deep.jobs.len(), 6);
    }

    #[test]
    fn admission_counts_each_tenants_jobs_still_in_flight() {
        // Three tenants against depth 2, their jobs arriving about as
        // fast as the shared cluster serves them, so admits and rejects
        // mix: rebuild the merged arrival schedule and check every admit
        // or reject against the admitted jobs of its tenant that are
        // still running when it arrives.
        const DEPTH: usize = 2;
        const JOBS: u32 = 16;
        let (seed, gap) = (21, SimDuration::from_millis(35));
        let mut c = cluster();
        let mut svc = LayoutService::new(
            &mut c,
            ServiceConfig { mean_interarrival: gap, ..ServiceConfig::new(seed) }.queue_depth(DEPTH),
        );
        for t in 1..=3u32 {
            svc.add_tenant(TenantId(t), Box::new(NullRuntime::new()));
            for j in 0..JOBS {
                svc.submit(TenantId(t), small_ior(1 + (t + j) as usize % 3));
            }
        }
        let report = svc.run().unwrap();
        let mut schedule = Vec::new();
        for t in 1..=3u32 {
            let seed = SeedSeq::new(seed).derive_idx("tenant-arrivals", u64::from(t));
            let mut arrivals = ArrivalProcess::new(seed, gap);
            schedule.extend((0..JOBS).map(|seq| (arrivals.next_arrival(), TenantId(t), seq)));
        }
        schedule.sort();
        let mut admitted = report.jobs.iter().peekable();
        let mut done: Vec<&JobRecord> = Vec::new();
        let mut rejected = [0usize; 3];
        for (arrival, tenant, seq) in schedule {
            let backlog =
                done.iter().filter(|j| j.tenant == tenant && j.completion > arrival).count();
            let what = format!("tenant {} job {seq} with {backlog} in flight", tenant.0);
            match admitted.next_if(|j| (j.tenant, j.seq) == (tenant, seq)) {
                Some(job) => {
                    assert!(backlog < DEPTH, "{what} admitted over the bound");
                    assert_eq!(job.arrival, arrival);
                    done.push(job);
                }
                None => {
                    assert!(backlog >= DEPTH, "{what} rejected under the bound");
                    rejected[tenant.0 as usize - 1] += 1;
                }
            }
        }
        assert!(admitted.next().is_none(), "every admitted job is in the schedule");
        let by_tenant: Vec<usize> = report.tenants.iter().map(|s| s.rejected).collect();
        assert_eq!(by_tenant, rejected);
        assert!(report.rejected > 0 && !report.jobs.is_empty(), "the burst both admits and sheds");
    }

    #[test]
    fn co_tenant_does_not_perturb_a_tenants_replay_reports() {
        // The isolation property: tenant 2's per-job replay reports are
        // bit-identical whether or not tenant 1 shares the service.
        // (Latencies shift — the cluster is shared — but results don't.)
        let solo = {
            let mut c = cluster();
            let mut svc = LayoutService::new(&mut c, ServiceConfig::new(11));
            svc.add_tenant(TenantId(2), Box::new(Recorder::new()));
            for _ in 0..3 {
                svc.submit(TenantId(2), small_ior(3));
            }
            svc.run().unwrap()
        };
        let shared = {
            let mut c = cluster();
            let mut svc = LayoutService::new(&mut c, ServiceConfig::new(11));
            svc.add_tenant(TenantId(1), Box::new(Recorder::new()));
            svc.add_tenant(TenantId(2), Box::new(Recorder::new()));
            for _ in 0..3 {
                svc.submit(TenantId(1), small_ior(5));
                svc.submit(TenantId(2), small_ior(3));
            }
            svc.run().unwrap()
        };
        let reports = |r: &ServiceReport, t: u32| -> Vec<ReplayReport> {
            r.jobs.iter().filter(|j| j.tenant.0 == t).map(|j| j.report.clone()).collect()
        };
        assert!(reports(&solo, 2) == reports(&shared, 2), "co-tenant changed a replay report");
        let servers = |r: &ServiceReport, t: u32| -> Vec<ServerIoStat> {
            r.tenants.iter().find(|s| s.tenant.0 == t).unwrap().per_server.clone()
        };
        assert_eq!(servers(&solo, 2).len(), 8);
        assert!(servers(&solo, 2) == servers(&shared, 2), "co-tenant changed per-server totals");
        // Arrivals are also identical (derived from the tenant id, not
        // the tenant set); only start/completion may differ.
        let arrivals = |r: &ServiceReport, t: u32| -> Vec<u64> {
            r.jobs
                .iter()
                .filter(|j| j.tenant.0 == t)
                .map(|j| j.arrival.as_nanos())
                .collect()
        };
        assert_eq!(arrivals(&solo, 2), arrivals(&shared, 2));
    }

    #[test]
    fn runtime_feedback_lands_in_the_tenants_mds_shard() {
        let mut c = cluster();
        let report = {
            let mut svc = LayoutService::new(&mut c, ServiceConfig::new(5));
            svc.add_tenant(TenantId(1), Box::new(Recorder::new()));
            svc.add_tenant(TenantId(2), Box::new(Recorder::new()));
            // Same local file ids on both tenants: the namespace keeps
            // them apart in the shared MDS.
            svc.submit(TenantId(1), small_ior(2));
            svc.submit(TenantId(2), small_ior(2));
            svc.run().unwrap()
        };
        assert_eq!(report.jobs.len(), 2);
        let t1: Vec<FileId> = c.mds().tenant_layouts(TenantId(1)).map(|(f, _)| f).collect();
        let t2: Vec<FileId> = c.mds().tenant_layouts(TenantId(2)).map(|(f, _)| f).collect();
        assert!(!t1.is_empty() && t1.len() == t2.len());
        assert!(t1.iter().all(|f| f.tenant() == TenantId(1)));
        assert!(t2.iter().all(|f| f.tenant() == TenantId(2)));
        assert_eq!(
            t1.iter().map(|f| f.local()).collect::<Vec<_>>(),
            t2.iter().map(|f| f.local()).collect::<Vec<_>>(),
            "same local files, disjoint shards"
        );
    }

    #[test]
    fn percentiles_summarize_latencies() {
        let mut c = cluster();
        let mut svc = LayoutService::new(
            &mut c,
            ServiceConfig {
                mean_interarrival: SimDuration::from_micros(10),
                ..ServiceConfig::new(2)
            },
        );
        svc.add_tenant(TenantId(0), Box::new(NullRuntime::new()));
        for _ in 0..8 {
            svc.submit(TenantId(0), small_ior(2));
        }
        let r = svc.run().unwrap();
        let s = &r.tenants[0];
        assert_eq!(s.completed + s.rejected, 8);
        assert!(s.p50_latency > 0.0);
        assert!(s.p50_latency <= s.p95_latency && s.p95_latency <= s.p99_latency);
        assert!(r.aggregate_mbps() > 0.0);
        assert_eq!(r.makespan, r.jobs.last().unwrap().completion);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_tenant_rejected() {
        let mut c = cluster();
        let mut svc = LayoutService::new(&mut c, ServiceConfig::new(0));
        svc.add_tenant(TenantId(1), Box::new(NullRuntime::new()));
        svc.add_tenant(TenantId(1), Box::new(NullRuntime::new()));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_tenant_rejected() {
        let mut c = cluster();
        let mut svc = LayoutService::new(&mut c, ServiceConfig::new(0));
        svc.submit(TenantId(9), Trace::new());
    }

    #[test]
    #[should_panic(expected = "overflows the tenant-local namespace")]
    fn overflowing_file_id_panics_in_submit() {
        let mut c = cluster();
        let mut svc = LayoutService::new(&mut c, ServiceConfig::new(0));
        svc.add_tenant(TenantId(1), Box::new(NullRuntime::new()));
        let mut records = small_ior(2).records().to_vec();
        records.last_mut().unwrap().file = FileId(1 << FileId::TENANT_SHIFT);
        // No `run`: the bad id must be caught when the job is queued.
        svc.submit(TenantId(1), Trace::from_records(records));
    }

    /// Everything a job showed its runtime: the tenant, the file ids
    /// its records resolved through, and the records `after_job` saw.
    type Seen = (TenantId, Vec<FileId>, Vec<TraceRecord>);

    /// Test runtime: identity resolution that logs every resolved file
    /// id and every `after_job` trace into a log shared across tenants.
    struct Witness {
        tenant: TenantId,
        resolved: Vec<FileId>,
        log: Rc<RefCell<Vec<Seen>>>,
    }

    impl Resolver for Witness {
        fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
            self.resolved.push(rec.file);
            IdentityResolver.resolve_into(rec, out)
        }
    }

    impl TenantRuntime for Witness {
        fn resolver(&mut self) -> &mut dyn Resolver {
            self
        }

        fn after_job(&mut self, trace: &Trace) -> Vec<(FileId, LayoutSpec)> {
            let resolved = std::mem::take(&mut self.resolved);
            self.log.borrow_mut().push((self.tenant, resolved, trace.records().to_vec()));
            Vec::new()
        }
    }

    #[test]
    fn interleaved_tenants_see_only_their_own_tagged_ids() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut c = cluster();
        let mut svc = LayoutService::new(&mut c, ServiceConfig::new(5).queue_depth(8));
        let tenants = [TenantId(1), TenantId(2)];
        for &tenant in &tenants {
            let runtime = Witness { tenant, resolved: Vec::new(), log: Rc::clone(&log) };
            svc.add_tenant(tenant, Box::new(runtime));
        }
        // Jobs grow and shrink, so the reused retag buffer both extends
        // and leaves stale capacity behind; each job names its own files.
        let mut submitted: Vec<Vec<Trace>> = vec![Vec::new(); tenants.len()];
        for (seq, reqs) in [5usize, 2, 7, 3, 6, 1].into_iter().enumerate() {
            for (ix, &tenant) in tenants.iter().enumerate() {
                let records = small_ior(reqs + ix)
                    .records()
                    .iter()
                    .map(|r| TraceRecord { file: FileId(r.file.0 + 3 * seq as u32 + 1), ..r })
                    .collect();
                let job = Trace::from_records(records);
                assert_eq!(svc.submit(tenant, job.clone()), seq as u32);
                submitted[ix].push(job);
            }
        }
        let report = svc.run().unwrap();
        drop(svc);
        let log = log.borrow();
        assert_eq!(report.rejected, 0);
        assert_eq!(log.len(), report.jobs.len());
        assert_eq!(log.len(), 12);
        let switches = log.windows(2).filter(|w| w[0].0 != w[1].0).count();
        assert!(switches >= 2, "the two tenants' jobs must interleave");
        for (job, (tenant, resolved, seen)) in report.jobs.iter().zip(log.iter()) {
            assert_eq!(job.tenant, *tenant, "after_job ran on the dispatched job's tenant");
            let ix = tenants.iter().position(|t| t == tenant).unwrap();
            let expected: Vec<TraceRecord> = submitted[ix][job.seq as usize]
                .records()
                .iter()
                .map(|r| TraceRecord { file: FileId::with_tenant(*tenant, r.file), ..r })
                .collect();
            assert_eq!(seen, &expected, "tenant {} job {}", tenant.0, job.seq);
            let mut want: Vec<FileId> = expected.iter().map(|r| r.file).collect();
            let mut got = resolved.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "tenant {} job {} resolved ids", tenant.0, job.seq);
        }
    }
}
