//! Trace replay: drives a cluster with a trace and reports bandwidth and
//! per-server load.
//!
//! Replay follows the synchronous parallel I/O semantics of the paper's
//! workloads: requests of one phase start together (after the previous
//! phase fully completes — a barrier), each request is decomposed into
//! per-server sub-requests by the target file's layout, and a request
//! completes when its **slowest** sub-request completes. Aggregate
//! bandwidth is total bytes over the makespan, matching how IOR reports.

use crate::cluster::Cluster;
use crate::error::ReplayError;
use crate::fault::{Admission, FaultRuntime};
use crate::layout::{LayoutSpec, SubExtent};
use crate::redundancy::{decode_penalty, RedundancyState};
use crate::sched::SchedRuntime;
use iotrace::{FileId, Trace, TraceRecord};
use simrt::stats::OnlineStats;
use simrt::{SeedSeq, ServerHealth, SimDuration, SimTime};
use std::collections::HashSet;
use storage_model::{DeviceKind, IoOp};

/// Device-space base for a file's object on every server: each file's
/// stripes live in their own region of the disk, so switching between
/// files costs a real head move (as on an actual data server, where
/// different PFS objects occupy different block ranges). Slots are 6 GiB
/// apart, golden-ratio hashed over `slots` positions — the cluster's
/// [`crate::ClusterConfig::device_slots`] (40 slots = a 240 GB usable
/// span, the historical hard-coded value).
pub(crate) fn file_device_base(file: FileId, slots: u64) -> u64 {
    let slot = (u64::from(file.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % slots.max(1);
    slot * (6 << 30)
}

/// One physical extent a logical request resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysExtent {
    /// Physical file (an original file or a reordered region file).
    pub file: FileId,
    /// Byte offset within the physical file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Result of resolving one logical request.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Physical extents, in logical order. Their lengths must sum to the
    /// request length.
    pub extents: Vec<PhysExtent>,
    /// Extra client-side latency charged for the resolution (e.g. a DRT
    /// lookup by MHA's redirector). Zero for direct access.
    pub overhead: SimDuration,
}

/// Maps logical requests to physical extents — the hook where MHA's
/// redirector plugs in. The default [`IdentityResolver`] passes requests
/// through unchanged.
pub trait Resolver {
    /// Overwrite `out` (cleared first) with the physical extents of one
    /// trace record and return the resolution overhead. The replay loop
    /// calls this exclusively, reusing one buffer across records.
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration;

    /// Resolve one trace record into a fresh [`Resolution`], through
    /// [`Self::resolve_into`].
    fn resolve(&mut self, rec: &TraceRecord) -> Resolution {
        let mut extents = Vec::new();
        let overhead = self.resolve_into(rec, &mut extents);
        Resolution { extents, overhead }
    }
}

/// Pass-through resolver: requests hit their original file directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityResolver;

impl Resolver for IdentityResolver {
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
        out.clear();
        out.push(PhysExtent { file: rec.file, offset: rec.offset, len: rec.len });
        SimDuration::ZERO
    }
}

/// The opened-file set of the replay loop: the physical files whose
/// metadata lookup a run has already paid. A hash set, so its memory and
/// its [`FileSet::clear`] scale with the most distinct files one run has
/// opened, not with the [`FileId`] space — tenant-namespaced region files
/// carry ids past `t << 24 | 1 << 20`, where a dense index would span
/// megabytes for a handful of files.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileSet {
    files: HashSet<FileId>,
}

impl FileSet {
    /// Remove every file, keeping the allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.files.clear();
    }

    /// Insert `file`; returns `true` when it was not already present.
    pub(crate) fn insert(&mut self, file: FileId) -> bool {
        self.files.insert(file)
    }
}

/// Precomputed replay order for one trace: records grouped into barrier
/// phases, shuffled within each phase by the deterministic replay seed.
///
/// Building a schedule costs a pass over the records plus one RNG
/// shuffle per phase. The ordering depends only on the trace (the seed
/// is fixed), so callers replaying one trace many times — the experiment
/// grid runs every scheme over the same trace, benches iterate it
/// hundreds of times — build the schedule once with
/// [`ReplaySchedule::for_trace`] and pin it via
/// [`crate::ReplaySession::with_schedule`]. An unpinned session builds
/// one internally; hoisting changes where the ordering work happens,
/// never the order itself.
#[derive(Debug, Clone, Default)]
pub struct ReplaySchedule {
    /// Record indices in replay order (shuffled within each phase).
    order: Vec<usize>,
    /// Per-phase `(phase id, start, end)` spans into `order`.
    spans: Vec<(u32, usize, usize)>,
}

impl ReplaySchedule {
    /// Schedule for `trace` under the fixed replay seed.
    pub fn for_trace(trace: &Trace) -> Self {
        let mut s = Self::default();
        s.rebuild(trace);
        s
    }

    /// Recompute for `trace` in place, reusing the buffers.
    pub(crate) fn rebuild(&mut self, trace: &Trace) {
        self.order.clear();
        self.spans.clear();
        // Group records into phases (consecutive runs of one phase id),
        // then interleave each phase's requests in a deterministic
        // shuffled order: concurrent clients race over the network, so a
        // server does NOT see sub-requests in rank (= ascending offset)
        // order. Replaying them sorted would hand rotating disks an
        // unrealistically sequential stream.
        self.order.extend(0..trace.len());
        self.spans.extend(trace.phases().map(|p| (p.phase(), p.start(), p.start() + p.len())));
        let shuffle_seed = SeedSeq::new(0x5EED_0F0F);
        for &(phase, start, end) in self.spans.iter() {
            let mut rng = shuffle_seed.derive_idx("phase", u64::from(phase)).rng();
            rng.shuffle(&mut self.order[start..end]);
        }
    }
}

/// Reusable replay buffers owned by a [`crate::ReplaySession`]: the
/// resolved-extent and sub-request vectors, the opened-file set, and
/// a schedule rebuilt per trace. One session threaded through a whole
/// experiment grid makes the per-request path allocation-free at steady
/// state.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayScratch {
    /// Physical extents of the request being replayed.
    extents: Vec<PhysExtent>,
    /// Per-server sub-requests of the extent being decomposed.
    subs: Vec<SubExtent>,
    /// Physical files already opened (metadata lookup paid).
    opened: FileSet,
    /// Schedule buffers rebuilt per trace by an unpinned session
    /// (sessions pinned with [`crate::ReplaySession::with_schedule`]
    /// leave this empty).
    schedule: ReplaySchedule,
    /// Redundancy expansion state: sampled health, degraded-mode
    /// counters, and internal buffers. Reset per run.
    red: RedundancyState,
}

impl ReplayScratch {
    /// Detach the schedule buffers so they can be borrowed alongside the
    /// rest of the scratch (see [`crate::ReplaySession::run`]).
    pub(crate) fn take_schedule(&mut self) -> ReplaySchedule {
        std::mem::take(&mut self.schedule)
    }

    /// Return the schedule buffers taken by [`Self::take_schedule`].
    pub(crate) fn put_schedule(&mut self, schedule: ReplaySchedule) {
        self.schedule = schedule;
    }
}

/// The fault, redundancy and scheduler counters of a replay. A server,
/// a run and a service each carry one, and each rolls its parts up with
/// `Counters::merge`, so the three levels can never count differently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Client retries spent waiting out outages (0 without faults).
    pub retries: u64,
    /// Sub-requests abandoned after exhausting their retry budget or
    /// hitting a lost server (0 without faults).
    pub timeouts: u64,
    /// Degraded (erasure-reconstruction) reads (0 without redundancy or
    /// faults). A server's count is of reads of the data it lost.
    pub degraded_reads: u64,
    /// Bytes reconstructed by degraded reads.
    pub reconstructed_bytes: u64,
    /// Reads served by a non-primary replica after a failover. A
    /// server's count is of reads its (lost) primary copy did not serve.
    pub failovers: u64,
    /// Requests the straggler-aware scheduler issued with a non-zero
    /// delay (0 under [`simrt::SchedPolicy::SeededShuffle`]). Always 0 on
    /// a [`ServerIoStat`]: deferral is decided per request, not per
    /// server.
    pub deferred_requests: u64,
}

impl Counters {
    /// Add every count of `other` to this one.
    pub(crate) fn merge(&mut self, other: Counters) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.degraded_reads += other.degraded_reads;
        self.reconstructed_bytes += other.reconstructed_bytes;
        self.failovers += other.failovers;
        self.deferred_requests += other.deferred_requests;
    }
}

/// Per-server outcome of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerIoStat {
    /// Server index.
    pub server: usize,
    /// Backing medium.
    pub kind: DeviceKind,
    /// Device busy time — the "I/O time of each server" of Fig. 8.
    pub busy: SimDuration,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Sub-requests served.
    pub served: u64,
    /// Whether the fault plan lost this server permanently.
    pub down: bool,
    /// The fault plan's service-time inflation estimate (1.0 = nominal):
    /// the product of the plan's slowdown factors for this server
    /// ([`simrt::FaultPlan::health_view`]). Every factor is finite and
    /// positive (applying the plan rejects any other), so it is never ±0
    /// or NaN and comparing it by value is exact.
    pub slowdown: f64,
    /// Retries, timeouts and degraded-mode work charged to this server
    /// (`deferred_requests` is always 0 here).
    pub counters: Counters,
}

impl ServerIoStat {
    /// Add `other`'s work on this server to this one: `busy`, the byte
    /// counts and `served` sum, and the counters merge. A service run
    /// folds each job's stats into its tenant's totals this way.
    ///
    /// # Panics
    /// If `other` describes another server, or differs in what one
    /// service run fixes for a server: its `kind`, `down` and `slowdown`.
    pub(crate) fn merge(&mut self, other: &ServerIoStat) {
        let fixed = |s: &ServerIoStat| (s.server, s.kind, s.down, s.slowdown);
        assert!(
            fixed(self) == fixed(other),
            "merging server stats {:?} with {:?} (server, kind, down, slowdown)",
            fixed(self),
            fixed(other),
        );
        self.busy += other.busy;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.served += other.served;
        self.counters.merge(other.counters);
    }
}

/// Outcome of a replay run. Two reports compare equal only when every
/// field matches exactly, the latency statistics by bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// End-to-end simulated time from first issue to last completion.
    pub makespan: SimDuration,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Bytes moved by reads.
    pub read_bytes: u64,
    /// Bytes moved by writes.
    pub write_bytes: u64,
    /// Number of logical requests replayed.
    pub requests: usize,
    /// Number of barrier phases.
    pub phases: u32,
    /// Per-server load breakdown.
    pub per_server: Vec<ServerIoStat>,
    /// Total resolver (redirection) overhead charged.
    pub resolve_overhead: SimDuration,
    /// Distribution of logical request latencies (seconds).
    pub request_latency: OnlineStats,
    /// Metadata lookups performed.
    pub mds_lookups: u64,
    /// Total wall-clock time requests spent backed off in retry loops.
    pub fault_wait: SimDuration,
    /// The merge of every server's counters plus the run's deferrals.
    pub counters: Counters,
}

/// Reads `report.timeouts` as `report.counters.timeouts`. This exists only
/// for the benchmark harness under `perfbench/`, which is frozen and reads
/// the old field name; code in this workspace names `counters` directly.
impl std::ops::Deref for ReplayReport {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.counters
    }
}

impl ReplayReport {
    /// Aggregate bandwidth in MB/s (decimal megabytes, as IOR reports).
    pub fn bandwidth_mbps(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / self.makespan.as_secs_f64()
    }

    /// Per-server busy times in seconds, in server order (Fig. 8 series).
    pub fn server_busy_secs(&self) -> Vec<f64> {
        self.per_server.iter().map(|s| s.busy.as_secs_f64()).collect()
    }
}

/// The one replay loop behind [`crate::ReplaySession`]. With
/// `faults: None` the time arithmetic is exactly the historical
/// fault-free path — reports stay bit-for-bit identical; with a
/// [`FaultRuntime`], every sub-request first passes server admission
/// (outage retry loops, permanent loss) before touching fabric or device.
pub(crate) fn replay_core(
    cluster: &mut Cluster,
    trace: &Trace,
    schedule: &ReplaySchedule,
    resolver: &mut dyn Resolver,
    scratch: &mut ReplayScratch,
    mut faults: Option<&mut FaultRuntime>,
    sched: &mut SchedRuntime,
) -> Result<ReplayReport, ReplayError> {
    if schedule.order.len() != trace.len() {
        return Err(ReplayError::ScheduleMismatch {
            schedule: schedule.order.len(),
            trace: trace.len(),
        });
    }
    // Spans are phase runs, so the cursor stays in one stored run per
    // span and decodes each record in O(1).
    let mut records = trace.records().cursor();
    cluster.reset();
    let n_servers = cluster.servers().len();
    let device_slots = cluster.config().device_slots;
    let ReplayScratch { extents, subs, opened, schedule: _, red } = scratch;
    extents.clear();
    subs.clear();
    opened.clear();
    red.reset(n_servers, faults.as_deref());
    sched.begin_run(n_servers);
    let observing = sched.observing();
    // Only a fault runtime ever times a sub-request out.
    let timeout = faults.as_deref().map_or(SimDuration::ZERO, FaultRuntime::timeout);
    let ReplaySchedule { order, spans } = schedule;
    let mut latencies = OnlineStats::new();
    let mut read_bytes = 0u64;
    let mut write_bytes = 0u64;
    let mut resolve_overhead = SimDuration::ZERO;
    let mut phase_end = SimTime::ZERO;
    let mut phases = 0u32;
    // `file_device_base` costs a division by the (runtime) slot count;
    // consecutive records overwhelmingly hit the same file, so a
    // one-entry memo removes it from the hot path.
    let mut dev_base_memo: Option<(FileId, u64)> = None;

    for &(_, start, end) in spans.iter() {
        // Barrier: the new phase starts when the previous one drained.
        let phase_start = phase_end;
        phases += 1;
        let span = &order[start..end];
        // Plan the phase from scheduler state frozen at the barrier
        // (stateless layout lookups only — the resolver may mutate).
        sched.plan_phase(span.iter().map(|&i| records.get(i).file), cluster.mds());
        for (k, &idx) in span.iter().enumerate() {
            let rec = &records.get(idx);
            let overhead = resolver.resolve_into(rec, extents);
            debug_assert_eq!(
                extents.iter().map(|e| e.len).sum::<u64>(),
                rec.len,
                "resolution must cover the request exactly"
            );
            resolve_overhead += overhead;
            match rec.op {
                IoOp::Read => read_bytes += rec.len,
                IoOp::Write => write_bytes += rec.len,
            }
            let client = cluster.client_node(rec.rank.0);
            // The latency base (and completion floor) excludes the
            // scheduler's issue delay: a deferred request still waited
            // from the barrier, so deferral counts as latency.
            let base = phase_start + overhead;
            let mut issue = base + sched.delay(k);
            let mut completion = base;
            let mut decode_bytes = 0u64;
            let (servers, fabric, mds) = cluster.parts_mut();
            for ext in extents.iter() {
                // First touch of a physical file pays a metadata lookup
                // (open). The layout is borrowed from the MDS for the
                // duration of the extent — no per-extent clone.
                let layout: &LayoutSpec = if opened.insert(ext.file) {
                    let (layout, open_done) = mds.lookup_ref(issue, ext.file);
                    issue = open_done;
                    layout
                } else {
                    mds.layout(ext.file)
                };
                let dev_base = match dev_base_memo {
                    Some((f, b)) if f == ext.file => b,
                    _ => {
                        let b = file_device_base(ext.file, device_slots);
                        dev_base_memo = Some((ext.file, b));
                        b
                    }
                };
                decode_bytes += red.expand(layout, ext.offset, ext.len, rec.op, subs);
                for sub in subs.iter() {
                    let Some(server) = servers.get_mut(sub.server.0) else {
                        return Err(ReplayError::UnknownServer {
                            server: sub.server.0,
                            servers: n_servers,
                        });
                    };
                    let dev_off = dev_base + sub.server_offset;
                    // `done` is the sub-request's final completion;
                    // `dev_done` its device-stage completion (before any
                    // read fabric hop) — the scheduler's latency
                    // observation, matching the sharded device pass.
                    // Admission first: fault-free, every sub-request
                    // starts at its issue time.
                    let admission = match faults.as_deref_mut() {
                        None => Admission::At(issue),
                        Some(rt) => rt.admit(sub.server.0, issue),
                    };
                    let (done, dev_done) = match admission {
                        Admission::At(start) => match rec.op {
                            IoOp::Write => {
                                // Data flows client → server, then hits the device.
                                let arrived =
                                    fabric.transfer(start, client, server.node(), sub.len);
                                let d = server.serve(arrived, rec.op, dev_off, sub.len);
                                (d, d)
                            }
                            IoOp::Read => {
                                // Device read, then data flows server → client.
                                let read_done = server.serve(start, rec.op, dev_off, sub.len);
                                (fabric.transfer(read_done, server.node(), client, sub.len), read_done)
                            }
                        },
                        // An abandoned sub-request moves no bytes and
                        // charges no device or fabric time — the client
                        // just burns the timeout waiting.
                        Admission::TimedOut => {
                            let t = issue + timeout;
                            (t, t)
                        }
                    };
                    if observing {
                        sched.observe(sub.server.0, dev_done.since(issue).as_secs_f64());
                    }
                    completion = completion.max(done);
                }
            }
            if decode_bytes > 0 {
                // Degraded EC reads pay the client-side decode before the
                // request can complete.
                completion += decode_penalty(decode_bytes);
            }
            latencies.push(completion.since(base).as_secs_f64());
            phase_end = phase_end.max(completion);
        }
    }

    Ok(assemble_report(
        cluster,
        faults.as_deref(),
        red,
        RunTotals {
            read_bytes,
            write_bytes,
            requests: trace.len(),
            phases,
            resolve_overhead,
            request_latency: latencies,
            phase_end,
            deferred: sched.deferred,
        },
    ))
}

/// Scalar run totals a replay core accumulates; everything else in a
/// [`ReplayReport`] is read off the cluster and fault runtime at the end.
pub(crate) struct RunTotals {
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub requests: usize,
    pub phases: u32,
    pub resolve_overhead: SimDuration,
    pub request_latency: OnlineStats,
    pub phase_end: SimTime,
    pub deferred: u64,
}

/// Assemble the final report from the cluster's post-run state — shared
/// by the serial and sharded cores so the two can never drift in how
/// they read counters back.
pub(crate) fn assemble_report(
    cluster: &Cluster,
    faults: Option<&FaultRuntime>,
    red: &RedundancyState,
    totals: RunTotals,
) -> ReplayReport {
    let mut counters =
        Counters { deferred_requests: totals.deferred, ..Counters::default() };
    let per_server = cluster
        .servers()
        .iter()
        .map(|s| {
            let id = s.id().0;
            let health = faults.map_or_else(ServerHealth::nominal, |rt| rt.server_health(id));
            let mut server_counters = red.server_counters(id);
            if let Some(rt) = faults {
                server_counters.merge(rt.server_counters(id));
            }
            counters.merge(server_counters);
            ServerIoStat {
                server: id,
                kind: s.kind(),
                busy: s.busy_time(),
                bytes_read: s.bytes_read(),
                bytes_written: s.bytes_written(),
                served: s.served(),
                down: health.down,
                slowdown: health.speed_factor,
                counters: server_counters,
            }
        })
        .collect();

    ReplayReport {
        makespan: totals.phase_end.since(SimTime::ZERO),
        total_bytes: totals.read_bytes + totals.write_bytes,
        read_bytes: totals.read_bytes,
        write_bytes: totals.write_bytes,
        requests: totals.requests,
        phases: totals.phases,
        per_server,
        resolve_overhead: totals.resolve_overhead,
        request_latency: totals.request_latency,
        mds_lookups: cluster.mds().lookups(),
        fault_wait: faults.map_or(SimDuration::ZERO, |rt| rt.fault_wait()),
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::layout::{LayoutSpec, ServerId};
    use crate::session::{CoreSel, ReplayInput, ReplaySession};
    use iotrace::gen::ior::{generate, IorConfig};
    use iotrace::record::{Rank, TenantId};

    fn small_ior(op: IoOp) -> Trace {
        let mut cfg = IorConfig::default_run(op);
        cfg.reqs_per_proc = 8;
        cfg.proc_mix = vec![8];
        generate(&cfg)
    }

    fn run(c: &mut Cluster, t: &Trace, r: &mut dyn Resolver) -> ReplayReport {
        ReplaySession::new().run(ReplayInput::trace(c, t, r), CoreSel::Auto).unwrap()
    }

    #[test]
    fn replay_produces_positive_bandwidth() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let t = small_ior(IoOp::Write);
        let r = run(&mut c, &t, &mut IdentityResolver);
        assert!(r.bandwidth_mbps() > 1.0, "bw={}", r.bandwidth_mbps());
        assert_eq!(r.total_bytes, t.total_bytes());
        assert_eq!(r.write_bytes, t.total_bytes());
        assert_eq!(r.read_bytes, 0);
        assert_eq!(r.requests, t.len());
        assert_eq!(r.phases, 8);
        assert!(r.makespan > SimDuration::ZERO);
    }

    #[test]
    fn all_servers_participate_under_default_layout() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let t = small_ior(IoOp::Write);
        let r = run(&mut c, &t, &mut IdentityResolver);
        for s in &r.per_server {
            assert!(s.served > 0, "server {} idle", s.server);
            assert!(s.bytes_written > 0);
        }
    }

    #[test]
    fn hservers_are_the_stragglers_under_fixed_striping() {
        // The paper's core observation: with fixed stripes the HServers'
        // I/O time dwarfs the SServers', so SServers contribute little.
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let t = small_ior(IoOp::Write);
        let r = run(&mut c, &t, &mut IdentityResolver);
        let h_busy: f64 = r.per_server[..6].iter().map(|s| s.busy.as_secs_f64()).sum::<f64>() / 6.0;
        let s_busy: f64 = r.per_server[6..].iter().map(|s| s.busy.as_secs_f64()).sum::<f64>() / 2.0;
        assert!(h_busy > 2.0 * s_busy, "h={h_busy} s={s_busy}");
    }

    #[test]
    fn merged_server_stats_sum_two_runs_work() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let (w, r) = (small_ior(IoOp::Write), small_ior(IoOp::Read));
        let a = run(&mut c, &w, &mut IdentityResolver);
        let b = run(&mut c, &r, &mut IdentityResolver);
        for (x, y) in a.per_server.iter().zip(&b.per_server) {
            let mut m = x.clone();
            m.merge(y);
            assert_eq!((m.server, m.kind, m.down, m.slowdown), (x.server, x.kind, false, 1.0));
            assert_eq!(m.busy, x.busy + y.busy);
            assert!(x.bytes_written > 0 && y.bytes_read > 0, "server {} idle", x.server);
            assert_eq!(m.bytes_read, x.bytes_read + y.bytes_read);
            assert_eq!(m.bytes_written, x.bytes_written + y.bytes_written);
            assert_eq!(m.served, x.served + y.served);
            let mut counters = x.counters;
            counters.merge(y.counters);
            assert_eq!(m.counters, counters);
        }
    }

    #[test]
    #[should_panic(expected = "merging server stats (0, ")]
    fn merging_different_servers_panics() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let r = run(&mut c, &small_ior(IoOp::Write), &mut IdentityResolver);
        let mut first = r.per_server[0].clone();
        first.merge(&r.per_server[1]);
    }

    #[test]
    #[should_panic(expected = "true, 1.0) (server, kind, down, slowdown)")]
    fn merging_a_lost_server_into_a_live_one_panics() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let r = run(&mut c, &small_ior(IoOp::Write), &mut IdentityResolver);
        let mut lost = r.per_server[0].clone();
        lost.down = true;
        let mut live = r.per_server[0].clone();
        live.merge(&lost);
    }

    #[test]
    fn file_set_is_sized_by_the_files_inserted() {
        let mut s = FileSet::default();
        assert!(!s.files.contains(&FileId(0)));
        assert!(s.insert(FileId(0)), "first insert is fresh");
        assert!(!s.insert(FileId(0)), "second insert is not");
        assert!(s.files.contains(&FileId(0)));
        // Region-file ids live past 2^20, tenant-namespaced ones past
        // 2^24; the highest id of the last tenant is u32::MAX.
        let top = FileId::with_tenant(TenantId(255), FileId((1 << 24) - 1));
        assert_eq!(top, FileId(u32::MAX));
        for f in [FileId(1 << 20), top] {
            assert!(s.insert(f));
            assert!(s.files.contains(&f));
        }
        assert!(!s.files.contains(&FileId((1 << 20) + 1)));
        assert!(!s.files.contains(&FileId(u32::MAX - 1)));
        // Three files, however large their ids: storage stays a few
        // slots, not a span of the id space.
        assert!(s.files.capacity() < 16, "capacity {} for 3 files", s.files.capacity());
        s.clear();
        for f in [FileId(0), FileId(1 << 20), top] {
            assert!(!s.files.contains(&f), "cleared set forgets {f:?}");
        }
        assert!(s.insert(top), "cleared set forgets everything");
    }

    #[test]
    fn scratch_reuse_is_report_identical() {
        // One session's warmed scratch across heterogeneous traces and
        // resolvers must give exactly the reports fresh sessions give.
        let mut session = ReplaySession::new();
        for t in [small_ior(IoOp::Write), small_ior(IoOp::Read)] {
            let mut c1 = Cluster::new(ClusterConfig::paper_default());
            let fresh = ReplaySession::new().run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Auto).unwrap();
            let mut c2 = Cluster::new(ClusterConfig::paper_default());
            let reused = session.run(ReplayInput::trace(&mut c2, &t, &mut IdentityResolver), CoreSel::Auto).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn resolve_default_delegates_to_resolve_into() {
        struct Halves;
        impl Resolver for Halves {
            fn resolve_into(
                &mut self,
                rec: &TraceRecord,
                out: &mut Vec<PhysExtent>,
            ) -> SimDuration {
                let half = rec.len / 2;
                out.clear();
                out.push(PhysExtent { file: rec.file, offset: rec.offset, len: half });
                let rest = rec.len - half;
                out.push(PhysExtent { file: rec.file, offset: rec.offset + half, len: rest });
                SimDuration::from_micros(3)
            }
        }
        let rec = TraceRecord {
            pid: 0,
            rank: Rank(0),
            file: FileId(4),
            op: IoOp::Read,
            offset: 100,
            len: 64,
            ts: SimTime::ZERO,
            phase: 0,
        };
        let r = Halves.resolve(&rec);
        assert_eq!(r.overhead, SimDuration::from_micros(3));
        assert_eq!(
            r.extents,
            [
                PhysExtent { file: FileId(4), offset: 100, len: 32 },
                PhysExtent { file: FileId(4), offset: 132, len: 32 },
            ]
        );
    }

    #[test]
    fn hoisted_schedule_is_report_identical() {
        // One schedule pinned across replays must reproduce the
        // inline-built ordering exactly.
        for t in [small_ior(IoOp::Write), small_ior(IoOp::Read)] {
            let schedule = ReplaySchedule::for_trace(&t);
            assert_eq!(schedule.spans.len(), 8);
            let mut pinned = ReplaySession::new().with_schedule(schedule);
            let mut c1 = Cluster::new(ClusterConfig::paper_default());
            let inline = ReplaySession::new().run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Auto).unwrap();
            for round in 0..3 {
                let mut c2 = Cluster::new(ClusterConfig::paper_default());
                let hoisted = pinned.run(ReplayInput::trace(&mut c2, &t, &mut IdentityResolver), CoreSel::Auto).unwrap();
                assert_eq!(inline, hoisted, "round {round}");
            }
        }
    }

    #[test]
    fn schedule_for_wrong_trace_is_rejected() {
        let t = small_ior(IoOp::Write);
        let schedule = ReplaySchedule::for_trace(&Trace::new());
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let err = ReplaySession::new()
            .with_schedule(schedule)
            .run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap_err();
        assert!(
            matches!(err, crate::ReplayError::ScheduleMismatch { schedule: 0, trace } if trace == t.len()),
            "got {err:?}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let t = small_ior(IoOp::Read);
        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let r1 = run(&mut c1, &t, &mut IdentityResolver);
        let r2 = run(&mut c2, &t, &mut IdentityResolver);
        assert_eq!(r1, r2);
    }

    #[test]
    fn default_device_slots_match_historical_constant() {
        // The configurable slot count defaulted to the old hard-coded 40
        // must reproduce the historical placement and report bit-for-bit,
        // and a different slot count must actually move file bases.
        let cfg = ClusterConfig::paper_default();
        assert_eq!(cfg.device_slots, 40);
        for f in 0..512u32 {
            let slot =
                (u64::from(f).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 40;
            assert_eq!(file_device_base(FileId(f), 40), slot * (6 << 30));
        }
        let t = {
            let mut c = IorConfig::default_run(IoOp::Write);
            c.reqs_per_proc = 4;
            c.proc_mix = vec![4, 4];
            generate(&c)
        };
        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let mut c2 = Cluster::new(ClusterConfig { device_slots: 40, ..ClusterConfig::paper_default() });
        let r1 = run(&mut c1, &t, &mut IdentityResolver);
        let r2 = run(&mut c2, &t, &mut IdentityResolver);
        assert_eq!(r1, r2);
        // A single slot puts every file at base 0 — placement collapses.
        assert_eq!(file_device_base(FileId(7), 1), 0);
        assert!((0..64u32).any(|f| file_device_base(FileId(f), 160) >= 40 * (6 << 30)));
    }

    #[test]
    fn heterogeneity_aware_layout_beats_fixed_for_small_random_requests() {
        // Sanity for the paper's premise: for small random requests a
        // heterogeneity-aware stripe pair (here the h = 0 extreme, which
        // avoids paying an HDD seek per sub-request) outperforms DEF's
        // fixed 64 KB striping over all servers.
        let t = small_ior(IoOp::Write);
        let mut fixed = Cluster::new(ClusterConfig::paper_default());
        let r_fixed = run(&mut fixed, &t, &mut IdentityResolver);

        let mut varied = Cluster::new(ClusterConfig::paper_default());
        let h: Vec<ServerId> = varied.hserver_ids();
        let s: Vec<ServerId> = varied.sserver_ids();
        varied
            .mds_mut()
            .set_layout(FileId(0), LayoutSpec::hybrid(&h, 0, &s, 32 << 10));
        let r_varied = run(&mut varied, &t, &mut IdentityResolver);
        assert!(
            r_varied.bandwidth_mbps() > r_fixed.bandwidth_mbps(),
            "varied={} fixed={}",
            r_varied.bandwidth_mbps(),
            r_fixed.bandwidth_mbps()
        );
    }

    #[test]
    fn resolver_overhead_is_charged() {
        struct Slow;
        impl Resolver for Slow {
            fn resolve_into(
                &mut self,
                rec: &TraceRecord,
                out: &mut Vec<PhysExtent>,
            ) -> SimDuration {
                IdentityResolver.resolve_into(rec, out);
                SimDuration::from_micros(100)
            }
        }
        let t = small_ior(IoOp::Write);
        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let fast = run(&mut c1, &t, &mut IdentityResolver);
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let slow = run(&mut c2, &t, &mut Slow);
        assert!(slow.makespan > fast.makespan);
        assert_eq!(
            slow.resolve_overhead,
            SimDuration::from_micros(100) * t.len() as u64
        );
    }

    #[test]
    fn split_resolution_covers_request() {
        // A resolver that splits each request in two halves on the same
        // file must move the same number of bytes.
        struct Split;
        impl Resolver for Split {
            fn resolve_into(
                &mut self,
                rec: &TraceRecord,
                out: &mut Vec<PhysExtent>,
            ) -> SimDuration {
                let half = rec.len / 2;
                out.clear();
                out.push(PhysExtent { file: rec.file, offset: rec.offset, len: half });
                let rest = rec.len - half;
                out.push(PhysExtent { file: rec.file, offset: rec.offset + half, len: rest });
                SimDuration::ZERO
            }
        }
        let t = small_ior(IoOp::Read);
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let r = run(&mut c, &t, &mut Split);
        assert_eq!(r.total_bytes, t.total_bytes());
    }

    #[test]
    fn empty_trace_reports_zero() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let r = run(&mut c, &Trace::new(), &mut IdentityResolver);
        assert_eq!(r.bandwidth_mbps(), 0.0);
        assert_eq!(r.phases, 0);
        assert_eq!(r.makespan, SimDuration::ZERO);
    }

    #[test]
    fn one_mds_lookup_per_file() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let recs = vec![
            TraceRecord {
                pid: 0,
                rank: Rank(0),
                file: FileId(0),
                op: IoOp::Write,
                offset: 0,
                len: 4096,
                ts: SimTime::ZERO,
                phase: 0,
            },
            TraceRecord {
                pid: 0,
                rank: Rank(0),
                file: FileId(0),
                op: IoOp::Write,
                offset: 4096,
                len: 4096,
                ts: SimTime::ZERO,
                phase: 0,
            },
            TraceRecord {
                pid: 0,
                rank: Rank(1),
                file: FileId(1),
                op: IoOp::Write,
                offset: 0,
                len: 4096,
                ts: SimTime::ZERO,
                phase: 0,
            },
        ];
        let r = run(&mut c, &Trace::from_records(recs), &mut IdentityResolver);
        assert_eq!(r.mds_lookups, 2, "two files, two opens");
    }
}
