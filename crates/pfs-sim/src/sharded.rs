//! Sharded replay core: per-server event lanes over columnar sub-request
//! batches, bit-identical to the serial [`crate::replay`] loop.
//!
//! The serial core walks one record at a time, bouncing between the
//! metadata server, the fabric and a *random* storage server per
//! sub-request. At 1000+ servers that walk is cache-hostile: every
//! sub-request misses on the server struct, its device state and both NIC
//! queues. This core shuffles and plans one barrier phase, then walks its
//! replay order in windows of `WINDOW` records; each window runs as
//! passes over structure-of-arrays sub-request columns, so each pass
//! touches only the state it owns:
//!
//! 1. **front** (serial, replay order) — resolve records, charge MDS
//!    opens, decompose extents into sub-request columns; on fault-free
//!    runs the write-fabric hop is fused in here (pass 3 would visit the
//!    same subs in the same order);
//! 2. **admit** (lane-parallel, fault runs only) — fault admission
//!    against per-server fault states (`fault::ServerFaultState`), one lane
//!    per server;
//! 3. **write fabric** (serial, sub order, fault runs only) —
//!    client→server transfers after admission (shared client egress NICs
//!    force this pass serial);
//! 4. **device** (lane-parallel) — each server serves its lane's
//!    sub-requests in order against its own queue and device;
//! 5. **read fabric + reduce** (serial, replay order) — server→client
//!    transfers fused with the per-request max-completion, latency
//!    statistics and the phase barrier (global sub order is replay
//!    order × sub order, so one sweep covers both).
//!
//! Write transfers use client-egress + server-ingress NICs; read
//! transfers use server-egress + client-ingress. Client and server node
//! ids are disjoint, so passes 3 and 5 share no FIFO and their relative
//! order cannot matter. Within every FIFO, sub-requests arrive in exactly
//! the serial replay order (windows run in replay order, and lanes are
//! stable partitions of a window's order), and all cross-lane merges are
//! order-independent reductions (max for times, sums for counters) —
//! which is why the result is bit-for-bit identical to the serial core,
//! not merely close. See DESIGN.md §14 for the invariant argument.

use crate::cluster::Cluster;
use crate::error::ReplayError;
use crate::fault::{Admission, FaultRuntime};
use crate::layout::LayoutSpec;
use crate::redundancy::{decode_penalty, RedundancyState};
use crate::replay::{assemble_report, file_device_base, ReplayReport, Resolver, RunTotals};
use crate::replay::FileSet;
use crate::sched::SchedRuntime;
use crate::layout::SubExtent;
use crate::replay::PhysExtent;
use iotrace::{BatchSource, FileId, RecordBatch};
use rayon::prelude::*;
use simrt::stats::OnlineStats;
use simrt::{DisjointSlice, LanePartition, SeedSeq, SimDuration, SimTime};
use storage_model::IoOp;

/// Records per window of a phase's replay order. Passes 1–5 run over one
/// window at a time, so the sub-request columns hold at most this many
/// records' sub-requests however wide the phase.
const WINDOW: usize = 2048;

/// Active lanes per parallel work item of the admit and device passes.
/// Handing out one span per item would pay the dispatch cost per active
/// server; a group amortizes it over many.
const LANE_GRAIN: usize = 64;

/// Reusable buffers of the sharded core. The record batch and the shuffle
/// hold the current barrier phase; every other column holds one window
/// of it (`WINDOW` records), cleared and refilled per window. Peak
/// memory is therefore the widest phase's records plus one window's
/// sub-requests, regardless of trace length.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardedScratch {
    /// Current phase's records (run-encoded columns).
    batch: RecordBatch,
    /// Shuffled local record indices of the phase (the deterministic
    /// replay order).
    shuffle: Vec<u32>,
    /// Resolved extents of the record in flight.
    extents: Vec<PhysExtent>,
    /// Decomposition buffer of the extent in flight.
    subs: Vec<SubExtent>,
    /// Physical files already opened (metadata lookup paid) — per run.
    opened: FileSet,
    // Per-record columns of the current window, in replay order:
    /// Issue floor (`phase_start + overhead`).
    rec_base: Vec<SimTime>,
    /// One-past-the-end index into the sub columns.
    rec_sub_end: Vec<u32>,
    /// Bytes fed through erasure decode (degraded EC reads).
    rec_decode: Vec<u64>,
    // Sub-request columns of the current window, in replay (global) order:
    /// Target server.
    sub_server: Vec<u32>,
    /// Issuing client node.
    sub_client: Vec<u32>,
    /// Length in bytes.
    sub_len: Vec<u64>,
    /// Device-space offset (slot base + server offset).
    sub_dev_off: Vec<u64>,
    /// Operation.
    sub_op: Vec<IoOp>,
    /// Issue time after MDS opens (immutable once the front pass ran).
    sub_issue: Vec<SimTime>,
    /// Evolving start time: issue → admitted → device arrival.
    sub_start: Vec<SimTime>,
    /// Final completion per sub-request.
    sub_done: Vec<SimTime>,
    /// Abandoned by fault admission (skips fabric and device).
    sub_timed_out: Vec<bool>,
    /// Per-server lanes over the sub columns.
    partition: LanePartition,
    /// Fabric node of each server, cached per run so the fabric passes
    /// never touch the (cache-cold) server structs.
    server_nodes: Vec<netsim::NodeId>,
    /// Redundancy expansion state: sampled health, degraded-mode
    /// counters, and internal buffers. Reset per run.
    red: RedundancyState,
}

/// Replay every phase of `source` against `cluster` — the engine behind
/// [`crate::ReplaySession::run`] with [`crate::CoreSel::Sharded`] (and
/// the `Auto` pick for streaming payloads).
pub(crate) fn sharded_core(
    cluster: &mut Cluster,
    source: &mut dyn BatchSource,
    resolver: &mut dyn Resolver,
    scratch: &mut ShardedScratch,
    mut faults: Option<&mut FaultRuntime>,
    sched: &mut SchedRuntime,
) -> Result<ReplayReport, ReplayError> {
    cluster.reset();
    let n_servers = cluster.servers().len();
    let clients = cluster.config().clients;
    let device_slots = cluster.config().device_slots;
    let shuffle_seed = SeedSeq::new(0x5EED_0F0F);

    let ShardedScratch {
        batch,
        shuffle,
        extents,
        subs,
        opened,
        rec_base,
        rec_sub_end,
        rec_decode,
        sub_server,
        sub_client,
        sub_len,
        sub_dev_off,
        sub_op,
        sub_issue,
        sub_start,
        sub_done,
        sub_timed_out,
        partition,
        server_nodes,
        red,
    } = scratch;
    opened.clear();
    server_nodes.clear();
    server_nodes.extend(cluster.servers().iter().map(|s| s.node()));
    red.reset(n_servers, faults.as_deref());
    sched.begin_run(n_servers);
    let observing = sched.observing();
    let sched_alpha = sched.alpha();
    // Timed-out subs complete at `issue + timeout`; the device pass
    // recomputes that for its latency observations instead of reading
    // back through the scatter wrapper.
    let timeout = faults.as_deref().map(|rt| rt.timeout());
    let fused_write_fabric = faults.is_none();

    let mut latencies = OnlineStats::new();
    let mut read_bytes = 0u64;
    let mut write_bytes = 0u64;
    let mut resolve_overhead = SimDuration::ZERO;
    let mut phase_end = SimTime::ZERO;
    let mut phases = 0u32;
    let mut requests = 0usize;

    while source.next_phase(batch) {
        let n = batch.len();
        if n == 0 {
            // A generator may announce an empty phase; the materialized
            // trace would have no span for it, so neither do we.
            continue;
        }
        let phase_start = phase_end;
        phases += 1;
        requests += n;

        // The deterministic replay order: shuffling local indices with
        // the per-phase seed produces exactly the permutation
        // ReplaySchedule applies to this phase's global index span
        // (Fisher–Yates is position-based, so local and global shuffles
        // coincide up to the span offset).
        shuffle.clear();
        shuffle.extend(0..n as u32);
        let mut rng = shuffle_seed.derive_idx("phase", u64::from(batch.phase())).rng();
        rng.shuffle(shuffle);

        // Plan the phase from scheduler state frozen at the barrier —
        // the same pure function of (shuffled order, layout table,
        // tracker state) the serial core computes, so both cores
        // dispatch the identical order with identical delays.
        sched.plan_phase(
            shuffle.iter().map(|&li| batch.record(li as usize).file),
            cluster.mds(),
        );

        // Passes 1–5 walk the shuffled order one window at a time, so the
        // columns below and the lane partition hold one window, not one
        // phase. Each FIFO still receives its sub-requests in global
        // order (windows run in order, and every pass keeps global order
        // inside a window), and the scheduler plan stays the one frozen
        // at the barrier: `sched.delay` takes the record's position in
        // the whole phase.
        for (w, window) in shuffle.chunks(WINDOW).enumerate() {
            let k0 = w * WINDOW;
            rec_base.clear();
            rec_sub_end.clear();
            rec_decode.clear();
            sub_server.clear();
            sub_client.clear();
            sub_len.clear();
            sub_dev_off.clear();
            sub_op.clear();
            sub_issue.clear();
            sub_start.clear();
            sub_done.clear();
            sub_timed_out.clear();

            // Pass 1 — front: resolve, open, decompose (serial; owns the
            // MDS queue and the opened-file set). On fault-free runs the
            // write fabric hop is fused in here: with nothing between issue
            // and the client→server transfer, pass 3 would visit the very
            // same subs in the very same order, so doing it inline saves a
            // full sweep over the columns.
            {
                let (_, fabric, mds) = cluster.parts_mut();
                // `file_device_base` costs a division by the (runtime)
                // slot count; consecutive records overwhelmingly hit the
                // same file, so a one-entry memo removes it from the hot
                // path.
                let mut dev_base_memo: Option<(FileId, u64)> = None;
                for (j, &li) in window.iter().enumerate() {
                    let rec = batch.record(li as usize);
                    let overhead = resolver.resolve_into(&rec, extents);
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
                    let client = (rec.rank.0 as usize % clients) as u32;
                    // The latency base (and completion floor) excludes
                    // the scheduler's issue delay — deferral counts as
                    // latency, exactly as in the serial core.
                    let base = phase_start + overhead;
                    let mut issue = base + sched.delay(k0 + j);
                    let mut decode_bytes = 0u64;
                    rec_base.push(base);
                    for ext in extents.iter() {
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
                            if sub.server.0 >= n_servers {
                                return Err(ReplayError::UnknownServer {
                                    server: sub.server.0,
                                    servers: n_servers,
                                });
                            }
                            let start = if fused_write_fabric && rec.op == IoOp::Write {
                                fabric.transfer(
                                    issue,
                                    netsim::NodeId(client as usize),
                                    server_nodes[sub.server.0],
                                    sub.len,
                                )
                            } else {
                                issue
                            };
                            sub_server.push(sub.server.0 as u32);
                            sub_client.push(client);
                            sub_len.push(sub.len);
                            sub_dev_off.push(dev_base + sub.server_offset);
                            sub_op.push(rec.op);
                            sub_issue.push(issue);
                            sub_start.push(start);
                            sub_done.push(start);
                            sub_timed_out.push(false);
                        }
                    }
                    rec_sub_end.push(sub_server.len() as u32);
                    rec_decode.push(decode_bytes);
                }
            }

            partition.build(n_servers, sub_server);

            // Pass 2 — admit: per-server fault state machines, one lane
            // per server. Admission decisions depend only on the
            // sub-request's issue time and the server's static outage
            // windows; counters are integer sums, so lanes merge
            // deterministically. Iterates only the active spans — idle
            // servers cost nothing — dispatched in groups of LANE_GRAIN.
            if let Some(rt) = faults.as_deref_mut() {
                let timeout = rt.timeout();
                let (params, states) = rt.lanes();
                let start_w = DisjointSlice::new(sub_start);
                let done_w = DisjointSlice::new(sub_done);
                let timed_w = DisjointSlice::new(sub_timed_out);
                let states_w = DisjointSlice::new(states);
                let issue_r: &[SimTime] = sub_issue;
                let lanes: &LanePartition = partition;
                lanes.spans().par_chunks(LANE_GRAIN).for_each(|group| {
                    for span in group {
                        // SAFETY: spans carry unique lanes; this lane's
                        // state is touched by no other span.
                        let state = unsafe { states_w.get_mut(span.lane as usize) };
                        for &i in lanes.items(span) {
                            let i = i as usize;
                            match params.admit(state, issue_r[i]) {
                                // SAFETY: each sub index lives in exactly
                                // one lane; no reads until the pass joins.
                                Admission::At(at) => unsafe { start_w.write(i, at) },
                                Admission::TimedOut => unsafe {
                                    timed_w.write(i, true);
                                    done_w.write(i, issue_r[i] + timeout);
                                },
                            }
                        }
                    }
                });
            }

            // Pass 3 — write fabric (serial, global sub order): data flows
            // client → server before hitting the device. Client egress
            // NICs are shared across lanes, so this pass cannot shard; it
            // touches only the dense FIFO arrays and the cached node ids,
            // never the server structs. Fault-free runs did this inline in
            // the front pass; under faults the hop must wait for
            // admission.
            if !fused_write_fabric {
                let (_, fabric, _) = cluster.parts_mut();
                for i in 0..sub_server.len() {
                    if sub_op[i] == IoOp::Write && !sub_timed_out[i] {
                        sub_start[i] = fabric.transfer(
                            sub_start[i],
                            netsim::NodeId(sub_client[i] as usize),
                            server_nodes[sub_server[i] as usize],
                            sub_len[i],
                        );
                    }
                }
            }

            // Pass 4 — device (lane-parallel): each server owns its queue
            // and device state exclusively and serves its lane in global
            // order — exactly the arrival sequence the serial loop would
            // feed it. Only active spans run: a window touching 200 of
            // 1024 servers loads 200 server structs, once each. Spans go
            // out in groups of LANE_GRAIN, one parallel item per group.
            {
                let (servers, _, _) = cluster.parts_mut();
                let servers_w = DisjointSlice::new(servers);
                let done_w = DisjointSlice::new(sub_done);
                let lat_w = DisjointSlice::new(sched.state_lanes());
                let lanes: &LanePartition = partition;
                let starts: &[SimTime] = sub_start;
                let ops: &[IoOp] = sub_op;
                let dev_offs: &[u64] = sub_dev_off;
                let lens: &[u64] = sub_len;
                let timed: &[bool] = sub_timed_out;
                let issues: &[SimTime] = sub_issue;
                lanes.spans().par_chunks(LANE_GRAIN).for_each(|group| {
                    for span in group {
                        // SAFETY: spans carry unique lanes; this server is
                        // touched by no other span.
                        let server = unsafe { servers_w.get_mut(span.lane as usize) };
                        for &i in lanes.items(span) {
                            let i = i as usize;
                            let dev_done = if !timed[i] {
                                let done = server.serve(starts[i], ops[i], dev_offs[i], lens[i]);
                                // SAFETY: disjoint lanes, no reads until
                                // join.
                                unsafe { done_w.write(i, done) };
                                done
                            } else {
                                // Pass 2 already scattered this exact value.
                                issues[i] + timeout.expect("timed-out subs exist only under faults")
                            };
                            if observing {
                                // Lane order is the record-order
                                // subsequence of this server's subs — the
                                // same sequence the serial loop feeds its
                                // tracker, so the EWMA bits agree across
                                // cores.
                                // SAFETY: one tracker per lane, disjoint.
                                let lat = unsafe { lat_w.get_mut(span.lane as usize) };
                                lat.observe(sched_alpha, dev_done.since(issues[i]).as_secs_f64());
                            }
                        }
                    }
                });
            }

            // Pass 5 — read fabric + reduce (serial, replay order): read
            // payloads flow server → client after the device pass; the
            // global sub order IS replay order × sub order, so the fabric
            // hop and the per-request max-completion reduce share one
            // sweep. Read FIFOs (server egress + client ingress) are
            // disjoint from the write-fabric ones, so running after pass 4
            // preserves the serial arrival order everywhere. Latencies
            // accumulate in replay order so the float statistics match the
            // serial core bit for bit; the phase barrier is the max over
            // completions, across every window of the phase.
            {
                let (_, fabric, _) = cluster.parts_mut();
                let mut sub_cursor = 0usize;
                for (r, &base) in rec_base.iter().enumerate() {
                    let end = rec_sub_end[r] as usize;
                    let mut completion = base;
                    for i in sub_cursor..end {
                        if sub_op[i] == IoOp::Read && !sub_timed_out[i] {
                            sub_done[i] = fabric.transfer(
                                sub_done[i],
                                server_nodes[sub_server[i] as usize],
                                netsim::NodeId(sub_client[i] as usize),
                                sub_len[i],
                            );
                        }
                        completion = completion.max(sub_done[i]);
                    }
                    sub_cursor = end;
                    if rec_decode[r] > 0 {
                        // Same degraded-EC decode charge as the serial core.
                        completion += decode_penalty(rec_decode[r]);
                    }
                    latencies.push(completion.since(base).as_secs_f64());
                    phase_end = phase_end.max(completion);
                }
            }
        }
    }

    Ok(assemble_report(
        cluster,
        faults.as_deref(),
        red,
        RunTotals {
            read_bytes,
            write_bytes,
            requests,
            phases,
            resolve_overhead,
            request_latency: latencies,
            phase_end,
            deferred: sched.deferred,
        },
    ))
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::replay::{IdentityResolver, ReplayReport};
    use crate::session::{CoreSel, ReplayInput, ReplaySession};
    use iotrace::gen::ior::{generate, IorConfig};
    use iotrace::Trace;
    use simrt::{FaultPlan, SchedPolicy};
    use storage_model::IoOp;

    fn small_ior(op: IoOp) -> Trace {
        let mut cfg = IorConfig::default_run(op);
        cfg.reqs_per_proc = 8;
        cfg.proc_mix = vec![8];
        generate(&cfg)
    }

    #[test]
    fn sharded_matches_serial_fault_free() {
        for t in [small_ior(IoOp::Write), small_ior(IoOp::Read)] {
            let mut c1 = Cluster::new(ClusterConfig::paper_default());
            let serial = ReplaySession::new().run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Auto).unwrap();
            let mut c2 = Cluster::new(ClusterConfig::paper_default());
            let sharded =
                ReplaySession::new().run(ReplayInput::trace(&mut c2, &t, &mut IdentityResolver), CoreSel::Sharded).unwrap();
            assert_eq!(serial, sharded);
        }
    }

    #[test]
    fn sharded_matches_serial_under_faults() {
        // Outage on one server, permanent loss of another, a straggler on
        // a third: the sharded admission lanes must reproduce the serial
        // retry/timeout accounting exactly, per server.
        let t = small_ior(IoOp::Write);
        let plan = FaultPlan::none().outage(0, 0.0, 0.05).down(1, 0.0).slow_server(2, 3.0);
        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let serial = ReplaySession::new()
            .with_fault_plan(plan.clone())
            .run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert!(serial.counters.retries > 0 && serial.counters.timeouts > 0, "plan must bite");
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let sharded = ReplaySession::new()
            .with_fault_plan(plan)
            .run(ReplayInput::trace(&mut c2, &t, &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn redundant_layouts_survive_permanent_loss_in_both_cores() {
        // Permanent loss of server 1 under 3x replication and EC(4+2):
        // both cores must complete every request (no timeouts), surface
        // the degraded accounting, and stay bit-identical.
        use crate::layout::{LayoutSpec, Placement, ServerId};
        use iotrace::FileId;
        let t = small_ior(IoOp::Read);
        let all: Vec<ServerId> = (0..8).map(ServerId).collect();
        for placement in [Placement::Replicated(3), Placement::ErasureCoded(4, 2)] {
            let plan = FaultPlan::none().down(1, 0.0);
            let spec = LayoutSpec::fixed(&all, 64 << 10).with_placement(placement);
            let mut c1 = Cluster::new(ClusterConfig::paper_default());
            c1.mds_mut().set_layout(FileId(0), spec.clone());
            let serial = ReplaySession::new()
                .with_fault_plan(plan.clone())
                .run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Auto)
                .unwrap();
            let mut c2 = Cluster::new(ClusterConfig::paper_default());
            c2.mds_mut().set_layout(FileId(0), spec);
            let sharded = ReplaySession::new()
                .with_fault_plan(plan)
                .run(ReplayInput::trace(&mut c2, &t, &mut IdentityResolver), CoreSel::Sharded)
                .unwrap();
            assert_eq!(serial, sharded);
            assert_eq!(serial.counters.timeouts, 0, "{placement:?}: degraded replay must complete");
            assert_eq!(serial.total_bytes, t.total_bytes());
            match placement {
                Placement::Replicated(_) => {
                    assert!(serial.counters.failovers > 0, "replica failovers must be counted");
                    assert_eq!(serial.per_server[1].counters.failovers, serial.counters.failovers);
                }
                _ => {
                    assert!(serial.counters.degraded_reads > 0, "EC degraded reads must be counted");
                    assert!(serial.counters.reconstructed_bytes > 0);
                    assert_eq!(
                        serial.per_server[1].counters.degraded_reads,
                        serial.counters.degraded_reads
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_generator_matches_materialized_replay() {
        // Replaying straight off the generator (never materializing the
        // trace) must equal replaying the materialized trace.
        let cfg = {
            let mut c = IorConfig::default_run(IoOp::Write);
            c.reqs_per_proc = 6;
            c.proc_mix = vec![8];
            c
        };
        let t = generate(&cfg);
        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let serial = ReplaySession::new().run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Auto).unwrap();
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let streamed = ReplaySession::new()
            .run(ReplayInput::stream(&mut c2, &mut iotrace::gen::ior::stream(&cfg), &mut IdentityResolver), CoreSel::Auto)
            .unwrap();
        assert_eq!(serial, streamed);
    }

    #[test]
    fn sharded_scratch_reuse_is_report_identical() {
        let mut session = ReplaySession::new();
        let mut reports = Vec::new();
        for t in [small_ior(IoOp::Write), small_ior(IoOp::Read), small_ior(IoOp::Write)] {
            let mut c = Cluster::new(ClusterConfig::paper_default());
            reports.push(session.run(ReplayInput::trace(&mut c, &t, &mut IdentityResolver), CoreSel::Sharded).unwrap());
        }
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn empty_trace_reports_zero_through_sharded_core() {
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let r = ReplaySession::new()
            .run(ReplayInput::trace(&mut c, &Trace::new(), &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();
        assert_eq!(r.requests, 0);
        assert_eq!(r.phases, 0);
        assert_eq!(r.bandwidth_mbps(), 0.0);
    }

    /// An IOR run whose four phases straddle the replay window: one record
    /// short of it, exactly one window, one record past it, and two
    /// windows plus one.
    fn window_edge_ior(op: IoOp) -> IorConfig {
        let w = super::WINDOW as u32;
        let mut cfg = IorConfig::default_run(op);
        cfg.proc_mix = vec![w - 1, w, w + 1, 2 * w + 1];
        cfg.reqs_per_proc = 4;
        cfg
    }

    /// Serial and sharded reports of `t` on the paper cluster, each run by
    /// a fresh session from `session` on a cluster prepared by `setup`.
    fn both_cores(
        t: &Trace,
        session: impl Fn() -> ReplaySession,
        setup: impl Fn(&mut Cluster),
    ) -> (ReplayReport, ReplayReport) {
        let run = |core| {
            let mut c = Cluster::new(ClusterConfig::paper_default());
            setup(&mut c);
            session().run(ReplayInput::trace(&mut c, t, &mut IdentityResolver), core).unwrap()
        };
        (run(CoreSel::Serial), run(CoreSel::Sharded))
    }

    #[test]
    fn window_edges_match_serial_fault_free() {
        for op in [IoOp::Write, IoOp::Read] {
            let t = generate(&window_edge_ior(op));
            let w = super::WINDOW;
            assert_eq!(t.len(), (w - 1) + w + (w + 1) + (2 * w + 1));
            let (serial, sharded) = both_cores(&t, ReplaySession::new, |_| {});
            assert_eq!(serial.phases, 4);
            assert_eq!(serial, sharded);
        }
    }

    #[test]
    fn window_edges_match_serial_under_faults() {
        let t = generate(&window_edge_ior(IoOp::Write));
        let plan = FaultPlan::none().outage(0, 0.0, 0.05).down(1, 0.0).slow_server(2, 3.0);
        let (serial, sharded) =
            both_cores(&t, || ReplaySession::new().with_fault_plan(plan.clone()), |_| {});
        assert!(serial.counters.retries > 0 && serial.counters.timeouts > 0, "plan must bite");
        assert_eq!(serial, sharded);
    }

    #[test]
    fn window_edges_match_serial_with_redundancy_and_a_down_server() {
        use crate::layout::{LayoutSpec, Placement, ServerId};
        use iotrace::FileId;
        let t = generate(&window_edge_ior(IoOp::Read));
        let all: Vec<ServerId> = (0..8).map(ServerId).collect();
        for placement in [Placement::Replicated(3), Placement::ErasureCoded(4, 2)] {
            let spec = LayoutSpec::fixed(&all, 64 << 10).with_placement(placement);
            let (serial, sharded) = both_cores(
                &t,
                || ReplaySession::new().with_fault_plan(FaultPlan::none().down(1, 0.0)),
                |c| c.mds_mut().set_layout(FileId(0), spec.clone()),
            );
            assert!(
                serial.counters.failovers + serial.counters.degraded_reads > 0,
                "{placement:?}: the down server must be routed around"
            );
            assert_eq!(serial, sharded);
        }
    }

    #[test]
    fn window_edges_match_serial_under_straggler_aware_dispatch() {
        // The four widths run twice. The first pass builds server 0's
        // latency baseline; an outage from just past the middle of the
        // healthy run strikes the second pass's one-window phase, which
        // turns server 0 suspect, so the two multi-window phases after it
        // are dispatched with per-record delays. Those delays are indexed
        // by position in the whole phase; a core that indexed them by
        // position in the window would issue records at the wrong times.
        let mut cfg = window_edge_ior(IoOp::Write);
        cfg.reqs_per_proc = 8;
        let t = generate(&cfg);
        let (healthy, _) = both_cores(&t, ReplaySession::new, |_| {});
        let plan = FaultPlan::none().outage(0, healthy.makespan.as_secs_f64() * 0.55, 30.0);
        let (serial, sharded) = both_cores(
            &t,
            || {
                ReplaySession::new()
                    .with_fault_plan(plan.clone())
                    .with_sched_policy(SchedPolicy::straggler_aware())
            },
            |_| {},
        );
        assert!(serial.counters.deferred_requests > 0, "the outage must trip the scheduler");
        assert_eq!(serial, sharded);
    }

    #[test]
    fn window_edges_stream_matches_materialized() {
        let cfg = window_edge_ior(IoOp::Write);
        let t = generate(&cfg);
        let mut c1 = Cluster::new(ClusterConfig::paper_default());
        let materialized = ReplaySession::new()
            .run(ReplayInput::trace(&mut c1, &t, &mut IdentityResolver), CoreSel::Sharded)
            .unwrap();
        let mut c2 = Cluster::new(ClusterConfig::paper_default());
        let streamed = ReplaySession::new()
            .run(
                ReplayInput::stream(
                    &mut c2,
                    &mut iotrace::gen::ior::stream(&cfg),
                    &mut IdentityResolver,
                ),
                CoreSel::Sharded,
            )
            .unwrap();
        assert_eq!(materialized, streamed);
    }
}
