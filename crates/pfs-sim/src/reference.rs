//! The serial reference replay loop.
//!
//! Production replays run on the lane core ([`crate::sharded`]). This
//! loop walks one record at a time through the metadata server, the
//! fabric and the storage servers, the plainest reading of the replay
//! semantics in [`crate::replay`]. It stays as a second, independent
//! implementation: [`crate::CoreSel::Serial`] runs it, and the identity
//! gates (`tests/sharded_equivalence.rs`, the `window_edges` tests, the
//! `scale` smoke, the straggler study and the benchmark's serial ==
//! sharded == streamed check) compare the lane core against it report
//! for report. Nothing else reaches it, and it is not tuned for speed.

use crate::cluster::Cluster;
use crate::error::ReplayError;
use crate::fault::{Admission, FaultRuntime};
use crate::layout::LayoutSpec;
use crate::redundancy::{decode_penalty, RedundancyState};
use crate::replay::{assemble_report, file_device_base, FileSet, ReplayReport, Resolver, RunTotals};
use crate::sched::SchedRuntime;
use iotrace::{FileId, Trace};
use simrt::stats::OnlineStats;
use simrt::{SeedSeq, SimDuration, SimTime};
use storage_model::IoOp;

/// Replay `trace` against `cluster` one record at a time. With
/// `faults: None` the time arithmetic is exactly the historical
/// fault-free path; with a [`FaultRuntime`], every sub-request first
/// passes server admission (outage retry loops, permanent loss) before
/// touching fabric or device.
pub(crate) fn replay(
    cluster: &mut Cluster,
    trace: &Trace,
    resolver: &mut dyn Resolver,
    mut faults: Option<&mut FaultRuntime>,
    sched: &mut SchedRuntime,
) -> Result<ReplayReport, ReplayError> {
    // Phase runs stay in one stored run each, so the cursor decodes
    // each record in O(1).
    let mut records = trace.records().cursor();
    cluster.reset();
    let n_servers = cluster.servers().len();
    let device_slots = cluster.config().device_slots;
    let mut extents = Vec::new();
    let mut subs = Vec::new();
    let mut opened = FileSet::default();
    let mut red = RedundancyState::default();
    red.reset(n_servers, faults.as_deref());
    sched.begin_run(n_servers);
    let observing = sched.observing();
    // Only a fault runtime ever times a sub-request out.
    let timeout = faults.as_deref().map_or(SimDuration::ZERO, FaultRuntime::timeout);
    let shuffle_seed = SeedSeq::new(0x5EED_0F0F);
    let mut order: Vec<usize> = Vec::new();
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

    for phase in trace.phases() {
        // Barrier: the new phase starts when the previous one drained.
        let phase_start = phase_end;
        phases += 1;
        // Interleave the phase's requests in a deterministic shuffled
        // order: concurrent clients race over the network, so a server
        // does NOT see sub-requests in rank (= ascending offset) order.
        // Replaying them sorted would hand rotating disks an
        // unrealistically sequential stream.
        order.clear();
        order.extend(phase.start()..phase.start() + phase.len());
        shuffle_seed.derive_idx("phase", u64::from(phase.phase())).rng().shuffle(&mut order);
        // Plan the phase from scheduler state frozen at the barrier
        // (stateless layout lookups only — the resolver may mutate).
        sched.plan_phase(order.iter().map(|&i| records.get(i).file), cluster.mds());
        for (k, &idx) in order.iter().enumerate() {
            let rec = &records.get(idx);
            let overhead = resolver.resolve_into(rec, &mut extents);
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
                decode_bytes += red.expand(layout, ext.offset, ext.len, rec.op, &mut subs);
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
        &red,
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
