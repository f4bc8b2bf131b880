//! Dynamic (online) MHA — the paper's stated future work:
//! *"We also intend to develop dynamic approaches to further improve the
//! performance of those applications with unpredictable patterns."*
//!
//! The static pipeline needs a complete profiled trace before it can
//! plan. The dynamic controller instead runs the application in
//! **epochs** of a fixed number of I/O phases:
//!
//! * the first epoch runs unoptimized (default layout) while the
//!   collector observes,
//! * after each epoch the controller re-plans MHA from everything
//!   observed so far — but only when the access pattern has *drifted*
//!   since the last plan (mean request size or size dispersion moved by
//!   more than a configurable factor), so stable workloads replan once,
//! * adopting a new plan costs real I/O: every extent whose mapping
//!   changed is **migrated** (read from its current location, written to
//!   its new region), and that migration traffic is replayed against the
//!   same cluster and charged to the application's clock.
//!
//! The report shows the resulting trade: dynamic MHA approaches the
//! oracle (plan-from-full-trace) bandwidth on stable patterns and stays
//! well above DEF on drifting ones, while paying visible migration time.
//!
//! ## Durable migration
//!
//! The epoch controller keeps its state in memory. Durable migration is
//! the [`LazyMigrator`]'s job: each extent's intended DRT entry is
//! journaled through a [`TenantStore`] before its bytes move, its commit
//! record is written after the copy, and the entry is only published
//! into the live DRT once its batch committed. [`crate::persist::recover`]
//! then makes a crash at any point safe: committed batches roll forward,
//! uncommitted ones are discarded, and the DRT never resolves to data
//! that was never migrated.

use crate::persist::{PersistError, TenantStore};
use crate::region::{Drt, DrtEntry};
use crate::schemes::{apply_plan, LayoutPlanner, MhaPlanner, Plan, PlanResolver, PlannerContext};
use iotrace::record::Rank;
use iotrace::{FileId, Trace, TraceRecord, TraceStats};
use pfs_sim::{
    Cluster, ClusterConfig, CoreSel, IdentityResolver, PhysExtent, ReplayInput, ReplayReport,
    ReplaySession, Resolver,
};
use simrt::{SimDuration, SimTime};
use std::collections::HashMap;
use storage_model::IoOp;

/// Online placement state carried across epochs: the evolving DRT plus
/// per-region append cursors, so **new writes are placed directly into
/// the best-matching region** (no later migration needed — data that has
/// never been written has no old home).
#[derive(Debug, Clone)]
struct OnlineState {
    drt: Drt,
    regions: Vec<OnlineRegion>,
}

#[derive(Debug, Clone)]
struct OnlineRegion {
    file: iotrace::FileId,
    cursor: u64,
    align: u64,
    /// Mean migrated extent size — the online stand-in for the group
    /// center (new requests join the region with the closest size).
    mean_size: f64,
}

impl OnlineState {
    /// Region with the mean extent size closest to `len` (log-scale).
    fn nearest_region(&self, len: u64) -> usize {
        let target = (len.max(1) as f64).ln();
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, r) in self.regions.iter().enumerate() {
            let d = (r.mean_size.max(1.0).ln() - target).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

/// The online resolver: translates through the evolving DRT and appends
/// mappings for writes to bytes no region owns yet.
struct OnlineResolver<'a> {
    state: &'a mut OnlineState,
    lookup: SimDuration,
    appended_bytes: u64,
}

impl Resolver for OnlineResolver<'_> {
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
        self.state.drt.translate_into(rec.file, rec.offset, rec.len, out);
        if rec.op == IoOp::Write && out.iter().any(|p| p.file == rec.file) {
            // Claim the unmapped subranges for the best-matching region,
            // then translate again through the grown table.
            for gap in out.iter().filter(|p| p.file == rec.file) {
                let idx = self.state.nearest_region(gap.len);
                let region = &mut self.state.regions[idx];
                let inserted = self.state.drt.insert(DrtEntry {
                    o_file: rec.file,
                    o_offset: gap.offset,
                    r_file: region.file,
                    r_offset: region.cursor,
                    length: gap.len,
                });
                debug_assert!(inserted, "gap is uncovered by construction");
                region.cursor = (region.cursor + gap.len).div_ceil(region.align) * region.align;
                self.appended_bytes += gap.len;
            }
            self.state.drt.translate_into(rec.file, rec.offset, rec.len, out);
        }
        self.lookup
    }
}

/// Dynamic controller configuration.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Phases per epoch (re-planning opportunity cadence).
    pub epoch_phases: u32,
    /// Relative change in mean request size or size CV that counts as
    /// pattern drift (e.g. 0.25 = 25 %).
    pub drift_threshold: f64,
    /// Number of ranks used to carry migration traffic.
    pub migration_ranks: u32,
    /// Extents migrated per barrier phase of migration traffic.
    pub migration_batch: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            epoch_phases: 12,
            drift_threshold: 0.25,
            migration_ranks: 8,
            migration_batch: 16,
        }
    }
}

/// Outcome of one epoch.
#[derive(Debug, Clone)]
pub struct EpochStat {
    /// Epoch index.
    pub epoch: usize,
    /// Application requests replayed.
    pub requests: usize,
    /// Application bytes moved.
    pub bytes: u64,
    /// Epoch application I/O time.
    pub io_time: SimDuration,
    /// Whether a re-plan happened after this epoch.
    pub replanned: bool,
    /// Bytes migrated when adopting the new plan (0 otherwise).
    pub migrated_bytes: u64,
    /// Time spent migrating.
    pub migration_time: SimDuration,
}

/// Outcome of a dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicReport {
    /// Per-epoch breakdown.
    pub epochs: Vec<EpochStat>,
    /// Total application bytes.
    pub total_bytes: u64,
    /// Total time: application I/O plus migration stalls.
    pub total_time: SimDuration,
    /// Number of re-plans performed.
    pub replans: usize,
    /// Total bytes migrated across all re-plans.
    pub migrated_bytes: u64,
}

impl DynamicReport {
    /// Effective application bandwidth including migration stalls, MB/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / self.total_time.as_secs_f64()
    }
}

/// Run `trace` under the dynamic controller (in-memory state only).
pub fn run_dynamic(
    cluster_cfg: &ClusterConfig,
    trace: &Trace,
    ctx: &PlannerContext,
    cfg: &DynamicConfig,
) -> DynamicReport {
    let epochs = split_epochs(trace, cfg.epoch_phases);
    let mut observed: Vec<TraceRecord> = Vec::new();
    // Layouts accumulate across re-plans: region files from earlier plans
    // keep holding carried-forward data, so their layouts stay installed.
    let mut layout_book: Vec<(iotrace::FileId, pfs_sim::LayoutSpec)> = Vec::new();
    let mut state: Option<OnlineState> = None;
    let mut plan_stats: Option<TraceStats> = None;
    let mut report = DynamicReport {
        epochs: Vec::new(),
        total_bytes: 0,
        total_time: SimDuration::ZERO,
        replans: 0,
        migrated_bytes: 0,
    };
    // One session across all epochs: the replay scratch stays warm.
    let mut session = ReplaySession::new();

    for (e, epoch_trace) in epochs.iter().enumerate() {
        // Replay the epoch under the current mapping; new writes are
        // placed directly into regions by the online resolver.
        let mut cluster = Cluster::new(cluster_cfg.clone());
        for (file, layout) in &layout_book {
            cluster.mds_mut().set_layout(*file, layout.clone());
        }
        let epoch_report: ReplayReport = match &mut state {
            Some(st) => {
                let mut resolver =
                    OnlineResolver { state: st, lookup: ctx.lookup_cost, appended_bytes: 0 };
                session.run(ReplayInput::trace(&mut cluster, epoch_trace, &mut resolver), CoreSel::Auto)
            }
            None => session.run(ReplayInput::trace(&mut cluster, epoch_trace, &mut IdentityResolver), CoreSel::Auto),
        }
        .expect("unscheduled fault-free replay cannot fail");
        observed.extend(epoch_trace.records());
        report.total_bytes += epoch_report.total_bytes;
        report.total_time += epoch_report.makespan;

        // Decide whether to (re-)plan from everything observed so far.
        let observed_trace = Trace::from_records(observed.clone());
        let stats = TraceStats::of(&observed_trace);
        let should_plan = match &plan_stats {
            None => true, // first epoch completed: initial plan
            Some(prev) => drifted(prev, &stats, cfg.drift_threshold),
        };
        let (mut replanned, mut migrated, mut mig_time) = (false, 0u64, SimDuration::ZERO);
        if should_plan && !observed.is_empty() && e + 1 < epochs.len() {
            // Fresh region-file id range per re-plan: carried-forward data
            // keeps living in earlier plans' region files.
            let mut plan_ctx = ctx.clone();
            plan_ctx.region_file_base =
                ctx.region_file_base + report.replans as u32 * 65_536;
            let new_plan = MhaPlanner.plan(&observed_trace, &plan_ctx);
            let adoption = adopt_plan(
                &new_plan,
                state.as_ref().map(|s| &s.drt),
                &observed,
                plan_ctx.region_file_base,
                ctx.rssd.step.max(4096),
            );
            // Migrate only the hot extents (observed more than once): the
            // controller must not pay to move data it has no evidence
            // will be touched again.
            let (bytes, time) = migrate(
                cluster_cfg,
                state.as_ref().map(|s| &s.drt),
                &layout_book,
                &new_plan,
                &adoption.to_migrate,
                cfg,
            );
            migrated = bytes;
            mig_time = time;
            report.replans += 1;
            report.migrated_bytes += bytes;
            report.total_time += time;
            plan_stats = Some(stats);
            layout_book.extend(new_plan.layouts.iter().cloned());
            state = Some(adoption.state);
            replanned = true;
        }
        report.epochs.push(EpochStat {
            epoch: e,
            requests: epoch_trace.len(),
            bytes: epoch_report.total_bytes,
            io_time: epoch_report.makespan,
            replanned,
            migrated_bytes: migrated,
            migration_time: mig_time,
        });
    }
    report
}

/// Result of adopting a new plan online.
struct Adoption {
    /// The pruned mapping + append cursors to run the next epochs with.
    state: OnlineState,
    /// Hot entries that must physically move (new home differs).
    to_migrate: Vec<DrtEntry>,
}

/// Build the adopted mapping from a fresh plan:
///
/// * **hot** extents (observed ≥ 2 times) adopt the new plan's mapping
///   and are scheduled for migration if their home changes,
/// * **warm** extents (already region-resident from earlier placement)
///   carry their existing mapping forward untouched,
/// * **cold** extents (seen once, still in the original file) are not
///   migrated — evidence says they may never be touched again.
fn adopt_plan(
    new_plan: &Plan,
    old_drt: Option<&Drt>,
    observed: &[TraceRecord],
    region_file_base: u32,
    step: u64,
) -> Adoption {
    let PlanResolver::Drt(new_drt) = &new_plan.resolver else {
        return Adoption {
            state: OnlineState { drt: Drt::new(), regions: Vec::new() },
            to_migrate: Vec::new(),
        };
    };
    // Access counts per exact extent.
    let mut counts: HashMap<(u32, u64, u64), u32> = HashMap::new();
    for r in observed {
        *counts.entry((r.file.0, r.offset, r.len)).or_insert(0) += 1;
    }

    let mut pruned = Drt::new();
    let mut to_migrate = Vec::new();
    for entry in new_drt.entries() {
        let hot = counts
            .get(&(entry.o_file.0, entry.o_offset, entry.length))
            .is_some_and(|&c| c >= 2);
        let old_home = old_drt.map(|d| d.translate(entry.o_file, entry.o_offset, entry.length));
        let already_in_regions = old_home
            .as_ref()
            .is_some_and(|pieces| pieces.iter().all(|p| p.file != entry.o_file));
        if hot {
            pruned.insert(entry);
            let unchanged = old_drt.is_some_and(|d| {
                d.lookup_exact(entry.o_file, entry.o_offset, entry.length)
                    == Some((entry.r_file, entry.r_offset))
            });
            if !unchanged {
                to_migrate.push(entry);
            }
        } else if already_in_regions {
            // Carry the existing placement forward.
            let mut off = entry.o_offset;
            for piece in old_home.expect("checked above") {
                pruned.insert(DrtEntry {
                    o_file: entry.o_file,
                    o_offset: off,
                    r_file: piece.file,
                    r_offset: piece.offset,
                    length: piece.len,
                });
                off += piece.len;
            }
        }
        // Cold and never migrated: stays in the original file.
    }

    // Append cursors come from the new plan's regions (fresh files).
    let regions = new_plan
        .regions
        .iter()
        .filter(|r| r.file.0 >= region_file_base)
        .map(|r| {
            let mean = if r.extents > 0 { r.len as f64 / r.extents as f64 } else { step as f64 };
            let align = new_plan
                .rst
                .get(r.file)
                .map(|p| if mean >= p.s as f64 && p.s > 0 { p.s } else { step })
                .unwrap_or(step)
                .max(1);
            OnlineRegion { file: r.file, cursor: r.len.max(1), align, mean_size: mean }
        })
        .collect();

    Adoption { state: OnlineState { drt: pruned, regions }, to_migrate }
}

/// Split a trace into epochs of `epoch_phases` consecutive phases.
fn split_epochs(trace: &Trace, epoch_phases: u32) -> Vec<Trace> {
    let epoch_phases = epoch_phases.max(1);
    let mut out: Vec<Vec<TraceRecord>> = Vec::new();
    for rec in trace.records() {
        let idx = (rec.phase / epoch_phases) as usize;
        while out.len() <= idx {
            out.push(Vec::new());
        }
        out[idx].push(rec);
    }
    out.into_iter()
        .filter(|v| !v.is_empty())
        .map(Trace::from_records)
        .collect()
}

/// Has the observed pattern drifted relative to the stats the current
/// plan was built from?
fn drifted(prev: &TraceStats, now: &TraceStats, threshold: f64) -> bool {
    let rel = |a: f64, b: f64| -> f64 {
        if a == 0.0 && b == 0.0 {
            0.0
        } else {
            (a - b).abs() / a.abs().max(b.abs())
        }
    };
    rel(prev.mean_request, now.mean_request) > threshold
        || rel(prev.size_cv, now.size_cv) > threshold
        || rel(f64::from(prev.max_concurrency), f64::from(now.max_concurrency)) > threshold
}

/// Simulate physically moving `entries` to their new homes: each is read
/// from its current location (old mapping or the original file) and
/// written to its new region position, replayed as real cluster traffic.
fn migrate(
    cluster_cfg: &ClusterConfig,
    old_drt: Option<&Drt>,
    layout_book: &[(iotrace::FileId, pfs_sim::LayoutSpec)],
    new_plan: &Plan,
    entries: &[DrtEntry],
    cfg: &DynamicConfig,
) -> (u64, SimDuration) {
    // Records: one read from the current home + one write to the new.
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut phase = 0u32;
    let mut in_batch = 0usize;
    let mut bytes = 0u64;
    for entry in entries {
        let rank = Rank((records.len() as u32 / 2) % cfg.migration_ranks.max(1));
        let ts = SimTime::ZERO + SimDuration::from_millis(10) * u64::from(phase);
        // Read from wherever the bytes currently live (old region or the
        // original file) ...
        let src = old_drt
            .map(|d| d.translate(entry.o_file, entry.o_offset, entry.length))
            .unwrap_or_default();
        let srcs = if src.is_empty() {
            vec![pfs_sim::PhysExtent {
                file: entry.o_file,
                offset: entry.o_offset,
                len: entry.length,
            }]
        } else {
            src
        };
        for s in srcs {
            records.push(TraceRecord {
                pid: 9000 + rank.0,
                rank,
                file: s.file,
                op: IoOp::Read,
                offset: s.offset,
                len: s.len,
                ts,
                phase,
            });
        }
        // ... and write into the new region.
        records.push(TraceRecord {
            pid: 9000 + rank.0,
            rank,
            file: entry.r_file,
            op: IoOp::Write,
            offset: entry.r_offset,
            len: entry.length,
            ts,
            phase,
        });
        bytes += entry.length;
        in_batch += 1;
        if in_batch >= cfg.migration_batch {
            in_batch = 0;
            phase += 1;
        }
    }
    if records.is_empty() {
        return (0, SimDuration::ZERO);
    }
    records.sort_by_key(|r| (r.phase, r.rank, r.file, r.offset));
    let migration_trace = Trace::from_records(records);
    let mut cluster = Cluster::new(cluster_cfg.clone());
    // Accumulated layouts govern reads of old regions; the new plan's
    // layouts govern the writes.
    for (file, layout) in layout_book {
        cluster.mds_mut().set_layout(*file, layout.clone());
    }
    apply_plan(&mut cluster, new_plan);

    let rep = ReplaySession::new()
        .run(ReplayInput::trace(&mut cluster, &migration_trace, &mut IdentityResolver), CoreSel::Auto)
        .expect("unscheduled fault-free replay cannot fail");
    (bytes, rep.makespan)
}

// ------------------------------------------------------------------
// Lazy on-access migration
// ------------------------------------------------------------------

/// Halve a live vector a removal left at most a quarter full. Halving
/// leaves room to double again before it reallocates, so a vector that
/// shrinks and regrows around one size does not reallocate on every
/// call, as sizing it exactly would.
fn shrink_sparse(live: &mut Vec<LiveRedirect>) {
    if live.len() <= live.capacity() / 4 {
        live.shrink_to(live.capacity() / 2);
    }
}

/// A live redirect: a DRT entry journaled for migration whose bytes have
/// not moved yet. [`LazyMigrator`] keeps each original file's redirects
/// in one vector sorted by `o_offset`, 32 bytes each.
///
/// The entry's write-ahead intent (`mig:`) is already on disk; the copy
/// itself is deferred to the first replayed access of the extent (or to
/// [`LazyMigrator::drain`]). Until the copy's commit record (`migc:`)
/// is written, lookups keep resolving to the old — still valid — home.
#[derive(Debug, Clone, Copy)]
struct LiveRedirect {
    /// Offset in the original file.
    o_offset: u64,
    /// Offset in the region file.
    r_offset: u64,
    /// Extent length, bytes.
    length: u64,
    /// Region file the extent will live in.
    r_file: FileId,
    /// Journal batch of this entry's write-ahead intent (one batch per
    /// entry, so an extent either migrated atomically or not at all —
    /// there is no half-migrated region). The intent record itself is
    /// shared by every entry of one [`LazyMigrator::add_pending`] call.
    batch: u32,
}

const _: () = assert!(std::mem::size_of::<LiveRedirect>() == 32);

impl LiveRedirect {
    fn end(&self) -> u64 {
        self.o_offset + self.length
    }
}

/// Resolver that migrates pending extents on first access instead of in
/// an eager stop-the-world batch.
///
/// State machine per extent (see DESIGN.md §15):
///
/// 1. `add_pending` journals the intent (one `mig:` record per call,
///    ordered before every later commit by the store's WAL) — the
///    extent keeps resolving to its old home;
/// 2. the first replayed access that overlaps the extent pays the copy:
///    its resolution overhead is charged the modeled read-old +
///    write-new time, the batch's commit record (`migc:`) is written,
///    and the entry is published into the live DRT;
/// 3. every later access resolves through the published mapping at
///    plain lookup cost.
///
/// Only live redirects are held: an entry leaves the migrator's live set
/// when it migrates (into the published DRT) or when a newer plan
/// cancels it, so the migrator's memory follows the redirects still
/// waiting (32 bytes each, in vectors grown by doubling), not the number
/// ever journaled.
///
/// A crash between the copy and the commit record leaves an uncommitted
/// journal batch that [`crate::persist::recover`] discards — the copy
/// is non-destructive, so the old mapping still resolves to valid
/// bytes and a retry simply re-migrates. A crash after the commit
/// record rolls the entry forward. Store errors (including injected
/// kills) are stashed and surfaced by [`LazyMigrator::check`]; after an
/// error the resolver stops touching the store, mimicking a killed
/// process.
pub struct LazyMigrator<'a> {
    store: TenantStore<'a>,
    published: Drt,
    /// Live redirects: per original file, one vector sorted by
    /// `o_offset`. A file's vector leaves with its last redirect, and
    /// extents never overlap.
    live: HashMap<FileId, Vec<LiveRedirect>>,
    lookup: SimDuration,
    /// Fixed per-copy setup time (two network round trips).
    copy_latency: SimDuration,
    /// Modeled copy cost per byte (read old home + transfer + write new).
    copy_secs_per_byte: f64,
    next_batch: u32,
    on_access_migrations: usize,
    migrated_bytes: u64,
    err: Option<PersistError>,
}

impl<'a> LazyMigrator<'a> {
    /// Start from the committed `base` mapping, journaling into `store`:
    /// each tenant's intents and commits live under its own journal
    /// keys, so concurrent tenants on one WAL recover independently
    /// ([`crate::persist::recover`]). The copy-cost model is derived
    /// from `cluster`: a migrated byte pays a read from the old home
    /// (HDD sustained rate — the conservative case), a transfer, and a
    /// write to the new home (SSD peak rate), plus two link round trips
    /// of setup per extent.
    pub fn new(
        store: TenantStore<'a>,
        base: Drt,
        cluster: &ClusterConfig,
        lookup: SimDuration,
    ) -> Self {
        let per_byte = 1.0 / cluster.hdd.transfer_bps
            + 1.0 / cluster.link.bandwidth_bps
            + 1.0 / cluster.ssd.write_bps;
        LazyMigrator {
            store,
            published: base,
            live: HashMap::new(),
            lookup,
            copy_latency: SimDuration::from_nanos((4.0 * cluster.link.latency_s * 1e9) as u64),
            copy_secs_per_byte: per_byte,
            next_batch: 0,
            on_access_migrations: 0,
            migrated_bytes: 0,
            err: None,
        }
    }

    /// Journal `entries` as pending redirects (the write-ahead step).
    ///
    /// Entries any part of whose extent already resolves away from the
    /// original file in the published mapping are skipped (they carry
    /// forward — re-homing published data would need a second move,
    /// and a partially-published range must never be re-journaled: the
    /// published mapping is append-only within a migrator's lifetime),
    /// and so are zero-length entries. The kept entries go to disk as
    /// one intent record, entry `i` owning batch `first + i`; only then
    /// does each kept entry, in order, *cancel* the live redirects it
    /// overlaps (their intents never commit, so recovery discards them)
    /// and register. A failed write therefore cancels and registers
    /// nothing.
    pub fn add_pending(&mut self, entries: &[DrtEntry]) -> Result<(), PersistError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        let mut pieces = Vec::new();
        let kept: Vec<DrtEntry> = entries
            .iter()
            .filter(|e| {
                if e.length == 0 {
                    return false;
                }
                self.published.translate_into(e.o_file, e.o_offset, e.length, &mut pieces);
                pieces.iter().all(|p| p.file == e.o_file)
            })
            .copied()
            .collect();
        if kept.is_empty() {
            return Ok(());
        }
        let first = self.next_batch;
        let next = u32::try_from(kept.len())
            .ok()
            .and_then(|n| first.checked_add(n))
            .expect("journal batch ids fit a u32");
        self.store.journal_intents(first, &kept)?;
        self.next_batch = next;
        // Entry by entry, in call order: an entry cancels the live
        // redirects it overlaps (one run of the sorted, disjoint vector)
        // and takes their place.
        for (e, batch) in kept.iter().zip(first..) {
            let live = self.live.entry(e.o_file).or_default();
            let end = e.o_offset + e.length;
            let lo = live.partition_point(|r| r.end() <= e.o_offset);
            let hi = live.partition_point(|r| r.o_offset < end);
            let redirect = LiveRedirect {
                o_offset: e.o_offset,
                r_offset: e.r_offset,
                length: e.length,
                r_file: e.r_file,
                batch,
            };
            live.splice(lo..hi, [redirect]);
            shrink_sparse(live);
        }
        Ok(())
    }

    /// The live mapping: base plus every migrated entry.
    pub fn published(&self) -> &Drt {
        &self.published
    }

    /// Redirects still waiting for their first access.
    pub fn pending_len(&self) -> usize {
        self.live.values().map(Vec::len).sum()
    }

    /// Extents migrated by an access (not by [`LazyMigrator::drain`]).
    pub fn on_access_migrations(&self) -> usize {
        self.on_access_migrations
    }

    /// Bytes moved so far (on-access and drained).
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes
    }

    /// Surface a store error stashed during replay (the [`Resolver`]
    /// interface cannot fail, so a mid-replay kill parks here).
    pub fn check(&mut self) -> Result<(), PersistError> {
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Migrate every remaining pending redirect (end-of-run drain), in
    /// journal batch order, so the final mapping matches what eager
    /// migration would have produced. Returns the bytes moved and the
    /// modeled copy time.
    pub fn drain(&mut self) -> Result<(u64, SimDuration), PersistError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        // Nothing leaves the vectors before the loop ends, so each
        // index stays valid.
        let mut order: Vec<(u32, FileId, usize)> = self
            .live
            .iter()
            .flat_map(|(&file, live)| live.iter().enumerate().map(move |(i, r)| (r.batch, file, i)))
            .collect();
        order.sort_unstable();
        let mut bytes = 0u64;
        let mut time = SimDuration::ZERO;
        for (batch, file, i) in order {
            if let Err(e) = self.store.commit_batch(batch) {
                // Exactly the redirects of earlier batches were published.
                for live in self.live.values_mut() {
                    live.retain(|l| l.batch >= batch);
                }
                self.live.retain(|_, live| !live.is_empty());
                return Err(e);
            }
            let r = self.live[&file][i];
            self.publish(file, r);
            self.migrated_bytes += r.length;
            bytes += r.length;
            time += self.copy_cost(r.length);
        }
        self.live.clear();
        Ok((bytes, time))
    }

    /// Modeled service time of copying `len` bytes old-home → new-home.
    fn copy_cost(&self, len: u64) -> SimDuration {
        self.copy_latency
            + SimDuration::from_nanos((len as f64 * self.copy_secs_per_byte * 1e9) as u64)
    }

    /// Drop the live redirect at `index` of `file`'s vector, and the
    /// vector with its last redirect.
    fn remove(&mut self, file: FileId, index: usize) -> LiveRedirect {
        let live = self.live.get_mut(&file).expect("removed redirect's file is live");
        let r = live.remove(index);
        if live.is_empty() {
            self.live.remove(&file);
        } else {
            shrink_sparse(live);
        }
        r
    }

    /// Insert a redirect of `file` into the published mapping.
    fn publish(&mut self, file: FileId, r: LiveRedirect) {
        let inserted = self.published.insert(DrtEntry {
            o_file: file,
            o_offset: r.o_offset,
            r_file: r.r_file,
            r_offset: r.r_offset,
            length: r.length,
        });
        debug_assert!(inserted, "pending redirects never overlap the published mapping");
    }

    /// The index of `file`'s live redirect starting highest below `end`,
    /// if it overlaps `[offset, end)`. Live extents are disjoint, so
    /// taking this one until none is left visits every overlapping one,
    /// downwards, as long as each leaves the vector.
    fn last_overlapping(&self, file: FileId, offset: u64, end: u64) -> Option<usize> {
        let live = self.live.get(&file)?;
        let i = live.partition_point(|r| r.o_offset < end).checked_sub(1)?;
        (live[i].end() > offset).then_some(i)
    }

    /// First-access hook: migrate every live redirect overlapping the
    /// accessed range, returning the copy time charged to this request.
    fn touch(&mut self, file: FileId, offset: u64, len: u64) -> SimDuration {
        let mut charged = SimDuration::ZERO;
        while let Some(i) = self.last_overlapping(file, offset, offset + len) {
            let batch = self.live[&file][i].batch;
            if let Err(e) = self.store.commit_batch(batch) {
                self.err = Some(e);
                break;
            }
            let r = self.remove(file, i);
            self.publish(file, r);
            self.on_access_migrations += 1;
            self.migrated_bytes += r.length;
            charged += self.copy_cost(r.length);
        }
        charged
    }
}

impl Resolver for LazyMigrator<'_> {
    fn resolve_into(&mut self, rec: &TraceRecord, out: &mut Vec<PhysExtent>) -> SimDuration {
        let mut overhead = self.lookup;
        if self.err.is_none() {
            overhead += self.touch(rec.file, rec.offset, rec.len);
        }
        self.published.translate_into(rec.file, rec.offset, rec.len, out);
        overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{recover, CommitPoint, JournalBatch, PipelineStore};
    use crate::region::Rst;
    use crate::rssd::StripePair;
    use crate::schemes::{Evaluation, Scheme};
    use iotrace::gen::ior::{generate as gen_ior, IorConfig};
    use iotrace::gen::lanl::{generate as gen_lanl, LanlConfig};
    use iotrace::{FileId, TenantId};
    use std::collections::BTreeMap;

    fn ctx(cfg: &ClusterConfig) -> PlannerContext {
        PlannerContext::for_cluster(cfg)
    }

    #[test]
    fn stable_pattern_plans_once_and_never_migrates_cold_data() {
        let cluster = ClusterConfig::paper_default();
        let c = ctx(&cluster);
        let trace = gen_lanl(&LanlConfig::paper(24, IoOp::Write));
        let rep = run_dynamic(&cluster, &trace, &c, &DynamicConfig::default());
        assert_eq!(rep.replans, 1, "stable workload should plan exactly once");
        // Every LANL extent is written exactly once: there is no evidence
        // any will be touched again, so nothing is migrated — later
        // writes are placed online instead.
        assert_eq!(rep.migrated_bytes, 0);
        assert_eq!(rep.total_bytes, trace.total_bytes());
    }

    #[test]
    fn dynamic_beats_def_and_trails_oracle() {
        let cluster = ClusterConfig::paper_default();
        let c = ctx(&cluster);
        let trace = gen_lanl(&LanlConfig::paper(48, IoOp::Write));
        let dynamic = run_dynamic(&cluster, &trace, &c, &DynamicConfig::default());
        let def = Evaluation::of(Scheme::Def, &trace, &cluster).context(&c).report();
        let oracle = Evaluation::of(Scheme::Mha, &trace, &cluster).context(&c).report();
        assert!(
            dynamic.bandwidth_mbps() > def.bandwidth_mbps(),
            "dynamic {} <= DEF {}",
            dynamic.bandwidth_mbps(),
            def.bandwidth_mbps()
        );
        assert!(
            dynamic.bandwidth_mbps() <= oracle.bandwidth_mbps() * 1.02,
            "dynamic {} cannot beat the oracle {}",
            dynamic.bandwidth_mbps(),
            oracle.bandwidth_mbps()
        );
    }

    #[test]
    fn drifting_pattern_replans() {
        // First half: LANL writes; second half: large uniform IOR reads.
        let cluster = ClusterConfig::paper_default();
        let c = ctx(&cluster);
        let mut trace = gen_lanl(&LanlConfig::paper(16, IoOp::Write));
        let mut ior_cfg = IorConfig::default_run(IoOp::Read);
        ior_cfg.size_mix = vec![1 << 20];
        ior_cfg.reqs_per_proc = 48;
        trace.extend_with(&gen_ior(&ior_cfg));
        let rep = run_dynamic(&cluster, &trace, &c, &DynamicConfig::default());
        assert!(rep.replans >= 2, "pattern change must trigger a re-plan: {rep:?}");
    }

    #[test]
    fn epochs_partition_the_trace() {
        let trace = gen_lanl(&LanlConfig::paper(10, IoOp::Write));
        let epochs = split_epochs(&trace, 7);
        let total: usize = epochs.iter().map(Trace::len).sum();
        assert_eq!(total, trace.len());
        assert!(epochs.len() >= 2);
    }

    #[test]
    fn drift_detector_is_symmetric_and_thresholded() {
        let trace = gen_lanl(&LanlConfig::paper(4, IoOp::Write));
        let s = TraceStats::of(&trace);
        assert!(!drifted(&s, &s, 0.25), "identical stats never drift");
    }

    #[test]
    fn migration_moves_hot_data_and_accounts_time() {
        // Two identical LANL write passes make every extent hot (accessed
        // twice); the trailing large-read phase triggers a drift re-plan,
        // which must migrate the hot extents and charge the time.
        let cluster = ClusterConfig::paper_default();
        let c = ctx(&cluster);
        let mut trace = gen_lanl(&LanlConfig::paper(16, IoOp::Write));
        trace.extend_with(&gen_lanl(&LanlConfig::paper(16, IoOp::Write)));
        let mut ior_cfg = IorConfig::default_run(IoOp::Read);
        ior_cfg.size_mix = vec![1 << 20];
        ior_cfg.reqs_per_proc = 32;
        trace.extend_with(&gen_ior(&ior_cfg));
        let rep = run_dynamic(&cluster, &trace, &c, &DynamicConfig::default());
        assert!(rep.replans >= 2, "drift must replan: {}", rep.replans);
        assert!(rep.migrated_bytes > 0, "hot extents must migrate");
        let mig_time: SimDuration = rep.epochs.iter().map(|e| e.migration_time).sum();
        assert!(!mig_time.is_zero());
        let app_time: SimDuration = rep.epochs.iter().map(|e| e.io_time).sum();
        assert_eq!((app_time + mig_time).as_nanos(), rep.total_time.as_nanos());
        assert_eq!(rep.total_bytes, trace.total_bytes());
    }

    // ------------------------------------------------ durable mode --

    fn tmp_store(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("mha-dyn-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Base mapping: six extents of file 0 already living in region
    /// file 70 000.
    fn base_tables() -> (Drt, Rst) {
        let mut drt = Drt::new();
        for i in 0..6u64 {
            assert!(drt.insert(DrtEntry {
                o_file: FileId(0),
                o_offset: i * 8192,
                r_file: FileId(70_000),
                r_offset: i * 4096,
                length: 4096,
            }));
        }
        let mut rst = Rst::new();
        rst.set(FileId(70_000), StripePair { h: 0, s: 64 << 10 });
        rst.set(FileId(70_001), StripePair { h: 0, s: 128 << 10 });
        (drt, rst)
    }

    /// Eighteen further extents of file 0 that migration moves into
    /// region file 70 001: one batch commit each, so the kill matrices
    /// stay wide now that a table save crosses one boundary per DRT chunk
    /// and a journaling call one per intent record.
    fn to_migrate_entries() -> Vec<DrtEntry> {
        (0..18u64)
            .map(|i| DrtEntry {
                o_file: FileId(0),
                o_offset: (1 << 20) + i * 8192,
                r_file: FileId(70_001),
                r_offset: i * 4096,
                length: 4096,
            })
            .collect()
    }

    /// The tenant-0 view tests journal through.
    fn t0(store: &PipelineStore) -> TenantStore<'_> {
        store.tenant(TenantId(0))
    }

    /// The eager reference for lazy migration: entries move in chunks of
    /// `cfg.migration_batch` from the original file, each entry its own
    /// journal batch, each chunk under the write-ahead discipline
    ///
    /// 1. journal the chunk's intended DRT entries as one intent record,
    /// 2. replay the chunk's read-old/write-new traffic,
    /// 3. write each entry's commit record (fsynced),
    /// 4. publish the entries into `published`.
    ///
    /// A crash between 1 and 3 leaves uncommitted journal batches that
    /// [`recover`] discards (the old mapping still resolves to valid
    /// bytes — migration copies, it does not destroy); a committed batch
    /// is rolled forward. Each chunk is replayed on its own cluster
    /// because its commit records are a hard barrier: chunk *n + 1* must
    /// not move until chunk *n* is durable.
    fn migrate_durable(
        cluster_cfg: &ClusterConfig,
        entries: &[DrtEntry],
        cfg: &DynamicConfig,
        store: TenantStore<'_>,
        published: &mut Drt,
    ) -> Result<(u64, SimDuration), PersistError> {
        let mut bytes = 0u64;
        let mut time = SimDuration::ZERO;
        let mut first = 0u32;
        for chunk in entries.chunks(cfg.migration_batch.max(1)) {
            let end = first + chunk.len() as u32;
            store.journal_intents(first, chunk)?;

            let mut records: Vec<TraceRecord> = Vec::new();
            for entry in chunk {
                let rank = Rank((records.len() as u32 / 2) % cfg.migration_ranks.max(1));
                for (file, offset, op) in [
                    (entry.o_file, entry.o_offset, IoOp::Read),
                    (entry.r_file, entry.r_offset, IoOp::Write),
                ] {
                    records.push(TraceRecord {
                        pid: 9000 + rank.0,
                        rank,
                        file,
                        op,
                        offset,
                        len: entry.length,
                        ts: SimTime::ZERO,
                        phase: 0,
                    });
                }
            }
            records.sort_by_key(|r| (r.rank, r.file, r.offset));
            let traffic = Trace::from_records(records);
            let mut cluster = Cluster::new(cluster_cfg.clone());
            let rep = ReplaySession::new()
                .run(ReplayInput::trace(&mut cluster, &traffic, &mut IdentityResolver), CoreSel::Auto)
                .expect("unscheduled fault-free replay cannot fail");
            time += rep.makespan;

            for batch in first..end {
                store.commit_batch(batch)?;
            }
            first = end;
            for entry in chunk {
                if published.lookup_exact(entry.o_file, entry.o_offset, entry.length)
                    != Some((entry.r_file, entry.r_offset))
                {
                    let inserted = published.insert(*entry);
                    debug_assert!(inserted, "to-migrate entries are disjoint from the base");
                }
                bytes += entry.length;
            }
        }
        Ok((bytes, time))
    }

    /// Lazy counterpart of the eager flow: commit the base mapping,
    /// journal every pending entry up front (write-ahead), then journal a
    /// second plan that re-homes the last third of them unchanged — it
    /// cancels those intents of the first record, so the flow writes two
    /// intent records and still ends at the eager mapping — replay
    /// `trace` through the on-access migrator, drain the untouched
    /// remainder, publish the full mapping and retire the journal.
    ///
    /// After a full replay + drain the published DRT is
    /// **bit-identical** to what [`migrate_durable`] produces for the
    /// same entries (`lazy_drain_matches_eager_migration`), and a crash
    /// at any commit boundary recovers to a committed generation (the
    /// lazy kill-matrix test).
    fn run_lazy_durable(
        cluster_cfg: &ClusterConfig,
        base: &Drt,
        rst: &Rst,
        to_migrate: &[DrtEntry],
        trace: &Trace,
        lookup: SimDuration,
        store: TenantStore<'_>,
    ) -> Result<(Drt, ReplayReport), PersistError> {
        store.save_tables(base, rst)?;
        let mut migrator = LazyMigrator::new(store, base.clone(), cluster_cfg, lookup);
        migrator.add_pending(to_migrate)?;
        migrator.add_pending(&to_migrate[to_migrate.len() * 2 / 3..])?;
        let mut cluster = Cluster::new(cluster_cfg.clone());
        let report = ReplaySession::new()
            .run(ReplayInput::trace(&mut cluster, trace, &mut migrator), CoreSel::Auto)
            .expect("unscheduled fault-free replay cannot fail");
        migrator.check()?;
        migrator.drain()?;
        let published = migrator.published().clone();
        store.save_tables(&published, rst)?;
        store.clear_journal()?;
        Ok((published, report))
    }

    /// The eager durable migration flow: commit the base, move in
    /// journaled batches, publish, retire.
    fn run_flow(
        store: TenantStore<'_>,
        cluster_cfg: &ClusterConfig,
        base: &Drt,
        rst: &Rst,
        to_migrate: &[DrtEntry],
        cfg: &DynamicConfig,
    ) -> Result<Drt, PersistError> {
        store.save_tables(base, rst)?;
        let mut published = base.clone();
        migrate_durable(cluster_cfg, to_migrate, cfg, store, &mut published)?;
        store.save_tables(&published, rst)?;
        store.clear_journal()?;
        Ok(published)
    }

    /// The acceptance property: kill the process at *every* commit
    /// boundary of the migration flow, recover, and check that the DRT
    /// never resolves to unmigrated data — each entry is either a base
    /// entry or belongs to a batch whose journal commit record survived.
    #[test]
    fn kill_matrix_over_journaled_migration_recovers_consistently() {
        let cluster = ClusterConfig::paper_default();
        let cfg = DynamicConfig { migration_batch: 3, ..DynamicConfig::default() };
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();

        // Recording run: measure the matrix width.
        let path = tmp_store("matrix-record");
        let boundaries = {
            let store = PipelineStore::open(&path).expect("open");
            run_flow(t0(&store), &cluster, &base, &rst, &to_migrate, &cfg).expect("flow");
            store.kill_switch().boundaries()
        };
        let _ = std::fs::remove_file(&path);
        // Base and final saves, an intent record per chunk of 3, a
        // commit per entry, the journal clear.
        let chunks = to_migrate.len().div_ceil(cfg.migration_batch) as u64;
        assert_eq!(boundaries, 2 * save_boundaries(&rst) + chunks + to_migrate.len() as u64 + 1);

        let mut kinds = Vec::new();
        for k in 0..boundaries {
            let path = tmp_store(&format!("matrix-{k}"));
            {
                let store = PipelineStore::open(&path).expect("open");
                store.kill_switch().arm(k);
                match run_flow(t0(&store), &cluster, &base, &rst, &to_migrate, &cfg) {
                    Err(PersistError::Killed(point)) => kinds.push(point),
                    other => panic!("boundary {k}: expected Killed, got {other:?}"),
                }
            }
            // "Restart": reopen, read the surviving journal, recover.
            let store = PipelineStore::open(&path).expect("reopen");
            let journal = t0(&store).journal().expect("journal");
            let committed: std::collections::HashSet<(u32, u64)> = journal
                .iter()
                .filter(|b| b.committed)
                .map(|b| (b.entry.o_file.0, b.entry.o_offset))
                .collect();
            let out = recover(t0(&store)).expect("recover");
            match &out.tables {
                None => assert!(
                    journal.is_empty(),
                    "boundary {k}: the base commits before any journaling"
                ),
                Some((drt, got_rst)) => {
                    assert_eq!(*got_rst, rst, "boundary {k}: RST must survive");
                    for e in drt.entries() {
                        let in_base = base.lookup_exact(e.o_file, e.o_offset, e.length)
                            == Some((e.r_file, e.r_offset));
                        assert!(
                            in_base || committed.contains(&(e.o_file.0, e.o_offset)),
                            "boundary {k}: {e:?} resolves to unmigrated data"
                        );
                    }
                    for e in journal.iter().filter(|b| b.committed).map(|b| b.entry) {
                        assert_eq!(
                            drt.lookup_exact(e.o_file, e.o_offset, e.length),
                            Some((e.r_file, e.r_offset)),
                            "boundary {k}: committed batch entry lost"
                        );
                    }
                    for e in base.entries() {
                        assert_eq!(
                            drt.lookup_exact(e.o_file, e.o_offset, e.length),
                            Some((e.r_file, e.r_offset)),
                            "boundary {k}: base entry lost"
                        );
                    }
                }
            }
            // Recovery is idempotent ...
            let again = recover(t0(&store)).expect("recover again");
            assert_eq!(again.rolled_forward, 0, "boundary {k}: second recovery must be a no-op");
            // ... and the retried flow completes and publishes everything.
            let published =
                run_flow(t0(&store), &cluster, &base, &rst, &to_migrate, &cfg).expect("resume");
            let (final_drt, final_rst) =
                store.load_tables().expect("load").expect("committed");
            assert_eq!(final_drt, published, "boundary {k}");
            assert_eq!(final_rst, rst, "boundary {k}");
            assert_eq!(final_drt.len(), base.len() + to_migrate.len(), "boundary {k}");
            let _ = std::fs::remove_file(&path);
        }
        assert_every_kind_killed(&kinds);
    }

    /// Boundaries one `save_tables` of the fixture crosses: its one DRT
    /// chunk, one record per RST row, the commit record.
    fn save_boundaries(rst: &Rst) -> u64 {
        1 + rst.len() as u64 + 1
    }

    /// A kill matrix must have crashed the flow at every kind of commit
    /// boundary.
    fn assert_every_kind_killed(kinds: &[CommitPoint]) {
        for point in [
            CommitPoint::TableEntry,
            CommitPoint::TableCommit,
            CommitPoint::BatchIntent,
            CommitPoint::BatchCommit,
            CommitPoint::JournalClear,
        ] {
            assert!(kinds.contains(&point), "no kill at a {point:?} boundary");
        }
    }

    // ------------------------------------------- lazy migration --

    /// One read per pending extent, each in its own phase — a replay
    /// that touches (and therefore lazily migrates) every entry.
    fn access_trace(entries: &[DrtEntry]) -> Trace {
        Trace::from_records(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| TraceRecord {
                    pid: 1,
                    rank: Rank(i as u32 % 4),
                    file: e.o_file,
                    op: IoOp::Read,
                    offset: e.o_offset,
                    len: e.length,
                    ts: SimTime::ZERO + SimDuration::from_millis(10) * i as u64,
                    phase: i as u32,
                })
                .collect(),
        )
    }

    /// The acceptance property: a full replay drains every pending
    /// redirect, and the resulting DRT is bit-identical to what the
    /// eager journaled flow publishes for the same plan — on disk too.
    #[test]
    fn lazy_drain_matches_eager_migration() {
        let cluster = ClusterConfig::paper_default();
        let cfg = DynamicConfig { migration_batch: 3, ..DynamicConfig::default() };
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();

        let eager_path = tmp_store("lazy-eager");
        let eager = {
            let store = PipelineStore::open(&eager_path).expect("open");
            let published =
                run_flow(t0(&store), &cluster, &base, &rst, &to_migrate, &cfg).expect("eager");
            let on_disk = store.load_tables().expect("load").expect("committed");
            assert_eq!(on_disk.0, published);
            published
        };
        let _ = std::fs::remove_file(&eager_path);

        let lazy_path = tmp_store("lazy-lazy");
        let store = PipelineStore::open(&lazy_path).expect("open");
        let trace = access_trace(&to_migrate);
        let (lazy, report) = run_lazy_durable(
            &cluster,
            &base,
            &rst,
            &to_migrate,
            &trace,
            SimDuration::from_micros(5),
            t0(&store),
        )
        .expect("lazy");
        assert_eq!(lazy, eager, "drained lazy mapping == eager mapping");
        let (disk_drt, disk_rst) = store.load_tables().expect("load").expect("committed");
        assert_eq!(disk_drt, eager, "on-disk mapping matches too");
        assert_eq!(disk_rst, rst);
        assert!(t0(&store).journal().expect("journal").is_empty(), "journal retired");
        // Every access after the first resolves to the new home, and the
        // copies were charged to request service time.
        assert_eq!(report.requests, to_migrate.len());
        assert!(
            report.resolve_overhead > SimDuration::from_micros(5) * to_migrate.len() as u64,
            "copy time must be charged on top of lookups: {:?}",
            report.resolve_overhead
        );
        let _ = std::fs::remove_file(&lazy_path);
    }

    #[test]
    fn lazy_migration_moves_extents_on_first_access_only() {
        let cluster = ClusterConfig::paper_default();
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();
        let path = tmp_store("lazy-partial");
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&base, &rst).expect("save base");
        let mut mig =
            LazyMigrator::new(t0(&store), base.clone(), &cluster, SimDuration::from_micros(5));
        mig.add_pending(&to_migrate).expect("journal intents");
        assert_eq!(mig.pending_len(), to_migrate.len());

        // Replay touches only the first four extents.
        let touched = &to_migrate[..4];
        let mut cluster_sim = Cluster::new(cluster.clone());
        ReplaySession::new()
            .run(ReplayInput::trace(&mut cluster_sim, &access_trace(touched), &mut mig), CoreSel::Auto)
            .expect("replay");
        mig.check().expect("no store error");
        assert_eq!(mig.on_access_migrations(), 4);
        assert_eq!(mig.pending_len(), to_migrate.len() - 4);
        // Touched extents are committed and published; untouched ones
        // still resolve to their old home and stay uncommitted.
        let journal = t0(&store).journal().expect("journal");
        for p in journal {
            let touched_entry = touched.iter().any(|e| e.o_offset == p.entry.o_offset);
            assert_eq!(p.committed, touched_entry, "batch {}", p.batch);
        }
        for e in touched {
            assert_eq!(
                mig.published().lookup_exact(e.o_file, e.o_offset, e.length),
                Some((e.r_file, e.r_offset))
            );
        }
        for e in &to_migrate[4..] {
            assert_eq!(mig.published().lookup_exact(e.o_file, e.o_offset, e.length), None);
        }
        // Drain completes the generation.
        let (bytes, _) = mig.drain().expect("drain");
        assert_eq!(bytes, to_migrate[4..].iter().map(|e| e.length).sum::<u64>());
        assert_eq!(mig.pending_len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn migrated_bytes_counts_on_access_and_drained_bytes() {
        let cluster = ClusterConfig::paper_default();
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();
        let path = tmp_store("lazy-bytes");
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&base, &rst).expect("save base");
        let mut mig =
            LazyMigrator::new(t0(&store), base.clone(), &cluster, SimDuration::from_micros(5));
        mig.add_pending(&to_migrate).expect("journal intents");
        let (touched, rest) = to_migrate.split_at(3);
        let mut cluster_sim = Cluster::new(cluster.clone());
        ReplaySession::new()
            .run(ReplayInput::trace(&mut cluster_sim, &access_trace(touched), &mut mig), CoreSel::Auto)
            .expect("replay");
        let on_access: u64 = touched.iter().map(|e| e.length).sum();
        assert_eq!(mig.migrated_bytes(), on_access);
        let (drained, _) = mig.drain().expect("drain");
        assert!(drained > 0 && !rest.is_empty(), "the drain must move bytes");
        assert_eq!(drained, rest.iter().map(|e| e.length).sum::<u64>());
        assert_eq!(mig.migrated_bytes(), on_access + drained);
        assert_eq!(mig.on_access_migrations(), touched.len(), "a drain is not an access");
        let _ = std::fs::remove_file(&path);
    }

    /// A drain killed at a batch's commit record has published exactly
    /// the earlier batches; that batch and every later one stay live, and
    /// a second drain moves them.
    /// A file's live vector halves once removals leave it a quarter
    /// full, and only then: migrating 64 of 128 redirects keeps its
    /// capacity, 96 halve it once and 112 twice.
    #[test]
    fn live_vectors_halve_at_a_quarter_full() {
        let path = tmp_store("lazy-shrink");
        let store = PipelineStore::open(&path).expect("open");
        let mut mig = LazyMigrator::new(
            t0(&store),
            Drt::new(),
            &ClusterConfig::paper_default(),
            SimDuration::from_micros(5),
        );
        let entries: Vec<DrtEntry> = (0..128u64)
            .map(|k| DrtEntry {
                o_file: FileId(0),
                o_offset: k << 16,
                r_file: FileId(1 << 20),
                r_offset: k << 16,
                length: 1 << 16,
            })
            .collect();
        mig.add_pending(&entries).expect("journal intents");
        let capacity = |mig: &LazyMigrator<'_>| mig.live[&FileId(0)].capacity();
        assert_eq!(capacity(&mig), 128);
        let mut out = Vec::new();
        let mut access = |mig: &mut LazyMigrator<'_>, ks: std::ops::Range<u64>| {
            for k in ks {
                let rec = TraceRecord {
                    pid: 1,
                    rank: iotrace::Rank(0),
                    file: FileId(0),
                    op: IoOp::Read,
                    offset: k << 16,
                    len: 1 << 16,
                    ts: simrt::SimTime::ZERO,
                    phase: 0,
                };
                mig.resolve_into(&rec, &mut out);
            }
            mig.check().expect("no store error");
        };
        access(&mut mig, 0..64);
        assert_eq!((mig.pending_len(), capacity(&mig)), (64, 128), "half full keeps its room");
        access(&mut mig, 64..96);
        assert_eq!((mig.pending_len(), capacity(&mig)), (32, 64), "a quarter full halves");
        access(&mut mig, 96..112);
        assert_eq!((mig.pending_len(), capacity(&mig)), (16, 32), "and halves again");
        access(&mut mig, 112..128);
        assert!(mig.live.is_empty(), "the emptied vector is freed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_drain_killed_midway_keeps_the_rest_live() {
        let cluster = ClusterConfig::paper_default();
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();
        let path = tmp_store("lazy-drain-kill");
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&base, &rst).expect("save base");
        let mut mig =
            LazyMigrator::new(t0(&store), base.clone(), &cluster, SimDuration::from_micros(5));
        mig.add_pending(&to_migrate).expect("journal intents");
        store.kill_switch().reset();
        store.kill_switch().arm(5);
        match mig.drain() {
            Err(PersistError::Killed(CommitPoint::BatchCommit)) => {}
            other => panic!("expected a kill at the sixth commit record, got {other:?}"),
        }
        store.kill_switch().disarm();
        let (moved, rest) = to_migrate.split_at(5);
        assert_eq!(mig.pending_len(), rest.len());
        assert_eq!(mig.migrated_bytes(), moved.iter().map(|e| e.length).sum::<u64>());
        for (e, published) in to_migrate.iter().map(|e| (e, moved.contains(e))) {
            let home = mig.published().lookup_exact(e.o_file, e.o_offset, e.length);
            assert_eq!(home.is_some(), published, "{e:?}");
        }
        let (bytes, _) = mig.drain().expect("drain");
        assert_eq!(bytes, rest.iter().map(|e| e.length).sum::<u64>());
        assert_eq!(mig.pending_len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn superseded_pending_redirects_are_cancelled_not_committed() {
        let cluster = ClusterConfig::paper_default();
        let (base, rst) = base_tables();
        let path = tmp_store("lazy-cancel");
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&base, &rst).expect("save base");
        let mut mig =
            LazyMigrator::new(t0(&store), base.clone(), &cluster, SimDuration::from_micros(5));
        let first = to_migrate_entries();
        mig.add_pending(&first).expect("journal first plan");
        // A newer plan re-homes the same extents to region file 70 002.
        let second: Vec<DrtEntry> = first
            .iter()
            .map(|e| DrtEntry { r_file: FileId(70_002), r_offset: e.o_offset, ..*e })
            .collect();
        mig.add_pending(&second).expect("journal second plan");
        assert_eq!(mig.pending_len(), second.len(), "old redirects cancelled");
        let (bytes, _) = mig.drain().expect("drain");
        assert_eq!(bytes, second.iter().map(|e| e.length).sum::<u64>());
        for e in &second {
            assert_eq!(
                mig.published().lookup_exact(e.o_file, e.o_offset, e.length),
                Some((e.r_file, e.r_offset)),
                "the newer plan's mapping wins"
            );
        }
        // Only the second plan's batches ever commit.
        let journal = t0(&store).journal().expect("journal");
        let (committed, discarded): (Vec<JournalBatch>, Vec<_>) =
            journal.into_iter().partition(|b| b.committed);
        assert_eq!(committed.len(), second.len());
        assert_eq!(discarded.len(), first.len());
        assert!(committed.iter().all(|b| b.entry.r_file == FileId(70_002)));
        let _ = std::fs::remove_file(&path);
    }

    /// `add_pending` is all-or-nothing: killed at its intent record, it
    /// registers no redirect, leaves no `mig:` key, and both the live
    /// migrator and a recovered store resolve every extent to its old
    /// home.
    #[test]
    fn add_pending_killed_at_its_intent_registers_nothing() {
        let cluster = ClusterConfig::paper_default();
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();
        let path = tmp_store("lazy-all-or-nothing");
        {
            let store = PipelineStore::open(&path).expect("open");
            store.save_tables(&base, &rst).expect("save base");
            let mut mig =
                LazyMigrator::new(t0(&store), base.clone(), &cluster, SimDuration::from_micros(5));
            store.kill_switch().reset();
            store.kill_switch().arm(0);
            match mig.add_pending(&to_migrate) {
                Err(PersistError::Killed(CommitPoint::BatchIntent)) => {}
                other => panic!("expected a kill at the intent record, got {other:?}"),
            }
            store.kill_switch().disarm();
            assert_eq!(mig.pending_len(), 0);
            assert!(store.store().keys_with_prefix(b"mig").is_empty(), "no journal key");
            let mut cluster_sim = Cluster::new(cluster.clone());
            ReplaySession::new()
                .run(
                    ReplayInput::trace(&mut cluster_sim, &access_trace(&to_migrate), &mut mig),
                    CoreSel::Auto,
                )
                .expect("replay");
            mig.check().expect("no store error");
            assert_eq!(mig.on_access_migrations(), 0);
            assert_eq!(mig.published(), &base);
            for rec in access_trace(&to_migrate).records() {
                let pieces = mig.resolve(&rec).extents;
                assert_eq!(pieces.len(), 1);
                assert_eq!((pieces[0].file, pieces[0].offset), (rec.file, rec.offset), "old home");
            }
        }
        let store = PipelineStore::open(&path).expect("reopen");
        let out = recover(t0(&store)).expect("recover");
        assert_eq!((out.rolled_forward, out.discarded_batches), (0, 0));
        assert_eq!(out.tables.expect("base committed"), (base, rst));
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite: the lazy-migration kill matrix. Crash at every commit
    /// boundary of the lazy flow — including between a first-access
    /// copy and its `migc:` record — and check that recovery lands on a
    /// committed generation, never exposes a half-migrated region, and
    /// that the retried flow replays idempotently to the full mapping.
    #[test]
    fn kill_matrix_over_lazy_migration_recovers_consistently() {
        let cluster = ClusterConfig::paper_default();
        let (base, rst) = base_tables();
        let to_migrate = to_migrate_entries();
        let lookup = SimDuration::from_micros(5);
        let trace = access_trace(&to_migrate);

        let run = |store: &PipelineStore| {
            run_lazy_durable(&cluster, &base, &rst, &to_migrate, &trace, lookup, t0(store))
        };

        let path = tmp_store("lazy-matrix-record");
        let boundaries = {
            let store = PipelineStore::open(&path).expect("open");
            run(&store).expect("flow");
            store.kill_switch().boundaries()
        };
        let _ = std::fs::remove_file(&path);
        // Base and final saves, two intent records, one on-access commit
        // per extent (each is touched once), the journal clear.
        assert_eq!(boundaries, 2 * save_boundaries(&rst) + 2 + to_migrate.len() as u64 + 1);

        let mut kinds = Vec::new();
        for k in 0..boundaries {
            let path = tmp_store(&format!("lazy-matrix-{k}"));
            {
                let store = PipelineStore::open(&path).expect("open");
                store.kill_switch().arm(k);
                match run(&store) {
                    Err(PersistError::Killed(point)) => kinds.push(point),
                    other => panic!("boundary {k}: expected Killed, got {other:?}"),
                }
            }
            let store = PipelineStore::open(&path).expect("reopen");
            let journal = t0(&store).journal().expect("journal");
            let committed: std::collections::HashSet<(u32, u64)> = journal
                .iter()
                .filter(|b| b.committed)
                .map(|b| (b.entry.o_file.0, b.entry.o_offset))
                .collect();
            let out = recover(t0(&store)).expect("recover");
            match &out.tables {
                None => assert!(
                    journal.is_empty(),
                    "boundary {k}: the base commits before any journaling"
                ),
                Some((drt, got_rst)) => {
                    assert_eq!(*got_rst, rst, "boundary {k}: RST must survive");
                    for e in drt.entries() {
                        let in_base = base.lookup_exact(e.o_file, e.o_offset, e.length)
                            == Some((e.r_file, e.r_offset));
                        assert!(
                            in_base || committed.contains(&(e.o_file.0, e.o_offset)),
                            "boundary {k}: {e:?} resolves to unmigrated data"
                        );
                    }
                    // No half-migrated region: each pending extent is
                    // atomically old-home or new-home.
                    for e in &to_migrate {
                        let pieces = drt.translate(e.o_file, e.o_offset, e.length);
                        assert_eq!(pieces.len(), 1, "boundary {k}: extent split {pieces:?}");
                        let p = &pieces[0];
                        let old = (p.file, p.offset) == (e.o_file, e.o_offset);
                        let new = (p.file, p.offset) == (e.r_file, e.r_offset);
                        assert!(
                            old || new,
                            "boundary {k}: {e:?} resolves to a third location {p:?}"
                        );
                        assert_eq!(p.len, e.length, "boundary {k}");
                    }
                    for e in journal.iter().filter(|b| b.committed).map(|b| b.entry) {
                        assert_eq!(
                            drt.lookup_exact(e.o_file, e.o_offset, e.length),
                            Some((e.r_file, e.r_offset)),
                            "boundary {k}: committed batch entry lost"
                        );
                    }
                }
            }
            let again = recover(t0(&store)).expect("recover again");
            assert_eq!(again.rolled_forward, 0, "boundary {k}: second recovery must be a no-op");
            // The retried flow replays idempotently to the full mapping.
            let (published, _) = run(&store).expect("resume");
            let (final_drt, final_rst) = store.load_tables().expect("load").expect("committed");
            assert_eq!(final_drt, published, "boundary {k}");
            assert_eq!(final_rst, rst, "boundary {k}");
            assert_eq!(final_drt.len(), base.len() + to_migrate.len(), "boundary {k}");
            let _ = std::fs::remove_file(&path);
        }
        assert_every_kind_killed(&kinds);
    }

    // ------------------------------------------- live-set oracle --

    /// The migrator as it was with a `BTreeMap` of live redirects per
    /// file, driven entry by entry: each kept entry cancels what it
    /// overlaps and inserts, each access migrates its overlaps downwards,
    /// a drain goes in batch order. It journals nothing; it lists the
    /// intents and commits the store should hold.
    struct LiveModel {
        published: Drt,
        live: HashMap<FileId, BTreeMap<u64, LiveRedirect>>,
        next_batch: u32,
        intents: Vec<(u32, DrtEntry)>,
        committed: std::collections::HashSet<u32>,
        on_access_migrations: usize,
        migrated_bytes: u64,
        /// Kept entries that cancelled an entry of their own call, and
        /// entries skipped over a published range: the draws must reach
        /// both.
        cancelled_in_call: usize,
        skipped_published: usize,
    }

    impl LiveModel {
        fn new(base: Drt) -> Self {
            LiveModel {
                published: base,
                live: HashMap::new(),
                next_batch: 0,
                intents: Vec::new(),
                committed: std::collections::HashSet::new(),
                on_access_migrations: 0,
                migrated_bytes: 0,
                cancelled_in_call: 0,
                skipped_published: 0,
            }
        }

        fn add_pending(&mut self, entries: &[DrtEntry]) {
            let first = self.next_batch;
            for e in entries {
                let pieces = self.published.translate(e.o_file, e.o_offset, e.length);
                let over_published = pieces.iter().any(|p| p.file != e.o_file);
                self.skipped_published += usize::from(over_published);
                if e.length == 0 || over_published {
                    continue;
                }
                let batch = self.next_batch;
                self.next_batch += 1;
                self.intents.push((batch, *e));
                let end = e.o_offset + e.length;
                while let Some(off) = self.last_overlapping(e.o_file, e.o_offset, end) {
                    let gone = self.live.get_mut(&e.o_file).unwrap().remove(&off).unwrap();
                    self.cancelled_in_call += usize::from(gone.batch >= first);
                }
                let r = LiveRedirect {
                    o_offset: e.o_offset,
                    r_offset: e.r_offset,
                    length: e.length,
                    r_file: e.r_file,
                    batch,
                };
                self.live.entry(e.o_file).or_default().insert(e.o_offset, r);
            }
        }

        fn last_overlapping(&self, file: FileId, offset: u64, end: u64) -> Option<u64> {
            let (&off, r) = self.live.get(&file)?.range(..end).next_back()?;
            (r.end() > offset).then_some(off)
        }

        fn publish(&mut self, file: FileId, offset: u64) -> u64 {
            let r = self.live.get_mut(&file).unwrap().remove(&offset).unwrap();
            assert!(self.committed.insert(r.batch), "batch {} commits once", r.batch);
            assert!(self.published.insert(DrtEntry {
                o_file: file,
                o_offset: offset,
                r_file: r.r_file,
                r_offset: r.r_offset,
                length: r.length,
            }));
            self.migrated_bytes += r.length;
            r.length
        }

        /// The lengths an access to `[offset, offset + len)` migrates.
        fn touch(&mut self, file: FileId, offset: u64, len: u64) -> Vec<u64> {
            let mut moved = Vec::new();
            while let Some(off) = self.last_overlapping(file, offset, offset + len) {
                moved.push(self.publish(file, off));
                self.on_access_migrations += 1;
            }
            moved
        }

        fn drain(&mut self) -> u64 {
            let mut order: Vec<(u32, FileId, u64)> = self
                .live
                .iter()
                .flat_map(|(&f, m)| m.values().map(move |r| (r.batch, f, r.o_offset)))
                .collect();
            order.sort_unstable();
            order.into_iter().map(|(_, file, offset)| self.publish(file, offset)).sum()
        }

        fn pending_len(&self) -> usize {
            self.live.values().map(BTreeMap::len).sum()
        }
    }

    /// A draw of one plan's entries over three 1 MiB files: overlapping,
    /// duplicate, zero-length and self-overlapping entries, and some that
    /// land on ranges already published.
    fn draw_entries(
        rng: &mut simrt::rng::SmallRng,
        published: &Drt,
        next_r: &mut u64,
    ) -> Vec<DrtEntry> {
        let n = rng.gen_range(1usize..=12);
        let mut entries: Vec<DrtEntry> = Vec::with_capacity(n);
        let published = published.entries();
        for _ in 0..n {
            let mut e = DrtEntry {
                o_file: FileId(rng.gen_range(0u32..3)),
                o_offset: rng.gen_range(0u64..2048) * 512,
                r_file: FileId(100),
                r_offset: 0,
                length: rng.gen_range(1u64..=8) * 512,
            };
            match rng.gen_range(0u32..10) {
                0 => e.length = 0,
                1 if !entries.is_empty() => {
                    let i = rng.gen_range(0..entries.len());
                    e = entries[i];
                }
                2 if !published.is_empty() => {
                    let p = published[rng.gen_range(0..published.len())];
                    e.o_file = p.o_file;
                    e.o_offset = p.o_offset + rng.gen_range(0u64..2) * 256;
                }
                _ => {}
            }
            e.r_file = FileId(100 + e.o_file.0);
            e.r_offset = *next_r;
            *next_r += e.length;
            entries.push(e);
        }
        entries
    }

    /// The sorted live vectors behave as the `BTreeMap` live set did,
    /// step for step: the same pending count, published mapping, copy
    /// charges, counters and committed journal batches.
    #[test]
    fn live_vectors_match_the_btree_live_set() {
        let cluster = ClusterConfig::paper_default();
        let lookup = SimDuration::from_micros(5);
        let mut base = Drt::new();
        assert!(base.insert(DrtEntry {
            o_file: FileId(1),
            o_offset: 8192,
            r_file: FileId(99),
            r_offset: 0,
            length: 4096,
        }));
        let (mut drains, mut cancelled_in_call, mut skipped_published) = (0, 0, 0);
        for seed in 0..8u64 {
            let path = tmp_store(&format!("live-oracle-{seed}"));
            let store = PipelineStore::open(&path).expect("open");
            let mut mig = LazyMigrator::new(t0(&store), base.clone(), &cluster, lookup);
            let mut model = LiveModel::new(base.clone());
            let mut rng = simrt::SeedSeq::new(0x11FE).derive_idx("oracle", seed).rng();
            let mut next_r = 0u64;
            let mut out = Vec::new();
            for step in 0..300 {
                let what = rng.gen_range(0u32..100);
                if what < 45 {
                    let entries = draw_entries(&mut rng, &model.published, &mut next_r);
                    mig.add_pending(&entries).expect("journal");
                    model.add_pending(&entries);
                } else if what < 97 {
                    // Most accesses keep to the extents' 512 B grid, so
                    // an access often ends just where a redirect starts.
                    let mut offset = rng.gen_range(0u64..2064) * 512;
                    let mut len = rng.gen_range(1u64..=32) * 512 * if what < 90 { 1 } else { 16 };
                    if rng.gen_bool(0.25) {
                        offset += rng.gen_range(1u64..512);
                        len -= rng.gen_range(0u64..512);
                    }
                    let rec = TraceRecord {
                        pid: 1,
                        rank: Rank(0),
                        file: FileId(rng.gen_range(0u32..3)),
                        op: IoOp::Read,
                        offset,
                        len,
                        ts: SimTime::ZERO,
                        phase: 0,
                    };
                    let charged = mig.resolve_into(&rec, &mut out);
                    let moved = model.touch(rec.file, rec.offset, rec.len);
                    let expect = moved.iter().fold(lookup, |t, &len| t + mig.copy_cost(len));
                    assert_eq!(charged, expect, "seed {seed} step {step}: charge of {rec:?}");
                    mig.check().expect("no store error");
                } else {
                    drains += 1;
                    let (bytes, _) = mig.drain().expect("drain");
                    assert_eq!(bytes, model.drain(), "seed {seed} step {step}: drained bytes");
                }
                assert_eq!(mig.pending_len(), model.pending_len(), "seed {seed} step {step}");
                assert_eq!(
                    mig.published().entries(),
                    model.published.entries(),
                    "seed {seed} step {step}"
                );
                assert_eq!(mig.on_access_migrations(), model.on_access_migrations);
                assert_eq!(mig.migrated_bytes(), model.migrated_bytes);
                let mut journal: Vec<(u32, bool, DrtEntry)> = t0(&store)
                    .journal()
                    .expect("journal")
                    .into_iter()
                    .map(|b| (b.batch, b.committed, b.entry))
                    .collect();
                journal.sort_by_key(|b| b.0);
                let expect: Vec<(u32, bool, DrtEntry)> = model
                    .intents
                    .iter()
                    .map(|&(batch, e)| (batch, model.committed.contains(&batch), e))
                    .collect();
                assert_eq!(journal, expect, "seed {seed} step {step}: journal");
            }
            assert!(model.on_access_migrations > 0, "seed {seed}: accesses migrate");
            cancelled_in_call += model.cancelled_in_call;
            skipped_published += model.skipped_published;
            drop(mig);
            drop(store);
            let _ = std::fs::remove_file(&path);
        }
        assert!(drains > 0 && cancelled_in_call > 0 && skipped_published > 0);
    }
}
