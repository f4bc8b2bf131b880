//! Journaled reconstruction of a lost server onto a spare.
//!
//! When a server is permanently lost, every *redundant* layout
//! (replicated or erasure-coded) that references it can be repaired: the
//! lost units are recomputed from the surviving copies or shards and
//! rewritten onto a spare server, after which the layout simply swaps
//! the dead server for the spare ([`pfs_sim::LayoutSpec::swap_server`]).
//! Striped layouts have nothing to rebuild from — their data is gone —
//! so they are left untouched (replay surfaces them as timeouts, as
//! before).
//!
//! The rebuild rides the migration write-ahead journal
//! (`TenantStore::journal_intents` / `TenantStore::commit_batch`):
//! one batch per affected file, in
//! `FileId` order, each a one-entry intent record whose [`DrtEntry`]
//! `length` is the byte count being reconstructed for that file
//! (`o_file == r_file`, offsets 0 — the entry is an *intent marker* for
//! crash accounting, not a relocation; a rebuild changes where redundant
//! copies live, never the file's logical mapping). A file the dead
//! server held no bytes of journals nothing; only its layout swaps.
//! The discipline is
//!
//! 1. journal the file's intent record,
//! 2. reconstruct (accounted in bytes; see below),
//! 3. write the batch's commit record (fsynced),
//! 4. swap the dead server for the spare in the in-memory layout.
//!
//! A crash anywhere in the flow is recovered by *re-running*
//! [`rebuild_onto_spare`] with the same pre-rebuild layouts (what a
//! restarted node loads from its persisted plan): batches whose commit
//! record survived are recognized in the journal and skipped — their
//! copies are durable, only the layout swap is re-applied — so no byte
//! is reconstructed twice. The journal is cleared once every affected
//! file is rebuilt. Because batch ids are positions in the deterministic
//! affected-file order, resuming with the same inputs always maps
//! surviving commit records back to the right files.
//!
//! Reconstruction traffic is **accounted, not replayed**: the simulator
//! charges degraded reads and decode time on the access path (the replay
//! cores) and prices rebuild bandwidth here as byte totals — a
//! replicated file reads its lost bytes once from a surviving copy,
//! while an EC(`k`, `m`) file reads `k` shard-bytes per reconstructed
//! byte. Benches fold these totals into their figures; the spare's
//! foreground slowdown during a rebuild is modelled with a
//! [`simrt::FaultPlan`] degraded-server entry.
//!
//! The rebuild shares the migration journal namespace, so a rebuild must
//! not be interleaved with a journaled migration on the same store (batch
//! ids would collide). Run one to completion before starting the other.

use crate::persist::{PersistError, TenantStore};
use crate::region::DrtEntry;
use iotrace::{FileId, Trace};
use pfs_sim::{LayoutSpec, Placement, ServerId};
use std::collections::{BTreeMap, HashSet};

/// What a completed [`rebuild_onto_spare`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildOutcome {
    /// Redundant files that referenced the dead server (all now swapped
    /// onto the spare).
    pub files: usize,
    /// Journal batches the rebuild spans (== `files`; kept separate so
    /// callers can cross-check against the journal).
    pub batches: u32,
    /// Bytes the dead server held across the affected files' primary
    /// stripes — the data the rebuild regenerates.
    pub bytes_lost: u64,
    /// Bytes read from surviving copies/shards *by this run* (committed
    /// batches found in the journal on resume contribute nothing).
    pub bytes_read: u64,
    /// Bytes written onto the spare *by this run*.
    pub bytes_written: u64,
}

/// Per-file sizes implied by a trace: the largest `offset + len` touched
/// per file, in `FileId` order. The usual source of
/// [`rebuild_onto_spare`]'s `sizes` argument.
pub fn file_sizes(trace: &Trace) -> Vec<(FileId, u64)> {
    let mut sizes: BTreeMap<FileId, u64> = BTreeMap::new();
    for r in trace.records() {
        let end = r.offset + r.len;
        let e = sizes.entry(r.file).or_insert(0);
        if end > *e {
            *e = end;
        }
    }
    sizes.into_iter().collect()
}

/// Rebuild every redundant layout that references `dead` onto `spare`,
/// journaling one batch per affected file (see the module doc for the
/// crash discipline). `layouts` is updated in place: affected entries
/// have `dead` swapped for `spare`; striped layouts and layouts that
/// never referenced `dead` are untouched. `sizes` gives each file's
/// length (files absent from it, or sized 0, hold no data and are
/// skipped).
///
/// To resume after a crash, call again with the *pre-rebuild* layouts
/// (what the persisted plan still holds) and the same `sizes` — batches
/// already committed in the journal are skipped, so the returned
/// `bytes_read`/`bytes_written` cover only the work this run performed.
///
/// # Panics
///
/// If `spare == dead`, or an affected layout already places data on
/// `spare` (one server cannot host two segments of the same round).
pub fn rebuild_onto_spare(
    store: TenantStore<'_>,
    layouts: &mut [(FileId, LayoutSpec)],
    sizes: &[(FileId, u64)],
    dead: ServerId,
    spare: ServerId,
) -> Result<RebuildOutcome, PersistError> {
    assert_ne!(spare, dead, "the spare must be a different server");
    let size_of =
        |f: FileId| sizes.iter().find(|(x, _)| *x == f).map(|&(_, s)| s).unwrap_or(0);

    // Affected files in FileId order — the deterministic batch
    // numbering that lets a resumed run recognize its journal.
    let mut affected: Vec<usize> = (0..layouts.len())
        .filter(|&i| {
            let (file, spec) = &layouts[i];
            !spec.placement().is_striped()
                && spec.position_of(dead).is_some()
                && size_of(*file) > 0
        })
        .collect();
    affected.sort_by_key(|&i| layouts[i].0);

    let committed: HashSet<u32> = store
        .journal()?
        .iter()
        .filter(|b| b.committed)
        .map(|b| b.batch)
        .collect();

    let mut out = RebuildOutcome::default();
    for (b, &i) in affected.iter().enumerate() {
        let batch = b as u32;
        let (file, spec) = &layouts[i];
        assert!(
            spec.position_of(spare).is_none(),
            "spare {spare:?} already holds a segment of {file:?}"
        );
        let lost = spec
            .per_server_load(0, size_of(*file))
            .iter()
            .find(|(s, _, _)| *s == dead)
            .map(|&(_, bytes, _)| bytes)
            .unwrap_or(0);
        out.bytes_lost += lost;
        if lost > 0 && !committed.contains(&batch) {
            let entry = DrtEntry {
                o_file: *file,
                o_offset: 0,
                r_file: *file,
                r_offset: 0,
                length: lost,
            };
            store.journal_intents(batch, std::slice::from_ref(&entry))?;
            match spec.placement() {
                // One surviving copy streams the lost bytes directly.
                Placement::Replicated(_) => out.bytes_read += lost,
                // Every reconstructed byte decodes from k shard-bytes.
                Placement::ErasureCoded(k, _) => out.bytes_read += lost * k as u64,
                Placement::Striped => unreachable!("striped layouts are filtered out"),
            }
            out.bytes_written += lost;
            store.commit_batch(batch)?;
        }
        let spec = &mut layouts[i].1;
        *spec = spec.swap_server(dead, spare);
        out.files += 1;
        out.batches += 1;
    }
    store.clear_journal()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::temp::TempPath;
    use crate::persist::{CommitPoint, PipelineStore};
    use iotrace::TenantId;
    use iotrace::{Rank, TraceRecord};
    use simrt::SimTime;
    use storage_model::IoOp;

    /// The tenant-0 view the rebuild journals through.
    fn t0(store: &PipelineStore) -> TenantStore<'_> {
        store.tenant(TenantId(0))
    }

    fn tmp_store(tag: &str) -> TempPath {
        TempPath::new("rebuild", tag)
    }

    const STRIPE: u64 = 64 << 10;
    const N_RED: usize = 18;

    /// 18 redundant files (alternating 3x replication and EC(4+2)) over
    /// servers 0..6, plus a striped file, a redundant file that skips the
    /// victim, and an empty redundant file — the last three must survive
    /// a rebuild untouched.
    #[allow(clippy::type_complexity)]
    fn fixture() -> (Vec<(FileId, LayoutSpec)>, Vec<(FileId, u64)>) {
        let six: Vec<ServerId> = (0..6).map(ServerId).collect();
        let mut layouts = Vec::new();
        let mut sizes = Vec::new();
        for i in 0..N_RED {
            let placement = if i % 2 == 0 {
                Placement::Replicated(3)
            } else {
                Placement::ErasureCoded(4, 2)
            };
            layouts.push((
                FileId(i as u32),
                LayoutSpec::fixed(&six, STRIPE).with_placement(placement),
            ));
            sizes.push((FileId(i as u32), (i as u64 + 1) * 4 * STRIPE));
        }
        // Striped: not rebuildable, must stay on the dead server.
        layouts.push((FileId(100), LayoutSpec::fixed(&six, STRIPE)));
        sizes.push((FileId(100), 8 * STRIPE));
        // Redundant but never touched the victim.
        let others: Vec<ServerId> = [0usize, 2, 3, 4].iter().map(|&i| ServerId(i)).collect();
        layouts.push((
            FileId(101),
            LayoutSpec::fixed(&others, STRIPE).with_placement(Placement::Replicated(2)),
        ));
        sizes.push((FileId(101), 8 * STRIPE));
        // Redundant on the victim but empty.
        layouts.push((
            FileId(102),
            LayoutSpec::fixed(&six, STRIPE).with_placement(Placement::Replicated(2)),
        ));
        (layouts, sizes)
    }

    const DEAD: ServerId = ServerId(1);
    const SPARE: ServerId = ServerId(8);

    /// The byte totals the fixture's rebuild must report.
    fn expected_totals(
        layouts: &[(FileId, LayoutSpec)],
        sizes: &[(FileId, u64)],
    ) -> (u64, u64, u64) {
        let (mut lost, mut read, mut written) = (0u64, 0u64, 0u64);
        for (file, spec) in layouts.iter().take(N_RED) {
            let size = sizes.iter().find(|(f, _)| f == file).unwrap().1;
            let on_dead = spec
                .per_server_load(0, size)
                .iter()
                .find(|(s, _, _)| *s == DEAD)
                .map(|&(_, b, _)| b)
                .unwrap();
            assert!(on_dead > 0, "fixture file {file:?} must load the victim");
            lost += on_dead;
            read += match spec.placement() {
                Placement::Replicated(_) => on_dead,
                Placement::ErasureCoded(k, _) => on_dead * k as u64,
                Placement::Striped => unreachable!(),
            };
            written += on_dead;
        }
        (lost, read, written)
    }

    fn assert_fully_swapped(layouts: &[(FileId, LayoutSpec)], originals: &[(FileId, LayoutSpec)]) {
        for (i, (file, spec)) in layouts.iter().enumerate() {
            if i < N_RED {
                assert!(spec.position_of(DEAD).is_none(), "{file:?} still references the victim");
                assert!(spec.position_of(SPARE).is_some(), "{file:?} missing the spare");
                assert_eq!(spec.placement(), originals[i].1.placement(), "{file:?}");
                assert_eq!(spec.max_stripe(), originals[i].1.max_stripe(), "{file:?}");
            } else {
                // Striped, victim-free, and empty files are untouched.
                assert_eq!(spec, &originals[i].1, "{file:?} must not change");
            }
        }
    }

    #[test]
    fn rebuild_swaps_redundant_layouts_and_accounts_bytes() {
        let (mut layouts, sizes) = fixture();
        let originals = layouts.clone();
        let (lost, read, written) = expected_totals(&layouts, &sizes);
        let path = tmp_store("happy");
        let store = PipelineStore::open(&path).expect("open");
        let out =
            rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE).expect("rebuild");
        assert_eq!(out.files, N_RED);
        assert_eq!(out.batches, N_RED as u32);
        assert_eq!(out.bytes_lost, lost);
        assert_eq!(out.bytes_read, read);
        assert_eq!(out.bytes_written, written);
        assert!(out.bytes_read > out.bytes_written, "EC files read k-fold");
        assert_fully_swapped(&layouts, &originals);
        assert!(t0(&store).journal().expect("journal").is_empty(), "journal cleared");

        // Idempotent: nothing references the dead server any more.
        let again =
            rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE).expect("again");
        assert_eq!(again, RebuildOutcome::default());
    }

    #[test]
    fn file_sizes_takes_the_max_end_per_file() {
        let t = Trace::from_records(vec![
            TraceRecord {
                pid: 1,
                rank: Rank(0),
                file: FileId(3),
                op: IoOp::Write,
                offset: 0,
                len: 4096,
                ts: SimTime::ZERO,
                phase: 0,
            },
            TraceRecord {
                pid: 1,
                rank: Rank(0),
                file: FileId(1),
                op: IoOp::Read,
                offset: 8192,
                len: 4096,
                ts: SimTime::ZERO,
                phase: 0,
            },
            TraceRecord {
                pid: 1,
                rank: Rank(1),
                file: FileId(3),
                op: IoOp::Write,
                offset: 65536,
                len: 100,
                ts: SimTime::ZERO,
                phase: 0,
            },
        ]);
        assert_eq!(file_sizes(&t), vec![(FileId(1), 12288), (FileId(3), 65636)]);
    }

    /// The acceptance matrix: kill the rebuild at *every* commit
    /// boundary, resume it from the pre-rebuild layouts (what a restarted
    /// node loads from its plan), and check that the resumed run swaps
    /// everything, clears the journal, and never re-copies a committed
    /// batch.
    #[test]
    fn kill_matrix_over_rebuild_recovers_consistently() {
        let (fixture_layouts, sizes) = fixture();
        let (lost, _, written) = expected_totals(&fixture_layouts, &sizes);

        // Recording run: measure the matrix width.
        let path = tmp_store("matrix-record");
        let boundaries = {
            let store = PipelineStore::open(&path).expect("open");
            let mut layouts = fixture_layouts.clone();
            rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE).expect("record");
            store.kill_switch().boundaries()
        };
        // Per affected file an intent record and its commit, then the
        // journal clear.
        assert_eq!(boundaries, 2 * N_RED as u64 + 1);

        let mut kinds = Vec::new();
        for k in 0..boundaries {
            let path = tmp_store(&format!("matrix-{k}"));
            {
                let store = PipelineStore::open(&path).expect("open");
                store.kill_switch().arm(k);
                let mut layouts = fixture_layouts.clone();
                match rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE) {
                    Err(PersistError::Killed(point)) => kinds.push(point),
                    other => panic!("boundary {k}: expected Killed, got {other:?}"),
                }
            }
            // "Restart": reopen, note which batches committed before the
            // crash, resume from the pre-rebuild layouts.
            let store = PipelineStore::open(&path).expect("reopen");
            let survived: u64 = t0(&store)
                .journal()
                .expect("journal")
                .iter()
                .filter(|b| b.committed)
                .map(|b| b.entry.length)
                .sum();
            let mut layouts = fixture_layouts.clone();
            let out =
                rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE).expect("resume");
            assert_eq!(out.files, N_RED, "boundary {k}");
            assert_eq!(out.bytes_lost, lost, "boundary {k}: lost bytes are descriptive");
            assert_eq!(
                out.bytes_written,
                written - survived,
                "boundary {k}: committed batches must not be re-copied"
            );
            assert_fully_swapped(&layouts, &fixture_layouts);
            assert!(t0(&store).journal().expect("journal").is_empty(), "boundary {k}");

            // Second resume is a no-op on the swapped layouts.
            let again =
                rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE).expect("again");
            assert_eq!(again, RebuildOutcome::default(), "boundary {k}");
        }
        let kinds_crossed =
            [CommitPoint::BatchIntent, CommitPoint::BatchCommit, CommitPoint::JournalClear];
        for point in kinds_crossed {
            assert!(kinds.contains(&point), "no kill at a {point:?} boundary");
        }
    }

    /// A file smaller than one stripe lives on the layout's first server
    /// only: losing the second reconstructs nothing, so the rebuild
    /// journals no (zero-length, unreadable) intent for it and only
    /// swaps its layout.
    #[test]
    fn a_file_the_dead_server_held_nothing_of_journals_nothing() {
        let six: Vec<ServerId> = (0..6).map(ServerId).collect();
        let original = LayoutSpec::fixed(&six, STRIPE).with_placement(Placement::Replicated(2));
        let mut layouts = vec![(FileId(0), original.clone())];
        let sizes = vec![(FileId(0), STRIPE / 2)];
        let path = tmp_store("nothing-lost");
        let store = PipelineStore::open(&path).expect("open");
        let out =
            rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, SPARE).expect("rebuild");
        assert_eq!((out.files, out.bytes_lost, out.bytes_written), (1, 0, 0));
        assert_eq!(layouts[0].1, original.swap_server(DEAD, SPARE));
        assert_eq!(store.kill_switch().boundaries(), 1, "only the journal clear");
    }

    #[test]
    #[should_panic(expected = "already holds a segment")]
    fn spare_inside_an_affected_layout_is_rejected() {
        let six: Vec<ServerId> = (0..6).map(ServerId).collect();
        let mut layouts = vec![(
            FileId(0),
            LayoutSpec::fixed(&six, STRIPE).with_placement(Placement::Replicated(2)),
        )];
        let sizes = vec![(FileId(0), 4 * STRIPE)];
        let path = tmp_store("bad-spare");
        let store = PipelineStore::open(&path).expect("open");
        // Spare 2 already holds a segment of the layout.
        let _ = rebuild_onto_spare(t0(&store), &mut layouts, &sizes, DEAD, ServerId(2));
    }
}
