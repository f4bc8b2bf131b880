//! The lazy migrator holds only live redirects.
//!
//! A redirect leaves `LazyMigrator` when it migrates (into the published
//! DRT) or when a newer plan cancels it, so however many redirects a
//! long-lived tenant journals, the migrator's heap stays a small multiple
//! of the redirects still waiting plus the entries it published. A
//! migrator that kept a record of every journaled entry grew by about
//! 48 B per entry ever journaled.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::{FileId, IoOp, Rank, TenantId, TraceRecord};
use mha_core::{Drt, DrtEntry, LazyMigrator, PipelineStore};
use pfs_sim::{ClusterConfig, Resolver};
use simrt::{heap, SimDuration, SimTime};

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Extents of the one original file every plan redirects.
const EXTENTS: u64 = 64;
const EXTENT: u64 = 64 << 10;
/// Plans journaled before and after the accesses.
const ROUNDS: u64 = 400;
/// Heap allowed per live redirect or published entry: 3,456 B for the
/// 64 here, which hold 3,444 B. The 32 live redirects are 32 B each in
/// a sorted vector that keeps the capacity of the 64 it once held (a
/// vector half full keeps its room; it halves only once a quarter
/// full), 2,048 B; the 32 published entries, the table's file index and
/// its segments hold the rest.
const BYTES_PER_ENTRY: usize = 54;

/// Round `round`'s plan: every extent to a fresh place in a region file.
fn plan(round: u64) -> Vec<DrtEntry> {
    (0..EXTENTS)
        .map(|k| DrtEntry {
            o_file: FileId(0),
            o_offset: k * EXTENT,
            r_file: FileId(1 << 20),
            r_offset: (round * EXTENTS + k) * EXTENT,
            length: EXTENT,
        })
        .collect()
}

fn read(offset: u64) -> TraceRecord {
    TraceRecord {
        pid: 1,
        rank: Rank(0),
        file: FileId(0),
        op: IoOp::Read,
        offset,
        len: EXTENT,
        ts: SimTime::ZERO,
        phase: 0,
    }
}

#[test]
fn migrator_heap_follows_live_redirects_not_journal_history() {
    let path = std::env::temp_dir().join(format!("mha-migrator-memory-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = PipelineStore::open(&path).unwrap();
    let mut mig = LazyMigrator::new(
        store.tenant(TenantId(0)),
        Drt::new(),
        &ClusterConfig::paper_default(),
        SimDuration::from_micros(5),
    );
    // Each plan cancels the one before it.
    for round in 0..ROUNDS {
        mig.add_pending(&plan(round)).unwrap();
    }
    assert_eq!(mig.pending_len(), EXTENTS as usize);
    // Every other extent migrates on its first access.
    let mut out = Vec::new();
    for k in (0..EXTENTS).step_by(2) {
        mig.resolve_into(&read(k * EXTENT), &mut out);
    }
    mig.check().unwrap();
    // Published extents carry forward; the rest are cancelled again.
    for round in ROUNDS..2 * ROUNDS {
        mig.add_pending(&plan(round)).unwrap();
    }
    let live = mig.pending_len();
    let published = mig.published().len();
    assert_eq!(live, EXTENTS as usize / 2);
    assert_eq!(published, EXTENTS as usize / 2);
    assert_eq!(mig.on_access_migrations(), published);

    // What dropping the migrator frees is what it held; the store's own
    // growth from the journal records stays live.
    let held = heap::live();
    drop(mig);
    let owned = held - heap::live();
    let journaled = ROUNDS * EXTENTS + ROUNDS * EXTENTS / 2;
    assert!(
        owned <= (live + published) * BYTES_PER_ENTRY,
        "the migrator holds {owned} bytes for {live} live redirects and {published} \
         published entries after {journaled} journaled redirects"
    );
    drop(store);
    let _ = std::fs::remove_file(&path);
}
