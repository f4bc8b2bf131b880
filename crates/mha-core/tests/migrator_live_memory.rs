//! The lazy migrator owns 32 to 64 bytes per live redirect.
//!
//! `LazyMigrator` keeps each original file's live redirects in one
//! vector sorted by offset, 32 bytes per redirect, grown by doubling, so
//! what it owns per redirect depends on how full the vector is: 32 B
//! when exactly full, about 64 B just past a doubling. Here plans of up
//! to 64 disjoint extents each, scattered over one file so that every
//! plan lands between the redirects already waiting, leave 2,049, 3,000
//! and 4,096 live redirects: one doubling from just past its start to
//! exactly full. A `BTreeMap` from offset to redirect owned about 63 B
//! per live redirect at each count: a 32 B slot in nodes about half
//! full. Just past a doubling the vector costs about as much.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::{FileId, TenantId};
use mha_core::{Drt, DrtEntry, LazyMigrator, PipelineStore};
use pfs_sim::ClusterConfig;
use simrt::{heap, SimDuration};

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Extents per plan, the extent size, and the slots the extents are
/// scattered over.
const PER_CALL: u64 = 64;
const EXTENT: u64 = 4 << 10;
const SLOTS: u64 = 4096;
/// Live redirects measured: just past a doubling of the vector, between,
/// and exactly full.
const COUNTS: [u64; 3] = [2049, 3000, 4096];
/// Heap allowed per live redirect at the worst count (32 B in a vector
/// half full, and the file's hash-map slot), and on average over the
/// three counts.
const WORST_BYTES: f64 = 65.0;
const MEAN_BYTES: f64 = 48.0;

/// The extents of slots `first..end`. Slot `i` lies at
/// `(i * 2731) mod 4096` (2731 is odd, so this permutes the slots),
/// every other extent-sized gap, so each plan's extents scatter between
/// those of every other plan and no two overlap.
fn plan(first: u64, end: u64) -> Vec<DrtEntry> {
    (first..end)
        .map(|i| DrtEntry {
            o_file: FileId(0),
            o_offset: (i * 2731 % SLOTS) * 2 * EXTENT,
            r_file: FileId(1 << 20),
            r_offset: i * EXTENT,
            length: EXTENT,
        })
        .collect()
}

/// Heap a migrator owns, per live redirect, after plans of 64 extents
/// leave `count` live redirects: what dropping it frees. The store's own
/// growth from the journal records stays live.
fn bytes_per_redirect(count: u64) -> f64 {
    let path = std::env::temp_dir()
        .join(format!("mha-migrator-live-memory-{}-{count}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = PipelineStore::open(&path).unwrap();
    let mut mig = LazyMigrator::new(
        store.tenant(TenantId(0)),
        Drt::new(),
        &ClusterConfig::paper_default(),
        SimDuration::from_micros(5),
    );
    for first in (0..count).step_by(PER_CALL as usize) {
        mig.add_pending(&plan(first, count.min(first + PER_CALL))).unwrap();
    }
    let live = mig.pending_len();
    assert_eq!(live, count as usize, "no extent cancels another");
    assert_eq!(mig.published().len(), 0);

    let held = heap::live();
    drop(mig);
    let owned = held - heap::live();
    drop(store);
    let _ = std::fs::remove_file(&path);
    owned as f64 / live as f64
}

#[test]
fn migrator_owns_32_to_64_bytes_per_live_redirect() {
    let costs: Vec<f64> = COUNTS.iter().map(|&n| bytes_per_redirect(n)).collect();
    let worst = costs.iter().copied().fold(0.0, f64::max);
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    let report = format!("{COUNTS:?} live redirects cost {costs:.1?} B each");
    assert!(worst <= WORST_BYTES, "{report}: worst {worst:.1} B");
    assert!(mean <= MEAN_BYTES, "{report}: mean {mean:.1} B");
    println!("{report}: worst {worst:.1} B, mean {mean:.1} B");
}
