//! Planning and reloading hold one copy of each table.
//!
//! `MhaPlanner::plan` must not keep transient copies of its views,
//! features or reordering table beside the ones it needs, and
//! `TenantStore::load_tables` must build the table at its final size
//! instead of growing it by doubling.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::lanl::{generate, LanlConfig};
use iotrace::{IoOp, TraceRecord};
use mha_core::schemes::{LayoutPlanner, MhaPlanner};
use mha_core::{PipelineStore, PlanResolver, PlannerContext};
use pfs_sim::ClusterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
/// A `realloc` counts as the default one behaves: the new block is
/// allocated before the old one is freed.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let now = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(now, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`, returning its result and the most bytes it held allocated at
/// once beyond what was live before it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

/// Bytes of one DRT entry in memory: original offset, length, region
/// file and region offset.
const DRT_ENTRY_BYTES: usize = 32;
/// What a load may hold besides the table: the store's read buffer for
/// one 4096-entry chunk record, the stripe table and the file index.
const LOAD_SLACK: usize = 256 << 10;

#[test]
fn planning_and_loading_hold_one_copy_of_each_table() {
    let trace = generate(&LanlConfig::paper(1024, IoOp::Write));
    let record_bytes = trace.len() * std::mem::size_of::<TraceRecord>();
    let ctx = PlannerContext::for_cluster(&ClusterConfig::paper_default());
    // One unmeasured plan starts the worker pool and fills any lazily
    // built state, so the measured one counts only its own data.
    let warm = MhaPlanner.plan(&trace, &ctx);
    drop(warm);

    let (plan, peak) = peak_during(|| MhaPlanner.plan(&trace, &ctx));
    let PlanResolver::Drt(drt) = &plan.resolver else { panic!("MHA plans redirect") };
    assert!(
        peak < 2 * record_bytes,
        "planning {} records ({record_bytes} record bytes) peaked at {peak} bytes",
        trace.len()
    );

    let path = std::env::temp_dir().join(format!("mha-plan-memory-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    PipelineStore::open(&path).unwrap().save_tables(drt, &plan.rst).unwrap();
    let store = PipelineStore::open(&path).unwrap();
    let table = drt.len() * DRT_ENTRY_BYTES;
    let ((loaded, rst), peak) = peak_during(|| store.load_tables().unwrap().unwrap());
    assert!(
        peak < table + table / 4 + LOAD_SLACK,
        "loading {} entries ({table} bytes) peaked at {peak} bytes",
        drt.len()
    );
    assert_eq!(&loaded, drt);
    assert_eq!(rst, plan.rst);
    drop(store);
    let _ = std::fs::remove_file(&path);
}
