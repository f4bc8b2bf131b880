//! Planning and reloading hold one copy of each table, and a strided
//! table holds its pattern once.
//!
//! `MhaPlanner::plan` must not keep transient copies of its views,
//! features or reordering table beside the ones it needs: it holds one
//! region's views at a time and streams its k-means points from the
//! trace, so it peaks under half the trace's record bytes (the
//! concurrency annotation, the grouping's assignment and its index). It
//! must never hold a flat list of the table's entries: LANL's 1024 loops
//! of three interleaved size groups are one repeat segment, built from
//! one run per group. `TenantStore::load_tables` streams its chunks through the
//! same segment builder. A table with no pattern costs 32 B per entry,
//! as a flat table does.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::lanl::{generate, LanlConfig};
use iotrace::{IoOp, TraceRecord};
use mha_core::schemes::{LayoutPlanner, MhaPlanner};
use iotrace::FileId;
use mha_core::region::{Drt, DrtEntry};
use mha_core::{PipelineStore, PlanResolver, PlannerContext};
use pfs_sim::ClusterConfig;
use simrt::heap;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Bytes of one DRT entry in memory: original offset, length, region
/// file and region offset.
const DRT_ENTRY_BYTES: usize = 32;
/// What a load may hold besides the table: the store's read buffer for
/// one 4096-entry chunk record, the stripe table and the file index.
const LOAD_SLACK: usize = 256 << 10;
/// The most the LANL plan's table may hold: one segment of three
/// members, the file index and allocator rounding.
const LANL_TABLE_MAX: usize = 4 << 10;
/// What a table may hold per original file besides its entries.
const FILE_BYTES: usize = 64;

#[test]
fn planning_and_loading_hold_one_copy_of_each_table() {
    let trace = generate(&LanlConfig::paper(1024, IoOp::Write));
    let record_bytes = trace.len() * std::mem::size_of::<TraceRecord>();
    let ctx = PlannerContext::for_cluster(&ClusterConfig::paper_default());
    // One unmeasured plan starts the worker pool and fills any lazily
    // built state, so the measured one counts only its own data.
    let warm = MhaPlanner.plan(&trace, &ctx);
    drop(warm);

    let (plan, peak) = heap::peak_during(|| MhaPlanner.plan(&trace, &ctx));
    let PlanResolver::Drt(drt) = &plan.resolver else { panic!("MHA plans redirect") };
    assert!(
        peak < 2 * record_bytes,
        "planning {} records ({record_bytes} record bytes) peaked at {peak} bytes",
        trace.len()
    );
    assert!(
        peak < record_bytes / 2,
        "planning {} records peaked at {peak} bytes, {:.2}x their {record_bytes} record bytes",
        trace.len(),
        peak as f64 / record_bytes as f64
    );

    let path = std::env::temp_dir().join(format!("mha-plan-memory-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    PipelineStore::open(&path).unwrap().save_tables(drt, &plan.rst).unwrap();
    let store = PipelineStore::open(&path).unwrap();
    let table = drt.len() * DRT_ENTRY_BYTES;
    let ((loaded, rst), peak) = heap::peak_during(|| store.load_tables().unwrap().unwrap());
    assert!(
        peak < table + table / 4 + LOAD_SLACK,
        "loading {} entries ({table} bytes) peaked at {peak} bytes",
        drt.len()
    );
    assert!(peak < LOAD_SLACK, "loading {} entries peaked at {peak} bytes", drt.len());
    assert_eq!(&loaded, drt);
    assert_eq!(rst, plan.rst);
    drop(store);
    let _ = std::fs::remove_file(&path);

    let entries = drt.len();
    let PlanResolver::Drt(drt) = plan.resolver else { unreachable!("matched above") };
    let before = heap::live();
    drop(drt);
    let held = before - heap::live();
    assert!(
        held <= LANL_TABLE_MAX,
        "the LANL plan's table of {entries} entries holds {held} bytes, over {LANL_TABLE_MAX}"
    );

    // A table with no pattern: 16 files of 256 extents at random offsets
    // and lengths, inserted in random order.
    let (files, per_file) = (16u32, 256u64);
    let mut s = 0x0123_4567_89AB_CDEFu64;
    let mut rand = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut extents: Vec<DrtEntry> = Vec::with_capacity((u64::from(files) * per_file) as usize);
    for f in 0..files {
        let mut pos = 0;
        for _ in 0..per_file {
            pos += rand() % 50_000;
            let length = 1 + rand() % 100_000;
            extents.push(DrtEntry {
                o_file: FileId(f),
                o_offset: pos,
                r_file: FileId(1000 + (rand() % 4) as u32),
                r_offset: rand() % (1 << 40),
                length,
            });
            pos += length;
        }
    }
    for i in (1..extents.len()).rev() {
        extents.swap(i, (rand() % (i as u64 + 1)) as usize);
    }
    let before = heap::live();
    let mut random = Drt::new();
    for e in &extents {
        assert!(random.insert(*e), "disjoint extents insert");
    }
    let held = heap::live() - before;
    let budget = extents.len() * DRT_ENTRY_BYTES + files as usize * FILE_BYTES;
    assert!(
        held <= budget,
        "{} random extents over {files} files hold {held} bytes, over {budget}",
        extents.len()
    );
}
