//! Parsing a trace peaks at half the bytes a record vector would hold.
//!
//! `tsv::from_tsv` writes each record straight into the trace's
//! run-encoded store, and sizes the store's tables from the share of the
//! text read so far, so it neither reserves a record vector nor copies
//! a table down at the end. LANL App2's phases are pure runs, so the
//! parse holds one 96 B run header per 8 records; the gate allows
//! 24 B per record, where a `Vec<TraceRecord>` holds 48.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::lanl::{generate, LanlConfig};
use iotrace::{tsv, IoOp};
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

/// Bytes the parse may peak at per record.
const BYTES_PER_RECORD: usize = 24;

#[test]
fn parsing_a_trace_peaks_at_half_its_record_bytes() {
    let trace = generate(&LanlConfig::paper(1024, IoOp::Write));
    let text = tsv::to_tsv(&trace);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let parsed = tsv::from_tsv(&text).expect("the encoder's output parses");
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(parsed.records(), trace.records());
    assert!(
        peak <= BYTES_PER_RECORD * trace.len(),
        "parsing {} records ({} text bytes) peaked at {peak} bytes, {:.2} B per record",
        trace.len(),
        text.len(),
        peak as f64 / trace.len() as f64
    );
}
