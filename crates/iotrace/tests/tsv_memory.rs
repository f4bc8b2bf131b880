//! Parsing a trace reserves its records once, at the right size.
//!
//! `tsv::from_tsv` counts the lines that may hold a record before it
//! parses, so the record vector is allocated once and the encoder's
//! output fills it exactly. An estimate from the lines seen so far
//! would not do: LANL's first record line is half the mean length, so
//! it reserves for twice the records and then copies the vector down.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::lanl::{generate, LanlConfig};
use iotrace::{tsv, IoOp, TraceRecord};
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

#[test]
fn parsing_a_trace_peaks_near_its_record_bytes() {
    let trace = generate(&LanlConfig::paper(1024, IoOp::Write));
    let text = tsv::to_tsv(&trace);
    let record_bytes = trace.len() * std::mem::size_of::<TraceRecord>();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let parsed = tsv::from_tsv(&text).expect("the encoder's output parses");
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(parsed.records(), trace.records());
    assert!(
        peak * 10 < record_bytes * 11,
        "parsing {} records ({} text bytes) peaked at {peak} bytes, {:.2}x their {record_bytes} record bytes",
        trace.len(),
        text.len(),
        peak as f64 / record_bytes as f64
    );
}
