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
use simrt::heap;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Bytes the parse may peak at per record.
const BYTES_PER_RECORD: usize = 24;

#[test]
fn parsing_a_trace_peaks_at_half_its_record_bytes() {
    let trace = generate(&LanlConfig::paper(1024, IoOp::Write));
    let text = tsv::to_tsv(&trace);
    let (parsed, peak) =
        heap::peak_during(|| tsv::from_tsv(&text).expect("the encoder's output parses"));
    assert_eq!(parsed.records(), trace.records());
    assert!(
        peak <= BYTES_PER_RECORD * trace.len(),
        "parsing {} records ({} text bytes) peaked at {peak} bytes, {:.2} B per record",
        trace.len(),
        text.len(),
        peak as f64 / trace.len() as f64
    );
}
