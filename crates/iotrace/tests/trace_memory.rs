//! A trace holds its records as run-encoded columns.
//!
//! `Trace` stores each phase run as columns `base + i·step` that turn
//! literal where a value breaks them, the literals in arenas the whole
//! trace shares. A stream-1024 IOR phase varies only in its offsets, so
//! its records cost 8 B each; a LANL App2 phase varies in none of its
//! columns and costs one 96 B run header per 8 records; a skewed phase
//! keeps its offsets and its header. Phases too short to pay for their
//! header merge, so a trace of random one-record phases costs no more
//! than the 48 B a `TraceRecord` takes.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::ior::{self, IorConfig};
use iotrace::gen::lanl::{self, LanlConfig};
use iotrace::gen::skewed::{self, SkewedConfig};
use iotrace::{FileId, IoOp, Rank, Trace, TraceRecord};
use simrt::{heap, SimTime};
use std::mem::size_of;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Bytes any trace may hold besides its per-record budget.
const CONSTANT: usize = 1024;

/// Live bytes `build` leaves behind, less `freed`: what the input it
/// consumed held.
fn held(freed: usize, build: impl FnOnce() -> Trace) -> (Trace, usize) {
    let before = heap::live();
    let trace = build();
    (trace, heap::live() + freed - before)
}

fn check(name: &str, trace: &Trace, held: usize, budget: usize) {
    let n = trace.len();
    assert!(
        held <= budget,
        "{name}: {n} records hold {held} bytes ({:.2} B per record), over {budget}",
        held as f64 / n as f64
    );
}

#[test]
fn a_trace_holds_its_varying_columns_only() {
    // stream-1024's check prefix: 16,384 ranks x 3 phases of IOR writes.
    let ranks = 16_384;
    let mut cfg = IorConfig::default_run(IoOp::Write);
    cfg.proc_mix = vec![ranks];
    cfg.reqs_per_proc = 3;
    cfg.file_size = 64 << 30;
    let (trace, bytes) = held(0, || ior::generate(&cfg));
    assert_eq!(trace.len(), 3 * ranks as usize);
    check("IOR prefix", &trace, bytes, 8 * trace.len() + 3 * CONSTANT);
    drop(trace);

    // plan-pipeline's LANL App2 trace: 1024 loops of 8 ranks x 3 phases.
    let (trace, bytes) = held(0, || lanl::generate(&LanlConfig::paper(1024, IoOp::Write)));
    assert_eq!(trace.len(), 24_576);
    check("LANL", &trace, bytes, 16 * trace.len());
    drop(trace);

    // A service-online-shaped skewed trace: 8 ranks x 512 phases.
    let mut cfg = SkewedConfig::default_run(IoOp::Read);
    cfg.procs = 8;
    cfg.phases = 512;
    let (trace, bytes) = held(0, || skewed::generate(&cfg));
    assert_eq!(trace.len(), 4096);
    check("skewed", &trace, bytes, 24 * trace.len() + CONSTANT);
    drop(trace);

    // Every record its own phase, every column random: the worst case
    // costs no more than a record vector.
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut ts = 0u64;
    let records: Vec<TraceRecord> = (0..4096u32)
        .map(|i| {
            ts += next() % 1000;
            TraceRecord {
                pid: next() as u32,
                rank: Rank(next() as u32),
                file: FileId(next() as u32),
                op: if next() % 2 == 0 { IoOp::Read } else { IoOp::Write },
                offset: next(),
                len: next(),
                ts: SimTime::from_nanos(ts),
                phase: i * 7 + (next() % 5) as u32,
            }
        })
        .collect();
    let input = records.capacity() * size_of::<TraceRecord>();
    let (trace, bytes) = held(input, || Trace::from_records(records));
    assert_eq!(trace.len(), 4096);
    check("random", &trace, bytes, size_of::<TraceRecord>() * trace.len() + CONSTANT);
}
