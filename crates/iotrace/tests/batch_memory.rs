//! A phase batch holds only the columns that vary.
//!
//! `RecordBatch` stores each column as a run `base + i·step` until a
//! value breaks it. An IOR phase varies only in its offsets: pid and
//! rank are `base + rank`, and file, op, length and timestamp are
//! constant. So a 16,384-rank phase holds 8 B per record; a batch that
//! stored every column held 37 B.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::ior::{stream, IorConfig};
use iotrace::{BatchSource, IoOp, RecordBatch};
use simrt::heap;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

const RANKS: usize = 16_384;
/// Bytes a batch may hold per record: the offset column.
const BYTES_PER_RECORD: usize = 8;
/// Bytes a batch may hold whatever its width.
const CONSTANT: usize = 1024;

#[test]
fn an_ior_phase_batch_holds_its_offsets_only() {
    let mut cfg = IorConfig::default_run(IoOp::Write);
    cfg.proc_mix = vec![RANKS as u32];
    cfg.reqs_per_proc = 2;
    cfg.file_size = 64 << 30;
    let mut source = stream(&cfg);
    let before = heap::live();
    let mut batch = RecordBatch::new();
    for _ in 0..2 {
        assert!(source.next_phase(&mut batch));
        assert_eq!(batch.len(), RANKS);
        let held = heap::live() - before;
        assert!(
            held <= BYTES_PER_RECORD * RANKS + CONSTANT,
            "a {RANKS}-record IOR phase batch holds {held} bytes: {:.1} B per record, \
             over {BYTES_PER_RECORD} B plus {CONSTANT}",
            held as f64 / RANKS as f64,
        );
    }
}
