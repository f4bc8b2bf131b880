//! Known-answer pins for the streaming generators.
//!
//! Every field of every record of a handful of configs is folded into a
//! 64-bit FNV-1a digest, and the digest is asserted against a known
//! value. A moved RNG draw, a reordered field or a changed phase
//! boundary changes the digest. Each config is also
//! checked both ways: `generate(cfg)` must equal the concatenated
//! `stream(cfg)` batches, and the stream's phase sequence (empty phases
//! included) is pinned by its own digest.

use iotrace::gen::{burst, ior, lanl, skewed};
use iotrace::{BatchSource, IoOp, RecordBatch, Trace, TraceRecord};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn record(&mut self, r: &TraceRecord) {
        self.word(u64::from(r.pid));
        self.word(u64::from(r.rank.0));
        self.word(u64::from(r.file.0));
        self.word(match r.op {
            IoOp::Read => 0,
            IoOp::Write => 1,
        });
        self.word(r.offset);
        self.word(r.len);
        self.word(r.ts.as_nanos());
        self.word(u64::from(r.phase));
    }
}

/// Digest of a materialized trace: record count, then every record.
fn trace_digest(t: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.word(t.len() as u64);
    for r in t.records() {
        h.record(&r);
    }
    h.0
}

/// Drain `src`, checking its records against `t` in order. Returns the
/// digest of the phase sequence (each batch's phase id and length, empty
/// batches included) and the number of empty batches.
fn check_stream<S: BatchSource>(mut src: S, t: &Trace) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut batch = RecordBatch::new();
    let (mut cursor, mut empty) = (0, 0);
    while src.next_phase(&mut batch) {
        h.word(u64::from(batch.phase()));
        h.word(batch.len() as u64);
        empty += usize::from(batch.is_empty());
        for i in 0..batch.len() {
            assert_eq!(Some(batch.record(i)), t.records().get(cursor), "record {cursor}");
            cursor += 1;
        }
    }
    assert_eq!(cursor, t.len(), "stream covers the whole trace");
    assert!(
        batch.is_empty(),
        "an exhausted stream leaves the batch empty"
    );
    assert!(
        !src.next_phase(&mut batch),
        "exhausted stream stays exhausted"
    );
    (h.0, empty)
}

/// Assert the trace digest and the stream's phase digest.
fn pin<S: BatchSource>(name: &str, t: &Trace, src: S, want: (u64, u64)) -> usize {
    let (phases, empty) = check_stream(src, t);
    assert_eq!(
        (trace_digest(t), phases),
        want,
        "{name}: digests moved ({} records)",
        t.len()
    );
    empty
}

#[test]
fn ior_digests() {
    let default = ior::IorConfig::default_run(IoOp::Write);
    let mixed = ior::IorConfig::mixed_procs(&[8, 32], IoOp::Write);
    let mut sequential = ior::IorConfig::mixed_sizes(&[128 << 10, 256 << 10], IoOp::Read);
    sequential.random_offsets = false;
    for (name, cfg, want) in [
        (
            "ior default",
            default,
            (0xc9ed_181b_3665_ed1b, 0xfb6d_6e17_eb49_8325),
        ),
        (
            "ior mixed_procs [8, 32]",
            mixed,
            (0xb486_2106_d169_b54d, 0x55cc_0266_8e52_5f25),
        ),
        (
            "ior sequential",
            sequential,
            (0x0a9c_9223_836e_13dd, 0xa678_97ca_57ae_3f25),
        ),
    ] {
        pin(name, &ior::generate(&cfg), ior::stream(&cfg), want);
    }
}

#[test]
fn lanl_digest() {
    let cfg = lanl::LanlConfig::paper(64, IoOp::Write);
    pin(
        "lanl paper(64)",
        &lanl::generate(&cfg),
        lanl::stream(&cfg),
        (0x3032_fd8a_ab39_4fd3, 0x84c4_0a27_6727_fb25),
    );
}

#[test]
fn skewed_digests() {
    let default = skewed::SkewedConfig::default_run(IoOp::Write);
    let mut unshifted = skewed::SkewedConfig::default_run(IoOp::Read);
    unshifted.shift_every = 0;
    for (name, cfg, want) in [
        (
            "skewed default",
            default,
            (0x8ffa_8bd1_f822_3e0b, 0xfb6d_6e17_eb49_8325),
        ),
        (
            "skewed shift_every = 0",
            unshifted,
            (0x197b_3cba_3d37_2950, 0xfb6d_6e17_eb49_8325),
        ),
    ] {
        pin(name, &skewed::generate(&cfg), skewed::stream(&cfg), want);
    }
}

#[test]
fn burst_digests_including_empty_phases() {
    let default = burst::BurstConfig::default_run(IoOp::Write);
    pin(
        "burst default",
        &burst::generate(&default),
        burst::stream(&default),
        (0x8c9c_0b48_d6b7_2edc, 0x5d85_8da2_5e7b_7aed),
    );
    // One sparse client: most quiet phases draw zero requests, so the
    // stream announces empty phases the materialized trace skips.
    let mut sparse = burst::BurstConfig::default_run(IoOp::Read);
    sparse.procs = 1;
    sparse.mean_reqs = 0.5;
    let empty = pin(
        "burst sparse",
        &burst::generate(&sparse),
        burst::stream(&sparse),
        (0x025f_166f_66d7_1487, 0x58e0_d5da_55c7_92ad),
    );
    assert!(empty > 0, "the sparse config must exercise empty phases");
}
