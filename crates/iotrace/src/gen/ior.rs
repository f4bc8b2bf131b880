//! IOR-like workload generator (LLNL parallel file system benchmark).
//!
//! The paper runs IOR through MPI-IO on a shared file, modified to issue
//! *mixed request sizes* (Fig. 7), *mixed process counts* (Fig. 9) and
//! small/large mixes for the overhead study (Fig. 14). Requests are
//! random-offset within the shared file, one request per active process
//! per phase, with the size (or the number of active processes) cycling
//! between the configured mix values by file region — reproducing the
//! paper's "large at one file chunk, small at another" heterogeneity.

use crate::batch::{BatchSource, PhaseSink, RecordBatch};
use crate::gen::{collect, PhaseClock};
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::rng::SmallRng;
use simrt::SeedSeq;
use storage_model::IoOp;

/// Offset draws made per [`SmallRng::fill_below`] call.
const DRAW_CHUNK: usize = 256;

/// IOR run configuration.
#[derive(Debug, Clone)]
pub struct IorConfig {
    /// Number of processes in each interleaved process group. Fig. 7 uses
    /// one entry (e.g. `[32]`); Fig. 9 mixes entries (e.g. `[8, 32]`).
    pub proc_mix: Vec<u32>,
    /// Request sizes cycled across file chunks (bytes). Fig. 7 mixes e.g.
    /// `[128 KiB, 256 KiB]`; uniform runs use one entry.
    pub size_mix: Vec<u64>,
    /// Shared file size, bytes.
    pub file_size: u64,
    /// Requests issued per process.
    pub reqs_per_proc: usize,
    /// Operation type of the run (IOR does separate read and write passes).
    pub op: IoOp,
    /// Random (true, the paper's setting) or sequential offsets.
    pub random_offsets: bool,
    /// Workload seed.
    pub seed: u64,
}

impl IorConfig {
    /// The paper's default: 16 processes, 64 KiB transfers, shared file.
    pub fn default_run(op: IoOp) -> Self {
        IorConfig {
            proc_mix: vec![16],
            size_mix: vec![64 * 1024],
            file_size: 16 << 30,
            reqs_per_proc: 64,
            op,
            random_offsets: true,
            seed: 0x10b,
        }
    }

    /// Fig. 7 configuration: 32 processes, mixed request sizes, 16 GB file.
    pub fn mixed_sizes(sizes: &[u64], op: IoOp) -> Self {
        IorConfig {
            proc_mix: vec![32],
            size_mix: sizes.to_vec(),
            file_size: 16 << 30,
            reqs_per_proc: 64,
            op,
            random_offsets: true,
            seed: 0x10b,
        }
    }

    /// Fig. 9 configuration: 256 KiB requests, mixed process counts.
    pub fn mixed_procs(procs: &[u32], op: IoOp) -> Self {
        IorConfig {
            proc_mix: procs.to_vec(),
            size_mix: vec![256 * 1024],
            file_size: 16 << 30,
            reqs_per_proc: 64,
            op,
            random_offsets: true,
            seed: 0x10b,
        }
    }
}

/// Generate an IOR trace.
///
/// The file is split into as many chunks as there are mix combinations;
/// chunk `c` is accessed with `size_mix[c % sizes]` by
/// `proc_mix[c % procs]` processes, so pattern heterogeneity is tied to
/// file location exactly as in the paper's modified IOR.
///
/// Runs the same phase emitter as [`stream`], straight into one trace's
/// store, so the streaming and materialized views of one config are
/// bit-identical by construction.
pub fn generate(cfg: &IorConfig) -> Trace {
    let mut src = stream(cfg);
    collect(src.len_hint(), |out| src.emit(out))
}

/// Stream an IOR run one phase at a time (see [`IorStream`]).
pub fn stream(cfg: &IorConfig) -> IorStream {
    assert!(!cfg.proc_mix.is_empty() && !cfg.size_mix.is_empty(), "empty mix");
    assert!(cfg.file_size > 0, "empty file");
    IorStream {
        cfg: cfg.clone(),
        rng: SeedSeq::new(cfg.seed).derive("ior").rng(),
        clock: PhaseClock::new(),
        iter: 0,
        variants: cfg.proc_mix.len().max(cfg.size_mix.len()),
        max_procs: cfg.proc_mix.iter().copied().max().unwrap_or(1),
    }
}

/// Streaming IOR generator: each [`BatchSource::next_phase`] emits one
/// iteration (= one barrier phase) of the run, so grid-scale runs
/// (millions of records) are replayed without ever holding the full
/// trace. The RNG is a single stream across phases, exactly as
/// the materializing generator consumed it.
#[derive(Debug, Clone)]
pub struct IorStream {
    cfg: IorConfig,
    rng: SmallRng,
    clock: PhaseClock,
    iter: usize,
    variants: usize,
    max_procs: u32,
}

impl IorStream {
    /// Emit the next iteration into `out`; `false` when exhausted.
    pub(super) fn emit<S: PhaseSink>(&mut self, out: &mut S) -> bool {
        if self.iter >= self.cfg.reqs_per_proc {
            out.begin(0);
            return false;
        }
        let cfg = &self.cfg;
        let iter = self.iter;
        let variant = iter % self.variants;
        let procs = cfg.proc_mix[variant % cfg.proc_mix.len()];
        let size = cfg.size_mix[variant % cfg.size_mix.len()];
        // Partition the file into one contiguous chunk per pattern variant.
        let chunk = cfg.file_size / self.variants as u64;
        let lo = variant as u64 * chunk;
        let span = chunk.saturating_sub(size).max(1);
        // Offsets are slots of the request size, like IOR's transferSize
        // blocks: drawn at random (one draw per process, in rank order)
        // or laid out sequentially.
        let slots = span / size.max(1) + 1;
        let max_offset = cfg.file_size.saturating_sub(size);
        let (phase, ts) = self.clock.tick();
        out.begin(phase);
        let mut drawn = [0u64; DRAW_CHUNK];
        for first in (0..procs).step_by(DRAW_CHUNK) {
            let n = (procs - first).min(DRAW_CHUNK as u32) as usize;
            let drawn = &mut drawn[..n];
            if cfg.random_offsets {
                self.rng.fill_below(slots, drawn);
            } else {
                for (slot, p) in drawn.iter_mut().zip(first..) {
                    *slot = iter as u64 * u64::from(self.max_procs) + u64::from(p);
                }
            }
            for slot in drawn.iter_mut() {
                *slot = (lo + *slot * size).min(max_offset);
            }
            let head = TraceRecord {
                pid: 1000 + first,
                rank: Rank(first),
                file: FileId(0),
                op: cfg.op,
                offset: 0,
                len: size,
                ts,
                phase,
            };
            out.push_ranks(&head, drawn);
        }
        self.iter += 1;
        true
    }

    /// Records in iterations `0..n`: iteration `i` has
    /// `proc_mix[(i % variants) % proc_mix.len()]` processes.
    fn records_before(&self, n: usize) -> usize {
        let mix = &self.cfg.proc_mix;
        let procs = |v: usize| mix[v % mix.len()] as usize;
        let cycle: usize = (0..self.variants).map(procs).sum();
        n / self.variants * cycle + (0..n % self.variants).map(procs).sum::<usize>()
    }
}

impl BatchSource for IorStream {
    fn next_phase(&mut self, batch: &mut RecordBatch) -> bool {
        self.emit(batch)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.records_before(self.cfg.reqs_per_proc) - self.records_before(self.iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn chunked_offset_draws_match_one_gen_range_per_record() {
        // 600 processes cross the 256-draw chunk twice per phase.
        let mut cfg = IorConfig::default_run(IoOp::Write);
        cfg.proc_mix = vec![600, 300];
        cfg.reqs_per_proc = 4;
        let size = cfg.size_mix[0];
        let chunk = cfg.file_size / 2;
        let slots = (chunk - size) / size + 1;
        let mut rng = SeedSeq::new(cfg.seed).derive("ior").rng();
        let mut want = Vec::new();
        for iter in 0..cfg.reqs_per_proc {
            let variant = iter % 2;
            for _ in 0..cfg.proc_mix[variant] {
                let slot = rng.gen_range(0..slots);
                want.push((variant as u64 * chunk + slot * size).min(cfg.file_size - size));
            }
        }
        let got: Vec<u64> = generate(&cfg).records().iter().map(|r| r.offset).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn default_run_is_uniform() {
        let t = generate(&IorConfig::default_run(IoOp::Write));
        let s = TraceStats::of(&t);
        assert_eq!(s.distinct_sizes, 1);
        assert_eq!(s.max_request, 64 * 1024);
        assert_eq!(s.requests, 16 * 64);
        assert!(!s.is_heterogeneous());
    }

    #[test]
    fn mixed_sizes_produces_both_sizes() {
        let t = generate(&IorConfig::mixed_sizes(&[128 << 10, 256 << 10], IoOp::Read));
        let s = TraceStats::of(&t);
        assert_eq!(s.distinct_sizes, 2);
        assert!(s.is_heterogeneous());
        assert_eq!(s.max_request, 256 << 10);
    }

    #[test]
    fn sizes_are_tied_to_file_chunks() {
        let cfg = IorConfig::mixed_sizes(&[128 << 10, 256 << 10], IoOp::Read);
        let t = generate(&cfg);
        let half = cfg.file_size / 2;
        for r in t.records() {
            if r.offset < half {
                assert_eq!(r.len, 128 << 10, "small chunk holds small requests");
            } else {
                assert_eq!(r.len, 256 << 10);
            }
        }
    }

    #[test]
    fn mixed_procs_varies_concurrency() {
        let t = generate(&IorConfig::mixed_procs(&[8, 32], IoOp::Write));
        let conc = t.concurrency();
        let mut distinct: Vec<u32> = conc.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, vec![8, 32]);
    }

    #[test]
    fn offsets_stay_in_file() {
        let cfg = IorConfig::mixed_sizes(&[256 << 10, 1 << 20], IoOp::Write);
        let t = generate(&cfg);
        for r in t.records() {
            assert!(r.end() <= cfg.file_size, "request escapes file: {r:?}");
        }
    }

    #[test]
    fn streaming_phases_match_materialized_records() {
        let cfg = IorConfig::mixed_sizes(&[128 << 10, 256 << 10], IoOp::Write);
        let t = generate(&cfg);
        let mut src = stream(&cfg);
        let mut batch = crate::batch::RecordBatch::new();
        let mut cursor = 0;
        while src.next_phase(&mut batch) {
            for i in 0..batch.len() {
                assert_eq!(Some(batch.record(i)), t.records().get(cursor));
                cursor += 1;
            }
        }
        assert_eq!(cursor, t.len(), "stream covers the whole run");
    }

    #[test]
    fn len_hint_is_exact_for_mixed_mixes() {
        let mut uneven = IorConfig::mixed_procs(&[8, 32, 4], IoOp::Read);
        uneven.size_mix = vec![64 << 10, 128 << 10];
        uneven.reqs_per_proc = 65;
        for cfg in [IorConfig::mixed_procs(&[8, 32], IoOp::Write), uneven] {
            let total = generate(&cfg).len();
            let mut src = stream(&cfg);
            let mut batch = RecordBatch::new();
            let mut left = total;
            assert_eq!(src.len_hint(), Some(total));
            while src.next_phase(&mut batch) {
                left -= batch.len();
                assert_eq!(src.len_hint(), Some(left), "{:?}", cfg.proc_mix);
            }
            assert_eq!(left, 0);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = IorConfig::default_run(IoOp::Read);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = IorConfig::default_run(IoOp::Read);
        let a = generate(&cfg);
        cfg.seed = 999;
        let b = generate(&cfg);
        assert_ne!(a.records(), b.records());
    }

    #[test]
    #[should_panic(expected = "empty mix")]
    fn empty_mix_rejected() {
        let mut cfg = IorConfig::default_run(IoOp::Read);
        cfg.size_mix.clear();
        generate(&cfg);
    }
}
