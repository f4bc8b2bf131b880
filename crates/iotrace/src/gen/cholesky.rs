//! Sparse Cholesky factorization trace synthesizer.
//!
//! The paper replays a sparse Cholesky trace (Maryland HPSL `mambo`
//! suite): panel-oriented synchronous I/O from 8 clients, one file per
//! client. Read sizes range from 2 bytes to 4 206 976 bytes and write
//! sizes from 131 556 to 4 206 976 bytes; the paper notes the size
//! distribution "varies more considerably and only has a small number of
//! large requests" — i.e. heavy-tailed with mostly small requests. We
//! draw sizes log-uniformly (deterministically seeded), which produces
//! exactly that many-small/few-large mix within the documented bounds.

use crate::gen::PhaseClock;
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::rng::SmallRng;
use simrt::SeedSeq;
use storage_model::IoOp;

/// Smallest read, bytes — from the paper.
pub(crate) const READ_MIN: u64 = 2;
/// Largest read/write, bytes — from the paper.
pub(crate) const SIZE_MAX: u64 = 4_206_976;
/// Smallest write, bytes — from the paper.
pub(crate) const WRITE_MIN: u64 = 131_556;

/// Cholesky trace configuration.
#[derive(Debug, Clone)]
pub struct CholeskyConfig {
    /// Number of client processes = files (the paper uses 8).
    pub procs: u32,
    /// Number of panels to factor.
    pub panels: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Default for CholeskyConfig {
    fn default() -> Self {
        CholeskyConfig { procs: 8, panels: 96, seed: 0xc401e5 }
    }
}

/// Draw a log-uniform size in `[lo, hi]`.
fn log_uniform(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    let x = rng.gen_range(l..=h).exp();
    (x.round() as u64).clamp(lo, hi)
}

/// Generate the Cholesky trace.
///
/// Panel `j`: each process reads two supernode panels (log-uniform sizes)
/// from its file and writes back one factored panel. Files grow
/// append-style per process; offsets are the running per-process cursor,
/// so requests land at varied, panel-dependent positions.
pub fn generate(cfg: &CholeskyConfig) -> Trace {
    Trace::from_records(records(cfg))
}

/// The records [`generate`] stores, in issue order.
pub(super) fn records(cfg: &CholeskyConfig) -> Vec<TraceRecord> {
    assert!(cfg.procs > 0 && cfg.panels > 0, "degenerate Cholesky config");
    let mut clock = PhaseClock::new();
    let mut records = Vec::with_capacity(cfg.procs as usize * cfg.panels as usize * 3);
    let mut cursor = vec![0u64; cfg.procs as usize];
    for j in 0..cfg.panels {
        for stage in 0..3u32 {
            let (phase, ts) = clock.tick();
            for p in 0..cfg.procs {
                let mut rng = SeedSeq::new(cfg.seed)
                    .derive_idx("chol", u64::from(j) << 34 | u64::from(stage) << 32 | u64::from(p))
                    .rng();
                let (op, len) = if stage < 2 {
                    (IoOp::Read, log_uniform(&mut rng, READ_MIN, SIZE_MAX))
                } else {
                    (IoOp::Write, log_uniform(&mut rng, WRITE_MIN, SIZE_MAX))
                };
                let off = cursor[p as usize];
                cursor[p as usize] += len;
                records.push(TraceRecord {
                    pid: 6000 + p,
                    rank: Rank(p),
                    file: FileId(p),
                    op,
                    offset: off,
                    len,
                    ts,
                    phase,
                });
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn sizes_respect_documented_bounds() {
        let t = generate(&CholeskyConfig::default());
        for r in t.records() {
            match r.op {
                IoOp::Read => assert!(r.len >= READ_MIN && r.len <= SIZE_MAX),
                IoOp::Write => assert!(r.len >= WRITE_MIN && r.len <= SIZE_MAX),
            }
        }
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        let t = generate(&CholeskyConfig::default());
        let reads: Vec<u64> = t
            .records()
            .iter()
            .filter(|r| r.op == IoOp::Read)
            .map(|r| r.len)
            .collect();
        let small = reads.iter().filter(|&&l| l < 64 << 10).count();
        let large = reads.iter().filter(|&&l| l > 1 << 20).count();
        // Log-uniform over [2, 4.2 MB]: most mass below 64 KiB.
        assert!(small > reads.len() / 2, "small={small}/{}", reads.len());
        assert!(large > 0, "some large requests must exist");
        assert!(small > 3 * large, "many small, few large");
    }

    #[test]
    fn per_process_files_are_append_ordered() {
        let t = generate(&CholeskyConfig::default());
        for p in 0..8u32 {
            let mut cursor = 0u64;
            for r in t.records().iter().filter(|r| r.rank.0 == p) {
                assert_eq!(r.offset, cursor, "append-style offsets");
                cursor = r.end();
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&CholeskyConfig::default());
        let b = generate(&CholeskyConfig::default());
        assert_eq!(a.records(), b.records());
        let c = generate(&CholeskyConfig { seed: 1, ..CholeskyConfig::default() });
        assert_ne!(a.records(), c.records());
    }

    #[test]
    fn high_size_variance() {
        let s = TraceStats::of(&generate(&CholeskyConfig::default()));
        assert!(s.size_cv > 1.0, "cv={}", s.size_cv);
        assert!(s.is_heterogeneous());
    }
}
