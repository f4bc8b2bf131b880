//! Two-phase collective I/O (ROMIO-style), lowered at the middleware.
//!
//! `MPI_File_write_at_all` lets the middleware see every rank's piece of
//! a collective access at once. ROMIO's two-phase implementation
//! (a) merges the pieces into contiguous runs, (b) splits the covered
//! range into one contiguous *file domain* per aggregator rank, and
//! (c) has each aggregator issue a single large request for its domain
//! after an in-memory exchange. The exchange overlaps the I/O and is
//! cheap on a fast interconnect, so the lowering emits only the
//! aggregator I/O requests (documented approximation).
//!
//! Collectives interact with MHA in an interesting way the test suite
//! pins down: aggregation homogenizes small interleaved requests into
//! large uniform ones, which *reduces* the pattern heterogeneity MHA
//! exploits — after aggregation, MHA degenerates toward HARL, exactly as
//! the paper predicts for uniform patterns.

use crate::job::{FileHandle, MpiJob};

/// One rank's piece of a collective access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Issuing rank.
    pub rank: u32,
    /// File offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Collective buffering configuration (the `cb_nodes` hint).
#[derive(Debug, Clone, Copy)]
pub struct CollectiveConfig {
    /// Number of aggregator ranks issuing the merged I/O.
    pub aggregators: u32,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig { aggregators: 4 }
    }
}

/// A contiguous file domain assigned to one aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileDomain {
    /// Aggregator rank that issues the I/O.
    pub aggregator: u32,
    /// Domain start offset.
    pub offset: u64,
    /// Domain length.
    pub len: u64,
}

/// Merge pieces into maximal contiguous runs (holes are preserved — no
/// data sieving), then split each run across aggregators into balanced
/// contiguous domains.
pub(crate) fn lower_collective(pieces: &[Piece], cfg: &CollectiveConfig) -> Vec<FileDomain> {
    if pieces.is_empty() {
        return Vec::new();
    }
    let aggs = cfg.aggregators.max(1);
    // Merge.
    let mut sorted: Vec<(u64, u64)> = pieces.iter().map(|p| (p.offset, p.len)).collect();
    sorted.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (off, len) in sorted {
        if len == 0 {
            continue;
        }
        match runs.last_mut() {
            Some((ro, rl)) if *ro + *rl >= off => {
                // Adjacent or overlapping: extend the run.
                let end = (off + len).max(*ro + *rl);
                *rl = end - *ro;
            }
            _ => runs.push((off, len)),
        }
    }
    // Split across aggregators proportionally to run length.
    let total: u64 = runs.iter().map(|&(_, l)| l).sum();
    if total == 0 {
        return Vec::new();
    }
    let per_agg = total.div_ceil(u64::from(aggs));
    let mut domains = Vec::new();
    let mut agg = 0u32;
    let mut agg_left = per_agg;
    for (mut off, mut len) in runs {
        while len > 0 {
            let take = len.min(agg_left);
            domains.push(FileDomain { aggregator: agg, offset: off, len: take });
            off += take;
            len -= take;
            agg_left -= take;
            if agg_left == 0 && agg + 1 < aggs {
                agg += 1;
                agg_left = per_agg;
            } else if agg_left == 0 {
                agg_left = u64::MAX; // last aggregator absorbs the rest
            }
        }
    }
    domains
}

impl MpiJob {
    /// Collective write: all `pieces` belong to one `MPI_File_write_at_all`
    /// call; the middleware lowers them to aggregator requests and closes
    /// the phase (collectives synchronize).
    pub fn write_at_all(&mut self, fh: FileHandle, pieces: &[Piece], cfg: &CollectiveConfig) {
        for d in lower_collective(pieces, cfg) {
            self.write_at(d.aggregator % self.world_size(), fh, d.offset, d.len);
        }
        self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pieces_dense(n: u32, size: u64) -> Vec<Piece> {
        (0..n)
            .map(|r| Piece { rank: r, offset: u64::from(r) * size, len: size })
            .collect()
    }

    #[test]
    fn dense_pieces_merge_into_one_run() {
        let d = lower_collective(&pieces_dense(8, 1000), &CollectiveConfig { aggregators: 1 });
        assert_eq!(d.len(), 1);
        assert_eq!(d[0], FileDomain { aggregator: 0, offset: 0, len: 8000 });
    }

    #[test]
    fn domains_balance_across_aggregators() {
        let d = lower_collective(&pieces_dense(8, 1000), &CollectiveConfig { aggregators: 4 });
        assert_eq!(d.len(), 4);
        let total: u64 = d.iter().map(|x| x.len).sum();
        assert_eq!(total, 8000);
        for dom in &d {
            assert_eq!(dom.len, 2000);
        }
        let aggs: Vec<u32> = d.iter().map(|x| x.aggregator).collect();
        assert_eq!(aggs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn holes_are_preserved() {
        let pieces = [
            Piece { rank: 0, offset: 0, len: 100 },
            Piece { rank: 1, offset: 500, len: 100 },
        ];
        let d = lower_collective(&pieces, &CollectiveConfig { aggregators: 1 });
        assert_eq!(d.len(), 2, "no data sieving across holes");
        assert_eq!(d[0].offset, 0);
        assert_eq!(d[1].offset, 500);
    }

    #[test]
    fn overlapping_pieces_coalesce() {
        let pieces = [
            Piece { rank: 0, offset: 0, len: 150 },
            Piece { rank: 1, offset: 100, len: 100 },
        ];
        let d = lower_collective(&pieces, &CollectiveConfig { aggregators: 1 });
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].len, 200);
    }

    #[test]
    fn last_aggregator_absorbs_remainder() {
        let pieces = pieces_dense(7, 1000); // 7000 bytes over 4 aggregators
        let d = lower_collective(&pieces, &CollectiveConfig { aggregators: 4 });
        let total: u64 = d.iter().map(|x| x.len).sum();
        assert_eq!(total, 7000);
        assert!(d.iter().all(|x| x.aggregator < 4));
    }

    #[test]
    fn empty_and_zero_pieces_are_safe() {
        assert!(lower_collective(&[], &CollectiveConfig::default()).is_empty());
        let zeros = [Piece { rank: 0, offset: 10, len: 0 }];
        assert!(lower_collective(&zeros, &CollectiveConfig::default()).is_empty());
    }

    #[test]
    fn collective_job_emits_aggregator_phases() {
        let mut job = MpiJob::new(8);
        let f = job.open("coll");
        let pieces: Vec<Piece> = (0..8)
            .map(|r| Piece { rank: r, offset: u64::from(r) * 4096, len: 4096 })
            .collect();
        job.write_at_all(f, &pieces, &CollectiveConfig { aggregators: 2 });
        job.write_at_all(
            f,
            &pieces
                .iter()
                .map(|p| Piece { offset: p.offset + 32768, ..*p })
                .collect::<Vec<_>>(),
            &CollectiveConfig { aggregators: 2 },
        );
        let t = job.finish();
        assert_eq!(t.phase_span(), 2);
        assert_eq!(t.len(), 4, "two aggregator requests per collective");
        assert!(t.records().iter().all(|r| r.len == 16384));
    }

    #[test]
    fn aggregation_homogenizes_heterogeneous_requests() {
        // The LANL loop issued collectively: the 16 B / 131 056 B /
        // 131 072 B pieces of a loop merge into uniform large domains.
        let mut job = MpiJob::new(8);
        let f = job.open("lanl-coll");
        for i in 0..4u64 {
            let mut pieces = Vec::new();
            for p in 0..8u64 {
                let base = (i * 8 + p) * 262_144;
                pieces.push(Piece { rank: p as u32, offset: base, len: 16 });
                pieces.push(Piece { rank: p as u32, offset: base + 16, len: 131_056 });
                pieces.push(Piece { rank: p as u32, offset: base + 131_072, len: 131_072 });
            }
            job.write_at_all(f, &pieces, &CollectiveConfig { aggregators: 8 });
        }
        let t = job.finish();
        let stats = iotrace::TraceStats::of(&t);
        assert_eq!(stats.distinct_sizes, 1, "aggregation produced uniform requests");
        assert_eq!(stats.max_request, 262_144);
    }
}
