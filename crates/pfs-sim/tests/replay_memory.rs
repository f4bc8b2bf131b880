//! A streamed sharded replay holds the widest phase's records, not its
//! sub-requests.
//!
//! The sharded core keeps the current phase's record batch and its
//! shuffled order, then walks that order in fixed windows: the
//! sub-request columns, the per-record columns and the lane partition
//! hold one window however wide the phase. So the heap a run needs grows
//! with phase width by the batch (at most 37 B per record, 8 B for an IOR
//! phase whose run-encoded columns keep only the offsets) and the
//! shuffle (4 B) only; a core that staged whole phases grew by about
//! 115 B per record.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::ior::{stream, IorConfig};
use iotrace::IoOp;
use pfs_sim::{Cluster, ClusterConfig, CoreSel, IdentityResolver, ReplayInput, ReplaySession};
use simrt::heap;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Heap growth allowed per record of phase width: the record batch (at
/// most 37 B), the 4 B shuffle entry, and slack for the batch's growth
/// by doubling.
const BYTES_PER_RECORD: usize = 48;

/// Peak heap of one streamed two-phase IOR write replay of `ranks`
/// ranks on the paper's 3:1 mix at 1024 servers, above what was live
/// before it. The cluster and the session are built outside the
/// measurement; the replay's scratch starts empty.
fn replay_peak(ranks: u32) -> usize {
    let mut cfg = IorConfig::default_run(IoOp::Write);
    cfg.proc_mix = vec![ranks];
    cfg.reqs_per_proc = 2;
    cfg.file_size = 64 << 30;
    let mut cluster = Cluster::new(ClusterConfig {
        clients: (ranks / 4) as usize,
        ..ClusterConfig::with_ratio(768, 256)
    });
    let mut session = ReplaySession::new();
    let mut source = stream(&cfg);
    let (report, peak) = heap::peak_during(|| {
        session
            .run(
                ReplayInput::stream(&mut cluster, &mut source, &mut IdentityResolver),
                CoreSel::Sharded,
            )
            .expect("fault-free replay")
    });
    assert_eq!(report.requests, 2 * ranks as usize);
    peak
}

#[test]
fn replay_heap_grows_with_phase_records_not_sub_requests() {
    // One unmeasured run starts the worker pool, so the measured ones
    // count only their own data.
    replay_peak(4096);

    let widths = [4096u32, 16_384, 65_536];
    let peaks: Vec<usize> = widths.iter().map(|&w| replay_peak(w)).collect();
    for (w, p) in widths.windows(2).zip(peaks.windows(2)) {
        let records = (w[1] - w[0]) as usize;
        let grown = p[1].saturating_sub(p[0]);
        assert!(
            grown <= BYTES_PER_RECORD * records,
            "phase width {} -> {} grew the replay's heap peak from {} to {} bytes: \
             {:.1} B per record, over {BYTES_PER_RECORD}",
            w[0],
            w[1],
            p[0],
            p[1],
            grown as f64 / records as f64,
        );
    }
}
