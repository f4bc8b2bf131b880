//! Canonical workload and context constructors shared by the figure
//! harness, the study bins and the integration tests.

use iotrace::gen::{btio, cholesky, hpio, ior, lanl, lu};
use iotrace::Trace;
use mha_core::schemes::PlannerContext;
use pfs_sim::ClusterConfig;
use storage_model::IoOp;

/// Scale factor: `quick` workloads shrink request counts so the whole
/// figure set runs in seconds; full workloads follow the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized runs.
    Full,
    /// Reduced runs for smoke tests.
    Quick,
}

impl Scale {
    /// Scale an iteration count.
    pub(crate) fn reqs(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(4),
        }
    }
}

/// Planner context for a cluster, with the RSSD step adapted to the
/// workload's largest request: the paper's 4 KiB default is kept for
/// small-request workloads, while multi-megabyte workloads (BTIO,
/// Cholesky) coarsen the step so the candidate grid stays tractable —
/// the paper notes the step "can be configured by the user".
pub fn context_for(trace: &Trace, cluster: &ClusterConfig) -> PlannerContext {
    PlannerContext::for_cluster(cluster).with_step_for(trace)
}

/// Fig. 7 workload: IOR, 32 processes, mixed request sizes, one op pass.
pub fn ior_mixed_sizes(sizes_kb: &[u64], op: IoOp, scale: Scale) -> Trace {
    let sizes: Vec<u64> = sizes_kb.iter().map(|k| k << 10).collect();
    let mut cfg = ior::IorConfig::mixed_sizes(&sizes, op);
    cfg.reqs_per_proc = scale.reqs(64);
    ior::generate(&cfg)
}

/// Fig. 9 workload: IOR, 256 KiB requests, mixed process counts.
pub(crate) fn ior_mixed_procs(procs: &[u32], op: IoOp, scale: Scale) -> Trace {
    let mut cfg = ior::IorConfig::mixed_procs(procs, op);
    cfg.reqs_per_proc = scale.reqs(64);
    ior::generate(&cfg)
}

/// Fig. 14 workload: IOR, small 4 KiB + 64 KiB mix at a process count.
pub(crate) fn ior_overhead(procs: u32, op: IoOp, scale: Scale) -> Trace {
    let mut cfg = ior::IorConfig::mixed_sizes(&[4 << 10, 64 << 10], op);
    cfg.proc_mix = vec![procs];
    cfg.reqs_per_proc = scale.reqs(64);
    ior::generate(&cfg)
}

/// Fig. 11 workload: HPIO with the paper's parameters.
pub(crate) fn hpio_trace(procs: u32, op: IoOp, scale: Scale) -> Trace {
    let mut cfg = hpio::HpioConfig::paper(procs, op);
    cfg.region_count = scale.reqs(4096) as u32;
    hpio::generate(&cfg)
}

/// Fig. 12a workload: BTIO class B + C interleaved.
pub(crate) fn btio_trace(procs: u32, op: IoOp) -> Trace {
    btio::generate(&btio::BtioConfig::paper(procs, op))
}

/// Fig. 12b workload: the LANL App2 trace.
pub fn lanl_trace(scale: Scale) -> Trace {
    lanl::generate(&lanl::LanlConfig::paper(scale.reqs(64) as u32, IoOp::Write))
}

/// Fig. 13a workload: out-of-core LU.
pub(crate) fn lu_trace(scale: Scale) -> Trace {
    lu::generate(&lu::LuConfig { procs: 8, steps: scale.reqs(128) as u32 })
}

/// Fig. 13b workload: sparse Cholesky.
pub(crate) fn cholesky_trace(scale: Scale) -> Trace {
    cholesky::generate(&cholesky::CholeskyConfig {
        panels: scale.reqs(96) as u32,
        ..cholesky::CholeskyConfig::default()
    })
}

/// The paper's cluster (6 HServers, 2 SServers, 8 clients).
pub fn paper_cluster() -> ClusterConfig {
    ClusterConfig::paper_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scales_down() {
        assert_eq!(Scale::Quick.reqs(64), 16);
        assert_eq!(Scale::Full.reqs(64), 64);
        assert_eq!(Scale::Quick.reqs(8), 4, "floor at 4");
    }

    #[test]
    fn context_step_tracks_request_size() {
        let small = ior_mixed_sizes(&[16], IoOp::Read, Scale::Quick);
        let ctx = context_for(&small, &paper_cluster());
        assert_eq!(ctx.rssd.step, 4096, "small workloads keep the 4 KiB step");

        let big = btio_trace(9, IoOp::Write);
        let ctx = context_for(&big, &paper_cluster());
        assert!(ctx.rssd.step > 4096, "BTIO coarsens the step");
        assert_eq!(ctx.rssd.step % 4096, 0);
    }

    #[test]
    fn workloads_are_nonempty() {
        assert!(!ior_mixed_sizes(&[128, 256], IoOp::Write, Scale::Quick).is_empty());
        assert!(!ior_mixed_procs(&[8, 32], IoOp::Read, Scale::Quick).is_empty());
        assert!(!hpio_trace(16, IoOp::Write, Scale::Quick).is_empty());
        assert!(!btio_trace(9, IoOp::Write).is_empty());
        assert!(!lanl_trace(Scale::Quick).is_empty());
        assert!(!lu_trace(Scale::Quick).is_empty());
        assert!(!cholesky_trace(Scale::Quick).is_empty());
        assert!(!ior_overhead(8, IoOp::Write, Scale::Quick).is_empty());
    }
}
