//! The layout service holds each queued job once.
//!
//! `LayoutService::submit` keeps the trace it is given, whose clone
//! shares its records, and checks the tenant bits of every record
//! there. The tenant retag waits until `run` dispatches the job, into
//! one buffer reused across jobs. So queueing a job costs a trace handle
//! and no bytes per record; a service that queued a retagged copy of
//! each job held every record twice.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::ior::{generate, IorConfig};
use iotrace::{IoOp, TenantId, Trace, TraceRecord};
use pfs_sim::{Cluster, ClusterConfig, LayoutService, NullRuntime, ServiceConfig};
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

/// Run `f`, returning its result and the most bytes it held allocated at
/// once beyond what was live before it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

const TENANTS: u32 = 8;
const JOBS: usize = 256;
const RECORDS_PER_JOB: usize = 64;
/// Heap a queued job may cost: its 8 B trace handle in its tenant's job
/// list, with room for the list's growth by doubling.
const BYTES_PER_JOB: usize = 32;

#[test]
fn submitting_jobs_allocates_no_per_record_bytes() {
    let mut cfg = IorConfig::default_run(IoOp::Read);
    cfg.proc_mix = vec![8];
    cfg.reqs_per_proc = RECORDS_PER_JOB / 8;
    let job = generate(&cfg);
    assert_eq!(job.len(), RECORDS_PER_JOB);
    let jobs: Vec<Trace> = (0..JOBS).map(|_| job.clone()).collect();

    let mut cluster = Cluster::new(ClusterConfig::paper_default());
    let mut svc = LayoutService::new(&mut cluster, ServiceConfig::new(1));
    // Tenant 0 is the identity namespace; these tenants all retag.
    for t in 1..=TENANTS {
        svc.add_tenant(TenantId(t), Box::new(NullRuntime::new()));
    }
    let ((), peak) = peak_during(|| {
        for (i, job) in jobs.iter().enumerate() {
            svc.submit(TenantId(1 + i as u32 % TENANTS), job.clone());
        }
    });
    let record_bytes = JOBS * RECORDS_PER_JOB * std::mem::size_of::<TraceRecord>();
    assert!(
        peak <= JOBS * BYTES_PER_JOB,
        "submitting {JOBS} jobs of {RECORDS_PER_JOB} records ({record_bytes} record bytes) \
         peaked at {peak} bytes"
    );
    let report = svc.run().unwrap();
    assert_eq!(report.jobs.len() + report.rejected, JOBS);
}
