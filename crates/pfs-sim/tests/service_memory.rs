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
use simrt::heap;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

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
    let ((), peak) = heap::peak_during(|| {
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
