//! A service report grows with its jobs, not with jobs × servers.
//!
//! `LayoutService::run` folds each job's per-server stats into its
//! tenant's totals (`TenantSummary::per_server`) and keeps the job's
//! replay report without them. So a `ServiceReport` holds a fixed-size
//! record per job plus one `ServerIoStat` per tenant and server; a
//! report that kept every job's per-server stats held 104 B per job and
//! server.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use iotrace::gen::ior::{generate, IorConfig};
use iotrace::{IoOp, TenantId, Trace};
use pfs_sim::{
    Cluster, ClusterConfig, JobRecord, LayoutService, NullRuntime, ServerIoStat, ServiceConfig,
};
use simrt::heap;
use std::mem::size_of;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

const TENANTS: u32 = 4;
const JOBS_PER_TENANT: usize = 32;
/// 48 HServers + 16 SServers.
const SERVERS: usize = 64;
/// Heap a job record may cost in the report's job list: twice a
/// `JobRecord`, for the list's growth by doubling, and some.
const BYTES_PER_JOB: usize = 512;
/// Heap one tenant's total for one server may cost: one `ServerIoStat`.
const BYTES_PER_TENANT_SERVER: usize = 128;
/// The tenant summary list and the rest of the report.
const FIXED_BYTES: usize = 4096;

#[test]
fn a_service_report_holds_per_job_and_per_tenant_server_bytes() {
    assert!(2 * size_of::<JobRecord>() <= BYTES_PER_JOB);
    assert!(size_of::<ServerIoStat>() <= BYTES_PER_TENANT_SERVER);
    let mut cfg = IorConfig::default_run(IoOp::Write);
    cfg.proc_mix = vec![8];
    cfg.reqs_per_proc = 2;
    let job = generate(&cfg);

    let mut cluster = Cluster::new(ClusterConfig::with_ratio(48, 16));
    assert_eq!(cluster.servers().len(), SERVERS);
    let mut svc = LayoutService::new(
        &mut cluster,
        ServiceConfig::new(3).queue_depth(JOBS_PER_TENANT),
    );
    for t in 0..TENANTS {
        svc.add_tenant(TenantId(t), Box::new(NullRuntime::new()));
        for _ in 0..JOBS_PER_TENANT {
            svc.submit(TenantId(t), Trace::clone(&job));
        }
    }
    let report = svc.run().unwrap();
    let jobs = TENANTS as usize * JOBS_PER_TENANT;
    assert_eq!(report.jobs.len(), jobs, "the queue depth admits every job");

    let before = heap::live();
    drop(report);
    let held = before - heap::live();
    let bound =
        BYTES_PER_JOB * jobs + BYTES_PER_TENANT_SERVER * TENANTS as usize * SERVERS + FIXED_BYTES;
    assert!(
        held <= bound,
        "a report of {jobs} jobs from {TENANTS} tenants on {SERVERS} servers held {held} bytes, \
         over {BYTES_PER_JOB} B per job plus {BYTES_PER_TENANT_SERVER} B per tenant and server \
         plus {FIXED_BYTES} B ({bound})"
    );
}
