//! A cluster's fabric holds one word pair per node.
//!
//! `NetFabric` keeps, per node, only when its egress and ingress NIC
//! queues next drain: 16 B. A 1024-server cluster with 4,096 clients has
//! 5,121 fabric nodes, so the fabric is about 80 KiB, and the servers
//! (device models, the default layout) cost a few hundred bytes each.
//! Queues that also kept busy time, served count, last completion and
//! total wait held 80 B per node.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use pfs_sim::{Cluster, ClusterConfig};
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

/// Bytes allowed per fabric node: its egress and ingress drain times.
const BYTES_PER_NODE: usize = 16;
/// Bytes allowed per server: its device model, its queue and its share
/// of the default layout (254 B at the peak of a 1024-server build).
const BYTES_PER_SERVER: usize = 320;

#[test]
fn cluster_fabric_holds_one_word_pair_per_node() {
    let cfg = ClusterConfig { clients: 4096, ..ClusterConfig::with_ratio(768, 256) };
    let (nodes, servers) = (cfg.clients + cfg.servers() + 1, cfg.servers());
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let cluster = Cluster::new(cfg);
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(cluster.servers().len(), servers);
    let bound = BYTES_PER_NODE * nodes + BYTES_PER_SERVER * servers;
    assert!(
        peak <= bound,
        "Cluster::new for {servers} servers and {nodes} fabric nodes peaked at {peak} bytes, \
         over {BYTES_PER_NODE} B per node plus {BYTES_PER_SERVER} B per server ({bound})",
    );
}
