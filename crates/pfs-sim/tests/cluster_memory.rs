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
use simrt::heap;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

/// Bytes allowed per fabric node: its egress and ingress drain times.
const BYTES_PER_NODE: usize = 16;
/// Bytes allowed per server: its device model, its queue and its share
/// of the default layout (254 B at the peak of a 1024-server build).
const BYTES_PER_SERVER: usize = 320;

#[test]
fn cluster_fabric_holds_one_word_pair_per_node() {
    let cfg = ClusterConfig { clients: 4096, ..ClusterConfig::with_ratio(768, 256) };
    let (nodes, servers) = (cfg.clients + cfg.servers() + 1, cfg.servers());
    let (cluster, peak) = heap::peak_during(|| Cluster::new(cfg));
    assert_eq!(cluster.servers().len(), servers);
    let bound = BYTES_PER_NODE * nodes + BYTES_PER_SERVER * servers;
    assert!(
        peak <= bound,
        "Cluster::new for {servers} servers and {nodes} fabric nodes peaked at {peak} bytes, \
         over {BYTES_PER_NODE} B per node plus {BYTES_PER_SERVER} B per server ({bound})",
    );
}
