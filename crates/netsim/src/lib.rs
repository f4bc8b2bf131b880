//! # netsim — interconnect model
//!
//! The paper's cluster connects all nodes with Gigabit Ethernet through a
//! non-blocking switch, and its cost model assumes every server offers the
//! same network bandwidth (the `t` parameter of Table I: unit data network
//! transfer time). We model a star fabric:
//!
//! * every node has one full-duplex NIC with finite bandwidth,
//! * a transfer serializes on the sender's egress and the receiver's
//!   ingress (FIFO), so concurrent flows into one server queue up,
//! * the switch core is non-blocking (no shared backplane contention).
//!
//! This reproduces the client-side and server-side NIC contention that
//! shapes the paper's multi-process results while keeping per-transfer
//! cost O(1).

use simrt::{SimDuration, SimTime};

/// Identifier of a fabric endpoint (client or server node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Link parameters for one NIC.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way message latency, seconds (switch + stack).
    pub latency_s: f64,
    /// Usable bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl LinkParams {
    /// Gigabit Ethernet with TCP/IP overheads: ~117 MB/s goodput, ~50 µs
    /// one-way latency — the paper's interconnect class.
    pub fn gigabit_ethernet() -> Self {
        LinkParams { latency_s: 50.0e-6, bandwidth_bps: 117.0e6 }
    }

    /// Unit data transfer time `t` (seconds per byte) as used in the
    /// paper's cost model.
    pub fn unit_transfer_time(&self) -> f64 {
        1.0 / self.bandwidth_bps
    }

    /// Wire time for `bytes` on an uncontended link.
    pub(crate) fn wire_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.latency_s + bytes as f64 / self.bandwidth_bps)
    }
}

/// Index of a node's egress queue in its NIC state.
const EGRESS: usize = 0;
/// Index of a node's ingress queue in its NIC state.
const INGRESS: usize = 1;

/// A star fabric over `n` nodes.
#[derive(Debug, Clone)]
pub struct NetFabric {
    params: LinkParams,
    /// Per node, when its `[egress, ingress]` NIC queues next drain: a
    /// FIFO link's whole state as far as completion times go.
    nics: Vec<[SimTime; 2]>,
    /// Last `(bytes, wire_time(bytes))` computed: wire time is a pure
    /// function of the request size, and replayed traces repeat a handful
    /// of sizes back to back, so a one-entry memo removes the float
    /// division and `SimDuration` conversion from most transfers. Purely
    /// an evaluation cache — results are bit-identical.
    wire_memo: Option<(u64, SimDuration)>,
    /// Per-node wire-time multiplier (fault injection: a degraded NIC or
    /// congested uplink). `None` until the first degradation, so the
    /// healthy fast path does not even index a vector; a transfer pays
    /// the worse of its two endpoints' factors.
    degrade: Option<Vec<f64>>,
}

impl NetFabric {
    /// Fabric with `nodes` endpoints, all using `params` NICs.
    pub fn new(nodes: usize, params: LinkParams) -> Self {
        NetFabric {
            params,
            nics: vec![[SimTime::ZERO; 2]; nodes],
            wire_memo: None,
            degrade: None,
        }
    }

    /// Stretch every transfer touching `node` by `factor` (≥ 1 is
    /// slower). Factors compose multiplicatively on repeated calls for
    /// one node; a transfer between two degraded endpoints pays the worse
    /// factor, matching a bottleneck link. Degradation survives
    /// [`NetFabric::reset`] — it models hardware, not queue state.
    pub fn degrade_node(&mut self, node: NodeId, factor: f64) {
        assert!(node.0 < self.nodes(), "node out of range");
        assert!(factor.is_finite() && factor > 0.0, "link factor must be positive");
        let n = self.nodes();
        let d = self.degrade.get_or_insert_with(|| vec![1.0; n]);
        d[node.0] *= factor;
    }

    /// Wire-time multiplier currently applied to `node` (1.0 = nominal).
    pub fn node_factor(&self, node: NodeId) -> f64 {
        self.degrade.as_ref().map_or(1.0, |d| d[node.0])
    }

    /// Number of endpoints.
    pub(crate) fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// Transfer `bytes` from `src` to `dst` starting no earlier than `now`.
    /// Returns the completion time. The transfer occupies the sender's
    /// egress and the receiver's ingress for its wire time.
    pub fn transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        assert!(src.0 < self.nodes() && dst.0 < self.nodes(), "node out of range");
        if src == dst {
            // Loopback: memory copy, modelled as free.
            return now;
        }
        let service = match self.wire_memo {
            Some((b, s)) if b == bytes => s,
            _ => {
                let s = self.params.wire_time(bytes);
                self.wire_memo = Some((bytes, s));
                s
            }
        };
        let service = match &self.degrade {
            None => service,
            Some(d) => {
                let factor = d[src.0].max(d[dst.0]);
                if factor == 1.0 {
                    service
                } else {
                    SimDuration::from_secs_f64(service.as_secs_f64() * factor)
                }
            }
        };
        // The flow cannot start until both NIC queues drain; model this by
        // aligning the start on the later of the two and occupying both.
        let start = now.max(self.nics[src.0][EGRESS]).max(self.nics[dst.0][INGRESS]);
        let done = start + service;
        self.nics[src.0][EGRESS] = done;
        self.nics[dst.0][INGRESS] = done;
        done
    }

    /// Clear all queue state (new measurement window).
    pub fn reset(&mut self) {
        self.nics.fill([SimTime::ZERO; 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> NetFabric {
        NetFabric::new(n, LinkParams::gigabit_ethernet())
    }

    #[test]
    fn single_transfer_is_latency_plus_wire_time() {
        let mut f = fabric(2);
        let done = f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 117_000_000);
        // 1 s of wire time + 50 µs latency.
        assert!((done.as_secs_f64() - 1.000050).abs() < 1e-6);
    }

    #[test]
    fn loopback_is_free() {
        let mut f = fabric(2);
        let t = SimTime::from_nanos(123);
        assert_eq!(f.transfer(t, NodeId(1), NodeId(1), 1 << 30), t);
    }

    #[test]
    fn flows_into_same_destination_serialize() {
        let mut f = fabric(3);
        let bytes = 11_700_000; // 0.1 s wire time
        let d1 = f.transfer(SimTime::ZERO, NodeId(0), NodeId(2), bytes);
        let d2 = f.transfer(SimTime::ZERO, NodeId(1), NodeId(2), bytes);
        assert!(d2 > d1, "second flow must queue behind the first");
        assert!((d2.as_secs_f64() - 2.0 * (0.1 + 50.0e-6)).abs() < 1e-6);
    }

    #[test]
    fn flows_to_distinct_destinations_run_in_parallel() {
        let mut f = fabric(3);
        let bytes = 11_700_000;
        let d1 = f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        // Different source and destination: no shared NIC, no queueing.
        let mut g = fabric(3);
        let solo = g.transfer(SimTime::ZERO, NodeId(2), NodeId(1), bytes);
        let d2 = f.transfer(SimTime::ZERO, NodeId(2), NodeId(1), bytes);
        // d2 shares only the ingress of node 1 with d1 — it queues there.
        assert!(d2 > solo);
        assert_eq!(d1.as_nanos(), solo.as_nanos());
    }

    #[test]
    fn distinct_pairs_do_not_interact() {
        let mut f = fabric(4);
        let bytes = 11_700_000;
        let d1 = f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let d2 = f.transfer(SimTime::ZERO, NodeId(2), NodeId(3), bytes);
        assert_eq!(d1.as_nanos(), d2.as_nanos());
    }

    #[test]
    fn transfers_occupy_sender_egress_and_receiver_ingress() {
        let bytes = 117_000_000; // 1 s of wire time
        let solo = fabric(2).transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let queued = SimTime::from_nanos(2 * solo.as_nanos());
        let mut f = fabric(3);
        f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        // Each probe runs on a copy, so probes do not queue behind each other.
        let probe = |f: &NetFabric, src, dst| {
            f.clone().transfer(SimTime::ZERO, NodeId(src), NodeId(dst), bytes)
        };
        assert_eq!(probe(&f, 0, 2), queued, "node 0's egress is busy");
        assert_eq!(probe(&f, 2, 1), queued, "node 1's ingress is busy");
        assert_eq!(probe(&f, 1, 0), solo, "node 0's ingress and node 1's egress are idle");
        f.reset();
        assert_eq!(probe(&f, 0, 1), solo, "reset drains every queue");
    }

    #[test]
    fn memoized_wire_time_is_bit_identical() {
        // Alternating sizes defeat the one-entry memo on every call; the
        // completions must still match a fresh fabric computing each wire
        // time from scratch, nanosecond for nanosecond.
        let mut warm = fabric(2);
        for i in 0..32u64 {
            let bytes = if i % 3 == 0 { 131_072 } else { 16 };
            let mut cold = fabric(2);
            let solo = cold.transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
            let start = warm.nics[0][EGRESS].max(warm.nics[1][INGRESS]);
            let queued = warm.transfer(start, NodeId(0), NodeId(1), bytes);
            assert_eq!(
                (queued.as_nanos() - start.as_nanos()),
                solo.as_nanos(),
                "iteration {i}"
            );
        }
    }

    #[test]
    fn degraded_node_stretches_its_transfers() {
        let mut f = fabric(3);
        f.degrade_node(NodeId(1), 4.0);
        let slow = f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 11_700_000);
        let fast = f.transfer(slow, NodeId(0), NodeId(2), 11_700_000);
        let wire = 0.1 + 50.0e-6;
        assert!((slow.as_secs_f64() - 4.0 * wire).abs() < 1e-6, "{slow}");
        assert!(((fast.as_secs_f64() - slow.as_secs_f64()) - wire).abs() < 1e-6);
        assert_eq!(f.node_factor(NodeId(1)), 4.0);
        assert_eq!(f.node_factor(NodeId(0)), 1.0);
    }

    #[test]
    fn degradation_composes_and_takes_the_worse_endpoint() {
        let mut f = fabric(2);
        f.degrade_node(NodeId(0), 2.0);
        f.degrade_node(NodeId(0), 1.5);
        f.degrade_node(NodeId(1), 6.0);
        assert!((f.node_factor(NodeId(0)) - 3.0).abs() < 1e-12);
        let done = f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 11_700_000);
        assert!((done.as_secs_f64() - 6.0 * (0.1 + 50.0e-6)).abs() < 1e-6);
    }

    #[test]
    fn unit_degradation_is_bit_identical() {
        let mut plain = fabric(2);
        let mut degraded = fabric(2);
        degraded.degrade_node(NodeId(0), 1.0);
        for i in 1..8u64 {
            let a = plain.transfer(SimTime::ZERO, NodeId(0), NodeId(1), i * 12345);
            let b = degraded.transfer(SimTime::ZERO, NodeId(0), NodeId(1), i * 12345);
            assert_eq!(a.as_nanos(), b.as_nanos(), "transfer {i}");
        }
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_node_panics() {
        let mut f = fabric(2);
        f.transfer(SimTime::ZERO, NodeId(0), NodeId(9), 1);
    }

    #[test]
    fn zero_byte_transfer_costs_latency_only() {
        let mut f = fabric(2);
        let done = f.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 0);
        assert!((done.as_secs_f64() - 50.0e-6).abs() < 1e-12);
    }

    #[test]
    fn unit_transfer_time_matches_bandwidth() {
        let p = LinkParams::gigabit_ethernet();
        assert!((p.unit_transfer_time() - 1.0 / 117.0e6).abs() < 1e-18);
    }
}
