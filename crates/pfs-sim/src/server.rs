//! A storage server: one device behind one FIFO service queue.

use crate::layout::ServerId;
use netsim::NodeId;
use simrt::{FifoResource, SimDuration, SimTime};
use storage_model::{BoxedDevice, DeviceKind, IoOp};

/// One file server (HServer or SServer) of the hybrid PFS.
pub struct StorageServer {
    id: ServerId,
    node: NodeId,
    device: BoxedDevice,
    queue: FifoResource,
    bytes_read: u64,
    bytes_written: u64,
}

impl StorageServer {
    /// Server `id` on fabric node `node` backed by `device`.
    pub(crate) fn new(id: ServerId, node: NodeId, device: BoxedDevice) -> Self {
        StorageServer {
            id,
            node,
            device,
            queue: FifoResource::new(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Server id.
    pub(crate) fn id(&self) -> ServerId {
        self.id
    }

    /// Fabric node hosting this server.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Backing medium.
    pub(crate) fn kind(&self) -> DeviceKind {
        self.device.kind()
    }

    /// Enqueue a sub-request arriving at `arrival`; returns its completion
    /// time. The device's stateful service model sees sub-requests in
    /// arrival order, so locality effects (HDD head position) follow the
    /// actual serviced sequence. A request arriving after the queue has
    /// drained is flagged as an idle arrival (synchronous writes pay a
    /// rotational miss there — see [`storage_model::Device`]).
    pub(crate) fn serve(&mut self, arrival: SimTime, op: IoOp, offset: u64, len: u64) -> SimTime {
        let idle_arrival = arrival >= self.queue.next_free();
        let service = self.device.service_time_arrival(op, offset, len, idle_arrival);
        match op {
            IoOp::Read => self.bytes_read += len,
            IoOp::Write => self.bytes_written += len,
        }
        self.queue.submit(arrival, service)
    }

    /// Accumulated device busy time — the per-server "I/O time" of Fig. 8.
    pub(crate) fn busy_time(&self) -> SimDuration {
        self.queue.busy_time()
    }

    /// Number of sub-requests served.
    pub(crate) fn served(&self) -> u64 {
        self.queue.served()
    }

    /// Bytes read from the device.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes written to the device.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Clone the backing device (used when wrapping it in a degraded
    /// profile — see [`crate::Cluster::apply_fault_plan`]).
    pub(crate) fn clone_device(&self) -> BoxedDevice {
        self.device.clone_box()
    }

    /// Replace the backing device, keeping queue state and byte counters.
    pub(crate) fn set_device(&mut self, device: BoxedDevice) {
        self.device = device;
    }

    /// Clear queue state and device state (fresh measurement window).
    pub(crate) fn reset(&mut self) {
        self.queue.reset();
        self.device.reset();
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_model::{HddModel, SsdModel};

    fn hserver() -> StorageServer {
        StorageServer::new(ServerId(0), NodeId(0), Box::new(HddModel::sata2_250gb()))
    }

    #[test]
    fn serve_accumulates_busy_time_and_bytes() {
        let mut s = hserver();
        let t1 = s.serve(SimTime::ZERO, IoOp::Write, 0, 4096);
        assert!(t1 > SimTime::ZERO);
        s.serve(SimTime::ZERO, IoOp::Read, 4096, 1000);
        assert_eq!(s.bytes_written(), 4096);
        assert_eq!(s.bytes_read(), 1000);
        assert_eq!(s.served(), 2);
        assert!(s.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn queueing_orders_requests() {
        let mut s = hserver();
        let t1 = s.serve(SimTime::ZERO, IoOp::Read, 0, 1 << 20);
        let t2 = s.serve(SimTime::ZERO, IoOp::Read, 1 << 20, 1 << 20);
        assert!(t2 > t1, "second sub-request queues behind the first");
    }

    #[test]
    fn ssd_server_faster_than_hdd_server_on_random_io() {
        let mut h = hserver();
        let mut s = StorageServer::new(ServerId(1), NodeId(1), Box::new(SsdModel::pcie_100gb()));
        let th = h.serve(SimTime::ZERO, IoOp::Read, 1 << 30, 64 << 10);
        let ts = s.serve(SimTime::ZERO, IoOp::Read, 1 << 30, 64 << 10);
        assert!(th.as_nanos() > 5 * ts.as_nanos());
        assert_eq!(h.kind(), DeviceKind::Hdd);
        assert_eq!(s.kind(), DeviceKind::Ssd);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut s = hserver();
        s.serve(SimTime::ZERO, IoOp::Write, 0, 4096);
        s.reset();
        assert_eq!(s.busy_time(), SimDuration::ZERO);
        assert_eq!(s.bytes_written(), 0);
        assert_eq!(s.served(), 0);
    }
}
