//! The device abstraction shared by HDD and SSD models.

use simrt::SimDuration;

/// Read or write. The distinction matters on SSDs (asymmetric performance)
/// and feeds the paper's split `(α_sr, β_sr)` / `(α_sw, β_sw)` parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Data read.
    Read,
    /// Data write.
    Write,
}

impl IoOp {
    /// Short lowercase name ("read"/"write") for reports.
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
        }
    }
}

/// What physical medium backs a device — the H/S distinction of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Rotating hard disk (HServer backing store).
    Hdd,
    /// Flash SSD (SServer backing store).
    Ssd,
}

/// A storage device that can estimate the service time of one request.
///
/// Implementations are *stateful*: an HDD remembers its head position so
/// sequential runs avoid seeks, and an SSD tracks write pressure. Service
/// times therefore depend on request order, as on real hardware.
pub trait Device: Send {
    /// Medium of this device.
    fn kind(&self) -> DeviceKind;

    /// Service time for one request of `len` bytes at byte `offset`.
    /// Advances internal state (head position, pressure).
    fn service_time(&mut self, op: IoOp, offset: u64, len: u64) -> SimDuration;

    /// Service time with arrival context: `idle_arrival` is true when the
    /// device had drained its queue before this request arrived.
    ///
    /// Matters for disks doing synchronous writes: a write that continues
    /// a sequential run *back-to-back* streams at media rate, but after an
    /// idle gap the head has rotated past the target sector and the write
    /// waits for the platter to come around again (the classic
    /// sync-sequential-write rotational miss). Electronic media ignore
    /// arrival context, so the default forwards to [`Device::service_time`].
    fn service_time_arrival(
        &mut self,
        op: IoOp,
        offset: u64,
        len: u64,
        idle_arrival: bool,
    ) -> SimDuration {
        let _ = idle_arrival;
        self.service_time(op, offset, len)
    }

    /// Reset internal state to power-on (head parked, pressure drained).
    fn reset(&mut self);

    /// Clone into a boxed trait object (devices are replicated per server).
    fn clone_box(&self) -> BoxedDevice;
}

/// Owned dynamic device handle.
pub type BoxedDevice = Box<dyn Device>;

impl Clone for BoxedDevice {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(IoOp::Read.name(), "read");
        assert_eq!(IoOp::Write.name(), "write");
    }
}
