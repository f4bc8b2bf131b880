//! Straggler wrapper: a device whose every service time is stretched by a
//! constant factor.
//!
//! This is how a [`simrt::fault::FaultKind::Slowdown`] fault materializes
//! on a storage server: the inner model keeps its full state machine
//! (head position, GC pressure, memos), and only the final duration is
//! scaled. A factor of exactly `1.0` never wraps — callers are expected
//! to skip the wrapper then, preserving the bit-identical fault-free
//! path, but the scaling itself is also exact for `1.0` inputs.

use crate::device::{BoxedDevice, Device, DeviceKind, IoOp};
use simrt::SimDuration;

/// A device slowed down by a constant multiplicative factor.
pub struct ScaledDevice {
    inner: BoxedDevice,
    factor: f64,
}

impl ScaledDevice {
    /// Wrap `inner`, stretching every service time by `factor` (> 0).
    pub fn new(inner: BoxedDevice, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "slowdown factor must be positive");
        ScaledDevice { inner, factor }
    }

    fn scale(&self, d: SimDuration) -> SimDuration {
        if self.factor == 1.0 {
            return d;
        }
        SimDuration::from_secs_f64(d.as_secs_f64() * self.factor)
    }
}

impl Device for ScaledDevice {
    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn service_time(&mut self, op: IoOp, offset: u64, len: u64) -> SimDuration {
        let d = self.inner.service_time(op, offset, len);
        self.scale(d)
    }

    fn service_time_arrival(
        &mut self,
        op: IoOp,
        offset: u64,
        len: u64,
        idle_arrival: bool,
    ) -> SimDuration {
        let d = self.inner.service_time_arrival(op, offset, len, idle_arrival);
        self.scale(d)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> BoxedDevice {
        Box::new(ScaledDevice { inner: self.inner.clone_box(), factor: self.factor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::HddModel;
    use crate::ssd::SsdModel;

    #[test]
    fn scales_service_times_by_the_factor() {
        let mut plain = SsdModel::pcie_100gb();
        let mut slow = ScaledDevice::new(Box::new(SsdModel::pcie_100gb()), 3.0);
        let a = plain.service_time(IoOp::Read, 0, 65536).as_secs_f64();
        let b = slow.service_time(IoOp::Read, 0, 65536).as_secs_f64();
        assert!((b - 3.0 * a).abs() < 1e-9, "a={a} b={b}");
        assert_eq!(slow.kind(), DeviceKind::Ssd);
        assert_eq!(slow.factor, 3.0);
    }

    #[test]
    fn unit_factor_is_bit_identical() {
        let mut plain = HddModel::sata2_250gb();
        let mut wrapped = ScaledDevice::new(Box::new(HddModel::sata2_250gb()), 1.0);
        for i in 0..16u64 {
            let a = plain.service_time_arrival(IoOp::Write, i * 999_331, 8192, i % 3 == 0);
            let b = wrapped.service_time_arrival(IoOp::Write, i * 999_331, 8192, i % 3 == 0);
            assert_eq!(a.as_nanos(), b.as_nanos(), "request {i}");
        }
    }

    #[test]
    fn inner_state_machine_survives_wrapping() {
        // Sequential continuation must still be recognized by the inner
        // HDD head tracking: the second request pays no positioning.
        let mut slow = ScaledDevice::new(Box::new(HddModel::sata2_250gb()), 2.0);
        slow.service_time(IoOp::Read, 0, 65536);
        let seq = slow.service_time(IoOp::Read, 65536, 65536).as_secs_f64();
        assert!((seq - 2.0 * 65536.0 / 90.0e6).abs() < 1e-9);
    }

    #[test]
    fn clone_box_preserves_factor_and_state() {
        let mut slow = ScaledDevice::new(Box::new(HddModel::sata2_250gb()), 4.0);
        slow.service_time(IoOp::Read, 0, 65536);
        let mut cloned = slow.clone_box();
        let a = slow.service_time(IoOp::Read, 65536, 4096);
        let b = cloned.service_time(IoOp::Read, 65536, 4096);
        assert_eq!(a.as_nanos(), b.as_nanos());
    }

    #[test]
    #[should_panic(expected = "slowdown factor must be positive")]
    fn zero_factor_rejected() {
        ScaledDevice::new(Box::new(SsdModel::pcie_100gb()), 0.0);
    }
}
