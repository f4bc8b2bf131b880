//! Flash SSD service-time model.
//!
//! Calibrated to the paper's PCI-E X4 100 GB SSDs (Fusion-io era). The
//! properties MHA relies on:
//!
//! * startup latency is tiny compared to an HDD seek (tens of µs),
//! * streaming rates are several times the HDD's,
//! * **reads and writes differ**: writes have higher startup cost and a
//!   lower sustained rate, and sustained write bursts periodically stall
//!   for garbage collection.
//!
//! Small requests cannot fill all flash channels, so the effective
//! transfer rate ramps up with request size until `channel_saturation`.

use crate::device::{BoxedDevice, Device, DeviceKind, IoOp};
use simrt::SimDuration;

/// SSD model parameters.
#[derive(Debug, Clone)]
pub struct SsdParams {
    /// Read startup latency, seconds.
    pub read_startup_s: f64,
    /// Write startup latency, seconds.
    pub write_startup_s: f64,
    /// Peak read transfer rate, bytes/second (all channels busy).
    pub read_bps: f64,
    /// Peak write transfer rate, bytes/second.
    pub write_bps: f64,
    /// Request size at which all channels are saturated, bytes.
    pub channel_saturation: u64,
    /// Fraction of peak rate a single-page request achieves.
    pub min_rate_frac: f64,
    /// Bytes of writes between garbage-collection stalls.
    pub gc_interval_bytes: u64,
    /// Length of one garbage-collection stall, seconds.
    pub gc_pause_s: f64,
}

impl SsdParams {
    /// The paper's testbed SSD: PCI-E X4 100 GB card.
    pub fn pcie_100gb() -> Self {
        SsdParams {
            read_startup_s: 60.0e-6,
            write_startup_s: 150.0e-6,
            read_bps: 700.0e6,
            write_bps: 450.0e6,
            channel_saturation: 256 * 1024,
            min_rate_frac: 0.25,
            gc_interval_bytes: 512 << 20,
            gc_pause_s: 2.0e-3,
        }
    }

    /// The same card after heavy wear: the write cliff. Sustained write
    /// rate collapses, write startups stretch, and garbage collection
    /// fires an order of magnitude more often with longer stalls. Read
    /// behaviour is nearly untouched — which is exactly what makes a worn
    /// SServer treacherous for write-heavy placements.
    pub fn worn_pcie_100gb() -> Self {
        SsdParams {
            write_startup_s: 450.0e-6,
            write_bps: 150.0e6,
            gc_interval_bytes: 48 << 20,
            gc_pause_s: 12.0e-3,
            ..Self::pcie_100gb()
        }
    }
}

/// Stateful SSD: tracks write volume for periodic GC stalls.
#[derive(Debug, Clone)]
pub struct SsdModel {
    params: SsdParams,
    written_since_gc: u64,
    /// Last `(is_write, len, base seconds, base service)` computed: the
    /// pre-GC service time is a pure function of `(op, len)`, and replayed
    /// traces repeat sizes back to back. Requests crossing a GC interval
    /// extend the memoized base exactly as the uncached code would.
    /// Purely an evaluation cache — results are bit-identical.
    memo: Option<(bool, u64, f64, SimDuration)>,
}

impl SsdModel {
    /// New SSD with the given parameters.
    pub fn new(params: SsdParams) -> Self {
        SsdModel { params, written_since_gc: 0, memo: None }
    }

    /// Convenience: the calibrated testbed SSD.
    pub fn pcie_100gb() -> Self {
        Self::new(SsdParams::pcie_100gb())
    }

    /// Effective transfer rate for a request of `len` bytes: ramps from
    /// `min_rate_frac * peak` (one channel) to `peak` at saturation.
    fn effective_rate(&self, peak: f64, len: u64) -> f64 {
        let p = &self.params;
        if len >= p.channel_saturation {
            return peak;
        }
        let fill = len as f64 / p.channel_saturation as f64;
        peak * (p.min_rate_frac + (1.0 - p.min_rate_frac) * fill)
    }
}

impl Device for SsdModel {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Ssd
    }

    fn service_time(&mut self, op: IoOp, _offset: u64, len: u64) -> SimDuration {
        let is_write = op == IoOp::Write;
        let (base, service) = match self.memo {
            Some((w, l, base, service)) if w == is_write && l == len => (base, service),
            _ => {
                let p = &self.params;
                let (startup, peak) = match op {
                    IoOp::Read => (p.read_startup_s, p.read_bps),
                    IoOp::Write => (p.write_startup_s, p.write_bps),
                };
                let rate = self.effective_rate(peak, len.max(1));
                let base = startup + len as f64 / rate;
                let service = SimDuration::from_secs_f64(base);
                self.memo = Some((is_write, len, base, service));
                (base, service)
            }
        };
        if is_write {
            self.written_since_gc += len;
            if self.written_since_gc >= self.params.gc_interval_bytes {
                // Emit one stall per full GC interval crossed by this request.
                let mut t = base;
                while self.written_since_gc >= self.params.gc_interval_bytes {
                    self.written_since_gc -= self.params.gc_interval_bytes;
                    t += self.params.gc_pause_s;
                }
                return SimDuration::from_secs_f64(t);
            }
        }
        service
    }

    fn reset(&mut self) {
        self.written_since_gc = 0;
    }

    fn clone_box(&self) -> BoxedDevice {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(m: &mut SsdModel, op: IoOp, len: u64) -> f64 {
        m.service_time(op, 0, len).as_secs_f64()
    }

    #[test]
    fn reads_are_cheaper_than_writes() {
        let mut m = SsdModel::pcie_100gb();
        let r = svc(&mut m, IoOp::Read, 65536);
        let w = svc(&mut m, IoOp::Write, 65536);
        assert!(r < w, "read={r} write={w}");
    }

    #[test]
    fn startup_dominates_tiny_requests() {
        let mut m = SsdModel::pcie_100gb();
        let t = svc(&mut m, IoOp::Read, 16);
        assert!((60.0e-6..100.0e-6).contains(&t));
    }

    #[test]
    fn large_requests_hit_peak_rate() {
        let mut m = SsdModel::pcie_100gb();
        let len = 4 << 20;
        let t = svc(&mut m, IoOp::Read, len);
        let expect = 60.0e-6 + len as f64 / 700.0e6;
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn small_requests_run_below_peak() {
        let m = SsdModel::pcie_100gb();
        let r4k = m.effective_rate(700.0e6, 4096);
        assert!(r4k < 700.0e6 * 0.3, "4 KiB should use ~one channel");
        let rsat = m.effective_rate(700.0e6, 256 * 1024);
        assert_eq!(rsat, 700.0e6);
    }

    #[test]
    fn gc_stall_fires_each_interval() {
        let mut m = SsdModel::pcie_100gb();
        let chunk = 64 << 20;
        let mut stalls = 0;
        // Write 2 GiB in 64 MiB chunks; expect 4 stalls at the 512 MiB interval.
        let base = svc(&mut SsdModel::pcie_100gb(), IoOp::Write, chunk);
        for _ in 0..32 {
            let t = svc(&mut m, IoOp::Write, chunk);
            if t > base + 1.0e-3 {
                stalls += 1;
            }
        }
        assert_eq!(stalls, 4);
    }

    #[test]
    fn memo_hits_match_fresh_computation() {
        // Warm model with repeated (op, len) pairs vs a cold model in the
        // same GC state: identical charges, including across op flips.
        let mut warm = SsdModel::pcie_100gb();
        for i in 0..24u64 {
            let op = if i % 4 == 3 { IoOp::Read } else { IoOp::Write };
            let len = if i % 2 == 0 { 131_072 } else { 16_384 };
            let mut cold = SsdModel::pcie_100gb();
            cold.written_since_gc = warm.written_since_gc;
            let a = warm.service_time(op, 0, len);
            let b = cold.service_time(op, 0, len);
            assert_eq!(a.as_nanos(), b.as_nanos(), "request {i}");
        }
    }

    #[test]
    fn worn_ssd_hits_the_write_cliff_but_reads_hold_up() {
        let mut worn = SsdModel::new(SsdParams::worn_pcie_100gb());
        let mut fresh = SsdModel::pcie_100gb();
        let w_worn = svc(&mut worn, IoOp::Write, 1 << 20);
        let w_fresh = svc(&mut fresh, IoOp::Write, 1 << 20);
        assert!(w_worn > 2.0 * w_fresh, "worn={w_worn} fresh={w_fresh}");
        let r_worn = svc(&mut worn, IoOp::Read, 1 << 20);
        let r_fresh = svc(&mut fresh, IoOp::Read, 1 << 20);
        assert!((r_worn - r_fresh).abs() < 1e-12, "reads unaffected");
    }

    #[test]
    fn reset_drains_write_pressure() {
        let mut m = SsdModel::pcie_100gb();
        svc(&mut m, IoOp::Write, 500 << 20);
        m.reset();
        let t = svc(&mut m, IoOp::Write, 1 << 20);
        let fresh = svc(&mut SsdModel::pcie_100gb(), IoOp::Write, 1 << 20);
        assert!((t - fresh).abs() < 1e-12);
    }

    #[test]
    fn ssd_random_small_io_beats_hdd_by_an_order_of_magnitude() {
        use crate::hdd::HddModel;
        let mut ssd = SsdModel::pcie_100gb();
        let mut hdd = HddModel::sata2_250gb();
        let s = ssd.service_time(IoOp::Read, 0, 4096).as_secs_f64();
        // Random 4 KiB on a cold disk.
        let h = hdd.service_time(IoOp::Read, 0, 4096).as_secs_f64();
        assert!(h / s > 10.0, "hdd={h} ssd={s}");
    }
}
