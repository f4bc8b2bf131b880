//! Rotating-disk service-time model.
//!
//! Calibrated to the paper's testbed disks (250 GB SATA-II, 7200 rpm):
//! ~8.5 ms average seek, ~4.17 ms average rotational latency, ~90 MB/s
//! sustained streaming. The model is positional: a request landing where
//! the head already is streams at full rate; a request elsewhere pays a
//! distance-dependent seek plus half a revolution on average.

use crate::device::{BoxedDevice, Device, DeviceKind, IoOp};
use simrt::SimDuration;

/// HDD model parameters.
#[derive(Debug, Clone)]
pub struct HddParams {
    /// Capacity in bytes (seek distance is normalized by this).
    pub capacity: u64,
    /// Track-to-track (minimum) seek, seconds.
    pub seek_min_s: f64,
    /// Average seek, seconds.
    pub seek_avg_s: f64,
    /// Full-stroke (maximum) seek, seconds.
    pub seek_max_s: f64,
    /// Average rotational latency, seconds (half a revolution).
    pub rot_latency_s: f64,
    /// Sustained media transfer rate, bytes/second.
    pub transfer_bps: f64,
    /// Byte distance below which a move counts as a near-track reposition
    /// (pays `seek_min_s` only, no rotational wait).
    pub near_window: u64,
    /// Rotational miss charged to a *synchronous write* that arrives at an
    /// idle disk, even when it continues a sequential run: with the write
    /// cache disabled (as on PFS data servers) the head has rotated past
    /// the target sector during the gap and waits for the platter to come
    /// around. Back-to-back queued writes stream and skip this. Reads are
    /// exempt (drive read-ahead covers sequential gaps).
    pub idle_write_miss_s: f64,
    /// Fraction of 4 MiB block groups remapped to the spare area (grown
    /// defects on an aged disk). `0.0` — the pristine default — disables
    /// the remap path entirely, keeping service times bit-identical to a
    /// model without these fields. Which block groups are remapped is a
    /// deterministic hash of the group index.
    pub remap_frac: f64,
    /// Extra latency an access to a remapped block group pays (head
    /// excursion to the spare area and back), seconds.
    pub remap_latency_s: f64,
}

impl HddParams {
    /// The paper's testbed disk: 250 GB SATA-II, 7200 rpm class.
    pub fn sata2_250gb() -> Self {
        HddParams {
            capacity: 250 * 1_000_000_000,
            seek_min_s: 0.8e-3,
            seek_avg_s: 8.5e-3,
            seek_max_s: 18.0e-3,
            rot_latency_s: 4.17e-3,
            transfer_bps: 90.0e6,
            near_window: 1 << 20,
            idle_write_miss_s: 4.17e-3,
            remap_frac: 0.0,
            remap_latency_s: 0.0,
        }
    }

    /// The same disk aged badly: 6% of block groups remapped to the spare
    /// area, each access there paying roughly a full-stroke excursion —
    /// the "HDD remap latency" degraded profile.
    pub fn aged_sata2_250gb() -> Self {
        HddParams {
            remap_frac: 0.06,
            remap_latency_s: 22.0e-3,
            ..Self::sata2_250gb()
        }
    }
}

/// Stateful HDD: remembers head position between requests.
#[derive(Debug, Clone)]
pub struct HddModel {
    params: HddParams,
    /// Byte address one past the end of the last serviced request, or
    /// `None` when the head is parked (power-on state).
    head: Option<u64>,
    /// Last `(positioning + miss bits, len, service)` computed. Replay
    /// streams are dominated by sequential same-size requests (zero
    /// positioning, repeated lengths), so a one-entry memo skips the float
    /// pipeline on most calls; the head update still happens every call.
    /// Purely an evaluation cache — results are bit-identical.
    memo: Option<(u64, u64, SimDuration)>,
}

impl HddModel {
    /// New disk with the given parameters, head parked.
    pub fn new(params: HddParams) -> Self {
        HddModel { params, head: None, memo: None }
    }

    /// Convenience: the calibrated testbed disk.
    pub fn sata2_250gb() -> Self {
        Self::new(HddParams::sata2_250gb())
    }

    /// Seek time for a head move of `dist` bytes.
    ///
    /// Uses the classic square-root seek curve: short moves cost the
    /// track-to-track minimum, the average distance (1/3 stroke) costs
    /// `seek_avg_s`, and a full stroke costs `seek_max_s`.
    fn seek_time(&self, dist: u64) -> f64 {
        let p = &self.params;
        if dist == 0 {
            return 0.0;
        }
        if dist <= p.near_window {
            return p.seek_min_s;
        }
        let frac = (dist as f64 / p.capacity as f64).min(1.0);
        // sqrt curve through (1/3, seek_avg) and (1, seek_max):
        // seek(frac) = a + b*sqrt(frac), solve a, b from the two anchors.
        let s3 = (1.0f64 / 3.0).sqrt();
        let b = (p.seek_max_s - p.seek_avg_s) / (1.0 - s3);
        let a = p.seek_max_s - b;
        (a + b * frac.sqrt()).max(p.seek_min_s)
    }

    /// Is the 4 MiB block group holding `offset` remapped to the spare
    /// area? Deterministic golden-ratio hash of the group index compared
    /// against `remap_frac`, so the same offsets are remapped run to run.
    fn remapped(&self, offset: u64) -> bool {
        let group = offset >> 22;
        let hash = group.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        (hash as f64 / (1u64 << 53) as f64) < self.params.remap_frac
    }
}

impl Device for HddModel {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Hdd
    }

    fn service_time(&mut self, op: IoOp, offset: u64, len: u64) -> SimDuration {
        // No arrival context: assume back-to-back arrival (no idle miss).
        self.service_time_arrival(op, offset, len, false)
    }

    fn service_time_arrival(
        &mut self,
        op: IoOp,
        offset: u64,
        len: u64,
        idle_arrival: bool,
    ) -> SimDuration {
        let p = &self.params;
        // (positioning cost, does it already include a rotational wait?)
        let (positioning, rot_included) = match self.head {
            // Sequential continuation: the head is already there.
            Some(h) if h == offset => (0.0, false),
            // Known position: distance-dependent seek + rotational wait
            // (skip the rotational wait for a near-track nudge).
            Some(h) => {
                let dist = h.abs_diff(offset);
                let seek = self.seek_time(dist);
                if dist <= p.near_window {
                    (seek, false)
                } else {
                    (seek + p.rot_latency_s, true)
                }
            }
            // Parked head: average positioning cost.
            None => (p.seek_avg_s + p.rot_latency_s, true),
        };
        // Synchronous write arriving at an idle disk: the rotational
        // window was missed during the gap (see `idle_write_miss_s`).
        let miss = if idle_arrival && op == IoOp::Write && !rot_included {
            p.idle_write_miss_s
        } else {
            0.0
        };
        let remap = if p.remap_frac > 0.0 && self.remapped(offset) {
            p.remap_latency_s
        } else {
            0.0
        };
        self.head = Some(offset + len);
        let fixed = positioning + miss + remap;
        match self.memo {
            Some((f, l, s)) if f == fixed.to_bits() && l == len => s,
            _ => {
                let transfer = len as f64 / self.params.transfer_bps;
                let s = SimDuration::from_secs_f64(fixed + transfer);
                self.memo = Some((fixed.to_bits(), len, s));
                s
            }
        }
    }

    fn reset(&mut self) {
        self.head = None;
    }

    fn clone_box(&self) -> BoxedDevice {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(m: &mut HddModel, off: u64, len: u64) -> f64 {
        m.service_time(IoOp::Read, off, len).as_secs_f64()
    }

    #[test]
    fn first_access_pays_average_positioning() {
        let mut m = HddModel::sata2_250gb();
        let t = svc(&mut m, 0, 0);
        assert!((t - (8.5e-3 + 4.17e-3)).abs() < 1e-9);
    }

    #[test]
    fn sequential_run_streams() {
        let mut m = HddModel::sata2_250gb();
        svc(&mut m, 0, 65536); // position the head
        let t = svc(&mut m, 65536, 65536);
        // Pure transfer: 64 KiB / 90 MB/s ≈ 0.728 ms, no positioning.
        let expect = 65536.0 / 90.0e6;
        assert!((t - expect).abs() < 1e-9, "t={t} expect={expect}");
    }

    #[test]
    fn random_access_is_much_slower_than_sequential() {
        let mut m = HddModel::sata2_250gb();
        svc(&mut m, 0, 4096);
        let seq = svc(&mut m, 4096, 4096);
        let rnd = svc(&mut m, 100_000_000_000, 4096);
        assert!(rnd > 50.0 * seq, "rnd={rnd} seq={seq}");
    }

    #[test]
    fn seek_grows_with_distance() {
        let m = HddModel::sata2_250gb();
        let near = m.seek_time(10 << 20);
        let mid = m.seek_time(m.params.capacity / 3);
        let far = m.seek_time(m.params.capacity);
        assert!(near < mid && mid < far);
        assert!((mid - m.params.seek_avg_s).abs() < 1e-9);
        assert!((far - m.params.seek_max_s).abs() < 1e-9);
    }

    #[test]
    fn near_window_pays_minimum_seek_only() {
        let mut m = HddModel::sata2_250gb();
        svc(&mut m, 0, 4096);
        let t = svc(&mut m, 4096 + 1000, 4096); // 1000 B gap: near-track
        let expect = m.params.seek_min_s + 4096.0 / m.params.transfer_bps;
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn reset_parks_the_head() {
        let mut m = HddModel::sata2_250gb();
        svc(&mut m, 0, 4096);
        m.reset();
        let t = svc(&mut m, 4096, 0);
        assert!((t - (8.5e-3 + 4.17e-3)).abs() < 1e-9);
    }

    #[test]
    fn memo_hits_match_fresh_computation() {
        // A warm model (memo populated by repeated same-shape requests)
        // must charge exactly what a cold model in the same head state
        // computes from scratch.
        let mut warm = HddModel::sata2_250gb();
        warm.service_time(IoOp::Write, 0, 65536);
        for i in 1..16u64 {
            let mut cold = HddModel::sata2_250gb();
            cold.head = warm.head;
            let (off, len) = if i % 5 == 0 { (i << 30, 4096) } else { (i * 65536, 65536) };
            let a = warm.service_time(IoOp::Write, off, len);
            let b = cold.service_time(IoOp::Write, off, len);
            assert_eq!(a.as_nanos(), b.as_nanos(), "request {i}");
        }
    }

    #[test]
    fn transfer_scales_linearly() {
        let mut m = HddModel::sata2_250gb();
        svc(&mut m, 0, 0);
        let t1 = svc(&mut m, 0, 1 << 20);
        let t2 = svc(&mut m, 1 << 20, 2 << 20);
        assert!((t2 / t1 - 2.0).abs() < 1e-6);
    }
}

#[cfg(test)]
mod idle_miss_tests {
    use super::*;

    #[test]
    fn idle_sequential_write_pays_rotational_miss() {
        let mut m = HddModel::sata2_250gb();
        m.service_time(IoOp::Write, 0, 65536);
        let queued = m
            .clone()
            .service_time_arrival(IoOp::Write, 65536, 65536, false)
            .as_secs_f64();
        let idle = m
            .service_time_arrival(IoOp::Write, 65536, 65536, true)
            .as_secs_f64();
        assert!((idle - queued - 4.17e-3).abs() < 1e-9, "idle={idle} queued={queued}");
    }

    #[test]
    fn idle_sequential_read_is_free_of_miss() {
        let mut m = HddModel::sata2_250gb();
        m.service_time(IoOp::Read, 0, 65536);
        let idle = m
            .service_time_arrival(IoOp::Read, 65536, 65536, true)
            .as_secs_f64();
        assert!((idle - 65536.0 / 90.0e6).abs() < 1e-9, "read-ahead covers the gap");
    }

    #[test]
    fn aged_disk_charges_remap_latency_deterministically() {
        let mut aged = HddModel::new(HddParams::aged_sata2_250gb());
        let mut fresh = HddModel::sata2_250gb();
        // Scan block groups until one remapped group shows up; its
        // surcharge must be exactly `remap_latency_s` over the pristine
        // disk in the same head state.
        let mut hit = false;
        for g in 0..256u64 {
            let off = g << 22;
            aged.reset();
            fresh.reset();
            let a = aged.service_time(IoOp::Read, off, 4096).as_secs_f64();
            let f = fresh.service_time(IoOp::Read, off, 4096).as_secs_f64();
            if a > f {
                assert!((a - f - 22.0e-3).abs() < 1e-9, "off={off} a={a} f={f}");
                hit = true;
            }
        }
        assert!(hit, "6% of 256 groups must include a remapped one");
    }

    #[test]
    fn zero_remap_frac_is_bit_identical_to_seed_params() {
        // The pristine default must not even perturb float rounding.
        let mut with_fields = HddModel::new(HddParams::sata2_250gb());
        let mut probe = HddModel::sata2_250gb();
        for g in 0..64u64 {
            let a = with_fields.service_time(IoOp::Write, g * 123_457, 8192);
            let b = probe.service_time(IoOp::Write, g * 123_457, 8192);
            assert_eq!(a.as_nanos(), b.as_nanos());
        }
    }

    #[test]
    fn far_seek_never_double_charges_rotation() {
        let mut a = HddModel::sata2_250gb();
        a.service_time(IoOp::Write, 0, 4096);
        let mut b = a.clone();
        let idle = a
            .service_time_arrival(IoOp::Write, 100_000_000_000, 4096, true)
            .as_secs_f64();
        let queued = b
            .service_time_arrival(IoOp::Write, 100_000_000_000, 4096, false)
            .as_secs_f64();
        assert!((idle - queued).abs() < 1e-12, "seek already includes rotation");
    }
}
