//! Calibration of the paper's linear cost-model parameters from devices.
//!
//! The MHA cost model (Table I of the paper) describes each server type by
//! an affine service time `α + β·bytes`. Real devices are not exactly
//! affine (HDD seeks depend on locality, SSD rates ramp with size), so the
//! paper measures α and β empirically. We do the same: probe a device with
//! a spread of request sizes at random offsets and least-squares fit a
//! line. `mha-core` then builds its `CostParams` equivalent from these
//! fits — the model sees only the fit, never the simulator internals,
//! preserving the model/ground-truth separation.

use crate::device::{Device, IoOp};
use simrt::SeedSeq;

/// Result of an affine fit `t(bytes) ≈ alpha + beta * bytes`.
#[derive(Debug, Clone, Copy)]
pub struct LinearFit {
    /// Startup time, seconds.
    pub alpha: f64,
    /// Per-byte transfer time, seconds/byte.
    pub beta: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

/// Probe `device` with `reps` requests of each size in `sizes` at uniformly
/// random offsets within `extent` bytes, and least-squares fit
/// `time = alpha + beta * size`.
///
/// Random offsets make HDD probes include worst-case seek costs.
pub fn calibrate(
    device: &mut dyn Device,
    op: IoOp,
    sizes: &[u64],
    reps: usize,
    extent: u64,
    seed: SeedSeq,
) -> LinearFit {
    calibrate_with_locality(device, op, sizes, reps, extent, seed, 0.0)
}

/// [`calibrate`] with a locality mix: each probe request continues the
/// previous one sequentially with probability `seq_frac`, otherwise it
/// jumps to a random offset.
///
/// A data server under a parallel file system sees neither pure random
/// nor pure sequential I/O — striped requests produce runs of contiguous
/// stripe units interleaved with jumps. Measuring `α` under a realistic
/// mix (the paper measures its servers under live OrangeFS load) keeps
/// the cost model from over-pricing HServer startups and excluding HDDs
/// from layouts they can actually help.
pub fn calibrate_with_locality(
    device: &mut dyn Device,
    op: IoOp,
    sizes: &[u64],
    reps: usize,
    extent: u64,
    seed: SeedSeq,
    seq_frac: f64,
) -> LinearFit {
    assert!(!sizes.is_empty() && reps > 0, "calibration needs samples");
    let mut rng = seed.derive("calibrate").rng();
    let mut xs: Vec<f64> = Vec::with_capacity(sizes.len());
    let mut ys: Vec<f64> = Vec::with_capacity(sizes.len());
    let mut cursor = 0u64;
    for &size in sizes {
        let mut acc = 0.0;
        for _ in 0..reps {
            let offset = if rng.gen_bool(seq_frac.clamp(0.0, 1.0)) {
                cursor
            } else {
                let max_off = extent.saturating_sub(size).max(1);
                rng.gen_range(0..max_off)
            };
            acc += device.service_time(op, offset, size).as_secs_f64();
            cursor = offset + size;
        }
        xs.push(size as f64);
        ys.push(acc / reps as f64);
    }
    fit_line(&xs, &ys)
}

/// Ordinary least squares for `y = alpha + beta * x`.
fn fit_line(xs: &[f64], ys: &[f64]) -> LinearFit {
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    let beta = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let alpha = (mean_y - beta * mean_x).max(0.0);
    let r2 = if syy > 0.0 && sxx > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0
    };
    LinearFit { alpha, beta, r2 }
}

/// Standard probe sizes: 4 KiB .. 4 MiB, doubling. The wide range keeps
/// the transfer term visible above HDD seek noise in the fit.
pub fn default_probe_sizes() -> Vec<u64> {
    (0..11).map(|i| 4096u64 << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::HddModel;
    use crate::ssd::SsdModel;

    #[test]
    fn fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 + 2.0 * x).collect();
        let f = fit_line(&xs, &ys);
        assert!((f.alpha - 5.0).abs() < 1e-9);
        assert!((f.beta - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hdd_calibration_finds_big_alpha() {
        let mut hdd = HddModel::sata2_250gb();
        let fit = calibrate(
            &mut hdd,
            IoOp::Read,
            &default_probe_sizes(),
            32,
            200_000_000_000,
            SeedSeq::new(1),
        );
        // α should be near seek+rotation (≈12.7 ms), β near 1/90 MB/s.
        assert!(fit.alpha > 5e-3 && fit.alpha < 20e-3, "alpha={}", fit.alpha);
        assert!(
            (fit.beta - 1.0 / 90.0e6).abs() < 0.5 / 90.0e6,
            "beta={}",
            fit.beta
        );
        assert!(fit.r2 > 0.95);
    }

    #[test]
    fn ssd_calibration_alpha_much_smaller_than_hdd() {
        let mut ssd = SsdModel::pcie_100gb();
        let fit = calibrate(
            &mut ssd,
            IoOp::Read,
            &default_probe_sizes(),
            8,
            90_000_000_000,
            SeedSeq::new(1),
        );
        assert!(fit.alpha < 1e-3, "alpha={}", fit.alpha);
        assert!(fit.beta < 1.0 / 200.0e6, "beta={}", fit.beta);
    }

    #[test]
    fn ssd_write_fit_slower_than_read_fit() {
        let mut ssd = SsdModel::pcie_100gb();
        let sizes = default_probe_sizes();
        let r = calibrate(&mut ssd, IoOp::Read, &sizes, 4, 1 << 30, SeedSeq::new(2));
        ssd.reset();
        let w = calibrate(&mut ssd, IoOp::Write, &sizes, 4, 1 << 30, SeedSeq::new(2));
        assert!(w.alpha > r.alpha);
        assert!(w.beta > r.beta);
    }

    #[test]
    fn degenerate_single_size_fit_is_safe() {
        let f = fit_line(&[4096.0], &[0.001]);
        assert_eq!(f.beta, 0.0);
        assert!((f.alpha - 0.001).abs() < 1e-12);
    }
}
