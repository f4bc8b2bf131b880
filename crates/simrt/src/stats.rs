//! Online statistics and histograms for simulation reporting.

/// Welford online mean/variance accumulator.
///
/// Two accumulators are equal when every internal field has the same bit
/// pattern: the same observations pushed in the same order, so reports
/// that carry one compare exactly (a `-0.0` and a `0.0` observation
/// differ, and so do two streams whose sums agree but whose spreads do
/// not).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl PartialEq for OnlineStats {
    fn eq(&self, other: &Self) -> bool {
        let bits = |s: &Self| [s.mean, s.m2, s.min, s.max, s.sum].map(f64::to_bits);
        self.n == other.n && bits(self) == bits(other)
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two bucketed histogram for size/latency distributions.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; values of 0 land in bucket 0.
#[derive(Debug, Clone, Default)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Log2Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Log2Histogram { buckets: Vec::new(), total: 0 }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 { 0 } else { 63 - value.leading_zeros() as usize };
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i` (0 beyond the populated range).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Number of populated buckets (highest index + 1).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterator over `(bucket_floor_value, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }
}

/// Exact percentile over a sample set (sorts a copy; fine for reporting).
///
/// `q` in `[0, 1]`; uses nearest-rank on the sorted sample. Returns NaN for
/// an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Coefficient of variation of a set of values (stddev / mean); a standard
/// load-imbalance metric for per-server I/O times. Returns 0 for empty or
/// zero-mean input.
pub fn imbalance_cv(values: &[f64]) -> f64 {
    let mut s = OnlineStats::new();
    for &v in values {
        s.push(v);
    }
    let m = s.mean();
    if m == 0.0 {
        0.0
    } else {
        s.stddev() / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn equality_is_by_bit_pattern() {
        let of = |xs: &[f64]| {
            let mut s = OnlineStats::new();
            xs.iter().for_each(|&x| s.push(x));
            s
        };
        assert_eq!(of(&[1.0, 2.5]), of(&[1.0, 2.5]));
        // Same value, different sign bit: `min` and `max` keep it.
        let (pos, neg) = (of(&[0.0]), of(&[-0.0]));
        assert_eq!(pos.sum().to_bits(), neg.sum().to_bits());
        assert_ne!(pos, neg);
        // Same count, sum, mean, min and max; only `m2` (8 vs 10) differs.
        let (a, b) = (of(&[0.0, 2.0, 2.0, 4.0]), of(&[0.0, 1.0, 3.0, 4.0]));
        assert_eq!((a.count(), a.sum(), a.mean()), (b.count(), b.sum(), b.mean()));
        assert_eq!((a.min(), a.max()), (b.min(), b.max()));
        assert_ne!(a.variance(), b.variance());
        assert_ne!(a, b);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn log2_histogram_buckets() {
        let mut h = Log2Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.total(), 5);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(10), 1);
        assert_eq!(h.bucket(99), 0);
        let nonempty: Vec<_> = h.iter().collect();
        assert_eq!(nonempty, vec![(1, 2), (2, 2), (1024, 1)]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_clamps_out_of_range_q() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -0.5), 1.0);
        assert_eq!(percentile(&v, 7.0), 3.0);
    }

    #[test]
    fn histogram_empty_flags() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        let mut h2 = Log2Histogram::new();
        h2.record(5);
        assert!(!h2.is_empty());
        assert_eq!(h2.len(), 3, "floor(log2 5) = 2 → 3 buckets allocated");
    }

    #[test]
    fn imbalance_cv_detects_skew() {
        assert_eq!(imbalance_cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!(imbalance_cv(&[1.0, 9.0]) > 0.5);
        assert_eq!(imbalance_cv(&[]), 0.0);
    }
}
