//! Request features and the normalized distance of Eq. 1.
//!
//! Each request is a point in a two-dimensional Euclidean space: x =
//! request size, y = request concurrency (the number of requests
//! simultaneously issued to the file). Distances normalize each dimension
//! by its observed range so size (bytes, up to millions) and concurrency
//! (small integers) compare on equal footing.

use crate::cost::ReqView;
use iotrace::Records;

/// A request's clustering features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqFeature {
    /// Request size, bytes.
    pub size: f64,
    /// Request concurrency.
    pub concurrency: f64,
}

impl ReqFeature {
    /// Features of a planner request view.
    pub fn of(view: &ReqView) -> Self {
        Self::new(view.len, view.concurrency)
    }

    /// Features of a request of `len` bytes at `concurrency`.
    fn new(len: u64, concurrency: u32) -> Self {
        ReqFeature { size: len as f64, concurrency: f64::from(concurrency) }
    }
}

/// Where the k-means of [`crate::grouping`] reads its points, in order
/// from any chunk's start: a slice of features, or a trace streamed by
/// [`TracePoints`]. Both yield the same points in the same order, so a
/// grouping is bit-identical whichever it reads.
pub(crate) trait Points: Sync {
    /// Number of points.
    fn len(&self) -> usize;

    /// Points `start..`, in order.
    fn iter_from(&self, start: usize) -> impl Iterator<Item = ReqFeature> + '_;

    /// Point `i`.
    fn get(&self, i: usize) -> ReqFeature {
        self.iter_from(i).next().expect("point index in range")
    }
}

impl Points for [ReqFeature] {
    fn len(&self) -> usize {
        <[ReqFeature]>::len(self)
    }

    fn iter_from(&self, start: usize) -> impl Iterator<Item = ReqFeature> + '_ {
        self[start..].iter().copied()
    }

    fn get(&self, i: usize) -> ReqFeature {
        self[i]
    }
}

/// A trace's points without a feature vector: each record's features,
/// as [`ReqFeature::of`] its view gives them, from the trace's length
/// column and its concurrency annotation
/// ([`iotrace::Trace::concurrency`]).
pub(crate) struct TracePoints<'a> {
    records: Records<'a>,
    conc: &'a [u32],
}

impl<'a> TracePoints<'a> {
    pub(crate) fn new(records: Records<'a>, conc: &'a [u32]) -> Self {
        assert_eq!(conc.len(), records.len(), "one concurrency per record");
        TracePoints { records, conc }
    }
}

impl Points for TracePoints<'_> {
    fn len(&self) -> usize {
        self.conc.len()
    }

    fn iter_from(&self, start: usize) -> impl Iterator<Item = ReqFeature> + '_ {
        let conc = &self.conc[start..];
        self.records.lens_from(start).zip(conc).map(|(len, &c)| ReqFeature::new(len, c))
    }
}

/// The normalization context of Eq. 1: per-dimension observed ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FeatureSpace {
    size_span: f64,
    conc_span: f64,
}

impl FeatureSpace {
    /// Fit the space to a set of points, read once. Zero-span dimensions
    /// (all points equal) are given unit span so they simply contribute
    /// 0 distance.
    pub(crate) fn fit(points: impl IntoIterator<Item = ReqFeature>) -> Self {
        let mut size = (f64::INFINITY, f64::NEG_INFINITY);
        let mut conc = size;
        for p in points {
            size = (size.0.min(p.size), size.1.max(p.size));
            conc = (conc.0.min(p.concurrency), conc.1.max(p.concurrency));
        }
        let span = |(lo, hi): (f64, f64)| {
            let s = hi - lo;
            if s.is_finite() && s > 0.0 {
                s
            } else {
                1.0
            }
        };
        FeatureSpace { size_span: span(size), conc_span: span(conc) }
    }

    /// Eq. 1: normalized Euclidean distance between two request points.
    pub(crate) fn distance(&self, a: &ReqFeature, b: &ReqFeature) -> f64 {
        self.distance_sq(a, b).sqrt()
    }

    /// Squared Eq. 1 distance. `sqrt` is monotone, so comparisons over
    /// squared distances order the same way — the grouping hot loops use
    /// this to drop one sqrt per candidate center.
    pub(crate) fn distance_sq(&self, a: &ReqFeature, b: &ReqFeature) -> f64 {
        let dx = (a.size - b.size) / self.size_span;
        let dy = (a.concurrency - b.concurrency) / self.conc_span;
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(size: f64, conc: f64) -> ReqFeature {
        ReqFeature { size, concurrency: conc }
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        let pts = [f(16.0, 8.0), f(131_072.0, 8.0), f(65_536.0, 32.0)];
        let sp = FeatureSpace::fit(pts);
        for a in &pts {
            assert_eq!(sp.distance(a, a), 0.0);
            for b in &pts {
                assert!((sp.distance(a, b) - sp.distance(b, a)).abs() < 1e-15);
            }
        }
        // Triangle inequality on the sample.
        let (a, b, c) = (&pts[0], &pts[1], &pts[2]);
        assert!(sp.distance(a, c) <= sp.distance(a, b) + sp.distance(b, c) + 1e-12);
    }

    #[test]
    fn normalization_balances_dimensions() {
        // Size spans 1..1e6, concurrency spans 1..2: a full-span step in
        // either dimension must cost the same normalized distance.
        let pts = [f(1.0, 1.0), f(1e6, 2.0)];
        let sp = FeatureSpace::fit(pts);
        let d_size = sp.distance(&f(1.0, 1.0), &f(1e6, 1.0));
        let d_conc = sp.distance(&f(1.0, 1.0), &f(1.0, 2.0));
        assert!((d_size - d_conc).abs() < 1e-12);
        assert!((d_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_dimension_contributes_zero() {
        // All concurrencies equal: distance reduces to the size dimension.
        let pts = [f(10.0, 4.0), f(20.0, 4.0)];
        let sp = FeatureSpace::fit(pts);
        let d = sp.distance(&pts[0], &pts[1]);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feature_of_view() {
        use storage_model::IoOp;
        let v = ReqView { offset: 0, len: 4096, op: IoOp::Read, concurrency: 7 };
        let ft = ReqFeature::of(&v);
        assert_eq!(ft.size, 4096.0);
        assert_eq!(ft.concurrency, 7.0);
    }

    #[test]
    fn empty_fit_is_safe() {
        let sp = FeatureSpace::fit([]);
        assert_eq!(sp.distance(&f(0.0, 0.0), &f(1.0, 1.0)), (2.0f64).sqrt());
    }
}
