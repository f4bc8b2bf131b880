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
        ReqFeature { size: view.len as f64, concurrency: f64::from(view.concurrency) }
    }
}

/// Features of every record, given the trace's concurrency annotation
/// ([`iotrace::Trace::concurrency`]): [`ReqFeature::of`] over
/// [`crate::cost::views_of`], without keeping the views.
pub(crate) fn features_of(records: Records<'_>, conc: &[u32]) -> Vec<ReqFeature> {
    records
        .iter()
        .zip(conc)
        .map(|(r, &concurrency)| {
            ReqFeature::of(&ReqView { offset: r.offset, len: r.len, op: r.op, concurrency })
        })
        .collect()
}

/// The normalization context of Eq. 1: per-dimension observed ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FeatureSpace {
    size_span: f64,
    conc_span: f64,
}

impl FeatureSpace {
    /// Fit the space to a set of points. Zero-span dimensions (all points
    /// equal) are given unit span so they simply contribute 0 distance.
    pub(crate) fn fit(points: &[ReqFeature]) -> Self {
        let span = |f: fn(&ReqFeature) -> f64| -> f64 {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for p in points {
                let v = f(p);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let s = hi - lo;
            if s.is_finite() && s > 0.0 {
                s
            } else {
                1.0
            }
        };
        FeatureSpace { size_span: span(|p| p.size), conc_span: span(|p| p.concurrency) }
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
        let sp = FeatureSpace::fit(&pts);
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
        let sp = FeatureSpace::fit(&pts);
        let d_size = sp.distance(&f(1.0, 1.0), &f(1e6, 1.0));
        let d_conc = sp.distance(&f(1.0, 1.0), &f(1.0, 2.0));
        assert!((d_size - d_conc).abs() < 1e-12);
        assert!((d_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_dimension_contributes_zero() {
        // All concurrencies equal: distance reduces to the size dimension.
        let pts = [f(10.0, 4.0), f(20.0, 4.0)];
        let sp = FeatureSpace::fit(&pts);
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
        let sp = FeatureSpace::fit(&[]);
        assert_eq!(sp.distance(&f(0.0, 0.0), &f(1.0, 1.0)), (2.0f64).sqrt());
    }
}
