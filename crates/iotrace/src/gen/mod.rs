//! Workload generators standing in for the paper's benchmarks and traces.
//!
//! Each generator emits a [`Trace`] with the request-size, offset,
//! operation and concurrency structure documented for the original
//! workload. All generators are deterministic given their seed.
//!
//! The four streaming generators ([`ior`], [`lanl`], [`skewed`],
//! [`burst`]) each hold one phase emitter, generic over the crate's
//! `PhaseSink`: their `stream` runs it into a
//! [`RecordBatch`](crate::RecordBatch) per phase, and their `generate`
//! runs it into one record vector. The Zipf generators share one
//! memoized `zipf_cdf` table per `(regions, θ)`.

pub mod btio;
pub mod burst;
pub mod cholesky;
pub mod hpio;
pub mod ior;
pub mod lanl;
pub mod lu;
pub mod skewed;

use std::cell::RefCell;
use std::sync::Arc;

use crate::record::TraceRecord;
use crate::trace::Trace;
use simrt::{SimDuration, SimTime};

/// Run a generator's phase emitter into one record vector reserved from
/// `len_hint`: the materialized twin of draining its stream, without the
/// columnar round trip.
fn collect(
    len_hint: Option<usize>,
    mut emit: impl FnMut(&mut Vec<TraceRecord>) -> bool,
) -> Trace {
    let mut records = Vec::with_capacity(len_hint.unwrap_or(0));
    while emit(&mut records) {}
    Trace::from_records(records)
}

/// Normalized cumulative Zipf(θ) weights over `regions` ranks: entry `r`
/// is the probability of drawing a rank `<= r`, so one uniform variate
/// plus a binary search draws a rank.
///
/// Equal configs share one table: the last `(regions, θ)` computed on
/// this thread is kept, so the thousands of same-shaped traces an online
/// or service study generates build it once.
pub(crate) fn zipf_cdf(regions: u64, theta: f64) -> Arc<[f64]> {
    assert!(theta.is_finite(), "Zipf theta must be finite, got {theta}");
    /// The last table built on this thread, keyed by `(regions, θ bits)`.
    type Memo = Option<((u64, u64), Arc<[f64]>)>;
    thread_local! {
        static LAST: RefCell<Memo> = const { RefCell::new(None) };
    }
    let key = (regions, theta.to_bits());
    LAST.with(|last| {
        let mut last = last.borrow_mut();
        match &*last {
            Some((k, cdf)) if *k == key => Arc::clone(cdf),
            _ => {
                let cdf = zipf_table(regions, theta);
                *last = Some((key, Arc::clone(&cdf)));
                cdf
            }
        }
    })
}

fn zipf_table(regions: u64, theta: f64) -> Arc<[f64]> {
    let mut cdf = Vec::with_capacity(regions as usize);
    let mut acc = 0.0f64;
    for rank in 0..regions {
        acc += 1.0 / ((rank + 1) as f64).powf(theta);
        cdf.push(acc);
    }
    let total = acc;
    for w in &mut cdf {
        *w /= total;
    }
    cdf.into()
}

/// Hands out phase indices and their timestamps. Every record in a phase
/// shares a timestamp; consecutive phases are spaced far enough apart that
/// a collector with the default window would reconstruct them.
#[derive(Debug, Clone)]
pub struct PhaseClock {
    next_phase: u32,
    gap: SimDuration,
}

impl Default for PhaseClock {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseClock {
    /// Phases spaced 10 ms apart.
    pub fn new() -> Self {
        PhaseClock { next_phase: 0, gap: SimDuration::from_millis(10) }
    }

    /// Allocate the next phase; returns `(phase, timestamp)`.
    pub fn tick(&mut self) -> (u32, SimTime) {
        let phase = self.next_phase;
        self.next_phase += 1;
        (phase, SimTime::ZERO + self.gap * u64::from(phase))
    }

    /// Number of phases allocated so far.
    pub fn phases(&self) -> u32 {
        self.next_phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_clock_monotone() {
        let mut c = PhaseClock::new();
        let (p0, t0) = c.tick();
        let (p1, t1) = c.tick();
        assert_eq!((p0, p1), (0, 1));
        assert!(t1 > t0);
        assert_eq!(c.phases(), 2);
    }

    #[test]
    fn zipf_memo_matches_a_fresh_table() {
        let bits = |cdf: &[f64]| cdf.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let keys = [(64, 0.99), (16, 0.5), (64, 0.9)];
        for round in 0..3 {
            for &(regions, theta) in &keys {
                let memo = zipf_cdf(regions, theta);
                assert_eq!(memo.len(), regions as usize);
                assert_eq!(
                    bits(&memo),
                    bits(&zipf_table(regions, theta)),
                    "({regions}, {theta}) in round {round}"
                );
                assert!(Arc::ptr_eq(&memo, &zipf_cdf(regions, theta)), "a repeat is a hit");
            }
        }
        let cdf = zipf_cdf(4, 0.0);
        assert_eq!(bits(&cdf), bits(&[0.25, 0.5, 0.75, 1.0]), "θ = 0 is uniform");
    }
}
