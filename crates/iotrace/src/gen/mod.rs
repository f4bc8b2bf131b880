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
//! runs it into one trace's run-encoded store. The Zipf generators share one
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

use crate::batch::{Builder, Pace};
use crate::trace::Trace;
use simrt::{SimDuration, SimTime};

/// Run a generator's phase emitter into one trace's store, its tables
/// sized from `len_hint`: the materialized twin of draining its stream,
/// without a batch in between. Inlined, like the emitters it drives, so
/// each generator's `generate` compiles to one loop: left to the
/// codegen-unit split, the skewed emitter went out of line and the many
/// small traces a service set-up generates took 20–30 % longer.
#[inline]
fn collect(len_hint: Option<usize>, mut emit: impl FnMut(&mut Builder) -> bool) -> Trace {
    let mut store = Builder::with_pace(len_hint.map_or(Pace::Unknown, Pace::Records));
    while emit(&mut store) {}
    Trace::from_store(store.finish(true))
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
pub(crate) struct PhaseClock {
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
    pub(crate) fn new() -> Self {
        PhaseClock { next_phase: 0, gap: SimDuration::from_millis(10) }
    }

    /// Allocate the next phase; returns `(phase, timestamp)`.
    pub(crate) fn tick(&mut self) -> (u32, SimTime) {
        let phase = self.next_phase;
        self.next_phase += 1;
        (phase, SimTime::ZERO + self.gap * u64::from(phase))
    }
}

/// The sink `generate` wrote before traces were run-encoded: every
/// phase appended to one record vector.
#[cfg(test)]
impl crate::batch::PhaseSink for Vec<crate::record::TraceRecord> {
    fn begin(&mut self, _phase: u32) {}

    fn push(&mut self, rec: &crate::record::TraceRecord) {
        Vec::push(self, *rec);
    }
}

/// Small traces of every generator, each with the record vector it
/// describes (the streaming emitters drained into a `Vec`, the others'
/// own record lists), for tests that must hold on all of them.
#[cfg(test)]
pub(crate) fn every_generator() -> Vec<(String, Trace, Vec<crate::record::TraceRecord>)> {
    use crate::record::TraceRecord;
    use storage_model::IoOp::{Read, Write};
    fn drained(mut emit: impl FnMut(&mut Vec<TraceRecord>) -> bool) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while emit(&mut out) {}
        out
    }
    let mut cases = Vec::new();
    for c in [lanl::LanlConfig::paper(16, Write), lanl::LanlConfig { procs: 3, loops: 5, op: Read }] {
        let mut s = lanl::stream(&c);
        cases.push((format!("lanl {c:?}"), lanl::generate(&c), drained(|v| s.emit(v))));
    }
    let mut sequential = ior::IorConfig::mixed_sizes(&[128 << 10, 256 << 10], Read);
    sequential.random_offsets = false;
    for c in [
        ior::IorConfig::default_run(Write),
        ior::IorConfig::mixed_procs(&[1, 8, 3], Write),
        ior::IorConfig::mixed_procs(&[4, 12], Read),
        sequential,
    ] {
        let mut s = ior::stream(&c);
        cases.push((format!("ior {c:?}"), ior::generate(&c), drained(|v| s.emit(v))));
    }
    let mut unshifted = skewed::SkewedConfig::default_run(Read);
    unshifted.shift_every = 0;
    unshifted.procs = 1;
    for c in [skewed::SkewedConfig::default_run(Write), unshifted] {
        let mut s = skewed::stream(&c);
        cases.push((format!("skewed {c:?}"), skewed::generate(&c), drained(|v| s.emit(v))));
    }
    let c = burst::BurstConfig::default_run(Write);
    let mut s = burst::stream(&c);
    cases.push(("burst".into(), burst::generate(&c), drained(|v| s.emit(v))));
    for c in [btio::BtioConfig::paper(4, Write), btio::BtioConfig::paper(9, Write)] {
        cases.push((format!("btio {c:?}"), btio::generate(&c), btio::records(&c)));
    }
    let c = cholesky::CholeskyConfig { procs: 4, panels: 12, seed: 3 };
    cases.push(("cholesky".into(), cholesky::generate(&c), cholesky::records(&c)));
    for op in [Read, Write] {
        let mut c = hpio::HpioConfig::paper(4, op);
        c.region_count = 256;
        cases.push((format!("hpio {op:?}"), hpio::generate(&c), hpio::records(&c)));
    }
    let c = lu::LuConfig { procs: 3, steps: 8 };
    cases.push(("lu".into(), lu::generate(&c), lu::records(&c)));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::phase_runs;

    /// Every generator's stored trace decodes to the record vector it
    /// describes. Reads by index, by cursor (backwards, the cursor's slow
    /// path) and by phase agree too.
    #[test]
    fn every_generator_decodes_to_its_record_vector() {
        for (name, trace, want) in &every_generator() {
            assert!(!want.is_empty(), "{name}");
            assert_eq!(trace.len(), want.len(), "{name}");
            assert_eq!(trace.records().to_vec(), *want, "{name}");
            // Pushed by rank or by phase, the runs are the ones a record
            // at a time builds.
            let by_record = Trace::from_records(want.clone());
            assert_eq!(format!("{:?}", trace.store()), format!("{:?}", by_record.store()), "{name}");
            let records = trace.records();
            let mut cursor = records.cursor();
            for i in (0..want.len()).rev() {
                assert_eq!(cursor.get(i), want[i], "{name}: cursor at {i}");
            }
            for (j, i) in (0..want.len()).step_by(7).enumerate() {
                let i = (i + j * j * 13) % want.len();
                assert_eq!(cursor.get(i), want[i], "{name}: cursor jumping to {i}");
                assert_eq!(records.get(i), Some(want[i]), "{name}: get({i})");
                assert_eq!(records.iter_from(i).next(), Some(want[i]), "{name}: iter_from({i})");
            }
            assert_eq!(records.get(want.len()), None, "{name}");
            let spans: Vec<_> = trace.phases().map(|p| (p.start(), p.len(), p.phase())).collect();
            assert_eq!(spans, phase_runs(want), "{name}: phases");
        }
    }

    /// The length column walk reads what a full decode reads, from every
    /// start, through `nth` skips that cross runs, and folded.
    #[test]
    fn every_generator_length_walk_matches_the_decoded_lengths() {
        for (name, trace, _) in &every_generator() {
            let records = trace.records();
            let want: Vec<u64> = records.iter().map(|r| r.len).collect();
            assert_eq!(records.lens().collect::<Vec<_>>(), want, "{name}");
            assert_eq!(records.lens().len(), want.len(), "{name}: size hint");
            assert_eq!(trace.total_bytes(), want.iter().sum::<u64>(), "{name}: total_bytes");
            assert_eq!(trace.max_request_size(), want.iter().copied().max().unwrap_or(0), "{name}");
            for i in (0..=want.len()).step_by(want.len() / 9 + 1).chain([want.len() - 1, want.len()]) {
                let tail: Vec<u64> = records.lens_from(i).collect();
                assert_eq!(tail, want[i..], "{name}: lens_from({i})");
                let sum = records.lens_from(i).fold(0u64, |a, l| a.wrapping_add(l));
                assert_eq!(sum, want[i..].iter().sum::<u64>(), "{name}: fold from {i}");
            }
            for step in [0usize, 1, 2, 6, 31, 500] {
                let mut lens = records.lens();
                let mut at = 0;
                while let Some(len) = lens.nth(step) {
                    at += step;
                    assert_eq!(len, want[at], "{name}: nth({step}) reaching {at}");
                    at += 1;
                    assert_eq!(lens.len(), want.len() - at, "{name}: size hint at {at}");
                }
                assert!(at + step >= want.len(), "{name}: nth({step}) stopped early at {at}");
                assert_eq!(lens.next(), None, "{name}: exhausted");
            }
        }
    }

    #[test]
    fn phase_clock_monotone() {
        let mut c = PhaseClock::new();
        let (p0, t0) = c.tick();
        let (p1, t1) = c.tick();
        assert_eq!((p0, p1), (0, 1));
        assert!(t1 > t0);
        assert_eq!(c.next_phase, 2);
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
