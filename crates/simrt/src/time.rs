//! Simulated time.
//!
//! Time is a `u64` count of nanoseconds since simulation start. Nanosecond
//! resolution lets the storage models express sub-microsecond SSD latencies
//! exactly while still covering ~584 years of simulated time, far beyond any
//! experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to seconds as `f64` (for reporting only — never feed back
    /// into simulation arithmetic, which stays integral).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking so that reporting code can be sloppy about ordering.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero: callers
    /// feed calibrated model outputs here and a nonsensical negative
    /// service time must not travel backwards in time.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!(((t + d) - t).as_nanos(), 3_000);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a).as_nanos(), 10);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1_000).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_millis(12_000).to_string(), "12.000s");
    }

    #[test]
    fn max_picks_the_later_instant() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        let m = SimTime::from_nanos(u64::MAX);
        assert_eq!(m + SimDuration::from_millis(1_000), m);
        let z = SimDuration::ZERO;
        assert_eq!(z - SimDuration::from_millis(1_000), SimDuration::ZERO);
    }
}
