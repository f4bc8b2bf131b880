//! Analytic FIFO resources.
//!
//! A storage device or network link in this simulation is a FIFO server: a
//! request arriving at time `a` with service demand `d` begins service at
//! `max(a, next_free)` and completes `d` later. Modelling this analytically
//! (one arithmetic update per request instead of begin/end event pairs)
//! keeps large sweeps cheap while producing exactly the same completion
//! times a token-based DES would.

use crate::time::{SimDuration, SimTime};

/// A single-server FIFO queue with analytic service accounting.
#[derive(Debug, Clone)]
pub struct FifoResource {
    next_free: SimTime,
    busy: SimDuration,
    served: u64,
}

impl Default for FifoResource {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoResource {
    /// An idle resource at time zero.
    pub fn new() -> Self {
        FifoResource {
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            served: 0,
        }
    }

    /// Submit a request arriving at `arrival` needing `service` time.
    /// Returns its completion time.
    pub fn submit(&mut self, arrival: SimTime, service: SimDuration) -> SimTime {
        let start = arrival.max(self.next_free);
        let completion = start + service;
        self.busy += service;
        self.next_free = completion;
        self.served += 1;
        completion
    }

    /// When the resource next becomes idle.
    #[inline]
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total time spent serving requests.
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of requests served.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Forget all history (start a fresh measurement window at time zero).
    pub fn reset(&mut self) {
        *self = FifoResource::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }
    fn d(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FifoResource::new();
        let done = r.submit(ns(100), d(50));
        assert_eq!(done, ns(150));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = FifoResource::new();
        assert_eq!(r.submit(ns(0), d(100)), ns(100));
        // Arrives while busy: waits 50.
        assert_eq!(r.submit(ns(50), d(100)), ns(200));
        assert_eq!(r.busy_time(), d(200));
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn gap_leaves_idle_time() {
        let mut r = FifoResource::new();
        r.submit(ns(0), d(10));
        let done = r.submit(ns(1000), d(10));
        assert_eq!(done, ns(1010));
        assert_eq!(r.busy_time(), d(20));
    }

    #[test]
    fn fifo_order_is_preserved_regardless_of_service_length() {
        let mut r = FifoResource::new();
        let c1 = r.submit(ns(0), d(1000));
        let c2 = r.submit(ns(1), d(1)); // short job still waits behind long one
        assert!(c2 > c1);
        assert_eq!(c2, ns(1001));
    }

    #[test]
    fn reset_clears_history() {
        let mut r = FifoResource::new();
        r.submit(ns(0), d(10));
        r.reset();
        assert_eq!(r.served(), 0);
        assert_eq!(r.busy_time(), SimDuration::ZERO);
        assert_eq!(r.next_free(), SimTime::ZERO);
    }
}
