//! Lane partitioning for sharded simulation passes.
//!
//! A sharded replay splits a stream of work items (sub-requests) into
//! per-server *lanes* so each lane can advance its stateful resource
//! (device queue, fault state) independently. Two invariants make the
//! result bit-identical to a serial sweep:
//!
//! * **stable grouping** — within a lane, items keep their global order
//!   (both build strategies of [`LanePartition`] are stable), so a FIFO
//!   resource sees exactly the sequence the serial loop would feed it;
//! * **disjoint writes** — every item index belongs to exactly one lane,
//!   so parallel lanes can scatter results into one shared output array
//!   without synchronization ([`DisjointSlice`]).

use std::cell::UnsafeCell;

/// One active lane of a [`LanePartition`]: the half-open range
/// `start..end` of the partition's grouped order holding lane `lane`'s
/// item indices ([`LanePartition::items`]). Only lanes with at least one
/// item get a span, so a pass over the spans does work proportional to
/// the *active* lanes — a window touching 200 of 1024 servers walks 200
/// spans, not 1024 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpan {
    /// Lane key (server index).
    pub lane: u32,
    /// Span start in the grouped order.
    pub start: u32,
    /// Span end in the grouped order (exclusive).
    pub end: u32,
}

/// Stable partition of item indices by lane key.
///
/// Two strategies, picked per build so the cost never scales with idle
/// lanes: when items are scarce relative to lanes (a narrow barrier
/// phase over a huge cluster) the partition sorts packed
/// `(key, position)` words — O(items log items), lane-count-free; when
/// items dominate it counting-sorts — O(items + lanes). Both are stable
/// and produce identical spans. Buffers are reused across builds, so a
/// per-phase partition in a replay loop is allocation-free at steady
/// state.
#[derive(Debug, Clone, Default)]
pub struct LanePartition {
    /// Item indices grouped by ascending lane, original order per lane.
    order: Vec<u32>,
    /// Active lanes in ascending lane order.
    spans: Vec<LaneSpan>,
    /// Scratch: packed sort words or counting-sort cursors.
    scratch: Vec<u64>,
}

impl LanePartition {
    /// Partition items `0..keys.len()` by `keys[i]` into `lanes` groups.
    ///
    /// # Panics
    /// In debug builds, when a key is out of range; release builds would
    /// scatter out of bounds, so callers validate keys first (the replay
    /// front pass rejects unknown servers before partitioning).
    pub fn build(&mut self, lanes: usize, keys: &[u32]) {
        debug_assert!(keys.iter().all(|&k| (k as usize) < lanes), "lane key out of range");
        self.spans.clear();
        self.order.clear();
        // Crossover: sorting costs ~items·log(items); counting costs
        // items + lanes. Sparse phases (the 1000-server regime) take the
        // sort, dense ones the counting pass.
        if keys.len() * 4 < lanes {
            self.build_sorted(keys);
        } else {
            self.build_counted(lanes, keys);
        }
    }

    /// Sparse strategy: sort `(key, position)` packed words. Position in
    /// the low half makes the unstable sort stable in effect — equal keys
    /// tie-break on original position.
    fn build_sorted(&mut self, keys: &[u32]) {
        self.scratch.clear();
        self.scratch
            .extend(keys.iter().enumerate().map(|(i, &k)| (u64::from(k) << 32) | i as u64));
        self.scratch.sort_unstable();
        self.order.reserve(keys.len());
        for &packed in self.scratch.iter() {
            let lane = (packed >> 32) as u32;
            let i = self.order.len() as u32;
            self.order.push(packed as u32);
            match self.spans.last_mut() {
                Some(s) if s.lane == lane => s.end = i + 1,
                _ => self.spans.push(LaneSpan { lane, start: i, end: i + 1 }),
            }
        }
    }

    /// Dense strategy: stable counting sort, then spans off the cursors.
    fn build_counted(&mut self, lanes: usize, keys: &[u32]) {
        self.scratch.clear();
        self.scratch.resize(lanes + 1, 0);
        for &k in keys {
            self.scratch[k as usize + 1] += 1;
        }
        for l in 0..lanes {
            self.scratch[l + 1] += self.scratch[l];
        }
        for l in 0..lanes {
            let (start, end) = (self.scratch[l] as u32, self.scratch[l + 1] as u32);
            if start < end {
                self.spans.push(LaneSpan { lane: l as u32, start, end });
            }
        }
        self.order.resize(keys.len(), 0);
        // Scatter via the prefix sums, which double as per-lane cursors.
        for (i, &k) in keys.iter().enumerate() {
            let c = &mut self.scratch[k as usize];
            self.order[*c as usize] = i as u32;
            *c += 1;
        }
    }

    /// Active lanes in ascending lane order — the iteration surface of a
    /// sharded pass. Empty lanes never appear.
    pub fn spans(&self) -> &[LaneSpan] {
        &self.spans
    }

    /// Item indices of `span`, in original (global) order.
    pub fn items(&self, span: &LaneSpan) -> &[u32] {
        &self.order[span.start as usize..span.end as usize]
    }
}

/// A shared slice that hands out unsynchronized access to *disjoint*
/// indices — the scatter target of parallel lane passes.
///
/// # Safety contract
/// [`DisjointSlice::write`] and [`DisjointSlice::get_mut`] are unsafe:
/// callers must guarantee that no two concurrent users touch the same
/// index and that nobody else reads the slice until the parallel pass has
/// joined. A [`LanePartition`] supplies exactly that guarantee (every
/// item index appears in exactly one lane, every lane in exactly one
/// span).
pub struct DisjointSlice<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

// SAFETY: sharing the wrapper across threads is safe because every access
// targets a distinct cell (the caller's contract) and reads only happen
// after the parallel section joins.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap `slice` for the duration of a parallel scatter pass.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` guarantees exclusive access; `UnsafeCell<T>`
        // has the same layout as `T`, so the cast reinterprets the same
        // memory without aliasing anything else.
        let cells =
            unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        DisjointSlice { cells }
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    /// No other thread may read or write `index` during the parallel
    /// pass (see the type-level contract).
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        *self.cells[index].get() = value;
    }

    /// Exclusive reference to the element at `index`.
    ///
    /// # Safety
    /// `index` must be owned by the calling lane for the duration of the
    /// borrow: no other thread may touch it, and no second `get_mut` for
    /// the same index may coexist (see the type-level contract).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, index: usize) -> &mut T {
        &mut *self.cells[index].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every span as `(lane, items)`, in span order.
    fn grouped(p: &LanePartition) -> Vec<(u32, Vec<u32>)> {
        p.spans().iter().map(|s| (s.lane, p.items(s).to_vec())).collect()
    }

    #[test]
    fn partition_groups_stably() {
        let keys = [2u32, 0, 1, 2, 0, 2];
        let mut p = LanePartition::default();
        p.build(3, &keys);
        assert_eq!(
            grouped(&p),
            vec![(0, vec![1, 4]), (1, vec![2]), (2, vec![0, 3, 5])],
            "each lane keeps global order"
        );
        let spans: Vec<(u32, u32)> = p.spans().iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(spans, vec![(0, 2), (2, 3), (3, 6)], "spans lie back to back");
    }

    #[test]
    fn sparse_and_dense_strategies_agree() {
        // Same keys partitioned under a huge lane count (sorted path) and
        // a tight one (counted path) must group identically.
        let keys: Vec<u32> = (0..64u32).map(|i| (i * 37) % 100).collect();
        let mut sparse = LanePartition::default();
        sparse.build(100_000, &keys); // 64 items ≪ lanes → sorted
        let mut dense = LanePartition::default();
        dense.build(100, &keys); // items ≥ lanes/4 → counted
        assert_eq!(sparse.spans(), dense.spans());
        assert_eq!(grouped(&sparse), grouped(&dense));
    }

    #[test]
    fn spans_cover_only_active_lanes_in_order() {
        let keys = [7u32, 3, 7, 900_000];
        let mut p = LanePartition::default();
        p.build(1_000_000, &keys);
        assert_eq!(
            grouped(&p),
            vec![(3, vec![1]), (7, vec![0, 2]), (900_000, vec![3])],
            "ascending lanes, empties skipped, global order within a lane"
        );
    }

    #[test]
    fn idle_lanes_get_no_span() {
        let mut p = LanePartition::default();
        p.build(4, &[3u32, 3]);
        assert_eq!(grouped(&p), vec![(3, vec![0, 1])]);
    }

    #[test]
    fn rebuild_reuses_buffers_and_forgets_history() {
        let mut p = LanePartition::default();
        p.build(2, &[0u32, 1, 0]);
        p.build(2, &[1u32]);
        assert_eq!(grouped(&p), vec![(1, vec![0])]);
    }

    #[test]
    fn zero_items_zero_lanes() {
        let mut p = LanePartition::default();
        p.build(0, &[]);
        assert!(p.spans().is_empty());
    }

    #[test]
    fn disjoint_slice_scatters() {
        let mut data = vec![0u64; 6];
        let keys = [1u32, 0, 1, 0, 1, 1];
        let mut p = LanePartition::default();
        p.build(2, &keys);
        {
            let out = DisjointSlice::new(&mut data);
            for span in p.spans() {
                for &i in p.items(span) {
                    let value = (u64::from(span.lane) + 1) * 100 + u64::from(i);
                    // SAFETY: each index appears in exactly one lane.
                    unsafe { out.write(i as usize, value) };
                }
            }
            assert_eq!(out.cells.len(), 6);
        }
        assert_eq!(data, vec![200, 101, 202, 103, 204, 205]);
    }

    #[test]
    fn disjoint_slice_get_mut_mutates_in_place() {
        let mut data = vec![10u64, 20, 30];
        {
            let cells = DisjointSlice::new(&mut data);
            // SAFETY: indices 0..3 each touched by exactly one "lane".
            for i in 0..3 {
                unsafe { *cells.get_mut(i) += i as u64 };
            }
        }
        assert_eq!(data, vec![10, 21, 32]);
    }
}
