//! The counting allocator the memory tests read.
//!
//! A test binary installs [`Counting`] with
//! `#[global_allocator] static A: simrt::heap::Counting = simrt::heap::Counting;`
//! and reads [`live`] or [`peak_during`]. The counters are process-wide,
//! so each memory test keeps its binary to itself. `realloc` is not
//! overridden: a grow counts its new block before it frees the old one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts the block at `p`, if the allocation succeeded.
fn counted(p: *mut u8, layout: Layout) -> *mut u8 {
    if !p.is_null() {
        let now = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(now, Relaxed);
    }
    p
}

// SAFETY: every method hands its layout and pointer to `System`
// unchanged and returns what `System` returns, so `System`'s guarantees
// hold; the counters are statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(System.alloc(layout), layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(System.alloc_zeroed(layout), layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

/// Bytes live now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Restart the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Run `f`, returning its result and the most bytes it held allocated at
/// once beyond what was live before it started.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.store(base, Relaxed);
    let out = f();
    (out, peak() - base)
}
