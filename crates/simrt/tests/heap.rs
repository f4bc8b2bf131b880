//! The counting allocator every memory gate reads counts what they
//! assume: peaks above the live bytes at entry, a grow's old and new
//! block at once, `alloc_zeroed`, and every byte back after a drop.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use simrt::heap;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::hint::black_box;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

#[test]
fn the_counting_allocator_reads_peaks_grows_and_frees() {
    let base = heap::live();

    // Live bytes held before the closure are not part of its peak.
    let held = black_box(vec![1u8; 1000]);
    let ((), peak) = heap::peak_during(|| drop(black_box(vec![1u8; 4096])));
    assert_eq!(peak, 4096, "the peak above the live bytes at entry");
    assert_eq!(heap::live() - base, held.capacity());
    drop(held);

    // A grow allocates the new block before it frees the old one.
    let mut v: Vec<u64> = black_box(Vec::with_capacity(100));
    v.push(1);
    let old = v.capacity() * 8;
    let ((), grow) = heap::peak_during(|| v.reserve_exact(200));
    let new = v.capacity() * 8;
    assert!(new > old, "reserve past the capacity reallocates");
    assert_eq!(grow, new, "the entry's live bytes hold the old block");
    assert_eq!(heap::peak() - base, old + new, "both blocks at once");
    assert_eq!(heap::live() - base, new, "the old block is freed");
    drop(v);

    // `alloc_zeroed` counts like `alloc`.
    let layout = Layout::from_size_align(8192, 64).unwrap();
    heap::reset_peak();
    // SAFETY: the layout's size is not zero.
    let p = black_box(unsafe { alloc_zeroed(layout) });
    assert!(!p.is_null());
    assert_eq!(heap::live() - base, 8192, "alloc_zeroed counts its block");
    assert_eq!(heap::peak() - base, 8192, "and raises the peak");
    // SAFETY: `p` came from `alloc_zeroed` with this layout, once.
    unsafe { dealloc(p, layout) };

    assert_eq!(heap::live(), base, "every drop gives its bytes back");
}
