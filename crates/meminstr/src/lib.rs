//! # autobal-meminstr
//!
//! A dependency-free counting [`GlobalAlloc`] used by the allocation
//! regression tests and the `repro perf` plane. It forwards every call
//! to the [`System`] allocator and counts events per thread, in a
//! `const`-initialized thread-local counter, so a test can assert "this
//! exact stretch of code on this thread made N allocations" without
//! rayon workers or other test threads bleeding into the count.
//!
//! Install it in a test binary and measure a window with
//! [`allocation_delta`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: autobal_meminstr::CountingAlloc = autobal_meminstr::CountingAlloc::new();
//!
//! let (allocs, result) = autobal_meminstr::allocation_delta(|| hot_loop());
//! assert_eq!(allocs, 0);
//! ```
//!
//! The counters deliberately count *events*, not a live-bytes balance:
//! a regression test cares about "did the hot loop touch the allocator
//! at all", and event counts cannot be masked by a matching free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init: plain memory, so the initializer itself can never
    // recurse into the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events on the calling thread since it started.
fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Runs `f` and returns how many allocation events the calling thread
/// performed inside it, along with `f`'s result.
pub fn allocation_delta<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = thread_allocations();
    let result = f();
    (thread_allocations() - before, result)
}

fn record() {
    // During thread teardown the thread-local may already be gone; no
    // window can be open on that thread then, so the event is dropped.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The counting allocator. Zero-sized; forwards to [`System`].
pub struct CountingAlloc;

impl CountingAlloc {
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: pure pass-through to `System`; the counter never allocates
// (a const-initialized thread-local `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place is still an allocator round trip the hot
        // path promised not to make.
        record();
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as #[global_allocator] here (that would count the
    // whole test harness); the unit tests drive the trait directly.

    #[test]
    fn counters_count_allocation_events() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before_thread = thread_allocations();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            let p = a.realloc(p, layout, 128);
            assert!(!p.is_null());
            a.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(thread_allocations() - before_thread, 3);
    }

    #[test]
    fn allocation_delta_scopes_a_window() {
        let (n, v) = allocation_delta(|| 6 * 7);
        assert_eq!((n, v), (0, 42));
    }
}
