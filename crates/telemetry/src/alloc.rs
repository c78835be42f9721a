//! A counting global allocator for allocation-regression tests and benches.
//!
//! The encode hot path claims to be allocation-free after warm-up (see
//! `age-core`'s `EncodeScratch`); that claim is only worth anything if it is
//! machine-checked. [`CountingAllocator`] wraps the system allocator and
//! counts every allocation and reallocation on **thread-local** counters, so
//! a test (or bench) can snapshot before and after a code region and assert
//! the delta — without interference from other test-harness threads.
//!
//! Deallocations are not counted per thread: freeing reuses no budget we
//! care about, and the regression target is "no new heap traffic", which
//! alloc/realloc alone capture. Separately, the allocator keeps one
//! **process-wide** live-bytes figure (bytes allocated minus bytes freed,
//! across all threads), read by [`live_bytes`]: the resident heap of a
//! structure built on several threads, such as a gateway session table
//! drained by parallel workers.
//!
//! # Examples
//!
//! ```ignore
//! use age_telemetry::alloc::{self, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let before = alloc::snapshot();
//! hot_path();
//! let delta = alloc::snapshot().since(before);
//! assert_eq!(delta.allocations, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

thread_local! {
    // Const-initialized cells: reading them never allocates, so the
    // allocator cannot recurse into itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes currently allocated through a [`CountingAllocator`], process-wide.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// A `#[global_allocator]` that forwards to [`System`] while counting
/// allocations and allocated bytes per thread, and live bytes per process.
#[derive(Debug, Default)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (const, so it can back a `static`).
    pub const fn new() -> Self {
        CountingAllocator
    }
}

/// This thread's allocation counters at one instant; subtract two with
/// [`AllocSnapshot::since`] to measure a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Number of `alloc`/`alloc_zeroed`/`realloc` calls on this thread.
    pub allocations: u64,
    /// Total bytes those calls requested.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas accumulated since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads this thread's counters. Zero unless a [`CountingAllocator`] is
/// installed as the global allocator.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.with(Cell::get),
        bytes: ALLOCATED_BYTES.with(Cell::get),
    }
}

/// Heap bytes currently live in the whole process: every byte allocated
/// minus every byte freed, on all threads, since the process started. Zero
/// unless a [`CountingAllocator`] is installed as the global allocator.
/// Subtract two readings to measure what a region *keeps* (its resident
/// heap), as opposed to what it churns.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Moves the live-bytes figure by `delta` (negative on free or shrink).
/// `Relaxed` suffices: the figure is a statistic and publishes no other
/// data.
fn track(delta: i64) {
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
}

/// Bumps the counters; `try_with` so allocations during thread-local
/// teardown (where the keys are already destroyed) stay safe, if uncounted.
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        grown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the global allocator here (other tests in this crate
    // would be counted too); the end-to-end check lives in `age-core`'s
    // `tests/alloc.rs`, which owns its test binary's allocator.
    #[test]
    fn snapshot_deltas_subtract() {
        let a = AllocSnapshot {
            allocations: 3,
            bytes: 100,
        };
        let b = AllocSnapshot {
            allocations: 5,
            bytes: 164,
        };
        assert_eq!(
            b.since(a),
            AllocSnapshot {
                allocations: 2,
                bytes: 64
            }
        );
    }

    // The only test in this binary that drives the allocator itself, so
    // the process-wide figure moves by exactly what it does here.
    #[test]
    fn live_bytes_subtract_frees_and_follow_reallocs() {
        let start = live_bytes();
        let layout = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: every pointer is non-null (asserted) and freed exactly
        // once, through the same allocator, with the layout it was last
        // allocated or reallocated with; none is dereferenced.
        unsafe {
            let ptr = CountingAllocator.alloc(layout);
            assert!(!ptr.is_null());
            assert_eq!(live_bytes() - start, 100);
            let grown = CountingAllocator.realloc(ptr, layout, 300);
            assert!(!grown.is_null());
            assert_eq!(live_bytes() - start, 300);
            let zeroed = CountingAllocator.alloc_zeroed(layout);
            assert!(!zeroed.is_null());
            assert_eq!(live_bytes() - start, 400);
            CountingAllocator.dealloc(zeroed, layout);
            CountingAllocator.dealloc(grown, Layout::from_size_align(300, 8).unwrap());
        }
        assert_eq!(live_bytes(), start);
    }

    #[test]
    fn counting_is_per_thread() {
        count(8);
        count(8);
        let here = snapshot();
        assert!(here.allocations >= 2);
        let other = std::thread::spawn(snapshot).join().unwrap();
        assert_eq!(other.allocations, 0);
    }
}
