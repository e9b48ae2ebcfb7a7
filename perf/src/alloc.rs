//! Counting global allocator — in the perf binary only, so the program's
//! own binaries pay nothing. Live bytes, their high-water mark, and the
//! number and volume of allocations, read around one repetition at a time.
//!
//! All counters are statistics that publish no other data, hence
//! `Relaxed`. On the single-thread workloads the counts repeat exactly; on
//! the pipelined and socket workloads other threads allocate concurrently
//! and the high-water mark is a close lower bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(by as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping touches only
// this module's atomics and never the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as ours; `layout` is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as ours; `layout` is passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Where a measurement window started.
pub struct Mark {
    live: usize,
    count: u64,
    bytes: u64,
}

/// What one window allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// High-water of live bytes above the window's starting level.
    pub peak_bytes: usize,
    /// Allocations (a growing `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// Open a window: the high-water mark restarts from the current level.
pub fn mark() -> Mark {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    Mark {
        live,
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Close a window opened by [`mark`].
pub fn since(m: &Mark) -> Window {
    Window {
        peak_bytes: PEAK.load(Relaxed).saturating_sub(m.live),
        count: COUNT.load(Relaxed) - m.count,
        bytes: BYTES.load(Relaxed) - m.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so drive the
    // bookkeeping directly through the `GlobalAlloc` methods.
    #[test]
    fn a_window_sees_its_own_peak_count_and_bytes() {
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let m = mark();
        // SAFETY: `layout` is nonzero-sized; each block is freed once
        // with the layout it was allocated (or last reallocated) with.
        unsafe {
            let a = Counting.alloc(layout);
            let b = Counting.alloc_zeroed(layout);
            assert!(!a.is_null() && !b.is_null());
            Counting.dealloc(a, layout);
            let b = Counting.realloc(b, layout, 8192);
            assert!(!b.is_null());
            Counting.dealloc(b, Layout::from_size_align(8192, 8).unwrap());
        }
        let w = since(&m);
        assert_eq!(w.count, 3);
        assert_eq!(w.bytes, 4096 + 4096 + 8192);
        assert_eq!(w.peak_bytes, 8192, "two blocks live at once");
        assert_eq!(since(&mark()).peak_bytes, 0, "a new window restarts");
    }
}
