//! The benchmark's own heap meter: a counting, peak-live-tracking
//! `GlobalAlloc` over the system allocator.
//!
//! Counted: every `alloc`/`alloc_zeroed` call, plus every `realloc` that
//! grows its block (one allocation, `new - old` bytes). Live bytes follow
//! every alloc, realloc and dealloc; the peak is the highest live value
//! since the last [`reset_peak`].
//!
//! The counters are per thread (const-initialised thread-locals with no
//! destructor, so touching them from inside the allocator neither
//! allocates nor registers anything): the benchmark runs on one thread
//! and reads its own, the meter costs a few plain moves per allocation
//! inside the timed region, and parallel unit tests cannot disturb each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// The metering allocator; installed as the global allocator in `main.rs`.
pub struct Meter;

#[inline]
fn grew(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + bytes);
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

#[inline]
fn shrank(bytes: usize) {
    // Saturating: a block freed on another thread than it was allocated
    // on must not wrap this thread's live count.
    LIVE.set(LIVE.get().saturating_sub(bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping touches
// only the thread-local cells above and never the allocated memory.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Allocation totals of the calling thread since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Allocations (incl. growing reallocs).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Totals {
    /// Totals accumulated since `earlier`.
    pub fn since(self, earlier: Totals) -> Totals {
        Totals {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for Totals {
    fn add_assign(&mut self, other: Totals) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

/// The running totals.
pub fn totals() -> Totals {
    Totals {
        allocs: ALLOCS.get(),
        bytes: BYTES.get(),
    }
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.set(LIVE.get());
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_tracks_the_peak() {
        let before = totals();
        reset_peak();
        let floor = peak_bytes();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        let d = totals().since(before);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes, 1 << 20);
        assert_eq!(peak_bytes(), floor + (1 << 20));
        drop(v);
        assert_eq!(peak_bytes(), floor + (1 << 20), "peak survives the free");
        reset_peak();
        assert_eq!(peak_bytes(), floor);
    }
}
