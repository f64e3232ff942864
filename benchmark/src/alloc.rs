//! Counting global allocator: allocation calls and peak live bytes.
//!
//! The hot paths under measurement allocate (a `Vec` per element read), so
//! the counter itself must not become the contended cache line the benchmark
//! is trying to expose. Each thread therefore writes only its own padded
//! slot with plain relaxed load/store pairs (no `lock` prefix); a snapshot
//! sums the slots. Two threads share a slot only when their ids differ by a
//! multiple of [`SLOTS`] while both are alive, in which case an update may
//! be lost — counts are exact for up to [`SLOTS`] threads per process and
//! within a few calls beyond that.
//!
//! Peak live bytes is sampled, not tracked per call: the slots are summed on
//! every allocation of at least [`SAMPLE_BYTES`] and on every
//! [`SAMPLE_CALLS`]-th call of a slot. Heaps that matter here grow by large
//! blocks (vector doubling), so the sampled peak is within
//! `SAMPLE_CALLS × small-block size` per thread of the true one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

const SLOTS: usize = 256;
const SAMPLE_BYTES: usize = 16 * 1024;
const SAMPLE_CALLS: u64 = 1024;

#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    calls: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    live: AtomicI64::new(0),
};
static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator never allocates.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn slot() -> &'static Slot {
    let idx = SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_THREAD.fetch_add(1, Relaxed) as usize % SLOTS);
        }
        s.get()
    });
    &TABLE[idx]
}

fn live_now() -> i64 {
    TABLE.iter().map(|s| s.live.load(Relaxed)).sum()
}

#[inline]
fn on_alloc(size: usize, delta: i64) {
    let s = slot();
    let calls = s.calls.load(Relaxed) + 1;
    s.calls.store(calls, Relaxed);
    s.bytes.store(s.bytes.load(Relaxed) + size as u64, Relaxed);
    s.live.store(s.live.load(Relaxed) + delta, Relaxed);
    if size >= SAMPLE_BYTES || calls.is_multiple_of(SAMPLE_CALLS) {
        PEAK.fetch_max(live_now(), Relaxed);
    }
}

/// The benchmark binary's `#[global_allocator]`.
pub struct Counting;

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only static atomics and a destructor-free thread-local, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size(), layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size(), layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let s = slot();
        s.live
            .store(s.live.load(Relaxed) - layout.size() as i64, Relaxed);
        // SAFETY: `ptr` was returned by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was returned by this allocator with `layout`, and the
        // caller guarantees `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_alloc(new_size, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes live now.
    pub live: i64,
}

/// Sums the per-thread slots.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: TABLE.iter().map(|s| s.calls.load(Relaxed)).sum(),
        bytes: TABLE.iter().map(|s| s.bytes.load(Relaxed)).sum(),
        live: live_now(),
    }
}

/// Restarts peak tracking from the bytes live now.
pub fn reset_peak() {
    PEAK.store(live_now(), Relaxed);
}

/// Highest live-byte total sampled since [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.fetch_max(live_now(), Relaxed).max(live_now()).max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_pattern_moves_calls_live_and_peak() {
        // Other tests allocate concurrently on other slots, so compare this
        // thread's own slot for the exact counts and the global peak loosely.
        let mine = slot();
        let (calls0, live0) = (mine.calls.load(Relaxed), mine.live.load(Relaxed));
        reset_peak();
        let base = peak();
        let big = vec![1u8; 4 << 20];
        let small: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        assert_eq!(mine.calls.load(Relaxed) - calls0, 1 + 1 + 100);
        assert_eq!(
            mine.live.load(Relaxed) - live0,
            (4 << 20) + 100 * 8 + 100 * 8
        );
        std::hint::black_box((&big, &small));
        drop(big);
        drop(small);
        assert_eq!(mine.live.load(Relaxed), live0);
        assert!(
            peak() >= base + (4 << 20),
            "the 4 MiB block was sampled into the peak"
        );
    }
}
