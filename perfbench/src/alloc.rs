//! A counting global allocator: the system allocator plus process-wide
//! counters of allocation calls, bytes requested, live bytes and the peak
//! of live bytes, and a per-thread count of bytes requested.  With one
//! client thread the counts over a fixed input repeat exactly, so they can
//! back counter-based gates.
//!
//! The window peak is the program's: bytes the benchmark declares as its
//! own ([`own`], and the sample buffers) are subtracted from the live heap
//! before it is compared with the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark binary's allocator (installed in `main.rs`).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Live bytes the benchmark itself holds: its inputs and sample buffers.
static HARNESS: AtomicU64 = AtomicU64::new(0);
/// Peak of `LIVE - HARNESS` since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Peak of `LIVE` over the whole process.
static RAW_PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn raise(peak: &AtomicU64, v: u64) {
    if v > peak.load(Ordering::Relaxed) {
        peak.fetch_max(v, Ordering::Relaxed);
    }
}

fn grow(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    THREAD_BYTES.with(|b| b.set(b.get() + size));
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    raise(&RAW_PEAK, live);
    raise(&PEAK, live.saturating_sub(HARNESS.load(Ordering::Relaxed)));
}

fn shrink(size: u64) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// relaxed atomics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            shrink(layout.size() as u64);
            grow(new_size as u64);
        }
        out
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counters now.
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counts since `self`.
    pub fn since(self) -> AllocSnapshot {
        let now = AllocSnapshot::now();
        AllocSnapshot {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// Bytes requested by the calling thread so far.
pub fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Runs `f` and declares the bytes it leaves live as the benchmark's own,
/// for the rest of the process: use it only for what lives through the
/// last timed window, and only while no other thread allocates.
pub fn own<R>(f: impl FnOnce() -> R) -> R {
    let before = LIVE.load(Ordering::Relaxed);
    let r = f();
    own_bytes(LIVE.load(Ordering::Relaxed).saturating_sub(before));
    r
}

/// Declares `bytes` more as the benchmark's own.  Declared before the
/// allocation they stand for, they never show in the peak.
pub fn own_bytes(bytes: u64) {
    HARNESS.fetch_add(bytes, Ordering::Relaxed);
}

/// The highest live-heap size, less the benchmark's own bytes, since the
/// last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new peak window at the current live-heap size less the
/// benchmark's own bytes.
pub fn reset_peak() {
    PEAK.store(
        LIVE.load(Ordering::Relaxed)
            .saturating_sub(HARNESS.load(Ordering::Relaxed)),
        Ordering::Relaxed,
    );
}

/// The highest live-heap size seen in this process, the benchmark's own
/// bytes included, in bytes.
pub fn process_peak_bytes() -> u64 {
    RAW_PEAK.load(Ordering::Relaxed)
}
