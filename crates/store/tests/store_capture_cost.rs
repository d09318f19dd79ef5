//! Capture-cost gate: [`SynopsisStore::snapshot_view`] must allocate the
//! same bytes whatever the unsealed volume, because a view shares the
//! memtables' expected frequencies copy-on-write and never copies their
//! record buffers.  The bar is checked with a counting global allocator,
//! not a wall clock, so it is deterministic on any machine — and the
//! views it measures must still answer bitwise what the store answers.
//!
//! The allocator counts per thread, so the harness (or a parallel test)
//! allocating on another thread cannot pollute a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pds_core::metrics::ErrorMetric;
use pds_core::stream::{basic_stream, BasicStreamConfig, StreamRecord};
use pds_store::{PartitionSpec, SnapshotView, StoreConfig, SynopsisKind, SynopsisStore};

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(size: usize) {
    let _ = ALLOCATED.try_with(|c| {
        let (bytes, allocs) = c.get();
        c.set((bytes + size as u64, allocs + 1));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s allocator guarantees hold; the counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes and allocation calls this thread made while running `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (b0, a0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (b1, a1) = ALLOCATED.with(Cell::get);
    (out, (b1 - b0, a1 - a0))
}

const N: usize = 4096;
const PARTS: usize = 16;

/// A 16-partition store with one sealed segment per partition and then
/// `unsealed` live records (every tenth one an in-partition x-tuple), the
/// seal threshold out of reach so none of them seal.
fn store_with_unsealed(unsealed: usize) -> SynopsisStore {
    let store = SynopsisStore::new(StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).unwrap(),
        usize::MAX,
        8,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
    .unwrap();
    let width = N / PARTS;
    let sealed: Vec<StreamRecord> = (0..N)
        .step_by(7)
        .map(|item| StreamRecord::Basic {
            item,
            prob: 0.1 + (item % 9) as f64 * 0.1,
        })
        .collect();
    store.ingest_batch(sealed).unwrap();
    store.seal_all().unwrap();
    assert_eq!(store.stats().segments, PARTS);
    let live = basic_stream(BasicStreamConfig {
        n: N,
        skew: 0.8,
        seed: 7,
    })
    .take(unsealed)
    .enumerate()
    .map(|(i, record)| match record {
        StreamRecord::Basic { item, prob } if i % 10 == 0 => {
            let base = item / width * width;
            StreamRecord::Alternatives(vec![
                (item, prob / 2.0),
                (base + (item + 1) % width, prob / 2.0),
            ])
        }
        other => other,
    });
    store.ingest_batch(live).unwrap();
    assert_eq!(store.stats().live_records, unsealed as u64);
    store
}

fn assert_bitwise_equal(view: &SnapshotView, store: &SynopsisStore, ctx: &str) {
    for lo in (0..N).step_by(97) {
        for hi in [lo, lo + 13, lo + 300, N - 1, N + 50] {
            assert_eq!(
                view.range_estimate(lo, hi).to_bits(),
                store.range_estimate(lo, hi).to_bits(),
                "{ctx}: view and store differ at [{lo}, {hi}]"
            );
        }
        assert_eq!(
            view.estimate(lo).to_bits(),
            store.estimate(lo).to_bits(),
            "{ctx}: point {lo}"
        );
    }
}

#[test]
fn capture_allocates_the_same_bytes_at_any_unsealed_volume() {
    let mut costs = Vec::new();
    for unsealed in [10_000, 200_000] {
        let store = store_with_unsealed(unsealed);
        let ctx = format!("{unsealed} unsealed records");
        // Three captures each: the cost is the same on every call, not
        // only after a warm-up.
        let mut cost = None;
        for _ in 0..3 {
            let (view, this) = measure(|| store.snapshot_view());
            assert_eq!(view.live_records(), unsealed as u64, "{ctx}");
            assert_eq!(view.segment_count(), PARTS, "{ctx}");
            assert_bitwise_equal(&view, &store, &ctx);
            assert!(
                cost.is_none_or(|c| c == this),
                "{ctx}: capture cost moved between calls"
            );
            cost = Some(this);
        }
        costs.push(cost.unwrap());
    }
    let ((small_bytes, small_allocs), (large_bytes, large_allocs)) = (costs[0], costs[1]);
    assert_eq!(
        (small_bytes, small_allocs),
        (large_bytes, large_allocs),
        "snapshot_view() allocated {small_bytes} B in {small_allocs} calls at 10k unsealed \
         records but {large_bytes} B in {large_allocs} calls at 200k"
    );
}
