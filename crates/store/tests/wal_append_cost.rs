//! WAL append cost gate: a steady-state [`PartitionWal::append`] makes no
//! heap allocation — each frame is encoded into a buffer the log owns and
//! reuses — and a fixed record mix costs an exact number of log bytes.
//! Both bars are counted, not timed, so they are deterministic on any
//! machine.
//!
//! The allocator counts per thread, so the harness (or a parallel test)
//! allocating on another thread cannot pollute a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pds_core::stream::StreamRecord;
use pds_store::{wal, PartitionWal, WalSync};

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

/// The fixed mix and each record's exact frame size: a 12-byte header
/// (length, length check, payload CRC), a tag byte, LEB128 varints for
/// items and counts, and 8 bytes per `f64`.
fn mix() -> Vec<(StreamRecord, u64)> {
    vec![
        (StreamRecord::Basic { item: 3, prob: 0.5 }, 12 + 1 + 1 + 8),
        (
            StreamRecord::Basic {
                item: 5_000,
                prob: 0.25,
            },
            12 + 1 + 2 + 8,
        ),
        (
            StreamRecord::Alternatives(vec![(7, 0.25), (9, 0.5)]),
            12 + 1 + 1 + 2 * (1 + 8),
        ),
        (
            StreamRecord::ValueDistribution {
                item: 11,
                entries: vec![(2.0, 0.5), (4.0, 0.25)],
            },
            12 + 1 + 1 + 1 + 2 * 16,
        ),
    ]
}

#[test]
fn steady_state_appends_allocate_nothing_and_cost_exact_bytes() {
    let dir = std::env::temp_dir().join(format!("pds-wal-append-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut log, replayed) = PartitionWal::open(&dir, 0).unwrap();
    assert!(replayed.is_empty());
    let mix = mix();
    let mix_bytes: u64 = mix.iter().map(|(_, bytes)| bytes).sum();
    for (record, bytes) in &mix {
        assert_eq!(
            wal::frame_record(record).unwrap().len() as u64,
            *bytes,
            "{record:?}"
        );
    }

    // Warm-up: the first pass grows the reused frame buffer to the
    // largest frame in the mix.
    for (record, _) in &mix {
        log.append(record).unwrap();
    }
    log.commit_group(WalSync::Flush).unwrap();
    let path = dir.join("wal-0.log");
    let envelope = wal::encode_log(&[]).unwrap().len() as u64;
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        envelope + mix_bytes
    );

    const ROUNDS: u64 = 1_000;
    let ((), (bytes, allocs)) = measure(|| {
        for _ in 0..ROUNDS {
            for (record, _) in &mix {
                log.append(record).unwrap();
            }
        }
    });
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "{} steady-state appends allocated {bytes} B in {allocs} calls",
        ROUNDS * mix.len() as u64
    );
    let ((), (bytes, allocs)) = measure(|| log.commit_group(WalSync::Flush).unwrap());
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "a group commit allocated {bytes} B in {allocs} calls"
    );

    // Exact bytes: every record of the mix costs its frame, nothing more.
    let logged = std::fs::metadata(&path).unwrap().len() - envelope;
    let records = (ROUNDS + 1) * mix.len() as u64;
    assert_eq!(logged, (ROUNDS + 1) * mix_bytes);
    assert_eq!(logged as f64 / records as f64, 31.0, "WAL bytes per record");
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}
