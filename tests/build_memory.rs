//! Standing a chip up costs about the chip: the builder writes every
//! crossbar word once, straight into the chip's arena, and keeps a shared
//! neuron config once per core, so the heap's peak while building stays
//! within a small multiple of the chip it builds. A restore writes each
//! image's crossbar words into the arena once and frees the images as it
//! goes, so its peak above the snapshot stays close to the chip.
//!
//! The bytes come from a counting global allocator, which is why this
//! suite is its own test binary (a `#[global_allocator]` is per binary).
//! The counters are thread-local, and building and restoring run on the
//! calling thread, so each test counts only its own heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use brainsim::chip::Chip;
use brainsim::core::EvalStrategy;
use brainsim_bench::corpus::{self, build_workload};

/// [`System`], tracking the live and peak heap bytes of the calling thread.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as i64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System` upholds the `GlobalAlloc` contract; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `alloc` contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: the caller's `realloc` contract, passed on unchanged;
        // `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller's `dealloc` contract, passed on unchanged;
        // `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the calling thread's peak live heap
/// while it ran and its live heap after it, both in bytes above the live
/// heap it started from.
fn measure<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let value = f();
    let after = LIVE.with(Cell::get) - start;
    (value, PEAK.with(Cell::get) - start, after)
}

/// The corpus entry measured: 64 full-size programmed cores, small enough
/// to build in a debug test.
const ENTRY: &str = "dense_8x8";

/// Build peak ÷ built live heap: at most the ROADMAP's 2×. Writing each
/// crossbar word once, keeping one shared config per core and building
/// the cores in placement order with no repack reads 1.76; a per-core
/// owned crossbar copy, a `Vec` arena copied into an `Arc`, 256 copies of
/// a shared config per builder and a repack pass read 3.17.
const BUILD_BOUND: f64 = 2.0;

/// Restore peak above the snapshot ÷ restored chip: less than one more
/// chip. One arena write with each core image freed once imported reads
/// 0.50; a per-core owned copy and a `Vec` arena copied into an `Arc`,
/// with every image kept to the end, read 1.91.
const RESTORE_BOUND: f64 = 1.0;

fn build() -> (Chip, i64, i64) {
    let def = corpus::find(ENTRY).expect("corpus entry exists");
    let ((chip, _), peak, built) = measure(|| build_workload(&def, EvalStrategy::Swar, 1));
    (chip, peak, built)
}

#[test]
fn building_peaks_within_a_small_multiple_of_the_chip() {
    let (_chip, peak, built) = build();
    let ratio = peak as f64 / built as f64;
    assert!(
        ratio <= BUILD_BOUND,
        "{ENTRY}: build peak {peak} B is {ratio:.2}x the built chip's {built} B"
    );
}

#[test]
fn restoring_peaks_close_to_the_chip_above_its_snapshot() {
    let (chip, _, _) = build();
    let (snapshot, _, snapshot_bytes) = measure(|| chip.checkpoint());
    // The restore consumes the snapshot: what it leaves behind is the
    // restored chip less the snapshot it freed.
    let (restored, peak, after) =
        measure(|| Chip::restore(snapshot).expect("a checkpoint restores"));
    let restored_bytes = after + snapshot_bytes;
    let ratio = peak as f64 / restored_bytes as f64;
    assert!(
        ratio <= RESTORE_BOUND,
        "{ENTRY}: restore peak {peak} B above the {snapshot_bytes} B snapshot \
         is {ratio:.2}x the restored chip's {restored_bytes} B"
    );
    assert_eq!(restored.checkpoint(), chip.checkpoint());
}
