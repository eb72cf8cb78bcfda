//! Heap budget of the benchmark's largest scale-out scenario.
//!
//! The `scaleout` benchmark workload peaks on its 64×64 Hier barrier micro
//! (4,096 cores, interval 100, four iterations). At that size a per-unit or
//! per-core structure sized from the geometry rather than from use (an M/D/1
//! table per crossbar, an engine arena reserved for many variables, a queue
//! reserved for several events per client) costs megabytes while the micro
//! tracks one variable. This test pins the scenario's peak live heap under a
//! budget, so such a structure fails tier-1 instead of hiding in RSS noise.
//!
//! The test binary has a counting `#[global_allocator]` of its own, which keeps
//! live and peak bytes per thread; a sequential run allocates and frees on the
//! calling thread only. It holds one test, so no other test's allocations (or
//! the process-wide M/D/1 tables another test would build first) can move the
//! count. Run it alone with
//! `cargo test --test heap_budget -- --nocapture` to print the measured peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use syncron::prelude::*;
use syncron::workloads::micro::SyncPrimitive;

/// Peak live heap of the scenario measured when the budget was set, in bytes.
/// The count is deterministic, and the release and test profiles agree on it.
const MEASURED_PEAK_BYTES: usize = 2_626_919;
/// Slack over the measurement for growth-policy changes in the standard library
/// and small additions of simulated state: 25%.
const BUDGET_BYTES: usize = MEASURED_PEAK_BYTES + MEASURED_PEAK_BYTES / 4;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to this thread's live count and raises its peak.
fn note(delta: isize) {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the counting beside it touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak number of bytes live on this
/// thread while it ran, above the live count at entry.
fn with_peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - base) as usize)
}

#[test]
fn scaleout_peak_scenario_stays_within_its_heap_budget() {
    let (report, peak) = with_peak_heap(|| {
        let mut config = ConfigSpec::default()
            .with_geometry(64, 64)
            .with_mechanism(MechanismKind::Hier);
        config.max_events = 40_000_000;
        let workload = WorkloadSpec::Micro {
            primitive: SyncPrimitive::Barrier,
            interval: 100,
            iterations: 4,
        };
        Scenario::new("scaleout-64x64/hier/barrier", config, workload)
            .run()
            .expect("a valid scenario")
    });
    assert!(report.completed, "the scenario must complete");
    println!("peak live heap: {peak} B (budget {BUDGET_BYTES} B)");
    assert!(
        peak <= BUDGET_BYTES,
        "peak live heap {peak} B exceeds the budget of {BUDGET_BYTES} B \
         ({MEASURED_PEAK_BYTES} B measured + 25%)"
    );
}
