//! Heap budgets of the simulator: the peak live heap of the benchmark's
//! largest scale-out scenario, and the allocations a run makes once built.
//!
//! The `scaleout` benchmark workload peaks on its 64×64 Hier barrier micro
//! (4,096 cores, interval 100, four iterations). At that size a per-unit or
//! per-core structure sized from the geometry rather than from use (an M/D/1
//! table per crossbar, an engine arena reserved for many variables, a queue
//! reserved for several events per client) costs megabytes while the micro
//! tracks one variable. The first test pins the scenario's peak live heap under
//! a budget, so such a structure fails tier-1 instead of hiding in RSS noise.
//!
//! The paper's application shapes on Table 5's 4×16 machine peak on the work
//! their programs buffer: a graph program holds one vertex's actions, a
//! time-series program one diagonal step, and Ideal one slot per lock in use.
//! Three more tests pin the peak live heap of PageRank over `wk` under SynCron
//! and under Ideal, and of the `pow` time series under SynCron, so a program
//! that buffers a whole iteration again, or an Ideal table that keeps every
//! lock it has seen, fails tier-1.
//!
//! A graph scenario's input is built once per process and shared read-only by
//! every machine over the same input and seed (`GraphInput::shared`). One more
//! test pins the peak live heap of a second `NdpMachine::new` for PageRank over
//! `wk`, after a warm-up build on the same thread: a set-up that generates the
//! graph again (its edge list and CSR) reads 238,720 B, over the budget.
//!
//! The run loop must not allocate per event: the event queue reuses the slab
//! slots of popped events, and engine arenas recycle their slots. The other
//! tests count the allocator calls inside `NdpMachine::run` for two shapes and
//! pin each count under a budget; an allocation per event, or per message,
//! would exceed it many times over. The same two tests pin the events each run
//! delivers at one shard, exactly: the count is host-independent, and a
//! message-batching merge that is lost or turns over-conservative leaves every
//! result bit-identical and moves only this count (and wall time).
//!
//! The test binary has a counting `#[global_allocator]` of its own, which keeps
//! live bytes, peak bytes and allocator calls per thread; a sequential run
//! allocates and frees on the calling thread only, so tests on other threads
//! cannot move a count. The M/D/1 tables and the input graphs are shared by
//! the whole process: the count tests and the second-build test build them in
//! a warm-up before they measure, and when another test built them first, a
//! peak test reads a lower peak than it does alone, never a higher one. `cargo
//! test --test heap_budget -- --nocapture` prints the measured counts, and
//! `cargo test --test heap_budget <test name> -- --nocapture` one peak the way
//! its budget was measured, alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use syncron::prelude::*;
use syncron::system::NdpMachine;
use syncron::workloads::graph::{GraphAlgo, Partitioning};
use syncron::workloads::micro::SyncPrimitive;

/// Peak live heap of the 64×64 Hier barrier scenario, measured when the budget
/// was set, in bytes. The peaks pinned here are deterministic, and the release
/// and test profiles agree on them.
const MEASURED_PEAK_BYTES: usize = 2_626_919;
/// Peak live heap of PageRank over `wk` under SynCron on Table 5's 4×16
/// machine, measured when the budget was set, in bytes.
const PR_WK_SYNCRON_PEAK_BYTES: usize = 1_690_234;
/// The same shape under Ideal.
const PR_WK_IDEAL_PEAK_BYTES: usize = 1_625_580;
/// The `pow` time series (two diagonals per core, as in the benchmark) under
/// SynCron on the same machine.
const TS_POW_SYNCRON_PEAK_BYTES: usize = 541_962;
/// Peak live heap of a second `NdpMachine::new` for PageRank over `wk` under
/// SynCron on the same machine, which finds its input graph already built,
/// measured when the budget was set.
const PR_WK_SECOND_NEW_PEAK_BYTES: usize = 130_988;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
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

/// Counts one `alloc` or `realloc` call on this thread.
fn note_call() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
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
            note_call();
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
            note_call();
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

/// Runs `f` and returns its result with the number of `alloc` and `realloc`
/// calls it made on this thread.
fn with_allocator_calls<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - base)
}

/// Builds the scenario's machine and counts the allocator calls its `run`
/// makes, after a warm-up run of the same scenario (see the module docs).
/// Returns the count and the events the run delivered on its one shard.
fn run_allocator_calls(config: ConfigSpec, workload: WorkloadSpec) -> (usize, u64) {
    let config = config.to_ndp_config().expect("a valid configuration");
    let workload = workload.build().expect("a valid workload");
    assert!(NdpMachine::new(&config, workload.as_ref()).run().completed);
    let mut machine = NdpMachine::new(&config, workload.as_ref());
    let (report, calls) = with_allocator_calls(|| machine.run());
    assert!(report.completed, "the scenario must complete");
    assert_eq!(
        report.perf.shards, 1,
        "event counts are pinned at one shard"
    );
    (calls, report.perf.events_delivered)
}

/// Builds and runs the scenario, and checks the peak live heap of its set-up
/// and run against its budget.
fn assert_within_peak_budget(
    name: &str,
    config: ConfigSpec,
    workload: WorkloadSpec,
    measured: usize,
) {
    let (report, peak) = with_peak_heap(|| {
        Scenario::new(name, config, workload)
            .run()
            .expect("a valid scenario")
    });
    assert!(report.completed, "the scenario must complete");
    assert_peak_within_budget(name, peak, measured);
}

/// Checks `peak` against `measured` plus 25% slack for growth-policy changes
/// in the standard library and small additions of simulated state.
fn assert_peak_within_budget(name: &str, peak: usize, measured: usize) {
    let budget = measured + measured / 4;
    println!("{name}: peak live heap {peak} B (budget {budget} B)");
    assert!(
        peak <= budget,
        "{name}: peak live heap {peak} B exceeds the budget of {budget} B \
         ({measured} B measured + 25%)"
    );
}

#[test]
fn scaleout_peak_scenario_stays_within_its_heap_budget() {
    let mut config = ConfigSpec::default()
        .with_geometry(64, 64)
        .with_mechanism(MechanismKind::Hier);
    config.max_events = 40_000_000;
    let workload = WorkloadSpec::Micro {
        primitive: SyncPrimitive::Barrier,
        interval: 100,
        iterations: 4,
    };
    assert_within_peak_budget(
        "scaleout-64x64/hier/barrier",
        config,
        workload,
        MEASURED_PEAK_BYTES,
    );
}

/// Table 5's machine: 4 units of 16 cores under `kind`.
fn paper_machine(kind: MechanismKind) -> ConfigSpec {
    ConfigSpec::default()
        .with_geometry(4, 16)
        .with_mechanism(kind)
}

/// PageRank over the `wk` input.
fn pr_wk() -> WorkloadSpec {
    WorkloadSpec::Graph {
        algo: GraphAlgo::Pr,
        input: "wk".to_string(),
        partitioning: Partitioning::Striped,
    }
}

#[test]
fn pr_wk_syncron_peak_stays_within_its_heap_budget() {
    assert_within_peak_budget(
        "4x16/syncron/pr.wk",
        paper_machine(MechanismKind::SynCron),
        pr_wk(),
        PR_WK_SYNCRON_PEAK_BYTES,
    );
}

#[test]
fn pr_wk_ideal_peak_stays_within_its_heap_budget() {
    assert_within_peak_budget(
        "4x16/ideal/pr.wk",
        paper_machine(MechanismKind::Ideal),
        pr_wk(),
        PR_WK_IDEAL_PEAK_BYTES,
    );
}

#[test]
fn ts_pow_syncron_peak_stays_within_its_heap_budget() {
    let workload = WorkloadSpec::TimeSeries {
        input: "pow".to_string(),
        diagonals_per_core: 2,
    };
    assert_within_peak_budget(
        "4x16/syncron/ts.pow",
        paper_machine(MechanismKind::SynCron),
        workload,
        TS_POW_SYNCRON_PEAK_BYTES,
    );
}

#[test]
fn pr_wk_second_build_reuses_its_input_graph() {
    let config = paper_machine(MechanismKind::SynCron)
        .to_ndp_config()
        .expect("a valid configuration");
    let workload = pr_wk().build().expect("a valid workload");
    drop(NdpMachine::new(&config, workload.as_ref()));
    let (machine, peak) = with_peak_heap(|| NdpMachine::new(&config, workload.as_ref()));
    drop(machine);
    assert_peak_within_budget(
        "4x16/syncron/pr.wk, second new",
        peak,
        PR_WK_SECOND_NEW_PEAK_BYTES,
    );
}

/// Allocator calls inside `run` of the 64×64 Hier barrier micro (the peak
/// scenario above), measured when the budget was set. The count is
/// deterministic; the release and test profiles agree on it.
const BARRIER_64X64_RUN_CALLS: usize = 2_438;
/// Allocator calls inside `run` of PageRank over `wk` under SynCron on Table
/// 5's 4×16 machine, measured when the budget was set.
const PR_WK_4X16_RUN_CALLS: usize = 1_409;
/// Events the 64×64 Hier barrier micro delivers at one shard.
const BARRIER_64X64_RUN_EVENTS: u64 = 84_948;
/// Events PageRank over `wk` under SynCron on Table 5's 4×16 machine delivers
/// at one shard.
const PR_WK_4X16_RUN_EVENTS: u64 = 1_044_159;

/// Checks `events` against its exact pin, and `calls` against `measured` plus
/// 25% slack for growth-policy changes in the standard library and small
/// additions of simulated state.
fn assert_run_costs(
    name: &str,
    (calls, events): (usize, u64),
    measured: usize,
    pinned_events: u64,
) {
    let budget = measured + measured / 4;
    println!("{name}: {calls} allocator calls inside run over {events} events (budget {budget})");
    assert_eq!(
        events, pinned_events,
        "{name} delivered {events} events, pinned at {pinned_events}: a change \
         that moves the count on purpose re-measures it and updates the pin"
    );
    assert!(
        calls <= budget,
        "{name} made {calls} allocator calls inside run, over the budget of \
         {budget} ({measured} measured + 25%)"
    );
}

#[test]
fn scaleout_barrier_run_allocates_within_its_budget() {
    let mut config = ConfigSpec::default()
        .with_geometry(64, 64)
        .with_mechanism(MechanismKind::Hier);
    config.max_events = 40_000_000;
    let workload = WorkloadSpec::Micro {
        primitive: SyncPrimitive::Barrier,
        interval: 100,
        iterations: 4,
    };
    let counted = run_allocator_calls(config, workload);
    assert_run_costs(
        "64x64 Hier barrier",
        counted,
        BARRIER_64X64_RUN_CALLS,
        BARRIER_64X64_RUN_EVENTS,
    );
}

#[test]
fn paper_app_run_allocates_within_its_budget() {
    let counted = run_allocator_calls(paper_machine(MechanismKind::SynCron), pr_wk());
    assert_run_costs(
        "4x16 SynCron pr.wk",
        counted,
        PR_WK_4X16_RUN_CALLS,
        PR_WK_4X16_RUN_EVENTS,
    );
}
