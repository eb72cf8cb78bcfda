//! Full-machine differential tests of the simulator's bit-invisible modes.
//!
//! The sharded executor and zero-probability fault injection must each
//! produce **bit-identical** reports for every scenario in the bundled corpus:
//! same simulated time, ops, traffic, energy, synchronization statistics —
//! everything except the host-side [`SimPerf`] counters, which depend on the
//! wall clock.
//!
//! The corpus is the real scenario files under `scenarios/` (the paper's
//! Figure 10 sweeps, the open-loop services and the 4096-core scale-out),
//! loaded through the same TOML path the CLI uses. Message batching has no
//! switch; `protocol::tests` compares it with the per-message reference.

use std::sync::{Mutex, MutexGuard, PoisonError};

use syncron::harness::toml;
use syncron::prelude::*;
use syncron::system::report::SimPerf;

/// Held by each test that runs sharded: a shard gate spins before it blocks
/// when the host has a CPU per shard, so two sharded tests running at once
/// burn each other's CPU. Poison-tolerant, so one failing test does not fail
/// the others.
static SHARDED: Mutex<()> = Mutex::new(());

fn one_sharded_test_at_a_time() -> MutexGuard<'static, ()> {
    SHARDED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Loads the `[sweep]` scenarios of a bundled file.
fn load_sweep(name: &str) -> Vec<Scenario> {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = toml::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    Sweep::scenarios_from_value(doc.get("sweep").expect("sweep table"))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs one scenario under the sharded (conservative-PDES) executor at several
/// worker counts and asserts every report is bit-identical to the sequential
/// reference.
///
/// `shard_safe` says whether the scenario's workload opts into sharding; the
/// condvar microbenchmark does not (its signalers poll shared state outside
/// simulated critical sections), so every `sim_threads > 1` request must fall
/// back to sequential execution — as must the Ideal mechanism, which completes
/// synchronization without cross-unit messages and therefore without lookahead.
/// Fallbacks are pinned via `SimPerf::shards` (host-side, not part of the
/// compared report), and redundant worker counts are skipped for them: a
/// fallback at 4 workers is byte-for-byte the same computation at 2 or 8.
/// `SimPerf::windows` must match too: the sequential run decides its windows
/// without the gate the sharded run uses.
fn assert_sharding_is_invisible(scenario: &Scenario, shard_safe: bool) -> RunReport {
    let mut sequential = scenario.clone();
    sequential.config = sequential.config.with_sim_threads(1);
    let reference = sequential.run().expect("sequential run");
    assert_eq!(
        reference.perf.shards, 1,
        "{}: sequential run must use one shard",
        scenario.label
    );

    let shards_expected = |workers: usize| -> usize {
        if shard_safe && scenario.config.mechanism != MechanismKind::Ideal {
            workers.min(scenario.config.units)
        } else {
            1
        }
    };
    let falls_back = shards_expected(usize::MAX) == 1;
    let worker_counts: &[usize] = if falls_back { &[4] } else { &[2, 4, 8] };

    for &workers in worker_counts {
        let mut sharded = scenario.clone();
        sharded.config = sharded.config.with_sim_threads(workers);
        let report = sharded.run().expect("sharded run");
        assert_eq!(
            report.perf.shards,
            shards_expected(workers),
            "{}: unexpected shard count at {workers} workers",
            scenario.label
        );
        if let Some(field) = reference.divergence_from(&report) {
            panic!(
                "{}: sharded run ({workers} workers) diverged from the sequential \
                 reference in {field}",
                scenario.label
            );
        }
        // The sequential run loop decides its windows without the gate;
        // walking exactly the gate's windows is what keeps truncated runs
        // identical.
        assert_eq!(
            report.perf.windows, reference.perf.windows,
            "{}: sharded run ({workers} workers) walked a different window \
             sequence than the sequential reference",
            scenario.label
        );
    }
    reference
}

#[test]
fn fig10_corpus_is_sharding_invariant() {
    let _sharded = one_sharded_test_at_a_time();
    // The four Figure 10 sweeps at paper scale under the sharded executor:
    // bit-identical to sequential at every worker count. The condvar sweep
    // pins the shard-unsafe fallback instead.
    let mut total = 0;
    for (file, shard_safe) in [
        ("fig10_lock.toml", true),
        ("fig10_barrier.toml", true),
        ("fig10_semaphore.toml", true),
        ("fig10_condvar.toml", false),
    ] {
        for scenario in load_sweep(file) {
            let report = assert_sharding_is_invisible(&scenario, shard_safe);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
}

#[test]
fn service_openloop_corpus_is_sharding_invariant() {
    let _sharded = one_sharded_test_at_a_time();
    // The open-loop service corpus under the sharded executor. The latency
    // summary is part of the compared report, so this also proves the
    // admission clock, the Zipf sampler and the per-request histograms are
    // untouched by shard count and window placement.
    let scenarios = load_sweep("service_kv_openloop.toml");
    assert!(
        scenarios.len() >= 18,
        "corpus unexpectedly small: {} scenarios",
        scenarios.len()
    );
    for scenario in scenarios {
        let report = assert_sharding_is_invisible(&scenario, true);
        assert!(report.completed, "{} did not complete", scenario.label);
        assert!(
            report.latency.is_some(),
            "{}: open-loop run lost its latency summary",
            scenario.label
        );
    }
}

#[test]
fn scale_64x64_is_sharding_invariant() {
    let _sharded = one_sharded_test_at_a_time();
    // 4096 cores across 64 units with a bounded event budget: the budget gate
    // fires at a window boundary, so even *truncated* runs must be
    // bit-identical to sequential at every worker count.
    let scenarios = load_sweep("scale_64x64.toml");
    assert_eq!(scenarios.len(), 4, "one scenario per scheme");
    for scenario in scenarios {
        assert_sharding_is_invisible(&scenario, true);
    }
}

/// Runs one scenario with the fault substrate fully off and again with it
/// *enabled but all probabilities zero*, asserting the reports are
/// bit-identical. This is the knob-aliveness half of the fault matrix: the
/// enabled run takes the fault code path (every mechanism message rolls a
/// verdict, carries a dedup tag budget, and could retransmit) yet must
/// schedule exactly the events of the fast path.
fn assert_zero_probability_faults_are_invisible(scenario: &Scenario) -> RunReport {
    let reference = scenario.run().expect("faults-off run");
    let mut zero = scenario.clone();
    zero.config = zero.config.with_fault(FaultConfig {
        enabled: true,
        ..FaultConfig::default()
    });
    let report = zero.run().expect("zero-probability run");
    if let Some(field) = reference.divergence_from(&report) {
        panic!(
            "{}: enabling fault injection with zero probabilities moved {field}",
            scenario.label
        );
    }
    assert_eq!(
        reference.perf.events_delivered, report.perf.events_delivered,
        "{}: zero-probability injection changed event accounting",
        scenario.label
    );
    let stats = report.faults.expect("enabled run reports fault stats");
    assert_eq!(
        stats.dropped
            + stats.retransmitted
            + stats.duplicated
            + stats.dup_discarded
            + stats.delayed
            + stats.stalled,
        0,
        "{}: zero-probability injection produced faults",
        scenario.label
    );
    reference
}

#[test]
fn fig10_corpus_is_invariant_under_zero_probability_faults() {
    // The four Figure 10 sweeps with the fault substrate off vs enabled-with-
    // zero-probabilities: bit-identical reports across the whole corpus.
    let mut total = 0;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_zero_probability_faults_are_invisible(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
}

#[test]
fn faulted_runs_are_seed_deterministic_and_shard_invariant() {
    let _sharded = one_sharded_test_at_a_time();
    // The other half of the fault matrix: with drops, duplicates and jitter
    // actually firing, runs must still (a) complete via timeout/retransmission,
    // (b) be bit-identical across repeated invocations (the fault plan is a
    // pure function of the scenario seed), and (c) be bit-identical between
    // the sequential and sharded executors (per-link fault state lives with
    // the shard that owns the sending unit).
    let fault = FaultConfig {
        enabled: true,
        drop_prob: 0.05,
        dup_prob: 0.05,
        jitter_ns: 30,
        ..FaultConfig::default()
    };
    let mut injected_somewhere = false;
    for scenario in load_sweep("fig10_lock.toml") {
        let mut faulted = scenario.clone();
        faulted.config = faulted.config.with_fault(fault);

        let first = faulted.run().expect("faulted run");
        assert!(
            first.completed,
            "{}: faulted run did not recover to completion",
            scenario.label
        );
        let again = faulted.run().expect("repeat faulted run");
        if let Some(field) = first.divergence_from(&again) {
            panic!(
                "{}: repeated faulted run diverged in {field} — the fault plan \
                 is not a pure function of the seed",
                scenario.label
            );
        }

        let mut sharded = faulted.clone();
        sharded.config = sharded.config.with_sim_threads(4);
        let sharded_report = sharded.run().expect("sharded faulted run");
        if let Some(field) = first.divergence_from(&sharded_report) {
            panic!(
                "{}: sharded faulted run diverged from sequential in {field}",
                scenario.label
            );
        }

        let stats = first.faults.expect("enabled run reports fault stats");
        assert_eq!(
            stats.dropped, stats.retransmitted,
            "{}: every dropped message must be retransmitted exactly once",
            scenario.label
        );
        assert_eq!(
            stats.duplicated, stats.dup_discarded,
            "{}: every duplicate must be discarded by receiver dedup",
            scenario.label
        );
        injected_somewhere |= stats.dropped + stats.duplicated + stats.delayed > 0;
    }
    assert!(
        injected_somewhere,
        "no faults fired across the whole lock sweep — the substrate is dead"
    );
}

#[test]
fn perf_counters_populate_without_affecting_results() {
    let scenario = load_sweep("fig10_barrier.toml")
        .into_iter()
        .next()
        .expect("scenario");
    let report = scenario.run().expect("run");
    assert!(report.perf.events_delivered > 0);
    assert!(report.perf.wall_seconds >= 0.0);
    assert!(report.perf.events_per_sec() >= 0.0);
    // Two runs of the same scenario: identical simulation, independent perf.
    let again = scenario.run().expect("run");
    assert!(report.same_simulation(&again));
    assert_eq!(
        report.perf.events_delivered,
        again.perf.events_delivered,
        "event counts are simulation-determined even though SimPerf is not \
         compared: {:?} vs {:?}",
        SimPerf::default(),
        again.perf
    );
}
