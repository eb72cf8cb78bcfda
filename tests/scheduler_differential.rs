//! Full-machine differential tests of the simulator's bit-invisible modes.
//!
//! Message batching, the sharded executor, burst resume and zero-probability
//! fault injection must each produce **bit-identical** reports for every
//! scenario in the bundled corpus: same simulated time, ops, traffic, energy,
//! synchronization statistics — everything except the host-side [`SimPerf`]
//! counters, which depend on the wall clock.
//!
//! The corpus is the real scenario files under `scenarios/` (the paper's
//! Figure 10 sweeps, the open-loop services and the 4096-core scale-out),
//! loaded through the same TOML path the CLI uses.

use syncron::harness::toml;
use syncron::prelude::*;
use syncron::system::report::SimPerf;

/// Loads the `[sweep]` scenarios of a bundled file.
fn load_sweep(name: &str) -> Vec<Scenario> {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = toml::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    Sweep::scenarios_from_value(doc.get("sweep").expect("sweep table"))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs one scenario with message batching on and off and asserts report
/// equality. Batching merges equal-timestamp messages scheduled back to back
/// for one engine into a single queued event, so the *delivered-event count*
/// legitimately shrinks — but the simulation itself (time, ops, traffic,
/// energy, synchronization statistics) must not move by a bit.
fn assert_batching_is_invisible(scenario: &Scenario) -> RunReport {
    let mut batched = scenario.clone();
    batched.config = batched.config.with_message_batching(true);
    let mut unbatched = scenario.clone();
    unbatched.config = unbatched.config.with_message_batching(false);

    let batched_report = batched.run().expect("batched run");
    let unbatched_report = unbatched.run().expect("unbatched run");
    if let Some(field) = unbatched_report.divergence_from(&batched_report) {
        panic!(
            "{}: message batching diverged from the per-message reference in {field}",
            scenario.label
        );
    }
    assert!(
        batched_report.perf.events_delivered <= unbatched_report.perf.events_delivered,
        "{}: batching must never deliver more events",
        scenario.label
    );
    batched_report
}

#[test]
fn fig10_corpus_is_batching_invariant() {
    // The four Figure 10 microbenchmark sweeps at paper scale, with message
    // batching on vs off: reports must be bit-identical (the condvar sweep in
    // particular exercises the broadcast/wake bursts batching collapses).
    let mut total = 0;
    let mut saved = 0u64;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_batching_is_invisible(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
            saved += report.perf.events_delivered;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
    assert!(saved > 0, "no events delivered across the corpus");
}

#[test]
fn service_openloop_corpus_is_batching_invariant() {
    // The open-loop service corpus: all three service shapes under all three
    // arrival processes. Unlike the closed-loop sweeps, these scenarios carry a
    // latency summary in the report; `divergence_from` compares it bit-for-bit,
    // so this also proves the admission clock, the Zipf sampler and the
    // latency histogram are batching-independent.
    let scenarios = load_sweep("service_kv_openloop.toml");
    assert!(
        scenarios.len() >= 18,
        "corpus unexpectedly small: {} scenarios",
        scenarios.len()
    );
    for scenario in scenarios {
        let report = assert_batching_is_invisible(&scenario);
        assert!(report.completed, "{} did not complete", scenario.label);
        let latency = report.latency.unwrap_or_else(|| {
            panic!("{}: open-loop run lost its latency summary", scenario.label)
        });
        assert!(latency.ops > 0, "{}: no requests measured", scenario.label);
        assert!(
            latency.p50_ns <= latency.p99_ns && latency.p99_ns <= latency.p999_ns,
            "{}: quantiles out of order",
            scenario.label
        );
    }
}

/// Runs one scenario under the sharded (conservative-PDES) executor at several
/// worker counts, with message batching on and off, and asserts every report is
/// bit-identical to the sequential reference.
///
/// `shard_safe` says whether the scenario's workload opts into sharding; the
/// condvar microbenchmark does not (its signalers poll shared state outside
/// simulated critical sections), so every `sim_threads > 1` request must fall
/// back to sequential execution — as must the Ideal mechanism, which completes
/// synchronization without cross-unit messages and therefore without lookahead.
/// Fallbacks are pinned via `SimPerf::shards` (host-side, not part of the
/// compared report), and redundant worker counts are skipped for them: a
/// fallback at 4 workers is byte-for-byte the same computation at 2 or 8.
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
    let batching_modes: &[bool] = if falls_back { &[true] } else { &[true, false] };

    for &workers in worker_counts {
        for &batching in batching_modes {
            let mut sharded = scenario.clone();
            sharded.config = sharded
                .config
                .with_sim_threads(workers)
                .with_message_batching(batching);
            let report = sharded.run().expect("sharded run");
            assert_eq!(
                report.perf.shards,
                shards_expected(workers),
                "{}: unexpected shard count at {workers} workers",
                scenario.label
            );
            if let Some(field) = reference.divergence_from(&report) {
                panic!(
                    "{}: sharded run ({workers} workers, batching {batching}) diverged \
                     from the sequential reference in {field}",
                    scenario.label
                );
            }
        }
    }
    reference
}

#[test]
fn fig10_corpus_is_sharding_invariant() {
    // The four Figure 10 sweeps at paper scale under the sharded executor:
    // bit-identical to sequential at every worker count, with batching on and
    // off. The condvar sweep pins the shard-unsafe fallback instead.
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
    // 4096 cores across 64 units with a bounded event budget: the budget gate
    // fires at a window boundary, so even *truncated* runs must be
    // bit-identical to sequential at every worker count.
    let scenarios = load_sweep("scale_64x64.toml");
    assert_eq!(scenarios.len(), 4, "one scenario per scheme");
    for scenario in scenarios {
        assert_sharding_is_invisible(&scenario, true);
    }
}

/// Runs one scenario with burst resume on and off and asserts the reports are
/// bit-identical. Burst resume collapses same-timestamp wake-ups for one unit
/// into a single queued event, so the delivered-event count legitimately
/// shrinks; everything the report compares (time, ops, traffic, energy,
/// synchronization statistics, latency summaries) must not move by a bit.
fn assert_fastpath_is_invisible(scenario: &Scenario) -> RunReport {
    let mut plain = scenario.clone();
    plain.config = plain.config.with_burst_resume(false);
    let reference = plain.run().expect("reference run");

    let mut fast = scenario.clone();
    fast.config = fast.config.with_burst_resume(true);
    let report = fast.run().expect("fast-path run");
    if let Some(field) = reference.divergence_from(&report) {
        panic!(
            "{}: burst resume diverged from the per-waiter reference in {field}",
            scenario.label
        );
    }
    assert!(
        report.perf.events_delivered <= reference.perf.events_delivered,
        "{}: burst resume must never deliver more events",
        scenario.label
    );
    reference
}

#[test]
fn fig10_corpus_is_fastpath_invariant() {
    // The four Figure 10 sweeps with burst resume on vs off: reports must be
    // bit-identical. The barrier and condvar sweeps are the interesting ones —
    // broadcast releases are exactly the wake bursts the resume path
    // collapses.
    let mut total = 0;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_fastpath_is_invisible(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
}

#[test]
fn service_openloop_corpus_is_fastpath_invariant() {
    // The open-loop service corpus with burst resume on vs off. The latency
    // summary is part of the compared report, so per-request timing must be
    // untouched by how wake-ups are queued.
    let scenarios = load_sweep("service_kv_openloop.toml");
    assert!(
        scenarios.len() >= 18,
        "corpus unexpectedly small: {} scenarios",
        scenarios.len()
    );
    for scenario in scenarios {
        let report = assert_fastpath_is_invisible(&scenario);
        assert!(report.completed, "{} did not complete", scenario.label);
        assert!(
            report.latency.is_some(),
            "{}: open-loop run lost its latency summary",
            scenario.label
        );
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
