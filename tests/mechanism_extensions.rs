//! Differential coverage for the two schemes added on top of the
//! component-table / policy split: the MCS-style hardware queue lock and the
//! Adaptive (per-variable Central-to-Hier escalation) policy.
//!
//! `tests/scheduler_differential.rs` pins the original corpus; this suite
//! extends the same invariants — message-batching and shard invisibility —
//! to the `mechanism_extensions.toml` sweep, which runs all seven mechanism
//! kinds over a contended lock and the fine-grained (per-key lock) open-loop
//! KV service. It also pins two scheme-specific contracts:
//!
//! * the MCS handoff chain wakes every waiter exactly once even when the
//!   queue is longer than the 64-entry Synchronization Table (128 waiters);
//! * the Adaptive policy always falls back to sequential execution under the
//!   sharded executor (its escalation set is fed by globally observed
//!   contention, which shards would partition).

use syncron::core::mechanism::MechanismParams;
use syncron::harness::toml;
use syncron::prelude::*;
use syncron::workloads::micro::{BarrierMicrobench, LockMicrobench};

/// Loads the `[sweep]` scenarios of a bundled file.
fn load_sweep(name: &str) -> Vec<Scenario> {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = toml::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    Sweep::scenarios_from_value(doc.get("sweep").expect("sweep table"))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The extension corpus must keep covering every mechanism kind: a scheme
/// silently dropped from the scenario file would otherwise shrink this suite
/// to a subset without failing anything.
fn load_extension_corpus() -> Vec<Scenario> {
    let scenarios = load_sweep("mechanism_extensions.toml");
    for kind in MechanismKind::ALL {
        assert!(
            scenarios.iter().any(|s| s.config.mechanism == kind),
            "mechanism_extensions.toml no longer covers {kind:?}"
        );
    }
    scenarios
}

#[test]
fn extension_corpus_is_batching_invariant() {
    for scenario in load_extension_corpus() {
        let report = scenario.run().expect("batched run");
        let mut unbatched = scenario.clone();
        unbatched.config = unbatched.config.with_message_batching(false);
        let unbatched_report = unbatched.run().expect("unbatched run");
        if let Some(field) = unbatched_report.divergence_from(&report) {
            panic!(
                "{}: message batching diverged from the per-message reference in {field}",
                scenario.label
            );
        }
        assert!(report.completed, "{} did not complete", scenario.label);
    }
}

#[test]
fn extension_corpus_is_sharding_invariant() {
    // MCS is shard-safe (queue nodes live at the lock's master engine, so the
    // handoff chain is ordinary cross-unit messaging); Adaptive and Ideal must
    // fall back to one shard. Either way the report must be bit-identical to
    // the sequential reference.
    for scenario in load_extension_corpus() {
        let mut sequential = scenario.clone();
        sequential.config = sequential.config.with_sim_threads(1);
        let reference = sequential.run().expect("sequential run");
        assert_eq!(reference.perf.shards, 1, "{}", scenario.label);

        let falls_back = matches!(
            scenario.config.mechanism,
            MechanismKind::Ideal | MechanismKind::Adaptive
        );
        let mut sharded = scenario.clone();
        sharded.config = sharded.config.with_sim_threads(4);
        let report = sharded.run().expect("sharded run");
        assert_eq!(
            report.perf.shards,
            if falls_back {
                1
            } else {
                4.min(scenario.config.units)
            },
            "{}: unexpected shard count",
            scenario.label
        );
        if let Some(field) = reference.divergence_from(&report) {
            panic!(
                "{}: sharded run diverged from the sequential reference in {field}",
                scenario.label
            );
        }
    }
}

#[test]
fn mcs_handoff_wakes_more_waiters_than_the_st_holds_exactly_once() {
    // 8 units x 16 cores (one core per unit serves the engine, 120 clients),
    // every client spinning on one global lock: the MCS queue holds up to 119
    // waiters at once — nearly twice the Synchronization Table's 64 entries —
    // and the critical sections are empty, so the run only drains if every
    // tail handoff wakes its successor exactly once. A lost wakeup deadlocks
    // the chain (completed = false); a duplicate grant trips the owner
    // assertion in the master-lock component.
    let config = NdpConfig::builder()
        .units(8)
        .cores_per_unit(16)
        .mechanism(MechanismKind::Mcs)
        .build()
        .expect("valid config");
    let clients = (config.units * config.clients_per_unit()) as u64;
    assert!(clients > 100, "geometry must outnumber the 64-entry ST");
    let iterations = 4;
    let report = run_workload(&config, &LockMicrobench::new(10, iterations));
    assert!(report.completed, "MCS handoff chain lost a wakeup");
    let expected = clients * iterations as u64;
    assert_eq!(
        report.total_ops, expected,
        "every waiter must complete every acquisition exactly once"
    );
    assert!(
        report.sync.completions >= expected,
        "each acquisition completes through the queue exactly once"
    );
}

#[test]
fn adaptive_threshold_changes_the_protocol_deterministically() {
    // The escalation threshold is a real protocol knob: with it out of reach
    // the hot lock stays on the flat path for the whole run, at the floor it
    // escalates to hierarchical aggregation after the first contended grant —
    // and the two runs must time out differently. Same-threshold runs stay
    // bit-identical (the escalation set is simulation state, not host state).
    let run = |threshold: u32| {
        let config = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .mechanism_params(
                MechanismParams::new(MechanismKind::Adaptive).with_adaptive_threshold(threshold),
            )
            .build()
            .expect("valid config");
        run_workload(&config, &LockMicrobench::new(50, 16))
    };
    let cold = run(u32::MAX);
    let hot = run(1);
    assert!(cold.completed && hot.completed);
    assert_ne!(
        cold.sim_time, hot.sim_time,
        "escalating the hot lock must change the protocol's timing"
    );
    assert!(hot.same_simulation(&run(1)), "escalation is deterministic");
}

#[test]
fn ideal_barrier_release_resumes_120_waiters_exactly_once_through_bursts() {
    // 8 units x 16 cores, every client waiting on one global barrier under the
    // Ideal mechanism: each release wakes all 120 clients at the same
    // timestamp, which is exactly the storm the burst-resume path collapses
    // into one queued event per unit. The Ideal policy completes cores through
    // the same `ctx.complete` path as the message-based schemes, so its wake
    // fan-out must ride the burst path too — a lost member deadlocks the next
    // episode (completed = false), a duplicate trips the machine's
    // resumed-a-finished-core assertion. Burst on vs off must agree bit for
    // bit, with the burst run queueing strictly fewer events.
    let run = |burst: bool| {
        let config = NdpConfig::builder()
            .units(8)
            .cores_per_unit(16)
            .mechanism(MechanismKind::Ideal)
            .burst_resume(burst)
            .build()
            .expect("valid config");
        run_workload(&config, &BarrierMicrobench::new(10, 4))
    };
    let burst = run(true);
    let plain = run(false);
    assert!(burst.completed, "burst resume lost a barrier waiter");
    let clients = 8 * 15; // one core per unit serves the engine
    assert_eq!(
        burst.total_ops,
        clients * 4,
        "every waiter must pass every episode exactly once"
    );
    if let Some(field) = plain.divergence_from(&burst) {
        panic!("burst resume diverged from per-core resumes in {field}");
    }
    assert!(
        burst.perf.events_delivered < plain.perf.events_delivered,
        "120 same-time wake-ups must collapse into per-unit burst events"
    );
}
