//! Self-test of the benchmark: every workload in `BENCHMARK.json` runs at a
//! tiny size and emits exactly the metrics `BENCHMARK.json` names, a digest
//! that moves is caught and named, the pinned digests cover the full
//! documents, and no document sets a knob the benchmark must leave at its
//! default.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::Path;

use syncron_harness::json::{self, Value};
use syncron_harness::{toml, Sweep};
use syncron_perfbench::workloads::FORBIDDEN_KNOBS;
use syncron_perfbench::{parse_digests, run, Options, Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a '{key}' array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn benchmark_workloads() -> Vec<Workload> {
    names(&benchmark_json(), "workloads")
        .iter()
        .map(|n| Workload::by_name(n).unwrap_or_else(|| panic!("unknown workload '{n}'")))
        .collect()
}

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        pinned: None,
    }
}

fn sweeps(doc: &str) -> Vec<Value> {
    let parsed = toml::parse(doc).expect("document parses");
    parsed
        .get("sweep")
        .and_then(Value::as_array)
        .expect("[[sweep]] array")
        .to_vec()
}

#[test]
fn every_workload_emits_every_named_metric() {
    let doc = benchmark_json();
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let expected = names(&doc, key);
        for workload in benchmark_workloads() {
            let outcome = run(&options(workload, trace)).expect("tiny run");
            assert_eq!(
                outcome.failed,
                0,
                "{}: {:?}",
                workload.name(),
                outcome.failures
            );
            assert!(outcome.attempted > 0);
            let emitted: BTreeSet<String> = outcome
                .metrics
                .iter()
                .map(|(n, _, _)| n.to_string())
                .collect();
            assert_eq!(emitted, expected, "{} {key}", workload.name());
            for (name, value, _) in &outcome.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
            }
        }
    }
}

#[test]
fn an_altered_digest_fails_and_names_its_scenario() {
    for workload in benchmark_workloads() {
        let reference = run(&options(workload, false)).expect("tiny run");
        assert_eq!(reference.failed, 0, "{}", workload.name());
        let mut pinned = reference.digests.clone();
        let (victim, digest) = pinned.iter_mut().next().expect("scenarios");
        *digest ^= 1;
        let victim = victim.clone();

        let outcome = run(&Options {
            pinned: Some(pinned),
            ..options(workload, false)
        })
        .expect("tiny run");
        assert!(outcome.failed > 0, "{}", workload.name());
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.starts_with(&victim) && f.contains("digest moved")),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
    }
}

#[test]
fn pinned_digests_cover_the_full_documents() {
    for workload in benchmark_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.digests", workload.name()));
        let text = std::fs::read_to_string(&path).expect("pinned digests");
        let pinned: BTreeSet<String> = parse_digests(&text).expect("parses").into_keys().collect();
        let labels: BTreeSet<String> = sweeps(&workload.document(DEFAULT_SEED, Size::Full))
            .iter()
            .flat_map(|s| Sweep::scenarios_from_value(s).expect("expands"))
            .map(|s| s.label)
            .collect();
        assert_eq!(pinned, labels, "{}", workload.name());
    }
}

#[test]
fn documents_leave_the_fast_path_knobs_at_their_defaults() {
    for workload in Workload::ALL {
        for size in [Size::Full, Size::Tiny] {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                for sweep in sweeps(&workload.document(seed, size)) {
                    let config = sweep
                        .get("config")
                        .and_then(Value::as_table)
                        .expect("config");
                    for knob in FORBIDDEN_KNOBS {
                        assert!(
                            !config.contains_key(knob),
                            "{} sets {knob}",
                            workload.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn the_seed_reaches_the_simulator_only_through_the_document() {
    for workload in Workload::ALL {
        let a = workload.document(DEFAULT_SEED, Size::Full);
        let b = workload.document(HELD_OUT_SEED, Size::Full);
        assert_eq!(a, workload.document(DEFAULT_SEED, Size::Full));
        assert_ne!(a, b, "{}", workload.name());
        // The documents differ in the config seed alone.
        let strip = |doc: &str| {
            doc.lines()
                .filter(|l| !l.starts_with("seed = "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&a), strip(&b), "{}", workload.name());
    }
}
