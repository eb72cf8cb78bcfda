//! Golden digests for the scenario corpus: an unexplained change to any
//! simulated result fails here, in every mode that must not show in results.
//!
//! Every `scenarios/*.toml` except the two slow application sweeps
//! (`fig17_link_latency`, `fig22_st_size`) runs on the `Runner`'s threads.
//! Each scenario's report digest (`syncron_harness::digest`, which hashes
//! exactly what `RunReport::divergence_from` compares) and its delivered-event
//! count must equal the line pinned in `goldens/<file>.digests`. The event
//! column catches a change that leaves results alone but schedules more or
//! fewer events, such as a message-batching merge that turned
//! over-conservative.
//!
//! The same lines are the reference for the bit-invisible modes: the corpus
//! runs again with fault injection armed at zero probabilities, and at 2, 4
//! and 8 shard workers (see `runs_at`), and every run must reproduce its line.
//! The slow files are pinned too, by an ignored test.
//!
//! On a miss the test names every missed run by file, mode and label, and
//! writes those reports' JSON under the target directory for a diff against
//! an export of the parent build. After a deliberate change, re-pin every file
//! with
//!
//! ```sh
//! SYNCRON_BLESS=1 cargo test --test corpus_goldens -- --include-ignored
//! ```
//!
//! and add a CHANGES.md line that says why the results moved.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use syncron::core::protocol::OverflowMode;
use syncron::harness::{digest, json::Value, toml, RunSet};
use syncron::prelude::*;
use syncron::system::CoherenceMode;
use syncron::workloads::micro::SyncPrimitive;

/// Scenario files too slow for tier-1 (about 5 s of the corpus's 6 s).
const SLOW: [&str; 2] = ["fig17_link_latency", "fig22_st_size"];

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The scenarios of one bundled file: its `[sweep]`, or its `[[scenario]]`
/// entries for a `run` file such as `quickstart.toml`.
fn load(path: &Path) -> Vec<Scenario> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let doc = toml::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let scenarios = match (
        doc.get("sweep"),
        doc.get("scenario").and_then(Value::as_array),
    ) {
        (Some(sweep), _) => Sweep::scenarios_from_value(sweep),
        (None, Some(entries)) => entries.iter().map(Scenario::from_value).collect(),
        (None, None) => panic!("{path:?}: neither a [sweep] nor [[scenario]] entries"),
    };
    scenarios.unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The scenario files, by stem in name order: the fast ones, or (`slow`) the
/// two that tier-1 skips.
fn corpus(slow: bool) -> Vec<(String, Vec<Scenario>)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_path("scenarios"))
        .expect("scenarios/ directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|path| {
            let stem = path.file_stem()?.to_str()?.to_string();
            (SLOW.contains(&stem.as_str()) == slow).then(|| {
                let scenarios = load(&path);
                (stem, scenarios)
            })
        })
        .collect()
}

/// One golden line: the digest, the events delivered, and the label.
fn golden_line(report: &RunReport, label: &str) -> String {
    format!(
        "{:016x} {} {label}",
        digest(report),
        report.perf.events_delivered
    )
}

/// Pinned lines of one golden file, keyed by label.
fn read_goldens(path: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{path:?}: {e} (create it with SYNCRON_BLESS=1 cargo test --test corpus_goldens \
             -- --include-ignored)"
        )
    });
    text.lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let label = line.splitn(3, ' ').nth(2).expect("malformed golden line");
            (label.to_string(), line.to_string())
        })
        .collect()
}

/// Whether this run re-pins the goldens instead of checking them.
fn blessing() -> bool {
    std::env::var("SYNCRON_BLESS").is_ok_and(|v| v == "1")
}

/// Re-pins every file's goldens from `results`.
fn bless(files: &[(String, Vec<Scenario>)], results: &RunSet) {
    for (stem, scenarios) in files {
        let path = repo_path(&format!("goldens/{stem}.digests"));
        let mut text = format!(
            "# scenarios/{stem}.toml: report digest (syncron_harness::digest), \
             events delivered, label.\n\
             # Re-pin with: SYNCRON_BLESS=1 cargo test --test corpus_goldens -- \
             --include-ignored\n"
        );
        for scenario in scenarios {
            let report = results.report(&scenario.label).expect("every scenario ran");
            text.push_str(&golden_line(report, &scenario.label));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    }
}

/// Every scenario's pinned line by label, with its file's stem (`None` when
/// the file pins no line for it).
type Pinned = BTreeMap<String, (String, Option<String>)>;

/// The pinned lines of every file, and a miss for each line pinned for no
/// scenario.
fn read_pinned(files: &[(String, Vec<Scenario>)]) -> (Pinned, Vec<Miss>) {
    let mut pinned = Pinned::new();
    let mut stale = Vec::new();
    for (stem, scenarios) in files {
        let mut lines = read_goldens(&repo_path(&format!("goldens/{stem}.digests")));
        for scenario in scenarios {
            let line = lines.remove(&scenario.label);
            pinned.insert(scenario.label.clone(), (stem.clone(), line));
        }
        stale.extend(lines.into_values().map(|line| Miss {
            message: format!("{stem}: pinned but not run: {line}"),
            run: None,
        }));
    }
    (pinned, stale)
}

/// One run that missed its pinned line or broke its mode's contract.
struct Miss {
    message: String,
    /// The run, relabeled with its mode, for the moved reports' JSON.
    run: Option<(Scenario, RunReport)>,
}

/// Checks every run of `results` against its pinned line and against
/// `contract`, naming each miss by file, mode and label.
fn check(
    pinned: &Pinned,
    results: &RunSet,
    mode: &str,
    contract: impl Fn(&Scenario, &RunReport) -> Option<String>,
    misses: &mut Vec<Miss>,
) {
    for entry in results.entries() {
        let (scenario, report) = (&entry.scenario, &entry.report);
        let now = golden_line(report, &scenario.label);
        let (stem, expected) = &pinned[&scenario.label];
        let problem = match expected {
            Some(expected) if *expected == now => contract(scenario, report),
            Some(expected) => Some(format!("moved\n    pinned {expected}\n    now    {now}")),
            None => Some(format!("not pinned: {now}")),
        };
        if let Some(problem) = problem {
            let mut relabeled = scenario.clone();
            relabeled.label = format!("{} [{mode}]", scenario.label);
            misses.push(Miss {
                message: format!("{stem} [{mode}] {}: {problem}", scenario.label),
                run: Some((relabeled, report.clone())),
            });
        }
    }
}

/// Every injected fault healed: each drop retransmitted once and each
/// duplicate discarded.
fn recovered(report: &RunReport) -> Option<String> {
    let f = report.faults?;
    (f.dropped != f.retransmitted || f.duplicated != f.dup_discarded)
        .then(|| format!("fault recovery out of balance: {f:?}"))
}

/// Fails with every miss, after writing the missed runs' reports to `out`
/// under the target directory.
fn fail_on(misses: Vec<Miss>, out: &str) {
    if misses.is_empty() {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(out);
    RunSet::from_pairs(misses.iter().filter_map(|miss| miss.run.clone()))
        .expect("unique labels")
        .write_json(&out)
        .expect("write the moved reports");
    let lines: Vec<&str> = misses.iter().map(|m| m.message.as_str()).collect();
    panic!(
        "{} run(s) missed goldens/ (their reports: {}):\n{}\n\
         If the change is deliberate, re-pin with SYNCRON_BLESS=1 cargo test --test \
         corpus_goldens -- --include-ignored and say why in CHANGES.md.",
        misses.len(),
        out.display(),
        lines.join("\n")
    );
}

/// The shards a run at `workers` must use. `shard_plan` gives the lock,
/// barrier and semaphore micros and the open-loop services
/// `min(workers, units)` shards, and falls back to one under Ideal and
/// Adaptive, a non-integrated overflow mode, or the MESI directory.
fn expected_shards(scenario: &Scenario, workers: usize) -> usize {
    let config = &scenario.config;
    let shard_safe = match &scenario.workload {
        WorkloadSpec::Micro { primitive, .. } => *primitive != SyncPrimitive::CondVar,
        WorkloadSpec::Service { .. } => true,
        _ => false,
    };
    let shards = shard_safe
        && !matches!(
            config.mechanism,
            MechanismKind::Ideal | MechanismKind::Adaptive
        )
        && config.overflow_mode == OverflowMode::Integrated
        && config.coherence != CoherenceMode::MesiDirectory;
    if shards {
        workers.min(config.units)
    } else {
        1
    }
}

/// `scenario` with the fault substrate armed and every probability zero, or
/// `None` where its file already injects faults.
fn with_zero_faults(scenario: &Scenario) -> Option<Scenario> {
    (!scenario.config.fault.enabled).then(|| {
        let mut armed = scenario.clone();
        armed.config.fault = FaultConfig {
            enabled: true,
            ..FaultConfig::default()
        };
        armed
    })
}

/// Whether the `workers`-worker mode runs file `stem`. Two workers run every
/// fast file. With more shards than the host has CPUs the shard gate blocks
/// at every window, and a 4-worker pass over the whole corpus takes about 6 s
/// on 2 vCPUs; so 4 workers run the paper's four microbenchmarks, every
/// mechanism kind, the fault matrix and the 64-unit machine, and 8 workers
/// the 64-unit machine.
fn runs_at(workers: usize, stem: &str) -> bool {
    match workers {
        2 => true,
        4 => [
            "fault_matrix",
            "fig10_barrier",
            "fig10_condvar",
            "fig10_lock",
            "fig10_semaphore",
            "mechanism_extensions",
            "scale_64x64",
        ]
        .contains(&stem),
        _ => stem == "scale_64x64",
    }
}

/// `scenario` at `sim_threads = workers` where that runs a shard count that
/// half as many workers did not: at most `units` shards run, so 8 workers on
/// a 4-unit machine would repeat 4. The runs that must fall back to one
/// shard are checked once, at 4 workers.
fn with_workers(scenario: &Scenario, workers: usize) -> Option<Scenario> {
    let new_count = expected_shards(scenario, workers) > expected_shards(scenario, workers / 2);
    let falls_back =
        workers == 4 && scenario.config.units > 1 && expected_shards(scenario, workers) == 1;
    (new_count || falls_back).then(|| {
        let mut sharded = scenario.clone();
        sharded.config = sharded.config.with_sim_threads(workers);
        sharded
    })
}

/// Runs the fast corpus plainly, then once in each mode the simulator
/// promises not to show in its results: fault injection armed with every
/// probability zero, and 2, 4 and 8 shard workers (see [`runs_at`]). Every
/// run must reproduce its pinned line, a sharded run the plain run's windows
/// too.
#[test]
fn corpus_matches_goldens() {
    let files = corpus(false);
    let all: Vec<Scenario> = files.iter().flat_map(|(_, s)| s.clone()).collect();
    assert!(all.len() >= 400, "corpus unexpectedly small: {}", all.len());
    let plain = Runner::new().run(&all).expect("corpus runs");
    if blessing() {
        bless(&files, &plain);
    }
    let (pinned, mut misses) = read_pinned(&files);
    check(
        &pinned,
        &plain,
        "plain",
        |_, report| {
            (report.perf.shards != 1)
                .then(|| format!("ran on {} shards", report.perf.shards))
                .or_else(|| recovered(report))
        },
        &mut misses,
    );

    let armed: Vec<Scenario> = all.iter().filter_map(with_zero_faults).collect();
    check(
        &pinned,
        &Runner::new().run(&armed).expect("zero-fault runs"),
        "zero faults",
        |_, report| match report.faults {
            None => Some("fault injection was not armed".to_string()),
            Some(_) => recovered(report),
        },
        &mut misses,
    );

    // One runner thread: a shard gate spins before it blocks when the host
    // has a CPU per shard, so two sharded runs at once burn each other's CPU.
    for workers in [2, 4, 8] {
        let mode = format!("{workers} shard workers");
        let sharded: Vec<Scenario> = files
            .iter()
            .filter(|(stem, _)| runs_at(workers, stem))
            .flat_map(|(_, scenarios)| scenarios.iter().filter_map(|s| with_workers(s, workers)))
            .collect();
        let results = Runner::new()
            .threads(1)
            .run(&sharded)
            .unwrap_or_else(|e| panic!("{mode}: {e}"));
        check(
            &pinned,
            &results,
            &mode,
            |scenario, report| {
                let shards = expected_shards(scenario, workers);
                let windows = plain
                    .report(&scenario.label)
                    .expect("plain run")
                    .perf
                    .windows;
                if report.perf.shards != shards {
                    Some(format!(
                        "ran on {} shards, not {shards}",
                        report.perf.shards
                    ))
                } else if report.perf.windows != windows {
                    Some(format!(
                        "walked {} windows, the plain run {windows}",
                        report.perf.windows
                    ))
                } else {
                    recovered(report)
                }
            },
            &mut misses,
        );
    }
    fail_on(misses, "corpus_goldens_moved.json");
}

/// The two slow files, on the `Runner`'s threads and again on one: the
/// threads share each graph input built in the process
/// (`GraphInput::shared`), and the goldens must not tell the runs apart.
#[test]
#[ignore = "about 8 s in release; CI runs it with --ignored"]
fn slow_files_match_goldens() {
    let files = corpus(true);
    assert_eq!(files.len(), SLOW.len(), "a slow scenario file is missing");
    let all: Vec<Scenario> = files.iter().flat_map(|(_, s)| s.clone()).collect();
    let runs = [
        ("runner threads", Runner::new()),
        ("one thread", Runner::new().threads(1)),
    ]
    .map(|(mode, runner)| (mode, runner.run(&all).expect("slow files run")));
    if blessing() {
        bless(&files, &runs[0].1);
    }
    let (pinned, mut misses) = read_pinned(&files);
    for (mode, results) in &runs {
        check(&pinned, results, mode, |_, r| recovered(r), &mut misses);
    }
    fail_on(misses, "corpus_goldens_moved_slow.json");
}
