//! Golden digests for the scenario corpus: an unexplained change to any
//! simulated result fails here.
//!
//! Every `scenarios/*.toml` except the two slow application sweeps
//! (`fig17_link_latency`, `fig22_st_size`) runs on the `Runner`'s threads.
//! Each scenario's report digest (`syncron_harness::digest`: FNV-1a over the
//! JSON export without `perf`) and its delivered-event count must equal the
//! line pinned in `goldens/<file>.digests`. The event column catches a change
//! that leaves results alone but schedules more or fewer events, such as a
//! message-batching merge that turned over-conservative.
//!
//! On a mismatch the test names every moved scenario and writes those
//! reports' JSON under the target directory for a diff against an export of
//! the parent build. After a deliberate change, re-pin with
//!
//! ```sh
//! SYNCRON_BLESS=1 cargo test --test corpus_goldens
//! ```
//!
//! and add a CHANGES.md line that says why the results moved.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use syncron::harness::{digest, json::Value, toml, RunSet};
use syncron::prelude::*;

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

/// Every fast scenario file, by stem, in name order.
fn corpus() -> Vec<(String, Vec<Scenario>)> {
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
            (!SLOW.contains(&stem.as_str())).then(|| {
                let scenarios = load(&path);
                (stem, scenarios)
            })
        })
        .collect()
}

/// One golden line: the digest, the events delivered, and the label.
fn golden_line(results: &RunSet, label: &str) -> String {
    let report = results.report(label).expect("every scenario ran");
    format!(
        "{:016x} {} {label}",
        digest(report),
        report.perf.events_delivered
    )
}

/// Pinned lines of one golden file, keyed by label.
fn read_goldens(path: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("{path:?}: {e} (create it with SYNCRON_BLESS=1 cargo test --test corpus_goldens)")
    });
    text.lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let label = line.splitn(3, ' ').nth(2).expect("malformed golden line");
            (label.to_string(), line.to_string())
        })
        .collect()
}

#[test]
fn corpus_matches_goldens() {
    let bless = std::env::var("SYNCRON_BLESS").is_ok_and(|v| v == "1");
    let files = corpus();
    let all: Vec<Scenario> = files.iter().flat_map(|(_, s)| s.clone()).collect();
    assert!(all.len() >= 400, "corpus unexpectedly small: {}", all.len());
    let results = Runner::new().run(&all).expect("corpus runs");

    let mut moved: Vec<String> = Vec::new();
    let mut moved_labels: Vec<&str> = Vec::new();
    for (stem, scenarios) in &files {
        let path = repo_path(&format!("goldens/{stem}.digests"));
        if bless {
            let mut text = format!(
                "# scenarios/{stem}.toml: report digest (FNV-1a of the export without \
                 `perf`), events delivered, label.\n\
                 # Re-pin with: SYNCRON_BLESS=1 cargo test --test corpus_goldens\n"
            );
            for scenario in scenarios {
                text.push_str(&golden_line(&results, &scenario.label));
                text.push('\n');
            }
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            continue;
        }
        let mut pinned = read_goldens(&path);
        for scenario in scenarios {
            let line = golden_line(&results, &scenario.label);
            match pinned.remove(&scenario.label) {
                Some(expected) if expected == line => continue,
                Some(expected) => moved.push(format!(
                    "{stem}: moved\n    pinned {expected}\n    now    {line}"
                )),
                None => moved.push(format!("{stem}: not pinned: {line}")),
            }
            moved_labels.push(&scenario.label);
        }
        moved.extend(
            pinned
                .into_values()
                .map(|line| format!("{stem}: pinned but not run: {line}")),
        );
    }
    if moved.is_empty() {
        return;
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corpus_goldens_moved.json");
    let moved_runs = RunSet::from_pairs(
        results
            .entries()
            .iter()
            .filter(|e| moved_labels.contains(&e.scenario.label.as_str()))
            .map(|e| (e.scenario.clone(), e.report.clone())),
    )
    .expect("unique labels");
    moved_runs
        .write_json(&out)
        .expect("write the moved reports");
    panic!(
        "{} scenario(s) moved against goldens/ (reports of the moved runs: {}):\n{}\n\
         If the change is deliberate, re-pin with SYNCRON_BLESS=1 cargo test --test \
         corpus_goldens and say why in CHANGES.md.",
        moved.len(),
        out.display(),
        moved.join("\n")
    );
}
