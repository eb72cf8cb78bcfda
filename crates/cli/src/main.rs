//! `syncron-cli` — run SynCron evaluation scenarios and sweeps from files.
//!
//! Subcommands:
//!
//! * `list` — the workload catalog, configuration axes and bundled scenario files;
//! * `run <file>` — execute the `[[scenario]]` entries of a TOML/JSON file;
//! * `sweep <file>` — expand and execute the `[sweep]` of a TOML/JSON file.
//!
//! Both `run` and `sweep` accept `--json <path>` / `--csv <path>` to export the full
//! result set, `--threads <n>` to cap parallelism, and `-q` to silence per-scenario
//! progress. See `scenarios/` in the repository root for ready-made files reproducing
//! the paper's figures.

use std::process::ExitCode;

use syncron_harness::json::Value;
use syncron_harness::{ConfigSpec, HarnessError, RunSet, Runner, Scenario, Sweep, WorkloadSpec};

const USAGE: &str = "syncron-cli — SynCron (HPCA 2021) scenario driver

USAGE:
    syncron-cli list
    syncron-cli run   <file.toml|file.json> [OPTIONS]
    syncron-cli sweep <file.toml|file.json> [OPTIONS]

OPTIONS:
    --json <path>        write the full result set as JSON
    --csv <path>         write the full result set as CSV
    --threads <n>        cap the number of worker threads
    --dry-run            expand and list scenario labels without simulating
    --allow-incomplete   exit 0 even when some runs end incomplete or panicked
    -q, --quiet          no per-scenario progress on stderr
    -h, --help           show this help

FILE FORMATS (TOML shown; the JSON equivalent mirrors the structure):
    # run: explicit scenarios
    [[scenario]]
    label = \"demo\"
    [scenario.config]          # any omitted field keeps the paper default
    mechanism = \"SynCron\"
    [scenario.workload]
    kind = \"data-structure\"
    name = \"stack\"

    # sweep: cartesian product — array-valued fields become axes
    [sweep]
    label = \"fig17\"
    [sweep.config]
    mechanism = [\"Central\", \"Hier\", \"SynCron\", \"Ideal\"]
    link_latency_ns = [40, 100, 200, 500]
    [sweep.workload]
    kind = \"graph\"
    algo = \"pr\"
    input = \"wk\"
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    file: String,
    json_out: Option<String>,
    csv_out: Option<String>,
    threads: Option<usize>,
    quiet: bool,
    dry_run: bool,
    allow_incomplete: bool,
}

/// Parses subcommand options; `Ok(None)` means help was requested.
fn parse_options(args: &[String]) -> Result<Option<Options>, String> {
    let mut file = None;
    let mut json_out = None;
    let mut csv_out = None;
    let mut threads = None;
    let mut quiet = false;
    let mut dry_run = false;
    let mut allow_incomplete = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                json_out = Some(it.next().ok_or("--json needs a path argument")?.to_string())
            }
            "--csv" => csv_out = Some(it.next().ok_or("--csv needs a path argument")?.to_string()),
            "--threads" => {
                threads = Some(
                    it.next()
                        .ok_or("--threads needs a number")?
                        .parse::<usize>()
                        .map_err(|_| "--threads needs a number".to_string())?,
                )
            }
            "-q" | "--quiet" => quiet = true,
            "--dry-run" => dry_run = true,
            "--allow-incomplete" => allow_incomplete = true,
            "-h" | "--help" => return Ok(None),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'\n\n{USAGE}")),
        }
    }
    Ok(Some(Options {
        file: file.ok_or_else(|| format!("missing scenario file\n\n{USAGE}"))?,
        json_out,
        csv_out,
        threads,
        quiet,
        dry_run,
        allow_incomplete,
    }))
}

fn run_cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(())
        }
        Some("run") => match parse_options(&args[1..])? {
            Some(options) => execute(&options, Mode::Run),
            None => {
                println!("{USAGE}");
                Ok(())
            }
        },
        Some("sweep") => match parse_options(&args[1..])? {
            Some(options) => execute(&options, Mode::Sweep),
            None => {
                println!("{USAGE}");
                Ok(())
            }
        },
        Some("-h") | Some("--help") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn list() {
    println!("workload kinds (for [scenario.workload] / [sweep.workload] tables):\n");
    for line in WorkloadSpec::catalog() {
        println!("    {line}");
    }
    println!(
        "\nconfig fields (for [scenario.config] / [sweep.config] tables; omitted fields \
         keep the paper's Table 5 defaults):\n"
    );
    for line in ConfigSpec::catalog() {
        println!("    {line}");
    }
    println!("\nbundled scenario files: see scenarios/ in the repository root.");
}

enum Mode {
    Run,
    Sweep,
}

fn load_document(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".json") {
        syncron_harness::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        syncron_harness::toml::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn collect_scenarios(doc: &Value, mode: Mode, path: &str) -> Result<Vec<Scenario>, String> {
    let harness_err = |e: HarnessError| format!("{path}: {e}");
    match mode {
        Mode::Run => {
            let entries = doc
                .get("scenario")
                .and_then(Value::as_array)
                .ok_or_else(|| {
                    format!(
                        "{path}: a run file needs [[scenario]] entries (or a \"scenario\" array)"
                    )
                })?;
            entries
                .iter()
                .map(|entry| Scenario::from_value(entry).map_err(harness_err))
                .collect()
        }
        Mode::Sweep => {
            let sweep = doc
                .get("sweep")
                .ok_or_else(|| format!("{path}: a sweep file needs a [sweep] table"))?;
            Sweep::scenarios_from_value(sweep).map_err(harness_err)
        }
    }
}

fn execute(options: &Options, mode: Mode) -> Result<(), String> {
    let doc = load_document(&options.file)?;
    let scenarios = collect_scenarios(&doc, mode, &options.file)?;
    eprintln!(
        "{}: {} scenario{}",
        options.file,
        scenarios.len(),
        if scenarios.len() == 1 { "" } else { "s" }
    );
    if options.dry_run {
        for scenario in &scenarios {
            scenario
                .workload
                .build()
                .map_err(|e| format!("{}: {e}", scenario.label))?;
            println!("{}", scenario.label);
        }
        return Ok(());
    }

    let mut runner = Runner::new();
    if let Some(threads) = options.threads {
        runner = runner.threads(threads);
    }
    if !options.quiet {
        runner = runner.on_progress(|p| {
            eprintln!(
                "[{}/{}] {} {}",
                p.finished,
                p.total,
                p.label,
                if p.completed { "" } else { "(INCOMPLETE)" }
            );
        });
    }
    let results = runner
        .run(&scenarios)
        .map_err(|e| format!("{}: {e}", options.file))?;

    print_summary(&results);
    for line in incomplete_warnings(&results) {
        eprintln!("{line}");
    }
    if let Some(path) = &options.json_out {
        results.write_json(path).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &options.csv_out {
        results.write_csv(path).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    // Exports are written first so a failing gate still leaves the partial
    // numbers on disk for inspection.
    completion_gate(&results, options.allow_incomplete)
}

/// Non-zero-exit gate: any incomplete or panicked run fails the invocation
/// unless `--allow-incomplete` was given.
fn completion_gate(results: &RunSet, allow_incomplete: bool) -> Result<(), String> {
    let incomplete = results
        .entries()
        .iter()
        .filter(|e| !e.report.completed)
        .count();
    if incomplete == 0 || allow_incomplete {
        return Ok(());
    }
    Err(format!(
        "{incomplete} of {} scenario{} did not complete; pass --allow-incomplete to \
         exit 0 with partial results",
        results.len(),
        if results.len() == 1 { "" } else { "s" },
    ))
}

/// Builds a loud per-scenario warning block for runs that did not finish
/// (`completed = false`): their numbers are partial and must not be read as
/// results. Each line carries the typed diagnosis — event budget, watchdog
/// stall (with the first blocked core and its sync-variable address), or a
/// panic. Returns an empty vector when every run completed.
fn incomplete_warnings(results: &RunSet) -> Vec<String> {
    use syncron_system::IncompleteReason;

    let incomplete: Vec<_> = results
        .entries()
        .iter()
        .filter(|e| !e.report.completed)
        .collect();
    if incomplete.is_empty() {
        return Vec::new();
    }
    let mut lines = vec![format!(
        "warning: {} of {} scenario{} did not finish (completed = false); the exported \
         numbers for {} are partial:",
        incomplete.len(),
        results.len(),
        if results.len() == 1 { "" } else { "s" },
        if incomplete.len() == 1 { "it" } else { "them" },
    )];
    for entry in &incomplete {
        let label = &entry.scenario.label;
        let detail = match &entry.report.incomplete {
            None | Some(IncompleteReason::EventBudget) => format!(
                "max_events = {}; raise it in the scenario's [config] to finish the run",
                entry.scenario.config.max_events
            ),
            Some(IncompleteReason::Stalled(stall)) => {
                let first = stall
                    .blocked
                    .first()
                    .map(|b| {
                        format!(
                            "; first blocked: unit {} core {} on 0x{:x}",
                            b.unit, b.core, b.addr
                        )
                    })
                    .unwrap_or_default();
                format!(
                    "{}: {} of {} unfinished cores blocked{first}",
                    entry
                        .report
                        .incomplete
                        .as_ref()
                        .map_or("stalled", |i| i.label()),
                    stall.blocked_total,
                    stall.unfinished,
                )
            }
            Some(IncompleteReason::Panicked(msg)) => format!("panicked: {msg}"),
        };
        lines.push(format!("  - {label} ({detail})"));
    }
    lines
}

/// Builds the per-scenario summary block `run`/`sweep` print: simulated results
/// plus the simulator's own throughput (delivered events per wall-clock second),
/// with an aggregate trailer line. When any entry is an open-loop service run,
/// per-request tail-latency columns (p50/p99/p999, microseconds) are added;
/// closed-loop rows show "-" there since they have no admission timeline.
fn summary_lines(results: &RunSet) -> Vec<String> {
    let width = results
        .entries()
        .iter()
        .map(|e| e.scenario.label.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let show_latency = results.entries().iter().any(|e| e.report.latency.is_some());
    let latency_header = if show_latency {
        format!("  {:>9}  {:>9}  {:>9}", "p50 us", "p99 us", "p999 us")
    } else {
        String::new()
    };
    let mut lines = vec![format!(
        "{:<width$}  {:>12}  {:>10}  {:>9}  {:>12}{latency_header}  {:>12}",
        "label", "sim time us", "ops/ms", "complete", "sync msgs", "sim ev/s"
    )];
    for entry in results.entries() {
        let r = &entry.report;
        let latency_cells = if show_latency {
            match r.latency {
                Some(l) => format!(
                    "  {:>9.2}  {:>9.2}  {:>9.2}",
                    l.p50_ns / 1000.0,
                    l.p99_ns / 1000.0,
                    l.p999_ns / 1000.0
                ),
                None => format!("  {:>9}  {:>9}  {:>9}", "-", "-", "-"),
            }
        } else {
            String::new()
        };
        lines.push(format!(
            "{:<width$}  {:>12.2}  {:>10.2}  {:>9}  {:>12}{latency_cells}  {:>12.3e}",
            entry.scenario.label,
            r.sim_time.as_us_f64(),
            r.ops_per_ms(),
            if r.completed { "yes" } else { "NO" },
            r.sync.local_messages + r.sync.global_messages,
            r.perf.events_per_sec(),
        ));
    }
    if !results.is_empty() {
        lines.push(format!(
            "simulator: {} events in {:.3}s of simulation work ({:.3e} events/sec aggregate)",
            results.total_events_delivered(),
            results.total_wall_seconds(),
            results.aggregate_events_per_sec(),
        ));
    }
    lines
}

fn print_summary(results: &RunSet) {
    for line in summary_lines(results) {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_harness::ConfigSpec;

    fn run_scenario(label: &str, max_events: u64) -> (Scenario, syncron_system::RunReport) {
        let mut config = ConfigSpec::default().with_geometry(2, 4);
        config.max_events = max_events;
        let scenario = Scenario::new(
            label,
            config,
            WorkloadSpec::Micro {
                primitive: syncron_workloads::micro::SyncPrimitive::Lock,
                interval: 100,
                iterations: 8,
            },
        );
        let report = scenario.run().expect("scenario runs");
        (scenario, report)
    }

    #[test]
    fn incomplete_runs_get_a_loud_warning() {
        // A tiny event budget aborts the run (completed = false); a generous one
        // finishes it. The warning block must name exactly the aborted scenario and
        // its max_events so the user can tell partial numbers from results.
        let complete = run_scenario("ok", 50_000_000);
        let truncated = run_scenario("truncated", 50);
        assert!(complete.1.completed);
        assert!(!truncated.1.completed, "50 events cannot finish the run");

        let set = RunSet::from_pairs([complete, truncated]).unwrap();
        let warnings = incomplete_warnings(&set);
        assert_eq!(warnings.len(), 2, "one header plus one scenario line");
        assert!(warnings[0].contains("warning: 1 of 2 scenarios"));
        assert!(warnings[0].contains("completed = false"));
        assert!(warnings[1].contains("truncated"));
        assert!(warnings[1].contains("max_events = 50"));
        assert!(
            !warnings.iter().any(|l| l.contains("- ok ")),
            "completed runs are not flagged"
        );
    }

    /// Writes a one-scenario run file with the given event budget and returns
    /// its path (unique per call so parallel tests don't collide).
    fn write_run_file(stem: &str, max_events: u64) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("syncron_cli_{stem}_{max_events}.toml"));
        let text = format!(
            "[[scenario]]\nlabel = \"t\"\n[scenario.config]\nunits = 2\ncores_per_unit = 4\n\
             max_events = {max_events}\n[scenario.workload]\nkind = \"micro\"\n\
             primitive = \"lock\"\ninterval = 100\niterations = 8\n"
        );
        std::fs::write(&path, text).expect("temp scenario file");
        path
    }

    #[test]
    fn incomplete_runs_fail_the_invocation_unless_allowed() {
        let path = write_run_file("gate", 50);
        let file = path.to_str().unwrap().to_string();
        let err = run_cli(&["run".into(), file.clone(), "-q".into()])
            .expect_err("an incomplete run must exit non-zero");
        assert!(err.contains("--allow-incomplete"), "{err}");
        assert!(err.contains("1 of 1 scenario"), "{err}");
        run_cli(&["run".into(), file, "-q".into(), "--allow-incomplete".into()])
            .expect("--allow-incomplete restores the old exit behavior");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn completed_runs_exit_zero_without_the_flag() {
        let path = write_run_file("clean", 50_000_000);
        let file = path.to_str().unwrap().to_string();
        run_cli(&["run".into(), file, "-q".into()]).expect("clean runs exit 0");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_exit_gate_matches_run() {
        let path = std::env::temp_dir().join("syncron_cli_sweep_gate.toml");
        let text = "[sweep]\nlabel = \"g\"\n[sweep.config]\nunits = 2\ncores_per_unit = 4\n\
                    max_events = 50\nmechanism = [\"Central\", \"SynCron\"]\n[[sweep.workload]]\n\
                    kind = \"micro\"\nprimitive = \"lock\"\ninterval = 100\niterations = 8\n";
        std::fs::write(&path, text).expect("temp sweep file");
        let file = path.to_str().unwrap().to_string();
        let err = run_cli(&["sweep".into(), file.clone(), "-q".into()])
            .expect_err("incomplete sweep runs must exit non-zero");
        assert!(err.contains("2 of 2 scenarios"), "{err}");
        run_cli(&[
            "sweep".into(),
            file,
            "-q".into(),
            "--allow-incomplete".into(),
        ])
        .expect("--allow-incomplete applies to sweeps too");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stall_and_panic_diagnoses_appear_in_warnings() {
        use syncron_system::{BlockedCore, IncompleteReason, StallKind, StallReport};
        let (scenario, _) = run_scenario("ok", 50_000_000);
        let stalled = Scenario::new(
            "stalled",
            scenario.config.clone(),
            scenario.workload.clone(),
        );
        let stalled_report = syncron_system::RunReport::failed(
            "wl",
            "SynCron",
            IncompleteReason::Stalled(StallReport {
                kind: StallKind::EmptyFrontier,
                blocked: vec![BlockedCore {
                    unit: 3,
                    core: 7,
                    addr: 0x1c0,
                }],
                blocked_total: 5,
                unfinished: 6,
            }),
        );
        let panicked = Scenario::new(
            "panicked",
            scenario.config.clone(),
            scenario.workload.clone(),
        );
        let panicked_report = syncron_system::RunReport::failed(
            "wl",
            "SynCron",
            IncompleteReason::Panicked("index out of bounds".into()),
        );
        let set =
            RunSet::from_pairs([(stalled, stalled_report), (panicked, panicked_report)]).unwrap();
        let warnings = incomplete_warnings(&set);
        let stall_line = warnings.iter().find(|l| l.contains("- stalled")).unwrap();
        assert!(stall_line.contains("stalled-deadlock"), "{stall_line}");
        assert!(stall_line.contains("5 of 6"), "{stall_line}");
        assert!(
            stall_line.contains("unit 3 core 7 on 0x1c0"),
            "{stall_line}"
        );
        let panic_line = warnings.iter().find(|l| l.contains("- panicked")).unwrap();
        assert!(
            panic_line.contains("panicked: index out of bounds"),
            "{panic_line}"
        );
    }

    #[test]
    fn fully_completed_runs_warn_nothing() {
        let set = RunSet::from_pairs([run_scenario("ok", 50_000_000)]).unwrap();
        assert!(incomplete_warnings(&set).is_empty());
    }

    #[test]
    fn summary_prints_events_per_sec_per_scenario() {
        let set = RunSet::from_pairs([
            run_scenario("alpha", 50_000_000),
            run_scenario("beta", 50_000_000),
        ])
        .unwrap();
        let lines = summary_lines(&set);
        // Header + one row per scenario + the aggregate trailer.
        assert_eq!(lines.len(), 1 + set.len() + 1);
        assert!(lines[0].contains("sim ev/s"));
        for (entry, line) in set.entries().iter().zip(&lines[1..]) {
            assert!(line.contains(&entry.scenario.label));
            // The exact scientific-formatted throughput cell of this entry.
            let cell = format!("{:.3e}", entry.report.perf.events_per_sec());
            assert!(
                line.contains(&cell),
                "throughput cell {cell} missing in {line:?}"
            );
        }
        let trailer = lines.last().unwrap();
        assert!(trailer.contains("events/sec aggregate"));
        assert!(trailer.contains(&set.total_events_delivered().to_string()));
        assert!(summary_lines(&RunSet::empty()).len() == 1);
        // Closed-loop-only sets stay free of latency columns.
        assert!(!lines[0].contains("p99 us"));
    }

    #[test]
    fn summary_shows_tail_latency_only_when_an_open_loop_run_is_present() {
        use syncron_workloads::service::{ArrivalProcess, ServiceShape};
        let mut config = ConfigSpec::default().with_geometry(2, 4);
        config.max_events = 50_000_000;
        let service = Scenario::new(
            "svc",
            config.clone(),
            WorkloadSpec::Service {
                shape: ServiceShape::Kv,
                arrival: ArrivalProcess::Poisson { rate_per_us: 0.05 },
                keys: 10_000,
                zipf_s: 0.99,
                requests: 8,
            },
        );
        let service_report = service.run().expect("service scenario runs");
        let closed = run_scenario("closed", 50_000_000);
        let set = RunSet::from_pairs([(service, service_report), closed]).unwrap();
        let lines = summary_lines(&set);
        assert!(lines[0].contains("p50 us"));
        assert!(lines[0].contains("p99 us"));
        assert!(lines[0].contains("p999 us"));
        let svc_line = lines.iter().find(|l| l.starts_with("svc")).unwrap();
        let latency = set.get("svc").unwrap().report.latency.unwrap();
        assert!(svc_line.contains(&format!("{:.2}", latency.p99_ns / 1000.0)));
        let closed_line = lines.iter().find(|l| l.starts_with("closed")).unwrap();
        assert!(
            closed_line.contains("  -  ") || closed_line.contains(" - "),
            "closed-loop rows show dashes: {closed_line:?}"
        );
    }
}
