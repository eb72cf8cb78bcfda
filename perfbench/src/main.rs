//! Command-line entry point of the simulator benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! Prints every metric by name with its unit, the correctness verdict and the
//! failing scenarios, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` reports the
//! per-layer metrics instead of the end-to-end ones and writes the spans as
//! Chrome trace-event JSON next to the executable. `--bless` re-pins the
//! default seed's digests in `golden/`. `--workload all` runs every workload,
//! each in its own process.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use syncron_harness::json::{self, Value};
use syncron_perfbench::{
    format_digests, parse_digests, run, Options, Size, Workload, DEFAULT_SEED,
};

const USAGE: &str =
    "usage: perfbench --workload <scaleout|paper-apps|service-tail|scaleout-2shard|all> \
[--seed N] [--seconds S] [--trace 0|1] [--bless]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" {
        args.workload =
            Some(Workload::by_name(&workload).ok_or(format!("unknown workload '{workload}'"))?);
    }
    if args.bless && (args.seed != DEFAULT_SEED || args.workload.is_none()) {
        return Err(format!(
            "--bless pins one workload at the default seed {DEFAULT_SEED}"
        ));
    }
    Ok(args)
}

fn golden_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.digests", workload.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process; returns whether every scenario passed.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    // Only the default seed has pinned digests; every other run checks that
    // its repetitions reproduce the first one.
    let pinned = if args.seed == DEFAULT_SEED && !args.bless {
        let path = golden_path(workload);
        match std::fs::read_to_string(&path) {
            Ok(text) => Some(parse_digests(&text).map_err(|e| format!("{}: {e}", path.display()))?),
            Err(e) => {
                println!("no pinned digests at {}: {e}", path.display());
                Some(Default::default())
            }
        }
    } else {
        None
    };
    let outcome = run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        pinned,
    })?;

    println!(
        "perfbench {} seed={} {}",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    let correct = outcome.failed == 0 && outcome.failures.is_empty();
    if correct {
        println!("  verdict: correct ({} scenario runs)", outcome.attempted);
    } else {
        println!(
            "  verdict: INCORRECT ({} of {} scenario runs failed)",
            outcome.failed, outcome.attempted
        );
        for failure in outcome.failures.iter().take(20) {
            println!("  FAIL {failure}");
        }
    }
    if args.trace {
        let dir = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("perfbench-traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", workload.name()));
        std::fs::write(&path, outcome.trace.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  spans: {} written to {}",
            outcome.trace.spans().len(),
            path.display()
        );
    }
    if args.bless {
        if !correct {
            return Err("not re-pinning digests of a failing run".into());
        }
        let path = golden_path(workload);
        std::fs::write(&path, format_digests(workload, &outcome.digests))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  pinned {} digests in {}",
            outcome.digests.len(),
            path.display()
        );
    }

    let metrics = outcome.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Value::table([("value", Value::Float(value)), ("unit", Value::str(unit))]),
        )
    });
    println!(
        "{}",
        Value::table([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Int(outcome.attempted as i64)),
            ("failed", Value::Int(outcome.failed as i64)),
            ("metrics", Value::table(metrics)),
        ])
        .to_json()
    );
    Ok(correct)
}

/// Runs every workload, each in a child process of its own (so `peak_rss_mb`
/// is per workload), and prints one table and one combined JSON line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut rows = Vec::new();
    let mut combined = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            json::parse(last).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_i64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_i64).unwrap_or(0);
        for (name, metric) in result
            .get("metrics")
            .and_then(Value::as_table)
            .into_iter()
            .flatten()
        {
            let value = metric.get("value").cloned().unwrap_or(Value::Null);
            let unit = metric
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            rows.push(format!(
                "{:<16} {name:<30} {:>16} {unit}",
                workload.name(),
                value.to_json()
            ));
            combined.push((format!("{}.{name}", workload.name()), metric.clone()));
        }
    }
    println!("\nworkload         metric                                    value unit");
    for row in rows {
        println!("{row}");
    }
    println!(
        "verdict: {} ({failed} of {attempted} scenario runs failed)",
        if correct { "correct" } else { "INCORRECT" }
    );
    println!(
        "{}",
        Value::table([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Int(attempted)),
            ("failed", Value::Int(failed)),
            ("metrics", Value::table(combined)),
        ])
        .to_json()
    );
    Ok(correct)
}
