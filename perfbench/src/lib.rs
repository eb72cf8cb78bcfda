//! # syncron-perfbench
//!
//! The SynCron simulator's benchmark. Each workload is a TOML sweep document
//! generated from a seed (see [`workloads`]). One repetition takes that
//! document through the harness's public entry points on one thread, timing
//! every call from outside:
//!
//! `toml::parse` → `Sweep::scenarios_from_value` → per scenario
//! `ConfigSpec::to_ndp_config` + `WorkloadSpec::build` → `NdpMachine::new` →
//! `NdpMachine::run` → drop → `RunSet::to_json_string` / `to_csv_string`.
//!
//! End-to-end metrics come from untraced repetitions; per-layer metrics from
//! traced ones, which record a [`trace::Span`] around each call. Every
//! scenario must complete, pass cheap report invariants and, at the default
//! seed, reproduce the digest pinned in `golden/`.

pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use syncron_harness::json::Value;
use syncron_harness::{report_to_value, RunEntry, RunSet, Scenario, Sweep, WorkloadSpec};
use syncron_system::{IncompleteReason, NdpMachine, RunReport};

pub use trace::{Span, Trace};
pub use workloads::{Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced run): name and unit. Layers are named after the
/// workspace crates; `perfbench` is the benchmark's own time outside any
/// layer call and `trace` the cost of tracing itself.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("harness.parse_s", "s"),
    ("harness.expand_s", "s"),
    ("harness.spec_s", "s"),
    ("harness.export_s", "s"),
    ("system.new_s", "s"),
    ("system.run_s", "s"),
    ("system.drop_s", "s"),
    ("system.run_ns_per_event", "ns"),
    ("system.new_us_per_core", "us"),
    ("system.sim_time_us", "us"),
    ("sim.events", "count"),
    ("sim.events_per_sync_request", "ratio"),
    ("sim.sharded_frac", "ratio"),
    ("core.sync_requests", "count"),
    ("core.local_messages", "count"),
    ("core.global_messages", "count"),
    ("core.overflow_messages", "count"),
    ("core.overflow_fraction", "ratio"),
    ("core.st_max_occupancy", "ratio"),
    ("core.mem_accesses", "count"),
    ("net.intra_msgs", "count"),
    ("net.inter_msgs", "count"),
    ("net.inter_bytes", "bytes"),
    ("net.fault_dropped", "count"),
    ("net.fault_retransmitted", "count"),
    ("net.fault_dup_discarded", "count"),
    ("net.retx_per_drop", "ratio"),
    ("mem.dram_accesses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.loads", "count"),
    ("mem.stores", "count"),
    ("workloads.total_ops", "count"),
    ("workloads.instructions", "count"),
    ("workloads.latency_p99_us", "us"),
    ("perfbench.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Repetitions measured even when `--seconds` has already elapsed.
const MIN_REPS: usize = 3;

/// One scenario's result within a repetition.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario label.
    pub label: String,
    /// Digest of the report's simulation-determined fields.
    pub digest: u64,
    /// Why the scenario failed, if it did.
    pub failure: Option<String>,
}

/// One pass over a workload's document.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Host seconds from parse to the end of export.
    pub wall_s: f64,
    /// Host seconds in parse, expand, spec build and `NdpMachine::new`.
    pub setup_s: f64,
    /// Per-scenario results, in document order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Runs one repetition of `doc`, recording spans into `trace` when it is enabled.
pub fn run_rep(doc: &str, trace: &mut Trace) -> Result<Rep, String> {
    let start = Instant::now();
    let rep_span = trace.open("perfbench.rep", start, None, None);

    let parsed = syncron_harness::toml::parse(doc).map_err(|e| e.to_string())?;
    let parsed_at = Instant::now();
    trace.record("harness.parse", start, parsed_at, rep_span, None);

    let sweeps = parsed
        .get("sweep")
        .and_then(Value::as_array)
        .ok_or("the document needs a [[sweep]] array")?;
    let mut scenarios = Vec::new();
    for sweep in sweeps {
        scenarios.extend(Sweep::scenarios_from_value(sweep).map_err(|e| e.to_string())?);
    }
    let expanded_at = Instant::now();
    trace.record("harness.expand", parsed_at, expanded_at, rep_span, None);

    let mut setup = expanded_at - start;
    let mut reports = Vec::with_capacity(scenarios.len());
    let mut errors = Vec::with_capacity(scenarios.len());
    for (id, scenario) in scenarios.iter().enumerate() {
        let (result, scenario_setup) = run_scenario(scenario, id, rep_span, trace);
        setup += scenario_setup;
        match result {
            Ok(report) => {
                reports.push(report);
                errors.push(None);
            }
            Err(message) => {
                reports.push(RunReport::failed(
                    scenario.workload.label(),
                    scenario.config.mechanism.name(),
                    IncompleteReason::Panicked(message.clone()),
                ));
                errors.push(Some(message));
            }
        }
    }

    let export_start = Instant::now();
    let set = RunSet::from_pairs(scenarios.into_iter().zip(reports)).map_err(|e| e.to_string())?;
    let exported = std::hint::black_box(set.to_json_string().len() + set.to_csv_string().len());
    let end = Instant::now();
    trace.record("harness.export", export_start, end, rep_span, None);
    trace.close(rep_span, end);
    debug_assert!(exported > 0);

    let scenarios = set
        .entries()
        .iter()
        .zip(errors)
        .map(|(entry, error)| ScenarioOutcome {
            label: entry.scenario.label.clone(),
            digest: digest(entry),
            failure: error.or_else(|| check(entry)),
        })
        .collect();
    Ok(Rep {
        wall_s: (end - start).as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        scenarios,
    })
}

/// Builds, runs and drops one scenario's machine. Returns the report (or why
/// there is none) and the scenario's set-up time (spec build + `new`).
fn run_scenario(
    scenario: &Scenario,
    id: usize,
    parent: Option<usize>,
    trace: &mut Trace,
) -> (Result<RunReport, String>, Duration) {
    let start = Instant::now();
    let span = trace.open("perfbench.scenario", start, parent, Some(id));
    let built = scenario
        .config
        .to_ndp_config()
        .and_then(|config| Ok((config, scenario.workload.build()?)));
    let built_at = Instant::now();
    trace.record("harness.spec", start, built_at, span, Some(id));
    let (config, workload) = match built {
        Ok(built) => built,
        Err(e) => {
            trace.close(span, built_at);
            return (Err(format!("spec: {e}")), built_at - start);
        }
    };

    let mut new_time = Duration::ZERO;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut machine = NdpMachine::new(&config, workload.as_ref());
        let new_at = Instant::now();
        new_time = new_at - built_at;
        let new_span = trace.record("system.new", built_at, new_at, span, Some(id));
        trace.counts(new_span, || {
            vec![("cores", (config.units * config.cores_per_unit) as f64)]
        });
        let report = machine.run();
        let run_at = Instant::now();
        let run_span = trace.record("system.run", new_at, run_at, span, Some(id));
        trace.counts(run_span, || report_counts(&report));
        drop(machine);
        let dropped_at = Instant::now();
        trace.record("system.drop", run_at, dropped_at, span, Some(id));
        report
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panicked: {message}")
    });
    trace.close(span, Instant::now());
    (result, built_at - start + new_time)
}

/// Report counts recorded at the `system.run` boundary.
fn report_counts(r: &RunReport) -> Vec<(&'static str, f64)> {
    let faults = r.faults.unwrap_or_default();
    let mut counts = vec![
        ("sim_time_ps", r.sim_time.as_ps() as f64),
        ("events", r.perf.events_delivered as f64),
        ("shards", r.perf.shards as f64),
        ("sync_requests", r.sync_requests as f64),
        ("local_messages", r.sync.local_messages as f64),
        ("global_messages", r.sync.global_messages as f64),
        ("overflow_messages", r.sync.overflow_messages as f64),
        ("overflowed_requests", r.sync.overflowed_requests as f64),
        ("acquire_requests", r.sync.acquire_requests as f64),
        ("st_max_occupancy", r.sync.st_max_occupancy),
        ("sync_mem_accesses", r.sync.mem_accesses as f64),
        ("intra_msgs", r.traffic.intra_unit_msgs as f64),
        ("inter_msgs", r.traffic.inter_unit_msgs as f64),
        ("inter_bytes", r.traffic.inter_unit_bytes as f64),
        ("fault_dropped", faults.dropped as f64),
        ("fault_retransmitted", faults.retransmitted as f64),
        ("fault_dup_discarded", faults.dup_discarded as f64),
        ("dram_accesses", r.dram_accesses as f64),
        ("l1_hit_ratio", r.l1_hit_ratio),
        ("loads", r.loads as f64),
        ("stores", r.stores as f64),
        ("total_ops", r.total_ops as f64),
        ("instructions", r.instructions as f64),
    ];
    if let Some(latency) = r.latency {
        counts.push(("latency_p99_ns", latency.p99_ns));
    }
    counts
}

/// Cheap invariants every scenario's report must satisfy.
fn check(entry: &RunEntry) -> Option<String> {
    let r = &entry.report;
    if !r.completed {
        let reason = r
            .incomplete
            .as_ref()
            .map_or("unknown", IncompleteReason::label);
        return Some(format!("incomplete ({reason})"));
    }
    if let Some(f) = r.faults {
        if f.dropped != f.retransmitted {
            return Some(format!(
                "{} drops healed by {} retransmissions",
                f.dropped, f.retransmitted
            ));
        }
    }
    if let WorkloadSpec::Service {
        shape, requests, ..
    } = entry.scenario.workload
    {
        let config = match entry.scenario.config.to_ndp_config() {
            Ok(config) => config,
            Err(e) => return Some(format!("config: {e}")),
        };
        // The epoch shape turns one client of every multi-client unit into
        // its reclaimer, which serves no requests.
        let per_unit = config.clients_per_unit();
        let servers = if shape.name() == "epoch" && per_unit > 1 {
            per_unit - 1
        } else {
            per_unit
        };
        let admitted = u64::from(requests) * (servers * config.units) as u64;
        let measured = r.latency.map_or(0, |l| l.ops);
        if measured != admitted {
            return Some(format!(
                "{measured} latencies for {admitted} admitted requests"
            ));
        }
    }
    None
}

/// FNV-1a digest of a report's simulation-determined fields: the canonical
/// JSON export without the host-side `perf` table (the fields
/// `RunReport::divergence_from` compares).
pub fn digest(entry: &RunEntry) -> u64 {
    let mut value = report_to_value(&entry.report);
    if let Value::Table(map) = &mut value {
        map.remove("perf");
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in value.to_json().bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Scenario label → digest.
pub type Digests = BTreeMap<String, u64>;

/// The digests of one repetition.
pub fn digests_of(rep: &Rep) -> Digests {
    rep.scenarios
        .iter()
        .map(|s| (s.label.clone(), s.digest))
        .collect()
}

/// Parses a pinned digest file: one `<16 hex digits> <label>` line per scenario.
pub fn parse_digests(text: &str) -> Result<Digests, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let (hex, label) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed digest line '{line}'"))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("malformed digest '{hex}': {e}"))?;
            Ok((label.trim().to_string(), digest))
        })
        .collect()
}

/// Renders digests in the format [`parse_digests`] reads.
pub fn format_digests(workload: Workload, digests: &Digests) -> String {
    let mut out = format!(
        "# {} at seed {}: FNV-1a of each report without `perf`.\n\
         # Re-pin with: cargo run --release --manifest-path perfbench/Cargo.toml -- --workload {} --bless\n",
        workload.name(),
        DEFAULT_SEED,
        workload.name()
    );
    for (label, digest) in digests {
        out.push_str(&format!("{digest:016x} {label}\n"));
    }
    out
}

/// Marks every scenario of `rep` whose digest differs from `expected`, and
/// reports scenarios missing on either side. Returns the failures found.
pub fn verify(rep: &mut Rep, expected: &Digests) -> Vec<String> {
    let mut problems = Vec::new();
    for s in &mut rep.scenarios {
        match expected.get(&s.label) {
            Some(&want) if want == s.digest => {}
            Some(&want) => {
                if s.failure.is_none() {
                    s.failure = Some(format!(
                        "digest moved: {:016x} != pinned {want:016x}",
                        s.digest
                    ));
                }
            }
            None => {
                if s.failure.is_none() {
                    s.failure = Some("no pinned digest".into());
                }
            }
        }
    }
    for label in expected.keys() {
        if !rep.scenarios.iter().any(|s| &s.label == label) {
            problems.push(format!("{label}: pinned scenario missing from the run"));
        }
    }
    problems.extend(
        rep.scenarios
            .iter()
            .filter_map(|s| s.failure.as_ref().map(|f| format!("{}: {f}", s.label))),
    );
    problems
}

/// Derives every per-layer metric except `trace.overhead_frac` from the spans
/// of one traced repetition (`base` is the index of its first span).
pub fn layer_metrics(spans: &[Span], base: usize) -> BTreeMap<&'static str, f64> {
    let own = Trace::self_seconds(spans, base);
    let mut self_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut runs, mut sharded, mut l1_sum) = (0.0, 0.0, 0.0);
    let (mut st_max, mut p99_max): (f64, f64) = (0.0, 0.0);
    for (span, own) in spans.iter().zip(own) {
        *self_s.entry(span.name).or_default() += own;
        for &(key, value) in &span.counts {
            *sums.entry(key).or_default() += value;
            match key {
                "shards" if value > 1.0 => sharded += 1.0,
                "st_max_occupancy" => st_max = st_max.max(value),
                "latency_p99_ns" => p99_max = p99_max.max(value),
                "l1_hit_ratio" => l1_sum += value,
                _ => {}
            }
        }
        if span.name == "system.run" {
            runs += 1.0;
        }
    }
    let time = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let sum = |key: &str| sums.get(key).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    BTreeMap::from([
        ("harness.parse_s", time("harness.parse")),
        ("harness.expand_s", time("harness.expand")),
        ("harness.spec_s", time("harness.spec")),
        ("harness.export_s", time("harness.export")),
        ("system.new_s", time("system.new")),
        ("system.run_s", time("system.run")),
        ("system.drop_s", time("system.drop")),
        (
            "system.run_ns_per_event",
            ratio(time("system.run") * 1e9, sum("events")),
        ),
        (
            "system.new_us_per_core",
            ratio(time("system.new") * 1e6, sum("cores")),
        ),
        ("system.sim_time_us", sum("sim_time_ps") / 1e6),
        ("sim.events", sum("events")),
        (
            "sim.events_per_sync_request",
            ratio(sum("events"), sum("sync_requests")),
        ),
        ("sim.sharded_frac", ratio(sharded, runs)),
        ("core.sync_requests", sum("sync_requests")),
        ("core.local_messages", sum("local_messages")),
        ("core.global_messages", sum("global_messages")),
        ("core.overflow_messages", sum("overflow_messages")),
        (
            "core.overflow_fraction",
            ratio(sum("overflowed_requests"), sum("acquire_requests")),
        ),
        ("core.st_max_occupancy", st_max),
        ("core.mem_accesses", sum("sync_mem_accesses")),
        ("net.intra_msgs", sum("intra_msgs")),
        ("net.inter_msgs", sum("inter_msgs")),
        ("net.inter_bytes", sum("inter_bytes")),
        ("net.fault_dropped", sum("fault_dropped")),
        ("net.fault_retransmitted", sum("fault_retransmitted")),
        ("net.fault_dup_discarded", sum("fault_dup_discarded")),
        (
            "net.retx_per_drop",
            ratio(sum("fault_retransmitted"), sum("fault_dropped")),
        ),
        ("mem.dram_accesses", sum("dram_accesses")),
        ("mem.l1_hit_ratio", ratio(l1_sum, runs)),
        ("mem.loads", sum("loads")),
        ("mem.stores", sum("stores")),
        ("workloads.total_ops", sum("total_ops")),
        ("workloads.instructions", sum("instructions")),
        ("workloads.latency_p99_us", p99_max / 1e3),
        (
            "perfbench.self_s",
            time("perfbench.rep") + time("perfbench.scenario"),
        ),
    ])
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// What one benchmark invocation runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep measuring (at least [`MIN_REPS`] repetitions run).
    pub seconds: f64,
    /// Collect per-layer metrics from traced repetitions.
    pub trace: bool,
    /// Instance size.
    pub size: Size,
    /// Pinned digests to check every repetition against; `None` checks that
    /// each repetition reproduces the first one.
    pub pinned: Option<Digests>,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Scenario runs attempted (scenarios × repetitions).
    pub attempted: u64,
    /// Scenario runs that failed.
    pub failed: u64,
    /// Distinct failure descriptions, naming the scenario.
    pub failures: Vec<String>,
    /// Metric name, value and unit, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digests of the first repetition.
    pub digests: Digests,
    /// Spans of the traced repetitions.
    pub trace: Trace,
}

/// Runs a workload: one warm-up repetition, then repetitions until
/// `seconds` have passed. Untraced repetitions give the end-to-end metrics;
/// with `trace` set, untraced and traced repetitions alternate and the
/// per-layer metrics come from the traced ones.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let doc = opts.workload.document(opts.seed, opts.size);
    let mut trace = Trace::new(opts.trace);
    let mut untraced = Trace::new(false);

    let mut warmup = run_rep(&doc, &mut untraced)?;
    let digests = digests_of(&warmup);
    let expected = opts.pinned.clone().unwrap_or_else(|| digests.clone());
    let mut failures = verify(&mut warmup, &expected);
    let mut attempted = warmup.scenarios.len() as u64;
    let mut failed = count_failed(&warmup);

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    // Traced repetitions keep the range of their spans in `trace`.
    let (mut plain, mut traced): (Vec<Rep>, Vec<(Rep, Range<usize>)>) = (Vec::new(), Vec::new());
    loop {
        let enough = plain.len() >= MIN_REPS && (!opts.trace || traced.len() >= MIN_REPS);
        if enough && Instant::now() >= deadline {
            break;
        }
        let tracing = opts.trace && plain.len() > traced.len();
        let base = trace.spans().len();
        let mut rep = run_rep(&doc, if tracing { &mut trace } else { &mut untraced })?;
        for problem in verify(&mut rep, &expected) {
            if !failures.contains(&problem) {
                failures.push(problem);
            }
        }
        attempted += rep.scenarios.len() as u64;
        failed += count_failed(&rep);
        if tracing {
            traced.push((rep, base..trace.spans().len()));
        } else {
            plain.push(rep);
        }
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    eprintln!("untraced repetition walls (s): {walls:?}");
    let wall = median(&walls);
    let metrics = if opts.trace {
        let per_rep: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .map(|(_, spans)| layer_metrics(&trace.spans()[spans.clone()], spans.start))
            .collect();
        let traced_wall = median(&traced.iter().map(|(r, _)| r.wall_s).collect::<Vec<_>>());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_frac" {
                    traced_wall / wall - 1.0
                } else {
                    median(&per_rep.iter().map(|m| m[name]).collect::<Vec<_>>())
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let setup = median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());
        let values = [wall, setup, peak_rss_mb()?];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        failures,
        metrics,
        digests,
        trace,
    })
}

fn count_failed(rep: &Rep) -> u64 {
    rep.scenarios.iter().filter(|s| s.failure.is_some()).count() as u64
}
