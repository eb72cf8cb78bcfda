//! Simulator-throughput experiment: how fast the simulator itself runs.
//!
//! Unlike every other experiment in this crate, this one measures the *host*, not
//! the simulated system: wall-clock seconds (and delivered events per second) of
//! the run loop on the barrier reference workload, over machine geometries from
//! the paper's 4×16 Table 5 machine up to the 16×256 scale-out of
//! `scenarios/scale_4096.toml`. Three sweeps:
//!
//! * **shard scaling** — the sharded conservative-PDES executor at 1/2/4/8
//!   workers against the sequential run loop;
//! * **fast path** — burst resume on vs off;
//! * **resilience** — drop rate × mechanism under injected message loss.
//!
//! The shard and fast-path sweeps price identical simulations (every point's
//! report is asserted equal to its reference), so their wall-clock ratios
//! isolate host cost. Runs execute serially (never through the parallel
//! runner) and keep the best of [`REPEATS`] wall times, so numbers are not
//! inflated by sibling runs competing for cores.
//!
//! The bench target `simcore_throughput` prints the tables and writes the sweeps
//! as `BENCH_simcore.json` (schema [`SIMCORE_SCHEMA`], validated by
//! [`validate_simcore_json`]) — one point of the simulator-performance trajectory
//! per merged PR. `EXPERIMENTS.md` records the methodology and current numbers.

use crate::{f2, scale, scaled, Table};
use syncron_core::MechanismKind;
use syncron_harness::json::Value;
use syncron_harness::{ConfigSpec, Scenario, WorkloadSpec};
use syncron_system::FaultConfig;
use syncron_workloads::micro::SyncPrimitive;

/// Schema identifier embedded in (and required from) `BENCH_simcore.json`.
pub const SIMCORE_SCHEMA: &str = "syncron-bench-simcore/v2";

/// Timed repetitions per point; the best (smallest) wall time is kept.
pub const REPEATS: usize = 3;

/// Geometries swept: the paper's default machine up to the 4096-core scale-out.
pub const GEOMETRIES: [(usize, usize); 3] = [(4, 16), (8, 64), (16, 256)];

/// One timed run of one scenario.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Whether the run finished before its event budget.
    pub completed: bool,
    /// Events the run loop delivered.
    pub events: u64,
    /// Best-of-[`REPEATS`] wall-clock seconds.
    pub wall_seconds: f64,
    /// `events / wall_seconds` for the best repetition.
    pub events_per_sec: f64,
}

fn scenario(
    units: usize,
    cores_per_unit: usize,
    mechanism: MechanismKind,
    iterations: u32,
) -> Scenario {
    let mut config = ConfigSpec::default()
        .with_geometry(units, cores_per_unit)
        .with_mechanism(mechanism);
    config.max_events = 40_000_000;
    Scenario::new(
        format!("simcore/{units}x{cores_per_unit}/mech={}", mechanism.name()),
        config,
        // The workload of scenarios/scale_4096.toml: a global barrier with short
        // compute phases — every core stays active, so the event queue holds one
        // event per core and the run loop dominates the host cost.
        WorkloadSpec::Micro {
            primitive: SyncPrimitive::Barrier,
            interval: 100,
            iterations,
        },
    )
}

fn measure_one(scenario: &Scenario) -> (syncron_system::RunReport, Measurement) {
    let mut best: Option<syncron_system::RunReport> = None;
    for _ in 0..REPEATS {
        let report = scenario.run().expect("simcore scenario runs");
        let keep = match &best {
            Some(b) => report.perf.wall_seconds < b.perf.wall_seconds,
            None => true,
        };
        if keep {
            best = Some(report);
        }
    }
    let report = best.expect("at least one repetition");
    let m = Measurement {
        completed: report.completed,
        events: report.perf.events_delivered,
        wall_seconds: report.perf.wall_seconds,
        events_per_sec: report.perf.events_per_sec(),
    };
    (report, m)
}

/// Worker counts swept by the shard-scaling experiment (1 = the sequential
/// reference every other count is compared against).
pub const SHARD_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One point of the shard-scaling sweep: one geometry, executed by the
/// sharded conservative-PDES mode with `workers` worker threads.
#[derive(Clone, Copy, Debug)]
pub struct ShardPoint {
    /// NDP units of the simulated machine.
    pub units: usize,
    /// Cores per NDP unit of the simulated machine.
    pub cores_per_unit: usize,
    /// Synchronization scheme the simulated machine ran.
    pub mechanism: MechanismKind,
    /// Worker threads requested via `sim_threads`.
    pub workers: usize,
    /// Shards the run actually executed with (`min(workers, units)` unless the
    /// configuration forced a sequential fallback).
    pub shards: usize,
    /// Best-of-[`REPEATS`] measurement.
    pub run: Measurement,
}

impl ShardPoint {
    /// `WxC` geometry label (`16x256`).
    pub fn geometry(&self) -> String {
        format!("{}x{}", self.units, self.cores_per_unit)
    }
}

/// Wall-clock speedup of `p` over the 1-worker point of the same geometry
/// (`0.0` if the baseline is missing or degenerate). Wall seconds — not
/// events/sec — because every worker count delivers the identical event count
/// for the identical simulation.
pub fn shard_speedup(points: &[ShardPoint], p: &ShardPoint) -> f64 {
    points
        .iter()
        .find(|q| q.units == p.units && q.cores_per_unit == p.cores_per_unit && q.workers == 1)
        .map(|base| {
            if p.run.wall_seconds > 0.0 {
                base.run.wall_seconds / p.run.wall_seconds
            } else {
                0.0
            }
        })
        .unwrap_or(0.0)
}

/// Measures the shard-scaling sweep over explicit geometries and worker counts
/// (exposed so tests and the CI smoke job can run a tiny instance; use
/// [`measure_shards`] for the real experiment).
///
/// Every worker count runs the *same* simulation: the 1-worker report is the
/// reference and any simulated-field divergence panics, so the wall-clock
/// comparison is guaranteed to price identical work.
pub fn measure_shard_geometries(
    geometries: &[(usize, usize)],
    iterations: u32,
    workers: &[usize],
) -> Vec<ShardPoint> {
    let mechanism = MechanismKind::SynCron;
    let mut points = Vec::new();
    for &(units, cores_per_unit) in geometries {
        let mut reference: Option<syncron_system::RunReport> = None;
        for &w in workers {
            let mut s = scenario(units, cores_per_unit, mechanism, iterations);
            s.label = format!("{}/w={w}", s.label);
            s.config = s.config.with_sim_threads(w);
            let (report, run) = measure_one(&s);
            match &reference {
                None => reference = Some(report.clone()),
                Some(base) => {
                    if let Some(field) = base.divergence_from(&report) {
                        panic!(
                            "{units}x{cores_per_unit}: sharded run with {w} workers \
                             diverged from the sequential reference in {field}"
                        );
                    }
                }
            }
            points.push(ShardPoint {
                units,
                cores_per_unit,
                mechanism,
                workers: w,
                shards: report.perf.shards,
                run,
            });
        }
    }
    points
}

/// Runs the full shard-scaling sweep (respects `SYNCRON_SCALE`): the barrier
/// reference workload at every [`GEOMETRIES`] entry under [`SHARD_WORKERS`].
pub fn measure_shards() -> Vec<ShardPoint> {
    measure_shard_geometries(&GEOMETRIES, scaled(8, 1), &SHARD_WORKERS)
}

/// Fast-path variants measured by the attribution sweep: burst resume off
/// (the baseline) and on (the default). The variant set is the contract
/// [`validate_simcore_json`] checks in `BENCH_simcore.json` — dropping a
/// variant here drops its rows there.
pub const FASTPATH_VARIANTS: [(&str, bool); 2] = [("baseline", false), ("burst-resume", true)];

/// Mechanisms the fast-path sweep prices each lever under: SynCron wake-ups
/// serialize through the Synchronization Engine (each completion rides its own
/// crossbar hop at its own timestamp), so burst resume is near-neutral there
/// and the sweep would hide the lever's payoff; Ideal completes whole barrier
/// episodes at one timestamp — the broadcast shape the burst path collapses.
pub const FASTPATH_KINDS: [MechanismKind; 2] = [MechanismKind::SynCron, MechanismKind::Ideal];

/// One point of the fast-path attribution sweep: one geometry and mechanism
/// with burst resume on or off.
#[derive(Clone, Copy, Debug)]
pub struct FastpathPoint {
    /// NDP units of the simulated machine.
    pub units: usize,
    /// Cores per NDP unit of the simulated machine.
    pub cores_per_unit: usize,
    /// Synchronization scheme the simulated machine ran.
    pub mechanism: MechanismKind,
    /// Variant label from [`FASTPATH_VARIANTS`].
    pub variant: &'static str,
    /// Whether same-time wake-ups coalesce into per-unit burst events.
    pub burst_resume: bool,
    /// Best-of-[`REPEATS`] measurement.
    pub run: Measurement,
}

impl FastpathPoint {
    /// `WxC` geometry label (`16x256`).
    pub fn geometry(&self) -> String {
        format!("{}x{}", self.units, self.cores_per_unit)
    }
}

/// Wall-clock speedup of `p` over the burst-resume-off baseline of the same
/// geometry and mechanism (`0.0` if the baseline is missing or degenerate).
/// Wall seconds — not events/sec — because burst resume *shrinks the event
/// count* for the identical simulation, which makes events/sec lie in both
/// directions.
pub fn fastpath_speedup(points: &[FastpathPoint], p: &FastpathPoint) -> f64 {
    points
        .iter()
        .find(|q| {
            q.units == p.units
                && q.cores_per_unit == p.cores_per_unit
                && q.mechanism == p.mechanism
                && q.variant == "baseline"
        })
        .map(|base| {
            if p.run.wall_seconds > 0.0 {
                base.run.wall_seconds / p.run.wall_seconds
            } else {
                0.0
            }
        })
        .unwrap_or(0.0)
}

/// Measures the fast-path attribution sweep over explicit geometries (exposed
/// so tests and the CI smoke job can run a tiny instance; use
/// [`measure_fastpath`] for the real experiment).
///
/// Every variant runs the *same* simulation: the baseline report is the
/// reference and any simulated-field divergence panics.
pub fn measure_fastpath_geometries(
    geometries: &[(usize, usize)],
    iterations: u32,
) -> Vec<FastpathPoint> {
    let mut points = Vec::new();
    for &(units, cores_per_unit) in geometries {
        for mechanism in FASTPATH_KINDS {
            let mut reference: Option<syncron_system::RunReport> = None;
            for (variant, burst_resume) in FASTPATH_VARIANTS {
                let mut s = scenario(units, cores_per_unit, mechanism, iterations);
                s.label = format!("{}/fastpath={variant}", s.label);
                s.config = s.config.with_burst_resume(burst_resume);
                let (report, run) = measure_one(&s);
                match &reference {
                    None => reference = Some(report.clone()),
                    Some(base) => {
                        if let Some(field) = base.divergence_from(&report) {
                            panic!(
                                "{units}x{cores_per_unit}/{}: fast-path variant '{variant}' \
                                 diverged from the baseline in {field}",
                                mechanism.name()
                            );
                        }
                    }
                }
                points.push(FastpathPoint {
                    units,
                    cores_per_unit,
                    mechanism,
                    variant,
                    burst_resume,
                    run,
                });
            }
        }
    }
    points
}

/// Runs the full fast-path attribution sweep (respects `SYNCRON_SCALE`).
pub fn measure_fastpath() -> Vec<FastpathPoint> {
    measure_fastpath_geometries(&GEOMETRIES, scaled(8, 1))
}

/// Drop rates swept by the resilience experiment. `0.0` is the clean baseline
/// (fault substrate *enabled* with zero probability — the knob-alive twin of
/// faults-off) every overhead and goodput ratio is defined against.
pub const RESILIENCE_DROP_RATES: [f64; 3] = [0.0, 0.02, 0.10];

/// Mechanisms the resilience sweep prices: the paper's three message-passing
/// schemes, whose inter-unit sync traffic is exactly what the fault substrate
/// drops (Ideal sends nothing and would measure noise).
pub const RESILIENCE_KINDS: [MechanismKind; 3] = [
    MechanismKind::Central,
    MechanismKind::Hier,
    MechanismKind::SynCron,
];

/// Geometries the resilience sweep runs: the paper's default machine and the
/// mid-size scale-out (the 16×256 machine adds wall time without changing the
/// recovery story).
pub const RESILIENCE_GEOMETRIES: [(usize, usize); 2] = [(4, 16), (8, 64)];

/// One point of the resilience sweep: one mechanism at one geometry under one
/// injected drop rate, with the recovery counters and the simulated-goodput
/// numbers the overhead ratios are derived from.
#[derive(Clone, Copy, Debug)]
pub struct ResiliencePoint {
    /// NDP units of the simulated machine.
    pub units: usize,
    /// Cores per NDP unit of the simulated machine.
    pub cores_per_unit: usize,
    /// Synchronization scheme the simulated machine ran.
    pub mechanism: MechanismKind,
    /// Injected per-message drop probability.
    pub drop_rate: f64,
    /// Messages the fault plan dropped.
    pub dropped: u64,
    /// Retransmissions the timeout/backoff path sent.
    pub retransmitted: u64,
    /// Simulated completion time in microseconds.
    pub sim_time_us: f64,
    /// Simulated goodput: completed operations per simulated millisecond.
    pub goodput_ops_per_ms: f64,
    /// Best-of-[`REPEATS`] host-side measurement.
    pub run: Measurement,
}

impl ResiliencePoint {
    /// `WxC` geometry label (`8x64`).
    pub fn geometry(&self) -> String {
        format!("{}x{}", self.units, self.cores_per_unit)
    }
}

/// The drop-rate-zero baseline of `p`'s (geometry, mechanism) group, if present.
fn resilience_baseline<'p>(
    points: &'p [ResiliencePoint],
    p: &ResiliencePoint,
) -> Option<&'p ResiliencePoint> {
    points.iter().find(|q| {
        q.units == p.units
            && q.cores_per_unit == p.cores_per_unit
            && q.mechanism == p.mechanism
            && q.drop_rate == 0.0
    })
}

/// Recovery overhead of `p`: simulated completion time over the drop-rate-zero
/// baseline of the same geometry and mechanism (`1.0` = free recovery, `0.0`
/// if the baseline is missing or degenerate).
pub fn resilience_overhead(points: &[ResiliencePoint], p: &ResiliencePoint) -> f64 {
    resilience_baseline(points, p)
        .map(|base| {
            if base.sim_time_us > 0.0 {
                p.sim_time_us / base.sim_time_us
            } else {
                0.0
            }
        })
        .unwrap_or(0.0)
}

/// Goodput retention of `p`: simulated ops/ms over the drop-rate-zero baseline
/// of the same geometry and mechanism (`1.0` = no degradation, `0.0` if the
/// baseline is missing or degenerate).
pub fn resilience_goodput_ratio(points: &[ResiliencePoint], p: &ResiliencePoint) -> f64 {
    resilience_baseline(points, p)
        .map(|base| {
            if base.goodput_ops_per_ms > 0.0 {
                p.goodput_ops_per_ms / base.goodput_ops_per_ms
            } else {
                0.0
            }
        })
        .unwrap_or(0.0)
}

/// Measures the resilience sweep over explicit geometries and drop rates
/// (exposed so tests and the CI smoke job can run a tiny instance; use
/// [`measure_resilience`] for the real experiment).
///
/// # Panics
///
/// Panics if any faulted run fails to recover to completion — a drop the
/// timeout/retransmission path loses is a correctness bug, not a data point.
pub fn measure_resilience_geometries(
    geometries: &[(usize, usize)],
    iterations: u32,
    drop_rates: &[f64],
) -> Vec<ResiliencePoint> {
    let mut points = Vec::new();
    for &(units, cores_per_unit) in geometries {
        for mechanism in RESILIENCE_KINDS {
            for &drop_rate in drop_rates {
                let mut s = scenario(units, cores_per_unit, mechanism, iterations);
                s.label = format!("{}/drop={drop_rate}", s.label);
                s.config = s.config.with_fault(FaultConfig {
                    enabled: true,
                    drop_prob: drop_rate,
                    ..FaultConfig::default()
                });
                let (report, run) = measure_one(&s);
                assert!(
                    report.completed,
                    "{units}x{cores_per_unit}/{}: drop rate {drop_rate} did not \
                     recover to completion",
                    mechanism.name()
                );
                let faults = report.faults.unwrap_or_default();
                points.push(ResiliencePoint {
                    units,
                    cores_per_unit,
                    mechanism,
                    drop_rate,
                    dropped: faults.dropped,
                    retransmitted: faults.retransmitted,
                    sim_time_us: report.sim_time.as_us_f64(),
                    goodput_ops_per_ms: report.ops_per_ms(),
                    run,
                });
            }
        }
    }
    points
}

/// Runs the full resilience sweep (respects `SYNCRON_SCALE`): drop rate ×
/// mechanism over [`RESILIENCE_GEOMETRIES`].
pub fn measure_resilience() -> Vec<ResiliencePoint> {
    measure_resilience_geometries(&RESILIENCE_GEOMETRIES, scaled(8, 1), &RESILIENCE_DROP_RATES)
}

/// Renders the resilience sweep as its text table.
pub fn resilience_table(points: &[ResiliencePoint]) -> Table {
    let mut table = Table::new(
        "Resilience under message loss: recovery overhead (simulated time vs \
         drop 0) and goodput retention per mechanism and drop rate",
        &[
            "geometry",
            "mechanism",
            "drop",
            "dropped",
            "retx",
            "sim us",
            "ops/ms",
            "overhead",
            "goodput",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.geometry(),
            p.mechanism.name().to_string(),
            format!("{:.2}", p.drop_rate),
            p.dropped.to_string(),
            p.retransmitted.to_string(),
            format!("{:.2}", p.sim_time_us),
            format!("{:.2}", p.goodput_ops_per_ms),
            f2(resilience_overhead(points, p)),
            f2(resilience_goodput_ratio(points, p)),
        ]);
    }
    table
}

/// Renders the fast-path attribution sweep as its text table.
pub fn fastpath_table(points: &[FastpathPoint]) -> Table {
    let mut table = Table::new(
        "Fast-path attribution: burst resume vs the burst-resume-off baseline \
         (identical simulations, wall-clock speedup)",
        &[
            "geometry",
            "mechanism",
            "variant",
            "events",
            "wall s",
            "ev/s",
            "speedup",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.geometry(),
            p.mechanism.name().to_string(),
            p.variant.to_string(),
            p.run.events.to_string(),
            format!("{:.6}", p.run.wall_seconds),
            format!("{:.3e}", p.run.events_per_sec),
            f2(fastpath_speedup(points, p)),
        ]);
    }
    table
}

/// Renders the shard-scaling sweep as its text table.
pub fn shard_table(points: &[ShardPoint]) -> Table {
    let mut table = Table::new(
        "Sharded-execution scaling: conservative-PDES workers vs the sequential \
         run loop (identical simulations, wall-clock speedup)",
        &[
            "geometry", "workers", "shards", "events", "wall s", "ev/s", "speedup",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.geometry(),
            p.workers.to_string(),
            p.shards.to_string(),
            p.run.events.to_string(),
            format!("{:.6}", p.run.wall_seconds),
            format!("{:.3e}", p.run.events_per_sec),
            f2(shard_speedup(points, p)),
        ]);
    }
    table
}

/// Serializes the sweeps as the `BENCH_simcore.json` document. `shards` is the
/// shard-scaling sweep, `fastpath` the fast-path attribution sweep and
/// `resilience` the drop-rate × mechanism recovery sweep; pass an empty slice
/// to emit a document without the corresponding array.
pub fn simcore_json(
    shards: &[ShardPoint],
    fastpath: &[FastpathPoint],
    resilience: &[ResiliencePoint],
) -> Value {
    let shard_rows = Value::Array(
        shards
            .iter()
            .map(|p| {
                Value::table([
                    ("geometry", Value::str(p.geometry())),
                    ("units", Value::Int(p.units as i64)),
                    ("cores_per_unit", Value::Int(p.cores_per_unit as i64)),
                    ("mechanism", Value::str(p.mechanism.name())),
                    ("workers", Value::Int(p.workers as i64)),
                    ("shards", Value::Int(p.shards as i64)),
                    ("completed", Value::Bool(p.run.completed)),
                    ("events", Value::Int(p.run.events as i64)),
                    ("wall_seconds", Value::Float(p.run.wall_seconds)),
                    ("events_per_sec", Value::Float(p.run.events_per_sec)),
                    ("speedup", Value::Float(shard_speedup(shards, p))),
                ])
            })
            .collect(),
    );
    let mut doc = Value::table([
        ("schema", Value::str(SIMCORE_SCHEMA)),
        ("scale", Value::Float(scale())),
        (
            "workload",
            Value::str("barrier-micro interval=100 (scenarios/scale_4096.toml shape)"),
        ),
        ("repeats", Value::Int(REPEATS as i64)),
    ]);
    if !shards.is_empty() {
        if let Value::Table(map) = &mut doc {
            map.insert("shard_scaling".to_string(), shard_rows);
        }
    }
    if !fastpath.is_empty() {
        let fastpath_rows = Value::Array(
            fastpath
                .iter()
                .map(|p| {
                    Value::table([
                        ("geometry", Value::str(p.geometry())),
                        ("units", Value::Int(p.units as i64)),
                        ("cores_per_unit", Value::Int(p.cores_per_unit as i64)),
                        ("mechanism", Value::str(p.mechanism.name())),
                        ("variant", Value::str(p.variant)),
                        ("burst_resume", Value::Bool(p.burst_resume)),
                        ("completed", Value::Bool(p.run.completed)),
                        ("events", Value::Int(p.run.events as i64)),
                        ("wall_seconds", Value::Float(p.run.wall_seconds)),
                        ("events_per_sec", Value::Float(p.run.events_per_sec)),
                        ("speedup", Value::Float(fastpath_speedup(fastpath, p))),
                    ])
                })
                .collect(),
        );
        if let Value::Table(map) = &mut doc {
            map.insert("fastpath".to_string(), fastpath_rows);
        }
    }
    if !resilience.is_empty() {
        let resilience_rows = Value::Array(
            resilience
                .iter()
                .map(|p| {
                    Value::table([
                        ("geometry", Value::str(p.geometry())),
                        ("units", Value::Int(p.units as i64)),
                        ("cores_per_unit", Value::Int(p.cores_per_unit as i64)),
                        ("mechanism", Value::str(p.mechanism.name())),
                        ("drop_rate", Value::Float(p.drop_rate)),
                        ("dropped", Value::Int(p.dropped as i64)),
                        ("retransmitted", Value::Int(p.retransmitted as i64)),
                        ("sim_time_us", Value::Float(p.sim_time_us)),
                        ("goodput_ops_per_ms", Value::Float(p.goodput_ops_per_ms)),
                        ("completed", Value::Bool(p.run.completed)),
                        ("wall_seconds", Value::Float(p.run.wall_seconds)),
                        (
                            "recovery_overhead",
                            Value::Float(resilience_overhead(resilience, p)),
                        ),
                        (
                            "goodput_ratio",
                            Value::Float(resilience_goodput_ratio(resilience, p)),
                        ),
                    ])
                })
                .collect(),
        );
        if let Value::Table(map) = &mut doc {
            map.insert("resilience".to_string(), resilience_rows);
        }
    }
    doc
}

/// Validates a parsed `BENCH_simcore.json` document against the schema the CI
/// trajectory job (and future PR comparisons) relies on.
pub fn validate_simcore_json(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing 'schema' string")?;
    if schema != SIMCORE_SCHEMA {
        return Err(format!(
            "schema mismatch: got '{schema}', expected '{SIMCORE_SCHEMA}'"
        ));
    }
    doc.get("scale")
        .and_then(Value::as_f64)
        .ok_or("missing numeric 'scale'")?;
    // The bench target always writes all three sweep arrays, so each is
    // required; each must be well-formed and carry the baseline its ratios
    // are defined against. The shard-scaling baseline is the 1-worker run.
    let rows = doc
        .get("shard_scaling")
        .ok_or("missing 'shard_scaling' array")?
        .as_array()
        .ok_or("'shard_scaling' must be an array")?;
    if rows.is_empty() {
        return Err("'shard_scaling' is empty".into());
    }
    let mut baselines = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let geometry = row
            .get("geometry")
            .and_then(Value::as_str)
            .ok_or(format!("shard_scaling {i}: missing string 'geometry'"))?;
        row.get("mechanism")
            .and_then(Value::as_str)
            .ok_or(format!("shard_scaling {i}: missing string 'mechanism'"))?;
        row.get("completed")
            .and_then(Value::as_bool)
            .ok_or(format!("shard_scaling {i}: missing bool 'completed'"))?;
        for key in [
            "workers",
            "shards",
            "events",
            "wall_seconds",
            "events_per_sec",
            "speedup",
        ] {
            row.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("shard_scaling {i}: missing numeric '{key}'"))?;
        }
        if row.get("workers").and_then(Value::as_f64) == Some(1.0) {
            baselines.push(geometry.to_string());
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let geometry = row.get("geometry").and_then(Value::as_str).unwrap_or("");
        if !baselines.iter().any(|b| b == geometry) {
            return Err(format!(
                "shard_scaling {i}: geometry '{geometry}' has no workers=1 baseline"
            ));
        }
    }
    // The fast-path sweep must also carry every variant of
    // [`FASTPATH_VARIANTS`] — a silently dropped variant (say, burst-resume
    // rows vanishing) would otherwise shrink the trajectory without failing
    // anything.
    let rows = doc
        .get("fastpath")
        .ok_or("missing 'fastpath' array")?
        .as_array()
        .ok_or("'fastpath' must be an array")?;
    if rows.is_empty() {
        return Err("'fastpath' is empty".into());
    }
    let mut baselines = Vec::new();
    let mut variants: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let geometry = row
            .get("geometry")
            .and_then(Value::as_str)
            .ok_or(format!("fastpath {i}: missing string 'geometry'"))?;
        let mechanism = row
            .get("mechanism")
            .and_then(Value::as_str)
            .ok_or(format!("fastpath {i}: missing string 'mechanism'"))?;
        let variant = row
            .get("variant")
            .and_then(Value::as_str)
            .ok_or(format!("fastpath {i}: missing string 'variant'"))?;
        for key in ["burst_resume", "completed"] {
            row.get(key)
                .and_then(Value::as_bool)
                .ok_or(format!("fastpath {i}: missing bool '{key}'"))?;
        }
        for key in ["events", "wall_seconds", "events_per_sec", "speedup"] {
            row.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("fastpath {i}: missing numeric '{key}'"))?;
        }
        if variant == "baseline" {
            baselines.push(format!("{geometry}/{mechanism}"));
        }
        if !variants.iter().any(|v| v == variant) {
            variants.push(variant.to_string());
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let geometry = row.get("geometry").and_then(Value::as_str).unwrap_or("");
        let mechanism = row.get("mechanism").and_then(Value::as_str).unwrap_or("");
        let key = format!("{geometry}/{mechanism}");
        if !baselines.iter().any(|b| b == &key) {
            return Err(format!(
                "fastpath {i}: point '{key}' has no burst-resume-off baseline"
            ));
        }
    }
    for (variant, ..) in FASTPATH_VARIANTS {
        if !variants.iter().any(|v| v == variant) {
            return Err(format!("fastpath: variant '{variant}' is missing"));
        }
    }
    // The resilience baseline is the drop-rate-0 run.
    let rows = doc
        .get("resilience")
        .ok_or("missing 'resilience' array")?
        .as_array()
        .ok_or("'resilience' must be an array")?;
    if rows.is_empty() {
        return Err("'resilience' is empty".into());
    }
    let mut baselines = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let geometry = row
            .get("geometry")
            .and_then(Value::as_str)
            .ok_or(format!("resilience {i}: missing string 'geometry'"))?;
        let mechanism = row
            .get("mechanism")
            .and_then(Value::as_str)
            .ok_or(format!("resilience {i}: missing string 'mechanism'"))?;
        row.get("completed")
            .and_then(Value::as_bool)
            .ok_or(format!("resilience {i}: missing bool 'completed'"))?;
        for key in [
            "drop_rate",
            "dropped",
            "retransmitted",
            "sim_time_us",
            "goodput_ops_per_ms",
            "recovery_overhead",
            "goodput_ratio",
        ] {
            row.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("resilience {i}: missing numeric '{key}'"))?;
        }
        if row.get("drop_rate").and_then(Value::as_f64) == Some(0.0) {
            baselines.push(format!("{geometry}/{mechanism}"));
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let geometry = row.get("geometry").and_then(Value::as_str).unwrap_or("");
        let mechanism = row.get("mechanism").and_then(Value::as_str).unwrap_or("");
        let key = format!("{geometry}/{mechanism}");
        if !baselines.iter().any(|b| b == &key) {
            return Err(format!(
                "resilience {i}: point '{key}' has no drop_rate=0 baseline"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny point set per sweep, enough for a document that validates.
    fn tiny_sweeps() -> (Vec<ShardPoint>, Vec<FastpathPoint>, Vec<ResiliencePoint>) {
        (
            measure_shard_geometries(&[(2, 4)], 1, &[1, 2]),
            measure_fastpath_geometries(&[(2, 4)], 1),
            measure_resilience_geometries(&[(2, 4)], 1, &[0.0, 0.1]),
        )
    }

    #[test]
    fn json_document_round_trips_and_validates() {
        let (shards, fastpath, resilience) = tiny_sweeps();
        let doc = simcore_json(&shards, &fastpath, &resilience);
        validate_simcore_json(&doc).expect("fresh document validates");
        // Through text and back (what the CI smoke job exercises).
        let text = doc.to_json_pretty();
        let parsed = syncron_harness::json::parse(&text).expect("valid JSON text");
        validate_simcore_json(&parsed).expect("parsed document validates");
        // The bench target writes every sweep, so a document missing any one
        // of them fails, naming the array.
        for (doc, missing) in [
            (simcore_json(&[], &fastpath, &resilience), "shard_scaling"),
            (simcore_json(&shards, &[], &resilience), "fastpath"),
            (simcore_json(&shards, &fastpath, &[]), "resilience"),
        ] {
            assert!(doc.get(missing).is_none());
            let err = validate_simcore_json(&doc).unwrap_err();
            assert!(
                err.contains(&format!("missing '{missing}'")),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn tiny_fastpath_sweep_prices_identical_simulations() {
        let points = measure_fastpath_geometries(&[(2, 4)], 2);
        assert_eq!(points.len(), FASTPATH_VARIANTS.len() * FASTPATH_KINDS.len());
        for p in &points {
            assert!(p.run.completed);
            let base = points
                .iter()
                .find(|q| q.mechanism == p.mechanism && q.variant == "baseline")
                .expect("baseline per mechanism");
            // Burst resume legitimately shrinks the delivered-event count.
            assert!(p.run.events <= base.run.events, "{}", p.variant);
            if p.variant == "baseline" {
                assert!((fastpath_speedup(&points, p) - 1.0).abs() < 1e-12);
            }
        }
        // Ideal's barrier broadcast is the burst path's target shape: the
        // collapse must be visible in the event count, not just nonnegative.
        let ideal_base = points
            .iter()
            .find(|p| p.mechanism == MechanismKind::Ideal && p.variant == "baseline")
            .unwrap();
        let ideal_burst = points
            .iter()
            .find(|p| p.mechanism == MechanismKind::Ideal && p.variant == "burst-resume")
            .unwrap();
        assert!(
            ideal_burst.run.events < ideal_base.run.events,
            "Ideal broadcast wake-ups must coalesce into burst events"
        );
        let table = fastpath_table(&points);
        assert_eq!(table.rows.len(), points.len());
    }

    #[test]
    fn fastpath_validation_requires_baseline_and_every_variant() {
        let (shards, fastpath, resilience) = tiny_sweeps();
        // Dropping the baseline row breaks every speedup's denominator.
        let partial: Vec<FastpathPoint> = fastpath
            .iter()
            .copied()
            .filter(|p| p.variant != "baseline")
            .collect();
        let doc = simcore_json(&shards, &partial, &resilience);
        let err = validate_simcore_json(&doc).unwrap_err();
        assert!(
            err.contains("burst-resume-off baseline"),
            "unexpected error: {err}"
        );
        // Dropping a variant (burst-resume rows vanishing) silently shrinks
        // the trajectory; the validator names the hole.
        let partial: Vec<FastpathPoint> = fastpath
            .iter()
            .copied()
            .filter(|p| p.variant != "burst-resume")
            .collect();
        let doc = simcore_json(&shards, &partial, &resilience);
        let err = validate_simcore_json(&doc).unwrap_err();
        assert!(err.contains("burst-resume"), "unexpected error: {err}");
    }

    #[test]
    fn tiny_shard_sweep_scales_and_reports_identically() {
        let points = measure_shard_geometries(&[(2, 4)], 2, &[1, 2, 8]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].shards, 1);
        assert_eq!(points[1].shards, 2);
        // Worker counts beyond the unit count are clamped to one shard per unit.
        assert_eq!(points[2].shards, 2);
        for p in &points {
            assert!(p.run.completed);
            // Identical simulations deliver identical event counts
            // (measure_shard_geometries also asserts full report equality).
            assert_eq!(p.run.events, points[0].run.events);
        }
        let base = &points[0];
        assert!((shard_speedup(&points, base) - 1.0).abs() < 1e-12);
        let table = shard_table(&points);
        assert_eq!(table.rows.len(), points.len());
    }

    #[test]
    fn shard_scaling_validation_requires_a_baseline() {
        let (_, fastpath, resilience) = tiny_sweeps();
        let shards = measure_shard_geometries(&[(2, 4)], 1, &[2, 4]);
        let doc = simcore_json(&shards, &fastpath, &resilience);
        let err = validate_simcore_json(&doc).unwrap_err();
        assert!(
            err.contains("workers=1 baseline"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn tiny_resilience_sweep_recovers_and_prices_the_loss() {
        // A tiny barrier run sends few inter-unit messages; 0.3 is the lowest
        // rate at which this geometry reliably sees probabilistic drops.
        let points = measure_resilience_geometries(&[(2, 4)], 2, &[0.0, 0.3]);
        assert_eq!(points.len(), RESILIENCE_KINDS.len() * 2);
        for p in &points {
            // measure_resilience_geometries already panics on an unrecovered
            // run; re-assert here so the invariant is visible in the test.
            assert!(
                p.run.completed,
                "{} drop={}",
                p.mechanism.name(),
                p.drop_rate
            );
            // Every drop is healed by exactly one retransmission.
            assert_eq!(
                p.dropped,
                p.retransmitted,
                "{} drop={}: unbalanced recovery",
                p.mechanism.name(),
                p.drop_rate
            );
            if p.drop_rate == 0.0 {
                assert_eq!(p.dropped, 0);
                // A point is its own baseline: both ratios are exactly 1.
                assert!((resilience_overhead(&points, p) - 1.0).abs() < 1e-12);
                assert!((resilience_goodput_ratio(&points, p) - 1.0).abs() < 1e-12);
            } else {
                // Recovery can only add simulated time / shed goodput.
                assert!(resilience_overhead(&points, p) >= 1.0);
                let goodput = resilience_goodput_ratio(&points, p);
                assert!(goodput > 0.0 && goodput <= 1.0 + 1e-12);
            }
        }
        // Aliveness: at a 10% drop rate the sweep as a whole must see drops.
        assert!(points.iter().any(|p| p.dropped > 0));
        let table = resilience_table(&points);
        assert_eq!(table.rows.len(), points.len());
    }

    #[test]
    fn resilience_validation_requires_a_drop_free_baseline() {
        let (shards, fastpath, resilience) = tiny_sweeps();
        let doc = simcore_json(&shards, &fastpath, &resilience);
        validate_simcore_json(&doc).expect("full sweep validates");
        // Dropping the drop-rate-0 rows breaks every ratio's denominator.
        let partial: Vec<ResiliencePoint> = resilience
            .iter()
            .copied()
            .filter(|p| p.drop_rate != 0.0)
            .collect();
        let doc = simcore_json(&shards, &fastpath, &partial);
        let err = validate_simcore_json(&doc).unwrap_err();
        assert!(
            err.contains("drop_rate=0 baseline"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn validation_names_missing_pieces() {
        let doc = syncron_harness::json::parse(r#"{"schema": "nope"}"#).unwrap();
        assert!(validate_simcore_json(&doc).unwrap_err().contains("schema"));
        let doc =
            syncron_harness::json::parse(&format!(r#"{{"schema": "{SIMCORE_SCHEMA}"}}"#)).unwrap();
        assert!(validate_simcore_json(&doc).unwrap_err().contains("scale"));
        let doc = syncron_harness::json::parse(&format!(
            r#"{{"schema": "{SIMCORE_SCHEMA}", "scale": 1.0, "shard_scaling": []}}"#
        ))
        .unwrap();
        assert!(validate_simcore_json(&doc)
            .unwrap_err()
            .contains("shard_scaling"));
    }
}
