//! Serializable workload specifications.
//!
//! A [`WorkloadSpec`] is a plain-data description that can name and construct every
//! workload of the evaluation (`crates/workloads`): the Figure 10 microbenchmarks, the
//! motivational spin-lock benchmarks, the nine concurrent data structures, the six
//! graph applications and the time-series analysis. Unlike a `Box<dyn Workload>`, a
//! spec is `Clone + Send + Sync + PartialEq` and converts to/from [`Value`] documents,
//! which is what lets the runner rebuild workloads inside worker threads and the CLI
//! read scenarios from TOML/JSON files.

use syncron_system::config::MAX_DELAY_NS;
use syncron_system::workload::Workload;
use syncron_workloads::datastructures;
use syncron_workloads::graph::{GraphAlgo, GraphApp, GraphInput, Partitioning};
use syncron_workloads::micro::{microbench, SyncPrimitive};
use syncron_workloads::service::{service_workload, ArrivalProcess, ServiceParams, ServiceShape};
use syncron_workloads::spinlock::{LockedStack, Placement, SpinKind, SpinLockBench, StackLock};
use syncron_workloads::timeseries::TimeSeries;

use crate::error::HarnessError;
use crate::json::Value;

/// A declarative, serializable description of one workload.
///
/// `PartialEq` only (not `Eq`): the open-loop [`Service`](WorkloadSpec::Service)
/// variant carries floating-point rate/skew parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Single-variable synchronization-primitive microbenchmark (Figure 10).
    Micro {
        /// Which primitive to exercise.
        primitive: SyncPrimitive,
        /// Instructions between synchronization points.
        interval: u64,
        /// Operations per core.
        iterations: u32,
    },
    /// Coherence-based spin-lock benchmark on the simulated CPU (Table 1).
    SpinLock {
        /// Lock algorithm.
        kind: SpinKind,
        /// Number of active threads.
        threads: usize,
        /// Thread placement across sockets.
        placement: Placement,
        /// Lock acquisitions per thread.
        iterations: u32,
    },
    /// Coarse-lock stack comparing lock implementations (Figure 2).
    LockedStack {
        /// Which lock protects the stack.
        lock: StackLock,
        /// Push operations per core.
        pushes: u32,
    },
    /// One of the nine concurrent data structures (Figure 11), by name.
    DataStructure {
        /// Structure name (one of [`datastructures::ALL_NAMES`]).
        name: String,
        /// Operations per client core.
        ops_per_core: u32,
    },
    /// A graph application over a named synthetic input (Figures 12–15, 17, 19, 20).
    Graph {
        /// Algorithm.
        algo: GraphAlgo,
        /// Input name (one of the paper's abbreviations: wk, sl, sx, co).
        input: String,
        /// Vertex-to-unit placement.
        partitioning: Partitioning,
    },
    /// Matrix-profile time-series analysis (Figures 12–15, 18, 21).
    TimeSeries {
        /// Dataset name ("air" or "pow").
        input: String,
        /// Diagonals processed per client core.
        diagonals_per_core: u32,
    },
    /// Open-loop service workload with deterministic arrivals, Zipf-skewed keys
    /// and per-request tail-latency telemetry (beyond the paper's evaluation).
    Service {
        /// Service shape (sharded KV / per-key-lock KV / work-stealing deque /
        /// epoch reclamation).
        shape: ServiceShape,
        /// Per-core arrival process.
        arrival: ArrivalProcess,
        /// Key-space size.
        keys: u64,
        /// Zipf skew exponent (0 = uniform).
        zipf_s: f64,
        /// Open-loop requests per client core.
        requests: u32,
    },
}

impl WorkloadSpec {
    /// Short kind string used in documents and by `syncron-cli list`.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Micro { .. } => "micro",
            WorkloadSpec::SpinLock { .. } => "spinlock",
            WorkloadSpec::LockedStack { .. } => "locked-stack",
            WorkloadSpec::DataStructure { .. } => "data-structure",
            WorkloadSpec::Graph { .. } => "graph",
            WorkloadSpec::TimeSeries { .. } => "time-series",
            WorkloadSpec::Service { .. } => "service",
        }
    }

    /// Stable human-readable label identifying the workload (used in scenario labels
    /// and result keys).
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Micro {
                primitive,
                interval,
                ..
            } => format!("{}-micro.i{}", primitive.name(), interval),
            WorkloadSpec::SpinLock {
                kind,
                threads,
                placement,
                ..
            } => format!(
                "{}.{}thr.{}",
                kind.name().to_ascii_lowercase(),
                threads,
                placement_name(*placement)
            ),
            WorkloadSpec::LockedStack { lock, .. } => {
                format!("locked-stack.{}", stack_lock_name(*lock))
            }
            WorkloadSpec::DataStructure { name, .. } => name.clone(),
            WorkloadSpec::Graph {
                algo,
                input,
                partitioning,
            } => match partitioning {
                Partitioning::Striped => format!("{}.{}", algo.name(), input),
                Partitioning::Greedy => format!("{}.{}.greedy", algo.name(), input),
            },
            WorkloadSpec::TimeSeries { input, .. } => format!("ts.{input}"),
            WorkloadSpec::Service {
                shape,
                arrival,
                zipf_s,
                ..
            } => format!(
                "svc-{}.{}.r{}.z{}",
                shape.name(),
                arrival.kind_name(),
                arrival.rate_per_us(),
                zipf_s
            ),
        }
    }

    /// Builds the concrete workload, validating every name.
    pub fn build(&self) -> Result<Box<dyn Workload + Send + Sync>, HarnessError> {
        match self {
            WorkloadSpec::Micro {
                primitive,
                interval,
                iterations,
            } => {
                // Every core computes `interval` instructions per iteration; past
                // this bound the simulated clock could wrap.
                if u128::from(*interval) * u128::from(*iterations) > u128::from(MAX_DELAY_NS) {
                    return Err(HarnessError::spec(format!(
                        "micro 'interval' × 'iterations' must be at most {MAX_DELAY_NS} \
                         instructions, got {interval} × {iterations}"
                    )));
                }
                Ok(microbench(*primitive, *interval, *iterations))
            }
            WorkloadSpec::SpinLock {
                kind,
                threads,
                placement,
                iterations,
            } => Ok(Box::new(SpinLockBench::new(
                *kind,
                *threads,
                *placement,
                *iterations,
            ))),
            WorkloadSpec::LockedStack { lock, pushes } => {
                Ok(Box::new(LockedStack::new(*lock, *pushes)))
            }
            WorkloadSpec::DataStructure { name, ops_per_core } => {
                datastructures::by_name(name, *ops_per_core).ok_or_else(|| {
                    HarnessError::spec(format!(
                        "unknown data structure '{name}' (expected one of {:?})",
                        datastructures::ALL_NAMES
                    ))
                })
            }
            WorkloadSpec::Graph {
                algo,
                input,
                partitioning,
            } => {
                let input = GraphInput::by_name(input)
                    .ok_or_else(|| HarnessError::spec(format!("unknown graph input '{input}'")))?;
                Ok(Box::new(
                    GraphApp::new(*algo, input).with_partitioning(*partitioning),
                ))
            }
            WorkloadSpec::TimeSeries {
                input,
                diagonals_per_core,
            } => {
                let ts = TimeSeries::by_name(input)
                    .ok_or_else(|| HarnessError::spec(format!("unknown time series '{input}'")))?;
                Ok(Box::new(ts.with_diagonals_per_core(*diagonals_per_core)))
            }
            WorkloadSpec::Service {
                shape,
                arrival,
                keys,
                zipf_s,
                requests,
            } => {
                validate_arrival(arrival)?;
                if *keys == 0 {
                    return Err(HarnessError::spec("service 'keys' must be ≥ 1"));
                }
                if !(zipf_s.is_finite() && *zipf_s >= 0.0) {
                    return Err(HarnessError::spec(format!(
                        "service 'zipf_s' must be a finite value ≥ 0, got {zipf_s}"
                    )));
                }
                if *requests == 0 {
                    return Err(HarnessError::spec("service 'requests' must be ≥ 1"));
                }
                // One draw of the exponential sampler spans at most MAX_EXP_DRAW mean
                // gaps, so this bounds how far a core's arrival clock can run.
                let rate = arrival.rate_per_us();
                let horizon_ns = f64::from(*requests) / rate * MAX_EXP_DRAW * 1e3;
                if horizon_ns > MAX_DELAY_NS as f64 {
                    return Err(HarnessError::spec(format!(
                        "service 'rate_per_us' = {rate} is too low for {requests} requests: \
                         the arrival clock could pass {MAX_DELAY_NS} ns"
                    )));
                }
                Ok(service_workload(
                    *shape,
                    ServiceParams {
                        arrival: *arrival,
                        keys: *keys,
                        zipf_s: *zipf_s,
                        requests: *requests,
                    },
                ))
            }
        }
    }

    /// Serializes the spec into a table value.
    pub fn to_value(&self) -> Value {
        match self {
            WorkloadSpec::Micro {
                primitive,
                interval,
                iterations,
            } => Value::table([
                ("kind", Value::str("micro")),
                ("primitive", Value::str(primitive.name())),
                ("interval", Value::Int(*interval as i64)),
                ("iterations", Value::Int(*iterations as i64)),
            ]),
            WorkloadSpec::SpinLock {
                kind,
                threads,
                placement,
                iterations,
            } => Value::table([
                ("kind", Value::str("spinlock")),
                ("lock", Value::str(kind.name())),
                ("threads", Value::Int(*threads as i64)),
                ("placement", Value::str(placement_name(*placement))),
                ("iterations", Value::Int(*iterations as i64)),
            ]),
            WorkloadSpec::LockedStack { lock, pushes } => Value::table([
                ("kind", Value::str("locked-stack")),
                ("lock", Value::str(stack_lock_name(*lock))),
                ("pushes", Value::Int(*pushes as i64)),
            ]),
            WorkloadSpec::DataStructure { name, ops_per_core } => Value::table([
                ("kind", Value::str("data-structure")),
                ("name", Value::str(name.clone())),
                ("ops_per_core", Value::Int(*ops_per_core as i64)),
            ]),
            WorkloadSpec::Graph {
                algo,
                input,
                partitioning,
            } => Value::table([
                ("kind", Value::str("graph")),
                ("algo", Value::str(algo.name())),
                ("input", Value::str(input.clone())),
                ("partitioning", Value::str(partitioning_name(*partitioning))),
            ]),
            WorkloadSpec::TimeSeries {
                input,
                diagonals_per_core,
            } => Value::table([
                ("kind", Value::str("time-series")),
                ("input", Value::str(input.clone())),
                ("diagonals_per_core", Value::Int(*diagonals_per_core as i64)),
            ]),
            WorkloadSpec::Service {
                shape,
                arrival,
                keys,
                zipf_s,
                requests,
            } => {
                let mut pairs = vec![
                    ("kind", Value::str("service")),
                    ("shape", Value::str(shape.name())),
                    ("arrival", Value::str(arrival.kind_name())),
                    ("rate_per_us", Value::Float(arrival.rate_per_us())),
                    ("keys", Value::Int(*keys as i64)),
                    ("zipf_s", Value::Float(*zipf_s)),
                    ("requests", Value::Int(*requests as i64)),
                ];
                match arrival {
                    ArrivalProcess::Poisson { .. } => {}
                    ArrivalProcess::Mmpp { on_us, off_us, .. } => {
                        pairs.push(("on_us", Value::Float(*on_us)));
                        pairs.push(("off_us", Value::Float(*off_us)));
                    }
                    ArrivalProcess::Diurnal {
                        amplitude,
                        period_us,
                        ..
                    } => {
                        pairs.push(("amplitude", Value::Float(*amplitude)));
                        pairs.push(("period_us", Value::Float(*period_us)));
                    }
                }
                Value::table(pairs)
            }
        }
    }

    /// Deserializes a spec from a table value (the inverse of [`Self::to_value`]).
    pub fn from_value(value: &Value) -> Result<WorkloadSpec, HarnessError> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| HarnessError::spec("workload table needs a string 'kind'"))?;
        match kind {
            "micro" => Ok(WorkloadSpec::Micro {
                primitive: parse_primitive(req_str(value, "primitive")?)?,
                interval: req_u64(value, "interval")?,
                iterations: opt_u32(value, "iterations")?.unwrap_or(24),
            }),
            "spinlock" => Ok(WorkloadSpec::SpinLock {
                kind: parse_spin_kind(req_str(value, "lock")?)?,
                threads: req_u64(value, "threads")? as usize,
                placement: parse_placement(
                    value
                        .get("placement")
                        .and_then(Value::as_str)
                        .unwrap_or("packed"),
                )?,
                iterations: opt_u32(value, "iterations")?.unwrap_or(200),
            }),
            "locked-stack" => Ok(WorkloadSpec::LockedStack {
                lock: parse_stack_lock(req_str(value, "lock")?)?,
                pushes: opt_u32(value, "pushes")?.unwrap_or(60),
            }),
            "data-structure" => Ok(WorkloadSpec::DataStructure {
                name: req_str(value, "name")?.to_string(),
                ops_per_core: opt_u32(value, "ops_per_core")?.unwrap_or(40),
            }),
            "graph" => Ok(WorkloadSpec::Graph {
                algo: GraphAlgo::by_name(req_str(value, "algo")?).ok_or_else(|| {
                    HarnessError::spec(format!(
                        "unknown graph algorithm '{}'",
                        req_str(value, "algo").unwrap_or_default()
                    ))
                })?,
                input: req_str(value, "input")?.to_string(),
                partitioning: parse_partitioning(
                    value
                        .get("partitioning")
                        .and_then(Value::as_str)
                        .unwrap_or("striped"),
                )?,
            }),
            "time-series" => Ok(WorkloadSpec::TimeSeries {
                input: req_str(value, "input")?.to_string(),
                diagonals_per_core: opt_u32(value, "diagonals_per_core")?.unwrap_or(6),
            }),
            "service" => {
                let shape = req_str(value, "shape")?;
                let shape = ServiceShape::by_name(shape).ok_or_else(|| {
                    HarnessError::spec(format!(
                        "unknown service shape '{shape}' (expected kv, kv-fine, steal or epoch)"
                    ))
                })?;
                let rate_per_us = req_f64(value, "rate_per_us")?;
                let arrival = match value
                    .get("arrival")
                    .and_then(Value::as_str)
                    .unwrap_or("poisson")
                {
                    "poisson" => ArrivalProcess::Poisson { rate_per_us },
                    "mmpp" => ArrivalProcess::Mmpp {
                        rate_per_us,
                        on_us: opt_f64(value, "on_us")?.unwrap_or(20.0),
                        off_us: opt_f64(value, "off_us")?.unwrap_or(80.0),
                    },
                    "diurnal" => ArrivalProcess::Diurnal {
                        rate_per_us,
                        amplitude: opt_f64(value, "amplitude")?.unwrap_or(0.8),
                        period_us: opt_f64(value, "period_us")?.unwrap_or(1000.0),
                    },
                    other => {
                        return Err(HarnessError::spec(format!(
                            "unknown arrival process '{other}' (expected poisson, mmpp or diurnal)"
                        )))
                    }
                };
                Ok(WorkloadSpec::Service {
                    shape,
                    arrival,
                    keys: value
                        .get("keys")
                        .and_then(Value::as_u64)
                        .unwrap_or(1_000_000),
                    zipf_s: opt_f64(value, "zipf_s")?.unwrap_or(0.99),
                    requests: opt_u32(value, "requests")?.unwrap_or(32),
                })
            }
            other => Err(HarnessError::spec(format!(
                "unknown workload kind '{other}' (expected micro, spinlock, locked-stack, \
                 data-structure, graph, time-series or service)"
            ))),
        }
    }

    /// Expands a workload table in which some scalar fields hold *arrays* into the
    /// cartesian product of concrete specs.
    ///
    /// This is what lets a scenario file write `interval = [50, 100, 200]` once
    /// instead of repeating the workload table per interval.
    pub fn expand_from_value(value: &Value) -> Result<Vec<WorkloadSpec>, HarnessError> {
        crate::scenario::expand_tables(value)?
            .iter()
            .map(WorkloadSpec::from_value)
            .collect()
    }

    /// One catalog line per workload kind for `syncron-cli list`.
    pub fn catalog() -> Vec<String> {
        let mut lines = vec![
            "micro           primitive=lock|barrier|semaphore|condvar interval=<instrs> iterations=<n>"
                .to_string(),
            "spinlock        lock=ttas|htl threads=<n> placement=packed|spread iterations=<n>"
                .to_string(),
            "locked-stack    lock=mesi-spin|sync-primitive pushes=<n>".to_string(),
        ];
        lines.push(format!(
            "data-structure  name={} ops_per_core=<n>",
            datastructures::ALL_NAMES.join("|")
        ));
        lines.push(format!(
            "graph           algo={} input={} partitioning=striped|greedy",
            GraphAlgo::ALL
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join("|"),
            GraphInput::ALL
                .iter()
                .map(|g| g.name)
                .collect::<Vec<_>>()
                .join("|")
        ));
        lines.push("time-series     input=air|pow diagonals_per_core=<n>".to_string());
        lines.push(
            "service         shape=kv|kv-fine|steal|epoch arrival=poisson|mmpp|diurnal \
             rate_per_us=<f> keys=<n> zipf_s=<f> requests=<n> [on_us/off_us | \
             amplitude/period_us]"
                .to_string(),
        );
        lines
    }
}

/// The largest single draw of the arrival processes' exponential sampler, in
/// mean gaps: `-ln(2^-53)`, for the smallest `1 - u` of a 53-bit uniform `u`.
const MAX_EXP_DRAW: f64 = 53.0 * std::f64::consts::LN_2;

/// Longest MMPP phase mean or diurnal period, in µs: [`MAX_DELAY_NS`].
const MAX_PERIOD_US: f64 = MAX_DELAY_NS as f64 / 1e3;

/// Validates the numeric parameters of an arrival process.
fn validate_arrival(arrival: &ArrivalProcess) -> Result<(), HarnessError> {
    let rate = arrival.rate_per_us();
    if !(rate.is_finite() && rate > 0.0) {
        return Err(HarnessError::spec(format!(
            "service 'rate_per_us' must be a finite value > 0, got {rate}"
        )));
    }
    match arrival {
        ArrivalProcess::Poisson { .. } => {}
        ArrivalProcess::Mmpp { on_us, off_us, .. } => {
            let valid = |us: f64| us > 0.0 && us <= MAX_PERIOD_US;
            if !(valid(*on_us) && valid(*off_us)) {
                return Err(HarnessError::spec(format!(
                    "mmpp 'on_us'/'off_us' must be in (0, {MAX_PERIOD_US}] µs, \
                     got {on_us}/{off_us}"
                )));
            }
        }
        ArrivalProcess::Diurnal {
            amplitude,
            period_us,
            ..
        } => {
            if !(amplitude.is_finite() && (0.0..1.0).contains(amplitude)) {
                return Err(HarnessError::spec(format!(
                    "diurnal 'amplitude' must be in [0, 1), got {amplitude}"
                )));
            }
            if !(*period_us > 0.0 && *period_us <= MAX_PERIOD_US) {
                return Err(HarnessError::spec(format!(
                    "diurnal 'period_us' must be in (0, {MAX_PERIOD_US}] µs, got {period_us}"
                )));
            }
        }
    }
    Ok(())
}

fn req_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, HarnessError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| HarnessError::spec(format!("workload table needs a string '{key}'")))
}

fn req_u64(value: &Value, key: &str) -> Result<u64, HarnessError> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| HarnessError::spec(format!("workload table needs an integer '{key}'")))
}

fn req_f64(value: &Value, key: &str) -> Result<f64, HarnessError> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| HarnessError::spec(format!("workload table needs a number '{key}'")))
}

fn opt_f64(value: &Value, key: &str) -> Result<Option<f64>, HarnessError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| HarnessError::spec(format!("'{key}' must be a number"))),
    }
}

fn opt_u32(value: &Value, key: &str) -> Result<Option<u32>, HarnessError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| HarnessError::spec(format!("'{key}' must be a u32"))),
    }
}

fn parse_primitive(name: &str) -> Result<SyncPrimitive, HarnessError> {
    SyncPrimitive::ALL
        .iter()
        .copied()
        .find(|p| p.name() == name)
        .ok_or_else(|| {
            HarnessError::spec(format!(
                "unknown primitive '{name}' (expected lock, barrier, semaphore or condvar)"
            ))
        })
}

fn parse_spin_kind(name: &str) -> Result<SpinKind, HarnessError> {
    match name.to_ascii_lowercase().as_str() {
        "ttas" => Ok(SpinKind::Ttas),
        "htl" | "hierarchical-ticket" => Ok(SpinKind::HierarchicalTicket),
        _ => Err(HarnessError::spec(format!(
            "unknown spin lock '{name}' (expected ttas or htl)"
        ))),
    }
}

fn placement_name(p: Placement) -> &'static str {
    match p {
        Placement::Packed => "packed",
        Placement::Spread => "spread",
    }
}

fn parse_placement(name: &str) -> Result<Placement, HarnessError> {
    match name {
        "packed" => Ok(Placement::Packed),
        "spread" => Ok(Placement::Spread),
        _ => Err(HarnessError::spec(format!(
            "unknown placement '{name}' (expected packed or spread)"
        ))),
    }
}

fn stack_lock_name(l: StackLock) -> &'static str {
    match l {
        StackLock::MesiSpin => "mesi-spin",
        StackLock::SyncPrimitive => "sync-primitive",
    }
}

fn parse_stack_lock(name: &str) -> Result<StackLock, HarnessError> {
    match name {
        "mesi-spin" => Ok(StackLock::MesiSpin),
        "sync-primitive" => Ok(StackLock::SyncPrimitive),
        _ => Err(HarnessError::spec(format!(
            "unknown stack lock '{name}' (expected mesi-spin or sync-primitive)"
        ))),
    }
}

fn partitioning_name(p: Partitioning) -> &'static str {
    match p {
        Partitioning::Striped => "striped",
        Partitioning::Greedy => "greedy",
    }
}

fn parse_partitioning(name: &str) -> Result<Partitioning, HarnessError> {
    match name {
        "striped" => Ok(Partitioning::Striped),
        "greedy" => Ok(Partitioning::Greedy),
        _ => Err(HarnessError::spec(format!(
            "unknown partitioning '{name}' (expected striped or greedy)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_example_specs() -> Vec<WorkloadSpec> {
        let mut specs = Vec::new();
        for p in SyncPrimitive::ALL {
            specs.push(WorkloadSpec::Micro {
                primitive: p,
                interval: 100,
                iterations: 8,
            });
        }
        specs.push(WorkloadSpec::SpinLock {
            kind: SpinKind::Ttas,
            threads: 2,
            placement: Placement::Spread,
            iterations: 10,
        });
        specs.push(WorkloadSpec::LockedStack {
            lock: StackLock::MesiSpin,
            pushes: 10,
        });
        for name in datastructures::ALL_NAMES {
            specs.push(WorkloadSpec::DataStructure {
                name: name.to_string(),
                ops_per_core: 8,
            });
        }
        for algo in GraphAlgo::ALL {
            specs.push(WorkloadSpec::Graph {
                algo,
                input: "wk".into(),
                partitioning: Partitioning::Greedy,
            });
        }
        specs.push(WorkloadSpec::TimeSeries {
            input: "pow".into(),
            diagonals_per_core: 2,
        });
        for (shape, arrival) in [
            (
                ServiceShape::Kv,
                ArrivalProcess::Poisson { rate_per_us: 0.05 },
            ),
            (
                ServiceShape::Steal,
                ArrivalProcess::Mmpp {
                    rate_per_us: 0.05,
                    on_us: 20.0,
                    off_us: 80.0,
                },
            ),
            (
                ServiceShape::Epoch,
                ArrivalProcess::Diurnal {
                    rate_per_us: 0.05,
                    amplitude: 0.8,
                    period_us: 1000.0,
                },
            ),
        ] {
            specs.push(WorkloadSpec::Service {
                shape,
                arrival,
                keys: 100_000,
                zipf_s: 0.99,
                requests: 8,
            });
        }
        specs
    }

    #[test]
    fn every_spec_builds_and_round_trips() {
        for spec in all_example_specs() {
            let wl = spec.build().expect("spec should build");
            assert!(!wl.name().is_empty());
            let doc = spec.to_value();
            let back = WorkloadSpec::from_value(&doc).expect("round trip");
            assert_eq!(back, spec, "round trip changed {doc:?}");
            // Through JSON text too.
            let text = doc.to_json_pretty();
            let reparsed = crate::json::parse(&text).unwrap();
            assert_eq!(WorkloadSpec::from_value(&reparsed).unwrap(), spec);
        }
    }

    #[test]
    fn labels_are_unique_across_example_specs() {
        let specs = all_example_specs();
        let mut labels: Vec<String> = specs.iter().map(WorkloadSpec::label).collect();
        labels.sort();
        let before = labels.len();
        labels.dedup();
        assert_eq!(before, labels.len(), "duplicate workload labels");
    }

    #[test]
    fn bad_names_are_rejected() {
        assert!(WorkloadSpec::DataStructure {
            name: "nope".into(),
            ops_per_core: 1
        }
        .build()
        .is_err());
        assert!(WorkloadSpec::TimeSeries {
            input: "nope".into(),
            diagonals_per_core: 1
        }
        .build()
        .is_err());
        let bad = Value::table([("kind", Value::str("warp-drive"))]);
        assert!(WorkloadSpec::from_value(&bad).is_err());
    }

    #[test]
    fn service_spec_defaults_and_validation() {
        // Minimal table: shape + rate, everything else defaulted.
        let minimal = Value::table([
            ("kind", Value::str("service")),
            ("shape", Value::str("kv")),
            ("rate_per_us", Value::Float(0.1)),
        ]);
        let spec = WorkloadSpec::from_value(&minimal).expect("defaults fill in");
        match &spec {
            WorkloadSpec::Service {
                shape,
                arrival,
                keys,
                zipf_s,
                requests,
            } => {
                assert_eq!(*shape, ServiceShape::Kv);
                assert_eq!(*arrival, ArrivalProcess::Poisson { rate_per_us: 0.1 });
                assert_eq!(*keys, 1_000_000);
                assert_eq!(*zipf_s, 0.99);
                assert_eq!(*requests, 32);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(spec.build().is_ok());

        // An integer rate is accepted (TOML writers may omit the decimal point).
        let int_rate = Value::table([
            ("kind", Value::str("service")),
            ("shape", Value::str("steal")),
            ("rate_per_us", Value::Int(2)),
        ]);
        assert!(WorkloadSpec::from_value(&int_rate).is_ok());

        // Build-time validation: `list --dry-run` style errors.
        let zero_rate = WorkloadSpec::Service {
            shape: ServiceShape::Kv,
            arrival: ArrivalProcess::Poisson { rate_per_us: 0.0 },
            keys: 10,
            zipf_s: 0.99,
            requests: 4,
        };
        assert!(zero_rate.build().is_err());
        let bad_amplitude = WorkloadSpec::Service {
            shape: ServiceShape::Epoch,
            arrival: ArrivalProcess::Diurnal {
                rate_per_us: 0.1,
                amplitude: 1.5,
                period_us: 100.0,
            },
            keys: 10,
            zipf_s: 0.99,
            requests: 4,
        };
        assert!(bad_amplitude.build().is_err());
        let bad_shape = Value::table([
            ("kind", Value::str("service")),
            ("shape", Value::str("warp")),
            ("rate_per_us", Value::Float(0.1)),
        ]);
        assert!(WorkloadSpec::from_value(&bad_shape).is_err());
        let bad_arrival = Value::table([
            ("kind", Value::str("service")),
            ("shape", Value::str("kv")),
            ("arrival", Value::str("constant")),
            ("rate_per_us", Value::Float(0.1)),
        ]);
        assert!(WorkloadSpec::from_value(&bad_arrival).is_err());

        // Time parameters whose clock could pass MAX_DELAY_NS are rejected, naming
        // the field, instead of wrapping, panicking or hanging the run.
        let poisson = |rate_per_us| ArrivalProcess::Poisson { rate_per_us };
        let mmpp = |on_us, off_us| ArrivalProcess::Mmpp {
            rate_per_us: 0.1,
            on_us,
            off_us,
        };
        let diurnal = |period_us| ArrivalProcess::Diurnal {
            rate_per_us: 0.1,
            amplitude: 0.5,
            period_us,
        };
        let service = |arrival, requests| WorkloadSpec::Service {
            shape: ServiceShape::Kv,
            arrival,
            keys: 10,
            zipf_s: 0.99,
            requests,
        };
        let micro = |interval, iterations| WorkloadSpec::Micro {
            primitive: SyncPrimitive::Barrier,
            interval,
            iterations,
        };
        let rejected = [
            (micro(18_446_744_073_709_551, 2), "'interval'"),
            (micro(18_446_744_073_709_551, 3), "'interval'"),
            (micro(u64::MAX, u32::MAX), "'interval'"),
            (service(poisson(1e-13), 3), "'rate_per_us'"),
            (service(poisson(1e-12), 3), "'rate_per_us'"),
            (service(poisson(f64::MIN_POSITIVE), 1), "'rate_per_us'"),
            (service(mmpp(1e12, 1.0), 4), "'on_us'"),
            (service(mmpp(1.0, f64::INFINITY), 4), "'off_us'"),
            (service(diurnal(1e12), 4), "'period_us'"),
        ];
        for (spec, field) in rejected {
            match spec.build() {
                Err(HarnessError::Spec(m)) => assert!(m.contains(field), "{spec:?}: {m}"),
                Err(e) => panic!("{spec:?}: wrong error kind {e:?}"),
                Ok(_) => panic!("{spec:?} must be rejected"),
            }
        }
        // The bounds leave every rate and size in use far inside them.
        for spec in [
            micro(MAX_DELAY_NS / 4, 4),
            service(poisson(0.02), 1024),
            service(mmpp(1e11, 1e11), 4),
            service(diurnal(1e11), 4),
        ] {
            assert!(spec.build().is_ok(), "{spec:?}");
        }
    }
}
