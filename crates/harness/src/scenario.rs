//! Labelled, serializable scenarios: a system configuration plus a workload spec.
//!
//! [`ConfigSpec`] is the serializable projection of [`NdpConfig`] covering every knob
//! the paper's evaluation sweeps (mechanism, link latency, ST size, memory technology,
//! units/cores, overflow mode, fairness, coherence). [`Scenario`] pairs one concrete
//! config with one [`WorkloadSpec`] under a unique label — the key under which the
//! runner files its report.

use syncron_core::mechanism::{MechanismKind, MechanismParams, DEFAULT_ADAPTIVE_THRESHOLD};
use syncron_core::protocol::OverflowMode;
use syncron_mem::mesi::MesiParams;
use syncron_mem::MemTech;
use syncron_sim::Time;
use syncron_system::config::{CoherenceMode, FaultConfig, NdpConfig};

use crate::error::HarnessError;
use crate::json::Value;
use crate::spec::WorkloadSpec;

/// Which MESI latency profile to use when `coherence = "mesi"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MesiProfile {
    /// The NDP-system directory latencies (Figure 2).
    #[default]
    NdpDefault,
    /// The two-socket CPU latencies (Table 1).
    CpuTwoSocket,
}

impl MesiProfile {
    fn name(self) -> &'static str {
        match self {
            MesiProfile::NdpDefault => "ndp",
            MesiProfile::CpuTwoSocket => "cpu-two-socket",
        }
    }

    fn parse(name: &str) -> Result<Self, HarnessError> {
        match name {
            "ndp" => Ok(MesiProfile::NdpDefault),
            "cpu-two-socket" => Ok(MesiProfile::CpuTwoSocket),
            _ => Err(HarnessError::spec(format!(
                "unknown mesi profile '{name}' (expected ndp or cpu-two-socket)"
            ))),
        }
    }
}

/// Serializable system configuration covering the paper's sweep axes.
///
/// Defaults mirror [`NdpConfig::paper_default`]; [`ConfigSpec::to_ndp_config`]
/// produces the concrete machine description.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigSpec {
    /// Number of NDP units.
    pub units: usize,
    /// Cores per NDP unit.
    pub cores_per_unit: usize,
    /// Synchronization mechanism.
    pub mechanism: MechanismKind,
    /// Memory technology.
    pub mem_tech: MemTech,
    /// Inter-unit per-cache-line transfer latency in nanoseconds.
    pub link_latency_ns: u64,
    /// Synchronization Table entries per SE.
    pub st_entries: usize,
    /// ST overflow handling.
    pub overflow_mode: OverflowMode,
    /// Local-grant fairness threshold (`None` = off).
    pub fairness_threshold: Option<u32>,
    /// Contention depth at which the Adaptive mechanism escalates a variable
    /// from flat to hierarchical serving (ignored by the other kinds).
    pub adaptive_threshold: u32,
    /// Condvar signal coalescing / backoff (extension; on by default).
    pub signal_coalescing: bool,
    /// Base NACK backoff delay in nanoseconds for repeat condvar signalers.
    pub signal_backoff_ns: u64,
    /// Equal-timestamp message batching in the protocol engine (simulator
    /// optimization; reports are bit-identical either way). On by default.
    pub message_batching: bool,
    /// Burst-resume events for broadcast completions (simulator optimization;
    /// reports are bit-identical either way). On by default.
    pub burst_resume: bool,
    /// Coherence mode for shared read-write data.
    pub coherence: CoherenceMode,
    /// MESI latency profile (only used with [`CoherenceMode::MesiDirectory`]).
    pub mesi: MesiProfile,
    /// Whether one core per unit is reserved as a synchronization server.
    pub reserve_server_core: bool,
    /// Deterministic workload seed.
    pub seed: u64,
    /// Event safety limit.
    pub max_events: u64,
    /// Worker threads of the sharded (conservative-PDES) execution mode
    /// (`1` = sequential). Reports are bit-identical under any value; the
    /// machine falls back to sequential execution for configurations and
    /// workloads that cannot honor the lookahead contract.
    pub sim_threads: usize,
    /// Deterministic fault injection on inter-unit synchronization messages
    /// (`fault_injection`, `fault_drop`, `fault_dup`, `fault_jitter_ns`,
    /// `fault_stall_ns`, `fault_stall_period_ns`, `fault_drop_nth`,
    /// `fault_retry_ns`, `fault_backoff_cap`). Off by default; enabled with
    /// all probabilities zero is bit-identical to off.
    pub fault: FaultConfig,
    /// Liveness watchdog (`watchdog`; on by default). A run delivering events
    /// without core progress past the threshold aborts with a stall report.
    pub watchdog: bool,
    /// Explicit watchdog threshold in events without progress
    /// (`watchdog_events`; `0` = automatic: `max(10_000, max_events / 100)`).
    pub watchdog_events: u64,
}

impl Default for ConfigSpec {
    fn default() -> Self {
        let paper = NdpConfig::paper_default();
        ConfigSpec {
            units: paper.units,
            cores_per_unit: paper.cores_per_unit,
            mechanism: paper.mechanism.kind,
            mem_tech: paper.mem_tech,
            link_latency_ns: paper.link.transfer_latency.as_ns(),
            st_entries: paper.mechanism.st_entries,
            overflow_mode: paper.mechanism.overflow_mode,
            fairness_threshold: paper.mechanism.fairness_threshold,
            adaptive_threshold: paper.mechanism.adaptive_threshold,
            signal_coalescing: paper.mechanism.signal_coalescing,
            signal_backoff_ns: paper.mechanism.signal_backoff_ns,
            message_batching: paper.mechanism.message_batching,
            burst_resume: paper.burst_resume,
            coherence: paper.coherence,
            mesi: MesiProfile::NdpDefault,
            reserve_server_core: paper.reserve_server_core,
            seed: paper.seed,
            max_events: paper.max_events,
            sim_threads: paper.sim_threads,
            fault: paper.fault,
            watchdog: paper.watchdog,
            watchdog_events: paper.watchdog_events,
        }
    }
}

impl ConfigSpec {
    /// The paper's default configuration (alias of `Default`).
    pub fn paper_default() -> Self {
        ConfigSpec::default()
    }

    /// Sets the mechanism (builder style).
    pub fn with_mechanism(mut self, kind: MechanismKind) -> Self {
        self.mechanism = kind;
        self
    }

    /// Sets units and cores per unit (builder style).
    pub fn with_geometry(mut self, units: usize, cores_per_unit: usize) -> Self {
        self.units = units;
        self.cores_per_unit = cores_per_unit;
        self
    }

    /// Enables or disables equal-timestamp message batching (builder style).
    pub fn with_message_batching(mut self, enabled: bool) -> Self {
        self.message_batching = enabled;
        self
    }

    /// Enables or disables burst-resume events (builder style).
    pub fn with_burst_resume(mut self, enabled: bool) -> Self {
        self.burst_resume = enabled;
        self
    }

    /// Sets the sharded-execution worker-thread count (builder style; `1` =
    /// sequential, results bit-identical under any value).
    pub fn with_sim_threads(mut self, threads: usize) -> Self {
        self.sim_threads = threads;
        self
    }

    /// Sets the fault-injection plan (builder style; disabled by default).
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Arms or disarms the liveness watchdog (builder style; on by default).
    pub fn with_watchdog(mut self, enabled: bool) -> Self {
        self.watchdog = enabled;
        self
    }

    /// Builds the concrete [`NdpConfig`], rejecting invalid machine geometries with
    /// an error naming the offending field.
    pub fn to_ndp_config(&self) -> Result<NdpConfig, HarnessError> {
        let mut params = MechanismParams::new(self.mechanism)
            .with_st_entries(self.st_entries)
            .with_overflow_mode(self.overflow_mode)
            .with_signal_coalescing(self.signal_coalescing)
            .with_signal_backoff_ns(self.signal_backoff_ns)
            .with_message_batching(self.message_batching)
            .with_adaptive_threshold(self.adaptive_threshold);
        params.fairness_threshold = self.fairness_threshold;
        let mesi = match self.mesi {
            MesiProfile::NdpDefault => MesiParams::ndp_default(),
            MesiProfile::CpuTwoSocket => MesiParams::cpu_two_socket(),
        };
        NdpConfig::builder()
            .units(self.units)
            .cores_per_unit(self.cores_per_unit)
            .mem_tech(self.mem_tech)
            .mechanism_params(params)
            .link_latency(Time::from_ns(self.link_latency_ns))
            .coherence(self.coherence)
            .mesi_params(mesi)
            .reserve_server_core(self.reserve_server_core)
            .seed(self.seed)
            .max_events(self.max_events)
            .burst_resume(self.burst_resume)
            .sim_threads(self.sim_threads)
            .fault(self.fault)
            .watchdog(self.watchdog)
            .watchdog_events(self.watchdog_events)
            .build()
            .map_err(|e| HarnessError::Config(e.to_string()))
    }

    /// Serializes the config into a table value (all fields, deterministic order).
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("units", Value::Int(self.units as i64)),
            ("cores_per_unit", Value::Int(self.cores_per_unit as i64)),
            ("mechanism", Value::str(self.mechanism.name())),
            ("mem_tech", Value::str(self.mem_tech.name())),
            ("link_latency_ns", Value::Int(self.link_latency_ns as i64)),
            ("st_entries", Value::Int(self.st_entries as i64)),
            ("overflow_mode", Value::str(self.overflow_mode.name())),
            ("signal_coalescing", Value::Bool(self.signal_coalescing)),
            (
                "signal_backoff_ns",
                Value::Int(self.signal_backoff_ns as i64),
            ),
            ("message_batching", Value::Bool(self.message_batching)),
            ("coherence", Value::str(coherence_name(self.coherence))),
            ("mesi_profile", Value::str(self.mesi.name())),
            ("reserve_server_core", Value::Bool(self.reserve_server_core)),
            ("seed", Value::Int(self.seed as i64)),
            ("max_events", Value::Int(self.max_events as i64)),
            ("sim_threads", Value::Int(self.sim_threads as i64)),
        ];
        if let Some(t) = self.fairness_threshold {
            pairs.push(("fairness_threshold", Value::Int(t as i64)));
        }
        // Emitted only when non-default so exports of the paper's four-scheme
        // sweeps stay byte-identical across the knob's introduction.
        if self.adaptive_threshold != DEFAULT_ADAPTIVE_THRESHOLD {
            pairs.push((
                "adaptive_threshold",
                Value::Int(self.adaptive_threshold as i64),
            ));
        }
        if !self.burst_resume {
            pairs.push(("burst_resume", Value::Bool(false)));
        }
        // Fault and watchdog knobs are likewise emitted only when non-default,
        // keeping exports of pre-existing sweeps byte-identical.
        let fault_default = FaultConfig::default();
        if self.fault.enabled {
            pairs.push(("fault_injection", Value::Bool(true)));
        }
        if self.fault.drop_prob != fault_default.drop_prob {
            pairs.push(("fault_drop", Value::Float(self.fault.drop_prob)));
        }
        if self.fault.dup_prob != fault_default.dup_prob {
            pairs.push(("fault_dup", Value::Float(self.fault.dup_prob)));
        }
        if self.fault.jitter_ns != fault_default.jitter_ns {
            pairs.push(("fault_jitter_ns", Value::Int(self.fault.jitter_ns as i64)));
        }
        if self.fault.stall_ns != fault_default.stall_ns {
            pairs.push(("fault_stall_ns", Value::Int(self.fault.stall_ns as i64)));
        }
        if self.fault.stall_period_ns != fault_default.stall_period_ns {
            pairs.push((
                "fault_stall_period_ns",
                Value::Int(self.fault.stall_period_ns as i64),
            ));
        }
        if self.fault.drop_nth != fault_default.drop_nth {
            pairs.push(("fault_drop_nth", Value::Int(self.fault.drop_nth as i64)));
        }
        if self.fault.retry_timeout_ns != fault_default.retry_timeout_ns {
            pairs.push((
                "fault_retry_ns",
                Value::Int(self.fault.retry_timeout_ns as i64),
            ));
        }
        if self.fault.backoff_cap != fault_default.backoff_cap {
            pairs.push((
                "fault_backoff_cap",
                Value::Int(self.fault.backoff_cap as i64),
            ));
        }
        if !self.watchdog {
            pairs.push(("watchdog", Value::Bool(false)));
        }
        if self.watchdog_events != 0 {
            pairs.push(("watchdog_events", Value::Int(self.watchdog_events as i64)));
        }
        Value::table(pairs)
    }

    /// Deserializes a config from a table value; missing fields keep `base`'s values.
    pub fn from_value_with_base(value: &Value, base: &ConfigSpec) -> Result<Self, HarnessError> {
        let table = value
            .as_table()
            .ok_or_else(|| HarnessError::spec("config must be a table"))?;
        let mut spec = base.clone();
        for (key, v) in table {
            match key.as_str() {
                "units" => spec.units = usize_field(v, key)?,
                "cores_per_unit" => spec.cores_per_unit = usize_field(v, key)?,
                "mechanism" => spec.mechanism = parse_mechanism(str_field(v, key)?)?,
                "mem_tech" => spec.mem_tech = parse_mem_tech(str_field(v, key)?)?,
                "link_latency_ns" => spec.link_latency_ns = u64_field(v, key)?,
                "st_entries" => spec.st_entries = usize_field(v, key)?,
                "overflow_mode" => spec.overflow_mode = parse_overflow(str_field(v, key)?)?,
                "signal_coalescing" => {
                    spec.signal_coalescing = v
                        .as_bool()
                        .ok_or_else(|| HarnessError::spec("signal_coalescing must be a bool"))?
                }
                "signal_backoff_ns" => spec.signal_backoff_ns = u64_field(v, key)?,
                "message_batching" => {
                    spec.message_batching = v
                        .as_bool()
                        .ok_or_else(|| HarnessError::spec("message_batching must be a bool"))?
                }
                "burst_resume" => {
                    spec.burst_resume = v
                        .as_bool()
                        .ok_or_else(|| HarnessError::spec("burst_resume must be a bool"))?
                }
                "fairness_threshold" => {
                    spec.fairness_threshold = match v {
                        Value::Str(s) if s == "off" => None,
                        Value::Null => None,
                        other => Some(
                            other
                                .as_u64()
                                .and_then(|n| u32::try_from(n).ok())
                                .ok_or_else(|| {
                                    HarnessError::spec(
                                        "fairness_threshold must be a u32, \"off\" or null",
                                    )
                                })?,
                        ),
                    }
                }
                "adaptive_threshold" => {
                    spec.adaptive_threshold = u64_field(v, key)?
                        .try_into()
                        .map_err(|_| HarnessError::spec("adaptive_threshold must fit in a u32"))?
                }
                "coherence" => spec.coherence = parse_coherence(str_field(v, key)?)?,
                "mesi_profile" => spec.mesi = MesiProfile::parse(str_field(v, key)?)?,
                "reserve_server_core" => {
                    spec.reserve_server_core = v
                        .as_bool()
                        .ok_or_else(|| HarnessError::spec("reserve_server_core must be a bool"))?
                }
                "seed" => spec.seed = u64_field(v, key)?,
                "max_events" => spec.max_events = u64_field(v, key)?,
                "sim_threads" => spec.sim_threads = usize_field(v, key)?,
                "fault_injection" => {
                    spec.fault.enabled = v
                        .as_bool()
                        .ok_or_else(|| HarnessError::spec("fault_injection must be a bool"))?
                }
                "fault_drop" => spec.fault.drop_prob = f64_field(v, key)?,
                "fault_dup" => spec.fault.dup_prob = f64_field(v, key)?,
                "fault_jitter_ns" => spec.fault.jitter_ns = u64_field(v, key)?,
                "fault_stall_ns" => spec.fault.stall_ns = u64_field(v, key)?,
                "fault_stall_period_ns" => spec.fault.stall_period_ns = u64_field(v, key)?,
                "fault_drop_nth" => spec.fault.drop_nth = u64_field(v, key)?,
                "fault_retry_ns" => spec.fault.retry_timeout_ns = u64_field(v, key)?,
                "fault_backoff_cap" => {
                    spec.fault.backoff_cap = u64_field(v, key)?
                        .try_into()
                        .map_err(|_| HarnessError::spec("fault_backoff_cap must fit in a u32"))?
                }
                "watchdog" => {
                    spec.watchdog = v
                        .as_bool()
                        .ok_or_else(|| HarnessError::spec("watchdog must be a bool"))?
                }
                "watchdog_events" => spec.watchdog_events = u64_field(v, key)?,
                other => {
                    return Err(HarnessError::spec(format!(
                        "unknown config field '{other}'"
                    )))
                }
            }
        }
        // Reject impossible machine geometries at decode time with an error naming
        // the offending field, instead of letting them reach the simulator.
        spec.to_ndp_config()?;
        Ok(spec)
    }

    /// Deserializes a config using the paper defaults as base.
    pub fn from_value(value: &Value) -> Result<Self, HarnessError> {
        ConfigSpec::from_value_with_base(value, &ConfigSpec::default())
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, HarnessError> {
    v.as_str()
        .ok_or_else(|| HarnessError::spec(format!("'{key}' must be a string")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, HarnessError> {
    v.as_u64()
        .ok_or_else(|| HarnessError::spec(format!("'{key}' must be a non-negative integer")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, HarnessError> {
    Ok(u64_field(v, key)? as usize)
}

fn f64_field(v: &Value, key: &str) -> Result<f64, HarnessError> {
    v.as_f64()
        .ok_or_else(|| HarnessError::spec(format!("'{key}' must be a number")))
}

/// Parses a mechanism name, accepting the report names (`SynCron-flat`) and common
/// spellings (case-insensitive, `-`/`_` ignored).
pub fn parse_mechanism(name: &str) -> Result<MechanismKind, HarnessError> {
    let canon: String = name
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    MechanismKind::ALL
        .iter()
        .copied()
        .find(|k| {
            k.name()
                .chars()
                .filter(|c| *c != '-' && *c != '_')
                .collect::<String>()
                .to_ascii_lowercase()
                == canon
        })
        .ok_or_else(|| {
            HarnessError::spec(format!(
                "unknown mechanism '{name}' (expected Central, Hier, SynCron, SynCron-flat, \
                 MCS, Adaptive or Ideal)"
            ))
        })
}

fn parse_mem_tech(name: &str) -> Result<MemTech, HarnessError> {
    let lower = name.to_ascii_lowercase();
    MemTech::ALL
        .iter()
        .copied()
        .find(|t| t.name() == lower)
        .ok_or_else(|| {
            HarnessError::spec(format!(
                "unknown memory technology '{name}' (hbm, hmc, ddr4)"
            ))
        })
}

fn parse_overflow(name: &str) -> Result<OverflowMode, HarnessError> {
    [
        OverflowMode::Integrated,
        OverflowMode::MiSarCentral,
        OverflowMode::MiSarDistributed,
    ]
    .into_iter()
    .find(|m| m.name() == name)
    .ok_or_else(|| {
        HarnessError::spec(format!(
            "unknown overflow mode '{name}' (integrated, central-overflow, \
             distributed-overflow)"
        ))
    })
}

fn coherence_name(mode: CoherenceMode) -> &'static str {
    match mode {
        CoherenceMode::SoftwareAssisted => "software-assisted",
        CoherenceMode::MesiDirectory => "mesi",
    }
}

fn parse_coherence(name: &str) -> Result<CoherenceMode, HarnessError> {
    match name {
        "software-assisted" => Ok(CoherenceMode::SoftwareAssisted),
        "mesi" => Ok(CoherenceMode::MesiDirectory),
        _ => Err(HarnessError::spec(format!(
            "unknown coherence mode '{name}' (software-assisted or mesi)"
        ))),
    }
}

/// One labelled experiment: a system configuration plus a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Unique label — the key under which the runner files this scenario's report.
    pub label: String,
    /// System configuration.
    pub config: ConfigSpec,
    /// Workload specification.
    pub workload: WorkloadSpec,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(label: impl Into<String>, config: ConfigSpec, workload: WorkloadSpec) -> Self {
        Scenario {
            label: label.into(),
            config,
            workload,
        }
    }

    /// Serializes the scenario into a table value.
    pub fn to_value(&self) -> Value {
        Value::table([
            ("label", Value::str(self.label.clone())),
            ("config", self.config.to_value()),
            ("workload", self.workload.to_value()),
        ])
    }

    /// Deserializes a scenario from a table value.
    pub fn from_value(value: &Value) -> Result<Self, HarnessError> {
        let workload = WorkloadSpec::from_value(
            value
                .get("workload")
                .ok_or_else(|| HarnessError::spec("scenario needs a 'workload' table"))?,
        )?;
        let config = match value.get("config") {
            Some(c) => ConfigSpec::from_value(c)?,
            None => ConfigSpec::default(),
        };
        let label = value
            .get("label")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| workload.label());
        Ok(Scenario {
            label,
            config,
            workload,
        })
    }

    /// Runs this scenario synchronously on the current thread.
    pub fn run(&self) -> Result<syncron_system::RunReport, HarnessError> {
        let workload = self.workload.build()?;
        Ok(syncron_system::run_workload(
            &self.config.to_ndp_config()?,
            workload.as_ref(),
        ))
    }
}

/// Expands a table in which some scalar fields hold arrays into the cartesian product
/// of concrete tables (deterministic order: array fields expand in sorted key order,
/// earlier keys vary slowest).
pub fn expand_tables(value: &Value) -> Result<Vec<Value>, HarnessError> {
    let table = value
        .as_table()
        .ok_or_else(|| HarnessError::spec("expected a table"))?;
    let axes: Vec<(&String, &[Value])> = table
        .iter()
        .filter_map(|(k, v)| v.as_array().map(|a| (k, a)))
        .collect();
    for (key, options) in &axes {
        if options.is_empty() {
            return Err(HarnessError::spec(format!(
                "axis '{key}' expands to an empty array"
            )));
        }
    }
    let mut out = vec![table.clone()];
    for (key, options) in axes {
        let mut next = Vec::with_capacity(out.len() * options.len());
        for base in &out {
            for option in options {
                let mut concrete = base.clone();
                concrete.insert(key.clone(), option.clone());
                next.push(concrete);
            }
        }
        out = next;
    }
    Ok(out.into_iter().map(Value::Table).collect())
}

/// The keys of `value` that hold arrays (the axes [`expand_tables`] would expand),
/// in sorted order.
pub fn expansion_axes(value: &Value) -> Vec<String> {
    value
        .as_table()
        .map(|t| {
            t.iter()
                .filter(|(_, v)| matches!(v, Value::Array(_)))
                .map(|(k, _)| k.clone())
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_spec_defaults_match_paper() {
        let spec = ConfigSpec::default();
        let cfg = spec.to_ndp_config().unwrap();
        let paper = NdpConfig::paper_default();
        assert_eq!(cfg.units, paper.units);
        assert_eq!(cfg.cores_per_unit, paper.cores_per_unit);
        assert_eq!(cfg.mechanism.kind, paper.mechanism.kind);
        assert_eq!(cfg.mechanism.st_entries, paper.mechanism.st_entries);
        assert_eq!(cfg.link.transfer_latency, paper.link.transfer_latency);
        assert_eq!(cfg.mem_tech, paper.mem_tech);
        assert_eq!(cfg.seed, paper.seed);
    }

    #[test]
    fn config_spec_round_trips() {
        let spec = ConfigSpec {
            units: 2,
            mechanism: MechanismKind::SynCronFlat,
            mem_tech: MemTech::Ddr4,
            link_latency_ns: 500,
            st_entries: 16,
            overflow_mode: OverflowMode::MiSarDistributed,
            fairness_threshold: Some(8),
            adaptive_threshold: 9,
            signal_coalescing: false,
            signal_backoff_ns: 75,
            coherence: CoherenceMode::MesiDirectory,
            mesi: MesiProfile::CpuTwoSocket,
            reserve_server_core: false,
            seed: 7,
            ..ConfigSpec::default()
        };
        let doc = spec.to_value();
        assert_eq!(ConfigSpec::from_value(&doc).unwrap(), spec);
        let ndp = spec.to_ndp_config().unwrap();
        assert!(!ndp.mechanism.signal_coalescing);
        assert_eq!(ndp.mechanism.signal_backoff_ns, 75);
        // And through JSON text.
        let text = doc.to_json();
        let back = ConfigSpec::from_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn impossible_geometries_are_rejected_at_decode_time() {
        // The decode path must reject geometries the hardware IDs cannot address,
        // naming the offending field, instead of handing them to the simulator where
        // the old fixed-width waitlists would silently alias waiters.
        for (doc, field) in [
            (r#"{"cores_per_unit": 257}"#, "cores_per_unit"),
            (r#"{"units": 300}"#, "units"),
            (r#"{"units": 0}"#, "units"),
            (r#"{"cores_per_unit": 0}"#, "cores_per_unit"),
            (r#"{"st_entries": 0}"#, "st_entries"),
            (r#"{"max_events": 0}"#, "max_events"),
        ] {
            let value = crate::json::parse(doc).unwrap();
            match ConfigSpec::from_value(&value) {
                Err(HarnessError::Config(m)) => {
                    assert!(m.contains(field), "error '{m}' must name '{field}'")
                }
                other => panic!("{doc} must be rejected with a config error, got {other:?}"),
            }
        }
        // The largest ID-addressable geometry decodes fine.
        let value = crate::json::parse(r#"{"units": 256, "cores_per_unit": 256}"#).unwrap();
        let spec = ConfigSpec::from_value(&value).unwrap();
        assert_eq!(spec.to_ndp_config().unwrap().total_cores(), 65536);
    }

    #[test]
    fn message_batching_field_round_trips() {
        // On by default (a pure simulator optimization with bit-identical
        // results), serialized explicitly, decodable from TOML/JSON.
        assert!(ConfigSpec::default().message_batching);
        let spec = ConfigSpec::default().with_message_batching(false);
        let doc = spec.to_value();
        let back = ConfigSpec::from_value(&doc).unwrap();
        assert_eq!(back, spec);
        assert!(!back.to_ndp_config().unwrap().mechanism.message_batching);
        let value = crate::json::parse(r#"{"message_batching": false}"#).unwrap();
        assert!(!ConfigSpec::from_value(&value).unwrap().message_batching);
        let value = crate::json::parse(r#"{"message_batching": 3}"#).unwrap();
        assert!(ConfigSpec::from_value(&value).is_err());
    }

    #[test]
    fn fastpath_fields_round_trip_and_stay_silent_at_defaults() {
        // burst_resume is emitted only when non-default, so exports of the
        // paper's four-scheme sweeps stay byte-identical across the knob's
        // introduction.
        let default_doc = ConfigSpec::default().to_value();
        let table = default_doc.as_table().unwrap();
        assert!(
            !table.iter().any(|(k, _)| k == "burst_resume"),
            "burst_resume must not be emitted at its default"
        );

        let spec = ConfigSpec::default().with_burst_resume(false);
        let back = ConfigSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        assert!(!back.to_ndp_config().unwrap().burst_resume);

        // TOML/JSON text forms, including rejection of mistyped booleans.
        let value = crate::json::parse(r#"{"burst_resume": true}"#).unwrap();
        assert!(ConfigSpec::from_value(&value).unwrap().burst_resume);
        let value = crate::json::parse(r#"{"burst_resume": "yes"}"#).unwrap();
        assert!(ConfigSpec::from_value(&value).is_err());

        // Retired knobs fail loudly: an old scenario file naming one decodes
        // to an error that names the field, never to silent acceptance.
        for (field, old_value) in [
            ("md1_model", "\"exact\""),
            ("inline_step_budget", "64"),
            ("scheduler", "\"heap\""),
            ("column_batching", "false"),
        ] {
            let value = crate::toml::parse(&format!("{field} = {old_value}")).unwrap();
            let err = ConfigSpec::from_value(&value).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unknown config field '{field}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn fault_and_watchdog_fields_round_trip_and_stay_silent_at_defaults() {
        // None of the fault/watchdog keys appear at their defaults, so
        // exports of pre-existing sweeps stay byte-identical.
        let default_doc = ConfigSpec::default().to_value();
        let table = default_doc.as_table().unwrap();
        for silent in [
            "fault_injection",
            "fault_drop",
            "fault_dup",
            "fault_jitter_ns",
            "fault_stall_ns",
            "fault_stall_period_ns",
            "fault_drop_nth",
            "fault_retry_ns",
            "fault_backoff_cap",
            "watchdog",
            "watchdog_events",
        ] {
            assert!(
                !table.iter().any(|(k, _)| k == silent),
                "{silent} must not be emitted at its default"
            );
        }

        let spec = ConfigSpec::default()
            .with_fault(FaultConfig {
                enabled: true,
                drop_prob: 0.05,
                dup_prob: 0.01,
                jitter_ns: 30,
                stall_ns: 100,
                stall_period_ns: 10_000,
                drop_nth: 3,
                retry_timeout_ns: 1_500,
                backoff_cap: 4,
            })
            .with_watchdog(false);
        let back = ConfigSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        let cfg = back.to_ndp_config().unwrap();
        assert!(cfg.fault.enabled);
        assert_eq!(cfg.fault.drop_prob, 0.05);
        assert_eq!(cfg.fault.retry_timeout_ns, 1_500);
        assert_eq!(cfg.watchdog_limit(), 0, "disarmed watchdog");

        // Explicit watchdog threshold round-trips through JSON text too.
        let spec = ConfigSpec {
            watchdog_events: 4_321,
            ..ConfigSpec::default()
        };
        let text = spec.to_value().to_json();
        let back = ConfigSpec::from_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_ndp_config().unwrap().watchdog_limit(), 4_321);

        // Integer-typed probabilities parse; out-of-domain values are rejected
        // at decode time with the config's typed error.
        let value = crate::json::parse(r#"{"fault_drop": 1}"#).unwrap();
        assert_eq!(ConfigSpec::from_value(&value).unwrap().fault.drop_prob, 1.0);
        let value = crate::json::parse(r#"{"fault_drop": 1.5}"#).unwrap();
        match ConfigSpec::from_value(&value) {
            Err(HarnessError::Config(m)) => assert!(m.contains("fault_drop"), "{m}"),
            other => panic!("out-of-range probability must be rejected, got {other:?}"),
        }
        let value = crate::json::parse(r#"{"fault_injection": "yes"}"#).unwrap();
        assert!(ConfigSpec::from_value(&value).is_err());
        let value = crate::json::parse(r#"{"watchdog": 1}"#).unwrap();
        assert!(ConfigSpec::from_value(&value).is_err());
    }

    #[test]
    fn mechanism_names_parse_loosely() {
        assert_eq!(parse_mechanism("SynCron").unwrap(), MechanismKind::SynCron);
        assert_eq!(parse_mechanism("syncron").unwrap(), MechanismKind::SynCron);
        assert_eq!(
            parse_mechanism("syncron_flat").unwrap(),
            MechanismKind::SynCronFlat
        );
        assert_eq!(
            parse_mechanism("SynCron-flat").unwrap(),
            MechanismKind::SynCronFlat
        );
        assert!(parse_mechanism("quantum").is_err());
    }

    #[test]
    fn scenario_round_trips_and_runs() {
        let scenario = Scenario::new(
            "demo",
            ConfigSpec::default().with_geometry(2, 4),
            WorkloadSpec::Micro {
                primitive: syncron_workloads::micro::SyncPrimitive::Lock,
                interval: 100,
                iterations: 4,
            },
        );
        let doc = scenario.to_value();
        assert_eq!(Scenario::from_value(&doc).unwrap(), scenario);
        let report = scenario.run().unwrap();
        assert!(report.completed);
        assert!(report.total_ops > 0);
    }

    #[test]
    fn expansion_is_cartesian_and_deterministic() {
        let doc = crate::json::parse(
            r#"{"kind": "micro", "primitive": "lock", "interval": [50, 100], "iterations": [2, 4, 8]}"#,
        )
        .unwrap();
        let expanded = expand_tables(&doc).unwrap();
        assert_eq!(expanded.len(), 6);
        assert_eq!(expansion_axes(&doc), vec!["interval", "iterations"]);
        // Earlier (sorted) keys vary slowest: interval is the outer axis.
        assert_eq!(expanded[0].get("interval").unwrap().as_i64(), Some(50));
        assert_eq!(expanded[0].get("iterations").unwrap().as_i64(), Some(2));
        assert_eq!(expanded[2].get("interval").unwrap().as_i64(), Some(50));
        assert_eq!(expanded[2].get("iterations").unwrap().as_i64(), Some(8));
        assert_eq!(expanded[3].get("interval").unwrap().as_i64(), Some(100));
        let specs = WorkloadSpec::expand_from_value(&doc).unwrap();
        assert_eq!(specs.len(), 6);
    }

    #[test]
    fn empty_axis_is_rejected() {
        let doc = crate::json::parse(r#"{"interval": []}"#).unwrap();
        assert!(expand_tables(&doc).is_err());
    }
}
