//! Labelled, serializable scenarios: a system configuration plus a workload spec.
//!
//! [`ConfigSpec`] is the serializable projection of [`NdpConfig`] covering every knob
//! the paper's evaluation sweeps (mechanism, link latency, ST size, memory technology,
//! units/cores, overflow mode, fairness, coherence). Each knob is one row of the knob
//! table in this module: its key, `syncron-cli list` line, emit rule and value codec.
//! Encoding, decoding, [`ConfigSpec::catalog`] and [`crate::Sweep`]'s axes all read
//! that table. [`Scenario`] pairs one concrete config with one [`WorkloadSpec`] under
//! a unique label — the key under which the runner files its report.

use syncron_core::mechanism::{MechanismKind, MechanismParams};
use syncron_core::protocol::OverflowMode;
use syncron_mem::mesi::MesiParams;
use syncron_mem::MemTech;
use syncron_system::config::{
    link_latency_from_ns, CoherenceMode, ConfigError, FaultConfig, NdpConfig,
};

use crate::error::HarnessError;
use crate::json::Value;
use crate::spec::WorkloadSpec;
use crate::sweep::scalar_to_label;

/// Which MESI latency profile to use when `coherence = "mesi"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MesiProfile {
    /// The NDP-system directory latencies (Figure 2).
    #[default]
    NdpDefault,
    /// The two-socket CPU latencies (Table 1).
    CpuTwoSocket,
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
    /// (the `fault_*` keys). Off by default; enabled with all probabilities
    /// zero is bit-identical to off.
    pub fault: FaultConfig,
    /// Liveness watchdog (on by default). A run delivering events without core
    /// progress past the threshold aborts with a stall report.
    pub watchdog: bool,
    /// Explicit watchdog threshold in events without progress (`0` = automatic:
    /// `max(10_000, max_events / 100)`).
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

    /// Builds the concrete [`NdpConfig`], rejecting invalid machine geometries,
    /// sizes and delays with an error naming the offending field.
    pub fn to_ndp_config(&self) -> Result<NdpConfig, HarnessError> {
        let config_error = |e: ConfigError| HarnessError::Config(e.to_string());
        let mut params = MechanismParams::new(self.mechanism)
            .with_st_entries(self.st_entries)
            .with_overflow_mode(self.overflow_mode)
            .with_signal_coalescing(self.signal_coalescing)
            .with_signal_backoff_ns(self.signal_backoff_ns)
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
            .link_latency(link_latency_from_ns(self.link_latency_ns).map_err(config_error)?)
            .coherence(self.coherence)
            .mesi_params(mesi)
            .reserve_server_core(self.reserve_server_core)
            .seed(self.seed)
            .max_events(self.max_events)
            .sim_threads(self.sim_threads)
            .fault(self.fault)
            .watchdog(self.watchdog)
            .watchdog_events(self.watchdog_events)
            .build()
            .map_err(config_error)
    }

    /// Serializes the config into a table value: every always-written knob, plus
    /// each other knob that differs from [`ConfigSpec::default`].
    pub fn to_value(&self) -> Value {
        let default = ConfigSpec::default();
        Value::Table(
            KNOBS
                .iter()
                .filter_map(|knob| {
                    let value = (knob.get)(self);
                    let written = knob.emit == Emit::Always || value != (knob.get)(&default);
                    written.then(|| (knob.key.to_string(), value))
                })
                .collect(),
        )
    }

    /// Deserializes a config from a table value; missing fields keep `base`'s values.
    pub fn from_value_with_base(value: &Value, base: &ConfigSpec) -> Result<Self, HarnessError> {
        let table = value
            .as_table()
            .ok_or_else(|| HarnessError::spec("config must be a table"))?;
        let mut spec = base.clone();
        for (key, v) in table {
            spec.set(key, v)?;
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

    /// Sets the knob `key` from a config value, naming the key on error. The
    /// result is not validated; [`ConfigSpec::to_ndp_config`] does that.
    pub(crate) fn set(&mut self, key: &str, value: &Value) -> Result<(), HarnessError> {
        let knob = KNOBS
            .iter()
            .find(|knob| knob.key == key)
            .ok_or_else(|| HarnessError::spec(format!("unknown config field '{key}'")))?;
        (knob.set)(self, value).map_err(|e| HarnessError::spec(format!("'{key}' {e}")))
    }

    /// One `syncron-cli list` line per config knob: key, value syntax, help and
    /// default.
    pub fn catalog() -> Vec<String> {
        let default = ConfigSpec::default();
        KNOBS
            .iter()
            .map(|knob| {
                let usage = format!("{}={}", knob.key, (knob.syntax)(&default));
                let default = scalar_to_label(&(knob.get)(&default));
                format!("{usage:<33} {}; default {default}", knob.help)
            })
            .collect()
    }
}

/// When [`ConfigSpec::to_value`] writes a knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Emit {
    /// Always, its default included.
    Always,
    /// Only when it differs from [`ConfigSpec::default`], so exports of sweeps
    /// that predate the knob stay byte-identical.
    WhenChanged,
}

/// One config knob: the only place its key, `list` line, emit rule and codec
/// are written. Rows are declared with `knobs!`.
struct Knob {
    key: &'static str,
    help: &'static str,
    emit: Emit,
    /// The value syntax `list` shows (the argument only fixes the field's type).
    syntax: fn(&ConfigSpec) -> String,
    get: fn(&ConfigSpec) -> Value,
    set: fn(&mut ConfigSpec, &Value) -> Result<(), String>,
}

/// Declares `KNOBS`, one [`Knob`] per `field => "key", emit rule, "help";` row;
/// the field's type picks its [`Codec`].
macro_rules! knobs {
    ($($($field:ident).+ => $key:literal, $emit:ident, $help:literal;)*) => {
        /// Every config knob, in `list` order.
        const KNOBS: &[Knob] = &[$(Knob {
            key: $key,
            help: $help,
            emit: Emit::$emit,
            syntax: |c| syntax_of(&c.$($field).+),
            get: |c| c.$($field).+.encode(),
            set: |c, v| {
                c.$($field).+ = Codec::decode(v)?;
                Ok(())
            },
        }),*];
    };
}

knobs! {
    units => "units", Always, "NDP units, at most 256";
    cores_per_unit => "cores_per_unit", Always, "cores per unit, at most 256";
    mechanism => "mechanism", Always, "synchronization mechanism";
    mem_tech => "mem_tech", Always, "memory technology";
    link_latency_ns => "link_latency_ns", Always, "inter-unit transfer latency";
    st_entries => "st_entries", Always, "Synchronization Table entries per SE";
    overflow_mode => "overflow_mode", Always, "ST overflow handling";
    signal_coalescing => "signal_coalescing", Always, "coalesce condvar signals at the engine";
    signal_backoff_ns => "signal_backoff_ns", Always, "base NACK backoff for repeat signalers";
    coherence => "coherence", Always, "shared read-write data handling";
    mesi => "mesi_profile", Always, "MESI latencies (with coherence = mesi)";
    reserve_server_core => "reserve_server_core", Always, "reserve one core per unit as server";
    seed => "seed", Always, "deterministic workload seed";
    max_events => "max_events", Always, "event safety limit";
    sim_threads => "sim_threads", Always,
        "sharded-execution workers (1 = sequential; bit-identical results)";
    fairness_threshold => "fairness_threshold", WhenChanged, "local-grant fairness threshold";
    adaptive_threshold => "adaptive_threshold", WhenChanged,
        "contention depth for Adaptive's flat-to-hierarchical escalation";
    fault.enabled => "fault_injection", WhenChanged,
        "seeded fault injection on mechanism messages";
    fault.drop_prob => "fault_drop", WhenChanged, "per-message drop probability in [0, 1]";
    fault.dup_prob => "fault_dup", WhenChanged, "per-message duplication probability in [0, 1]";
    fault.jitter_ns => "fault_jitter_ns", WhenChanged,
        "max extra delivery delay per faulted message";
    fault.stall_ns => "fault_stall_ns", WhenChanged, "per-SE stall-window length";
    fault.stall_period_ns => "fault_stall_period_ns", WhenChanged,
        "per-SE stall-window period (0 disables stalls)";
    fault.drop_nth => "fault_drop_nth", WhenChanged,
        "deterministically drop every n-th original message (0 = off)";
    fault.retry_timeout_ns => "fault_retry_ns", WhenChanged, "retransmission timeout base";
    fault.backoff_cap => "fault_backoff_cap", WhenChanged, "exponential-backoff doubling cap";
    watchdog => "watchdog", WhenChanged, "liveness watchdog aborting stalled runs";
    watchdog_events => "watchdog_events", WhenChanged,
        "no-progress event threshold (0 = auto from max_events)";
}

/// How a knob's Rust type is written as a config value, read back, and shown
/// by `list`.
pub(crate) trait Codec: Sized {
    /// The config value for `self`.
    fn encode(&self) -> Value;
    /// Reads a config value, or says what was expected.
    fn decode(value: &Value) -> Result<Self, String>;
    /// The value syntax `list` shows.
    fn syntax() -> String;
}

fn syntax_of<T: Codec>(_: &T) -> String {
    T::syntax()
}

impl Codec for u64 {
    fn encode(&self) -> Value {
        Value::Int(*self as i64)
    }
    fn decode(value: &Value) -> Result<Self, String> {
        value
            .as_u64()
            .ok_or_else(|| "must be a non-negative integer".to_string())
    }
    fn syntax() -> String {
        "<n>".to_string()
    }
}

impl Codec for usize {
    fn encode(&self) -> Value {
        Value::Int(*self as i64)
    }
    fn decode(value: &Value) -> Result<Self, String> {
        usize::try_from(u64::decode(value)?).map_err(|_| "must fit in a usize".to_string())
    }
    fn syntax() -> String {
        u64::syntax()
    }
}

impl Codec for u32 {
    fn encode(&self) -> Value {
        Value::Int(i64::from(*self))
    }
    fn decode(value: &Value) -> Result<Self, String> {
        u32::try_from(u64::decode(value)?).map_err(|_| "must fit in a u32".to_string())
    }
    fn syntax() -> String {
        u64::syntax()
    }
}

impl Codec for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }
    fn decode(value: &Value) -> Result<Self, String> {
        value.as_bool().ok_or_else(|| "must be a bool".to_string())
    }
    fn syntax() -> String {
        "true|false".to_string()
    }
}

impl Codec for f64 {
    fn encode(&self) -> Value {
        Value::Float(*self)
    }
    fn decode(value: &Value) -> Result<Self, String> {
        value.as_f64().ok_or_else(|| "must be a number".to_string())
    }
    fn syntax() -> String {
        "<x>".to_string()
    }
}

/// An optional threshold: `"off"` (or `null`) is `None`.
impl Codec for Option<u32> {
    fn encode(&self) -> Value {
        match self {
            Some(n) => n.encode(),
            None => Value::str("off"),
        }
    }
    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            Value::Str(s) if s == "off" => Ok(None),
            other => u32::decode(other)
                .map(Some)
                .map_err(|_| "must be a u32, \"off\" or null".to_string()),
        }
    }
    fn syntax() -> String {
        "<n>|off".to_string()
    }
}

/// An enum knob, listed and parsed from its own variants and names.
trait Named: Copy + 'static {
    const ALL: &'static [Self];
    fn name(self) -> &'static str;
}

/// Names match case-insensitively, ignoring `-` and `_` (`syncron_flat` is
/// `SynCron-flat`).
impl<T: Named> Codec for T {
    fn encode(&self) -> Value {
        Value::str(self.name())
    }
    fn decode(value: &Value) -> Result<Self, String> {
        fn canon(name: &str) -> String {
            name.chars()
                .filter(|c| *c != '-' && *c != '_')
                .collect::<String>()
                .to_ascii_lowercase()
        }
        let given = value
            .as_str()
            .ok_or_else(|| "must be a string".to_string())?;
        T::ALL
            .iter()
            .copied()
            .find(|t| canon(t.name()) == canon(given))
            .ok_or_else(|| format!("has no value '{given}' (expected {})", T::syntax()))
    }
    fn syntax() -> String {
        T::ALL
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join("|")
    }
}

impl Named for MechanismKind {
    const ALL: &'static [Self] = &MechanismKind::ALL;
    fn name(self) -> &'static str {
        MechanismKind::name(self)
    }
}

impl Named for MemTech {
    const ALL: &'static [Self] = &MemTech::ALL;
    fn name(self) -> &'static str {
        MemTech::name(self)
    }
}

impl Named for OverflowMode {
    const ALL: &'static [Self] = &OverflowMode::ALL;
    fn name(self) -> &'static str {
        OverflowMode::name(self)
    }
}

impl Named for CoherenceMode {
    const ALL: &'static [Self] = &CoherenceMode::ALL;
    fn name(self) -> &'static str {
        CoherenceMode::name(self)
    }
}

impl Named for MesiProfile {
    const ALL: &'static [Self] = &[MesiProfile::NdpDefault, MesiProfile::CpuTwoSocket];
    fn name(self) -> &'static str {
        match self {
            MesiProfile::NdpDefault => "ndp",
            MesiProfile::CpuTwoSocket => "cpu-two-socket",
        }
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
        // the old fixed-width waitlists would silently alias waiters. Oversize
        // tables and delays are rejected too: they would abort on allocation, or
        // overflow (wrap, in release builds) the picosecond clock.
        for (doc, field) in [
            (r#"{"cores_per_unit": 257}"#, "cores_per_unit"),
            (r#"{"units": 300}"#, "units"),
            (r#"{"units": 0}"#, "units"),
            (r#"{"cores_per_unit": 0}"#, "cores_per_unit"),
            (r#"{"st_entries": 0}"#, "st_entries"),
            (r#"{"max_events": 0}"#, "max_events"),
            (r#"{"st_entries": 4294967295}"#, "st_entries"),
            (
                r#"{"link_latency_ns": 18446744073709552}"#,
                "link_latency_ns",
            ),
            (
                r#"{"signal_backoff_ns": 18446744073709552}"#,
                "signal_backoff_ns",
            ),
            (
                r#"{"fault_jitter_ns": 18446744073709552}"#,
                "fault_jitter_ns",
            ),
            (r#"{"fault_retry_ns": 18446744073709552}"#, "fault_retry_ns"),
            (
                r#"{"fault_retry_ns": 5000000, "fault_backoff_cap": 32, "fault_drop": 0.9}"#,
                "fault_retry_ns",
            ),
            (
                r#"{"fault_stall_period_ns": 18446744073709552}"#,
                "fault_stall_period_ns",
            ),
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
    fn retired_knobs_are_unknown_config_fields() {
        // Retired knobs fail loudly: an old scenario file naming one decodes
        // to an error that names the field, never to silent acceptance.
        for (field, old_value) in [
            ("md1_model", "\"exact\""),
            ("inline_step_budget", "64"),
            ("scheduler", "\"heap\""),
            ("column_batching", "false"),
            ("message_batching", "true"),
            ("burst_resume", "false"),
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

        let spec = ConfigSpec {
            watchdog_events: 4_321,
            ..ConfigSpec::default()
        };
        assert_eq!(spec.to_ndp_config().unwrap().watchdog_limit(), 4_321);

        // Integer-typed probabilities parse; out-of-domain values are rejected
        // at decode time with the config's typed error.
        let value = crate::json::parse(r#"{"fault_drop": 1}"#).unwrap();
        assert_eq!(ConfigSpec::from_value(&value).unwrap().fault.drop_prob, 1.0);
        let value = crate::json::parse(r#"{"fault_drop": 1.5}"#).unwrap();
        match ConfigSpec::from_value(&value) {
            Err(HarnessError::Config(m)) => assert!(m.contains("fault_drop"), "{m}"),
            other => panic!("out-of-range probability must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn mechanism_names_parse_loosely() {
        let parse = |name: &str| MechanismKind::decode(&Value::str(name));
        assert_eq!(parse("SynCron").unwrap(), MechanismKind::SynCron);
        assert_eq!(parse("syncron").unwrap(), MechanismKind::SynCron);
        assert_eq!(parse("syncron_flat").unwrap(), MechanismKind::SynCronFlat);
        assert_eq!(parse("SynCron-flat").unwrap(), MechanismKind::SynCronFlat);
        assert!(parse("quantum").is_err());
    }

    /// A value of `knob`'s type that differs from `default`, derived from the
    /// default's type and the knob's `list` syntax.
    fn non_default(default: &Value, syntax: &str) -> Value {
        match default {
            Value::Int(n) => Value::Int(n + 1),
            Value::Bool(b) => Value::Bool(!b),
            Value::Float(_) => Value::Float(0.5),
            Value::Str(s) => syntax
                .split('|')
                .find(|name| name != s && !name.starts_with('<'))
                .map_or(Value::Int(1), Value::str),
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn every_knob_round_trips_rejects_wrong_types_and_follows_its_emit_rule() {
        let default = ConfigSpec::default();
        let default_doc = default.to_value();
        let catalog = ConfigSpec::catalog();
        let mut keys: Vec<&str> = KNOBS.iter().map(|knob| knob.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), KNOBS.len(), "knob keys must be unique");
        // Only the keys of the original export are written at their defaults,
        // so exports of sweeps that predate the later knobs stay byte-identical.
        let written: Vec<&str> = default_doc
            .as_table()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            written,
            [
                "coherence",
                "cores_per_unit",
                "link_latency_ns",
                "max_events",
                "mechanism",
                "mem_tech",
                "mesi_profile",
                "overflow_mode",
                "reserve_server_core",
                "seed",
                "signal_backoff_ns",
                "signal_coalescing",
                "sim_threads",
                "st_entries",
                "units",
            ]
        );
        for knob in KNOBS {
            let key = knob.key;
            assert_eq!(
                default_doc.get(key).is_some(),
                knob.emit == Emit::Always,
                "{key}: the default export must hold exactly the always-written keys"
            );
            assert!(
                catalog
                    .iter()
                    .any(|line| line.starts_with(&format!("{key}="))),
                "{key} missing from the catalog"
            );

            // A non-default value round-trips through JSON and TOML text, and
            // is written even when the knob is written only when changed.
            let value = non_default(&(knob.get)(&default), &(knob.syntax)(&default));
            let spec = ConfigSpec::from_value(&Value::table([(key, value.clone())]))
                .unwrap_or_else(|e| panic!("{key} = {value:?}: {e}"));
            let doc = spec.to_value();
            assert_eq!(doc.get(key), Some(&value), "{key} must be exported");
            let json = crate::json::parse(&doc.to_json()).unwrap();
            assert_eq!(
                ConfigSpec::from_value(&json).unwrap(),
                spec,
                "{key} via JSON"
            );
            let toml: String = doc
                .as_table()
                .unwrap()
                .iter()
                .map(|(k, v)| format!("{k} = {}\n", v.to_json()))
                .collect();
            let toml = crate::toml::parse(&toml).unwrap();
            assert_eq!(
                ConfigSpec::from_value(&toml).unwrap(),
                spec,
                "{key} via TOML"
            );

            // A wrong-typed value is a spec error that names the key.
            let wrong = match value {
                Value::Bool(_) => Value::Int(3),
                _ => Value::Bool(true),
            };
            match ConfigSpec::from_value(&Value::table([(key, wrong)])) {
                Err(e @ HarnessError::Spec(_)) => {
                    assert!(e.to_string().contains(key), "'{e}' must name {key}")
                }
                other => panic!("{key}: a wrong-typed value must be rejected, got {other:?}"),
            }
        }
    }

    /// Applies every decoder a scenario document can reach; each must return,
    /// never panic.
    fn decode_everything(text: &str) {
        let docs = [crate::toml::parse(text).ok(), crate::json::parse(text).ok()];
        for doc in docs.into_iter().flatten() {
            let _ = ConfigSpec::from_value(&doc);
            if let Some(sweep) = doc.get("sweep") {
                let _ = crate::Sweep::scenarios_from_value(sweep);
            }
            for entry in doc.get("scenario").and_then(Value::as_array).unwrap_or(&[]) {
                let _ = Scenario::from_value(entry);
            }
        }
    }

    #[test]
    fn decoding_mutated_and_extreme_documents_never_panics() {
        // Deterministic stand-in for a fuzzing property (no crates.io access):
        // malformed or near-valid input gives a `HarnessError`, never a panic.
        let mut sources: Vec<String> = [
            include_str!("../../../scenarios/quickstart.toml"),
            include_str!("../../../scenarios/fig17_link_latency.toml"),
            include_str!("../../../scenarios/fault_matrix.toml"),
            include_str!("../../../scenarios/service_kv_openloop.toml"),
        ]
        .map(str::to_string)
        .to_vec();
        let json: Vec<String> = sources
            .iter()
            .map(|toml| crate::toml::parse(toml).unwrap().to_json_pretty())
            .collect();
        sources.extend(json);
        let alphabet: Vec<char> = "[]{}\"=,.:-+#\n 0123456789aefilnrstux".chars().collect();
        let mut rng = syncron_sim::SimRng::seed_from(0xF022_0001);
        for _ in 0..4_000 {
            let mut text: Vec<char> = sources[rng.gen_index(sources.len())].chars().collect();
            for _ in 0..1 + rng.gen_index(4) {
                let at = rng.gen_index(text.len() + 1);
                let c = alphabet[rng.gen_index(alphabet.len())];
                match rng.gen_index(3) {
                    0 => text.insert(at, c),
                    1 if at < text.len() => text[at] = c,
                    _ if at < text.len() => drop(text.remove(at)),
                    _ => text.push(c),
                }
            }
            decode_everything(&text.into_iter().collect::<String>());
        }

        // Every numeric knob at the edges of its range, alone and as a sweep axis.
        let default = ConfigSpec::default();
        for knob in KNOBS
            .iter()
            .filter(|k| matches!((k.get)(&default), Value::Int(_)))
        {
            for n in [0, 1 << 32, 18_446_744_073_709_552, i64::MAX] {
                let key = knob.key;
                let config = Value::table([(key, Value::Int(n))]);
                let _ = ConfigSpec::from_value(&config);
                let sweep = Value::table([
                    (
                        "config",
                        Value::table([(key, Value::Array(vec![Value::Int(n)]))]),
                    ),
                    ("workload", crate::toml::parse(r#"kind = "micro""#).unwrap()),
                ]);
                let _ = crate::Sweep::scenarios_from_value(&sweep);
            }
        }
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
