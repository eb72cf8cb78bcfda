//! Declarative cartesian sweeps over configuration axes.
//!
//! A [`Sweep`] produces a labelled `Vec<Scenario>`: the cartesian product of one or
//! more workloads with any number of config axes, each a config key with a list of
//! values set through the knob table of [`crate::scenario`]. A scenario's label is
//! `{sweep}/{workload}` followed by one `/{key}={value}` fragment per axis in sorted
//! key order — one grammar for sweeps built in code and read from files — so
//! results can be looked up by key instead of input-order arithmetic.

use std::collections::{BTreeMap, BTreeSet};

use syncron_core::mechanism::MechanismKind;
use syncron_core::protocol::OverflowMode;
use syncron_mem::MemTech;

use crate::error::HarnessError;
use crate::json::Value;
use crate::scenario::{expand_tables, expansion_axes, Codec, ConfigSpec, Scenario};
use crate::spec::WorkloadSpec;

/// Builder for a labelled cartesian product of scenarios.
#[derive(Clone, Debug)]
pub struct Sweep {
    name: String,
    base: ConfigSpec,
    /// Each workload with the `/key=value` fragments of the workload-table axes it
    /// was expanded from (empty for workloads added in code).
    workloads: Vec<(WorkloadSpec, String)>,
    /// Config axes by key.
    axes: BTreeMap<String, Vec<Value>>,
}

impl Sweep {
    /// Starts a sweep named `name` from the paper-default configuration.
    pub fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            base: ConfigSpec::default(),
            workloads: Vec::new(),
            axes: BTreeMap::new(),
        }
    }

    /// Replaces the base configuration every axis combination starts from.
    pub fn base(mut self, base: ConfigSpec) -> Self {
        self.base = base;
        self
    }

    /// Adds one workload to the workload axis.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workloads.push((spec, String::new()));
        self
    }

    /// Adds several workloads to the workload axis.
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads
            .extend(specs.into_iter().map(|spec| (spec, String::new())));
        self
    }

    /// Sweeps the synchronization mechanism.
    pub fn mechanisms(self, kinds: impl IntoIterator<Item = MechanismKind>) -> Self {
        self.axis("mechanism", kinds)
    }

    /// Sweeps the four schemes the paper compares (Central, Hier, SynCron, Ideal).
    pub fn compared_mechanisms(self) -> Self {
        self.mechanisms(MechanismKind::COMPARED)
    }

    /// Sweeps the number of NDP units.
    pub fn units(self, units: impl IntoIterator<Item = usize>) -> Self {
        self.axis("units", units)
    }

    /// Sweeps the inter-unit link transfer latency (nanoseconds).
    pub fn link_latencies_ns(self, ns: impl IntoIterator<Item = u64>) -> Self {
        self.axis("link_latency_ns", ns)
    }

    /// Sweeps the ST size.
    pub fn st_entries(self, entries: impl IntoIterator<Item = usize>) -> Self {
        self.axis("st_entries", entries)
    }

    /// Sweeps the memory technology.
    pub fn mem_techs(self, techs: impl IntoIterator<Item = MemTech>) -> Self {
        self.axis("mem_tech", techs)
    }

    /// Sweeps the overflow-management mode.
    pub fn overflow_modes(self, modes: impl IntoIterator<Item = OverflowMode>) -> Self {
        self.axis("overflow_mode", modes)
    }

    /// Sweeps the fairness threshold (`None` = off).
    pub fn fairness_thresholds(self, thresholds: impl IntoIterator<Item = Option<u32>>) -> Self {
        self.axis("fairness_threshold", thresholds)
    }

    fn axis<T: Codec>(mut self, key: &str, values: impl IntoIterator<Item = T>) -> Self {
        let values = values.into_iter().map(|v| v.encode()).collect();
        self.axes.insert(key.to_string(), values);
        self
    }

    /// Expands the sweep into labelled scenarios.
    ///
    /// Iteration order (outer to inner): workload, then the config axes in sorted
    /// key order. When two workloads share a label, the `/key=value` fragments of
    /// the workload-table axes they were expanded from are added to tell them
    /// apart.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, HarnessError> {
        if self.workloads.is_empty() {
            return Err(HarnessError::spec(format!(
                "sweep '{}' has no workloads",
                self.name
            )));
        }
        let configs = self.configs()?;

        // First try labels without the workload-axis fragments (workload labels often
        // already encode them, e.g. `lock-micro.i50`); fall back to including the
        // fragments when that would collide.
        for include_wl_fragments in [false, true] {
            let mut scenarios = Vec::with_capacity(self.workloads.len() * configs.len());
            let mut seen = BTreeSet::new();
            let mut collision = false;
            for (workload, wl_fragments) in &self.workloads {
                for (config, fragments) in &configs {
                    let mut label = format!("{}/{}", self.name, workload.label());
                    if include_wl_fragments {
                        label.push_str(wl_fragments);
                    }
                    label.push_str(fragments);
                    if !seen.insert(label.clone()) {
                        collision = true;
                    }
                    scenarios.push(Scenario::new(label, config.clone(), workload.clone()));
                }
            }
            if !collision {
                return Ok(scenarios);
            }
            if include_wl_fragments {
                let dup = scenarios
                    .iter()
                    .map(|s| s.label.clone())
                    .find(|l| scenarios.iter().filter(|s| &s.label == l).count() > 1)
                    .unwrap_or_default();
                return Err(HarnessError::DuplicateLabel(dup));
            }
        }
        unreachable!("loop always returns")
    }

    /// Every config of the axis product (earlier keys vary slowest), decoded and
    /// validated once, with its `/key=value` label fragments.
    fn configs(&self) -> Result<Vec<(ConfigSpec, String)>, HarnessError> {
        let mut configs = vec![(self.base.clone(), String::new())];
        for (key, values) in &self.axes {
            if values.is_empty() {
                return Err(HarnessError::spec(format!(
                    "sweep '{}': axis '{key}' is empty",
                    self.name
                )));
            }
            let mut next = Vec::with_capacity(configs.len() * values.len());
            for (config, fragments) in &configs {
                for value in values {
                    let mut config = config.clone();
                    config.set(key, value)?;
                    let fragments = format!("{fragments}/{key}={}", scalar_to_label(value));
                    next.push((config, fragments));
                }
            }
            configs = next;
        }
        for (config, _) in &configs {
            config.to_ndp_config()?;
        }
        Ok(configs)
    }

    /// Parses a sweep from a document table of the shape:
    ///
    /// ```toml
    /// [sweep]
    /// label = "fig17"
    ///
    /// [sweep.config]               # any ConfigSpec field; arrays become axes
    /// mechanism = ["Central", "Hier", "SynCron", "Ideal"]
    /// link_latency_ns = [40, 100, 200, 500]
    ///
    /// [sweep.workload]             # one table (arrays become axes) or an array
    /// kind = "graph"
    /// algo = "pr"
    /// input = "wk"
    /// ```
    ///
    /// Returns the labelled scenarios of [`Sweep::scenarios`].
    pub fn scenarios_from_value(sweep: &Value) -> Result<Vec<Scenario>, HarnessError> {
        let name = sweep
            .get("label")
            .and_then(Value::as_str)
            .unwrap_or("sweep");
        let mut this = Sweep::new(name);
        if let Some(config) = sweep.get("config") {
            let table = config
                .as_table()
                .ok_or_else(|| HarnessError::spec("sweep config must be a table"))?;
            for (key, value) in table {
                match value {
                    Value::Array(values) => {
                        this.axes.insert(key.clone(), values.clone());
                    }
                    scalar => this.base.set(key, scalar)?,
                }
            }
        }

        let workload_doc = sweep
            .get("workload")
            .ok_or_else(|| HarnessError::spec("sweep needs a 'workload' table"))?;
        let entries: Vec<&Value> = match workload_doc {
            Value::Array(entries) => entries.iter().collect(),
            table => vec![table],
        };
        for entry in entries {
            let wl_axes = expansion_axes(entry);
            for concrete in expand_tables(entry)? {
                let spec = WorkloadSpec::from_value(&concrete)?;
                let fragments = wl_axes
                    .iter()
                    .map(|axis| {
                        let value = concrete.get(axis).expect("expanded axis present");
                        format!("/{}={}", axis, scalar_to_label(value))
                    })
                    .collect::<String>();
                this.workloads.push((spec, fragments));
            }
        }
        this.scenarios()
    }
}

/// A scalar config value as it appears in labels and `list` defaults.
pub(crate) fn scalar_to_label(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => b.to_string(),
        other => other.to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_workloads::micro::SyncPrimitive;

    fn lock_micro(interval: u64) -> WorkloadSpec {
        WorkloadSpec::Micro {
            primitive: SyncPrimitive::Lock,
            interval,
            iterations: 4,
        }
    }

    #[test]
    fn cardinality_is_the_cartesian_product() {
        let scenarios = Sweep::new("t")
            .workloads([lock_micro(50), lock_micro(100), lock_micro(200)])
            .compared_mechanisms()
            .link_latencies_ns([40, 500])
            .scenarios()
            .unwrap();
        assert_eq!(scenarios.len(), 3 * 4 * 2);
    }

    #[test]
    fn labels_are_unique_and_keyed_by_axis_values() {
        let scenarios = Sweep::new("fig")
            .workloads([lock_micro(50), lock_micro(100)])
            .compared_mechanisms()
            .st_entries([16, 64])
            .scenarios()
            .unwrap();
        let mut labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"fig/lock-micro.i50/mechanism=Central/st_entries=16"));
        assert!(labels.contains(&"fig/lock-micro.i100/mechanism=Ideal/st_entries=64"));
        labels.sort();
        let n = labels.len();
        labels.dedup();
        assert_eq!(n, labels.len(), "labels must be unique");
    }

    #[test]
    fn axis_values_reach_the_config() {
        let scenarios = Sweep::new("t")
            .workload(lock_micro(50))
            .mechanisms([MechanismKind::Hier])
            .units([2])
            .mem_techs([MemTech::Hmc])
            .link_latencies_ns([200])
            .st_entries([32])
            .overflow_modes([OverflowMode::MiSarCentral])
            .fairness_thresholds([Some(8)])
            .scenarios()
            .unwrap();
        assert_eq!(scenarios.len(), 1);
        let c = &scenarios[0].config;
        assert_eq!(c.mechanism, MechanismKind::Hier);
        assert_eq!(c.units, 2);
        assert_eq!(c.mem_tech, MemTech::Hmc);
        assert_eq!(c.link_latency_ns, 200);
        assert_eq!(c.st_entries, 32);
        assert_eq!(c.overflow_mode, OverflowMode::MiSarCentral);
        assert_eq!(c.fairness_threshold, Some(8));
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        assert!(Sweep::new("t").scenarios().is_err());
        assert!(Sweep::new("t")
            .workload(lock_micro(50))
            .mechanisms([])
            .scenarios()
            .is_err());
    }

    #[test]
    fn file_driven_sweep_expands_config_and_workload_axes() {
        let doc = crate::toml::parse(
            r#"
[sweep]
label = "fig10-lock"

[sweep.config]
mechanism = ["Central", "Hier", "SynCron", "Ideal"]

[sweep.workload]
kind = "micro"
primitive = "lock"
interval = [50, 100, 200]
iterations = 4
"#,
        )
        .unwrap();
        let scenarios = Sweep::scenarios_from_value(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(scenarios.len(), 12);
        assert!(scenarios
            .iter()
            .any(|s| s.label == "fig10-lock/lock-micro.i50/mechanism=Central"));
        assert!(scenarios
            .iter()
            .all(|s| matches!(s.workload, WorkloadSpec::Micro { .. })));
    }
}
