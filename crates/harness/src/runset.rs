//! Keyed result sets with comparison and export helpers.
//!
//! A [`RunSet`] is the output of [`crate::runner::Runner::run`]: one
//! ([`Scenario`], [`RunReport`]) entry per scenario, indexed by the scenario label.
//! Experiments look results up by key ([`RunSet::get`]) or by structured predicate
//! ([`RunSet::find`]) instead of reconstructing input order, and export the whole set
//! as JSON or CSV.

use std::collections::BTreeMap;
use std::path::Path;

use syncron_system::{IncompleteReason, RunReport};

use crate::error::HarnessError;
use crate::json::Value;
use crate::scenario::{ConfigSpec, Scenario};

/// One scenario together with its report.
#[derive(Clone, Debug)]
pub struct RunEntry {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Its simulation report.
    pub report: RunReport,
}

/// The results of one runner invocation, keyed by scenario label.
#[derive(Clone, Debug, Default)]
pub struct RunSet {
    entries: Vec<RunEntry>,
    index: BTreeMap<String, usize>,
}

impl RunSet {
    /// An empty set.
    pub fn empty() -> Self {
        RunSet::default()
    }

    /// Builds a set from (scenario, report) pairs, rejecting duplicate labels.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (Scenario, RunReport)>,
    ) -> Result<Self, HarnessError> {
        let mut set = RunSet::default();
        for (scenario, report) in pairs {
            if set.index.contains_key(&scenario.label) {
                return Err(HarnessError::DuplicateLabel(scenario.label));
            }
            set.index.insert(scenario.label.clone(), set.entries.len());
            set.entries.push(RunEntry { scenario, report });
        }
        Ok(set)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the set holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in execution-submission order.
    pub fn entries(&self) -> &[RunEntry] {
        &self.entries
    }

    /// Looks an entry up by its scenario label.
    pub fn get(&self, label: &str) -> Option<&RunEntry> {
        self.index.get(label).map(|&i| &self.entries[i])
    }

    /// The report for `label`.
    pub fn report(&self, label: &str) -> Option<&RunReport> {
        self.get(label).map(|e| &e.report)
    }

    /// First entry whose scenario satisfies `predicate` (submission order).
    pub fn find(&self, predicate: impl Fn(&Scenario) -> bool) -> Option<&RunEntry> {
        self.entries.iter().find(|e| predicate(&e.scenario))
    }

    /// All entries whose scenario satisfies `predicate` (submission order).
    pub fn select(&self, predicate: impl Fn(&Scenario) -> bool) -> Vec<&RunEntry> {
        self.entries
            .iter()
            .filter(|e| predicate(&e.scenario))
            .collect()
    }

    /// Speedup of `label` over `baseline_label` (`> 1` means `label` is faster).
    ///
    /// Returns `None` when either label is missing **or either run is incomplete**
    /// (it hit `max_events`): a truncated run's simulated time is a lower bound, not
    /// a result, so comparing against it would silently overstate speedups.
    pub fn speedup_over(&self, label: &str, baseline_label: &str) -> Option<f64> {
        let (run, base) = self.comparable(label, baseline_label)?;
        Some(run.speedup_over(base))
    }

    /// Slowdown of `label` over `baseline_label` (`> 1` means `label` is slower).
    ///
    /// Returns `None` when either label is missing or either run is incomplete, for
    /// the same reason as [`RunSet::speedup_over`].
    pub fn slowdown_over(&self, label: &str, baseline_label: &str) -> Option<f64> {
        let (run, base) = self.comparable(label, baseline_label)?;
        Some(run.slowdown_over(base))
    }

    /// Looks up both reports and filters out pairs in which either run hit the event
    /// safety limit (partial runs are not valid comparison points).
    fn comparable(&self, label: &str, baseline_label: &str) -> Option<(&RunReport, &RunReport)> {
        let run = self.report(label)?;
        let base = self.report(baseline_label)?;
        if !run.completed || !base.completed {
            return None;
        }
        Some((run, base))
    }

    /// Total events the simulator delivered across every entry.
    pub fn total_events_delivered(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.report.perf.events_delivered)
            .sum()
    }

    /// Total wall-clock seconds the simulator spent across every entry.
    ///
    /// Under a parallel [`crate::runner::Runner`] this is accumulated busy time,
    /// not elapsed time — runs overlap.
    pub fn total_wall_seconds(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.report.perf.wall_seconds)
            .sum()
    }

    /// Aggregate simulator throughput: total delivered events over total wall
    /// time, in events per second (`0.0` for an empty set or unresolvable clock).
    pub fn aggregate_events_per_sec(&self) -> f64 {
        let wall = self.total_wall_seconds();
        if wall > 0.0 {
            self.total_events_delivered() as f64 / wall
        } else {
            0.0
        }
    }

    /// Serializes the set as a JSON value: an array of
    /// `{label, config, workload, report}` tables.
    pub fn to_json_value(&self) -> Value {
        Value::Array(
            self.entries
                .iter()
                .map(|e| {
                    Value::table([
                        ("label", Value::str(e.scenario.label.clone())),
                        ("config", e.scenario.config.to_value()),
                        ("workload", e.scenario.workload.to_value()),
                        ("report", report_to_value(&e.report)),
                    ])
                })
                .collect(),
        )
    }

    /// Serializes the set as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_json_pretty()
    }

    /// Serializes the set as CSV (one row per entry, fixed column set).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for e in &self.entries {
            out.push_str(&csv_row(&e.scenario.label, &e.scenario.config, &e.report));
            out.push('\n');
        }
        out
    }

    /// Writes the JSON export to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> Result<(), HarnessError> {
        std::fs::write(path.as_ref(), self.to_json_string())
            .map_err(|e| HarnessError::io(format!("{}: {e}", path.as_ref().display())))
    }

    /// Writes the CSV export to `path`.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<(), HarnessError> {
        std::fs::write(path.as_ref(), self.to_csv_string())
            .map_err(|e| HarnessError::io(format!("{}: {e}", path.as_ref().display())))
    }
}

const CSV_HEADER: &str = "label,workload,mechanism,units,cores_per_unit,mem_tech,link_latency_ns,\
st_entries,completed,sim_time_ps,total_ops,ops_per_ms,instructions,loads,stores,sync_requests,\
energy_cache_pj,energy_network_pj,energy_memory_pj,energy_total_pj,intra_unit_bytes,\
inter_unit_bytes,sync_local_messages,sync_global_messages,sync_mem_accesses,\
overflow_fraction,st_max_occupancy,st_avg_occupancy,dram_accesses,l1_hit_ratio,\
latency_ops,latency_mean_ns,latency_p50_ns,latency_p99_ns,latency_p999_ns,latency_max_ns,\
wall_seconds,events_delivered,events_per_sec,incomplete_reason";

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_row(label: &str, config: &ConfigSpec, r: &RunReport) -> String {
    [
        csv_field(label),
        csv_field(&r.workload),
        csv_field(&r.mechanism),
        config.units.to_string(),
        config.cores_per_unit.to_string(),
        config.mem_tech.name().to_string(),
        config.link_latency_ns.to_string(),
        config.st_entries.to_string(),
        r.completed.to_string(),
        r.sim_time.as_ps().to_string(),
        r.total_ops.to_string(),
        format!("{:.3}", r.ops_per_ms()),
        r.instructions.to_string(),
        r.loads.to_string(),
        r.stores.to_string(),
        r.sync_requests.to_string(),
        format!("{:.1}", r.energy.cache_pj),
        format!("{:.1}", r.energy.network_pj),
        format!("{:.1}", r.energy.memory_pj),
        format!("{:.1}", r.energy.total_pj()),
        r.traffic.intra_unit_bytes.to_string(),
        r.traffic.inter_unit_bytes.to_string(),
        r.sync.local_messages.to_string(),
        r.sync.global_messages.to_string(),
        r.sync.mem_accesses.to_string(),
        format!("{:.4}", r.sync.overflow_fraction()),
        format!("{:.4}", r.sync.st_max_occupancy),
        format!("{:.4}", r.sync.st_avg_occupancy),
        r.dram_accesses.to_string(),
        format!("{:.4}", r.l1_hit_ratio),
        // Tail-latency columns are only populated for open-loop runs; closed-loop
        // rows keep them empty so the column set stays fixed.
        r.latency.map_or(String::new(), |l| l.ops.to_string()),
        r.latency
            .map_or(String::new(), |l| format!("{:.1}", l.mean_ns)),
        r.latency
            .map_or(String::new(), |l| format!("{:.1}", l.p50_ns)),
        r.latency
            .map_or(String::new(), |l| format!("{:.1}", l.p99_ns)),
        r.latency
            .map_or(String::new(), |l| format!("{:.1}", l.p999_ns)),
        r.latency.map_or(String::new(), |l| l.max_ns.to_string()),
        format!("{:.6}", r.perf.wall_seconds),
        r.perf.events_delivered.to_string(),
        format!("{:.0}", r.perf.events_per_sec()),
        // Empty for clean runs; a stable diagnosis label otherwise
        // ("event-budget", "stalled-deadlock", "stalled-no-progress", "panicked").
        r.incomplete
            .as_ref()
            .map_or(String::new(), |i| i.label().to_string()),
    ]
    .join(",")
}

/// Serializes a [`RunReport`] into a table value (the JSON mirror of the report
/// struct, with derived throughput added for convenience).
pub fn report_to_value(r: &RunReport) -> Value {
    let mut table = Value::table([
        ("workload", Value::str(r.workload.clone())),
        ("mechanism", Value::str(r.mechanism.clone())),
        ("sim_time_ps", Value::Int(r.sim_time.as_ps() as i64)),
        ("completed", Value::Bool(r.completed)),
        ("total_ops", Value::Int(r.total_ops as i64)),
        ("ops_per_ms", Value::Float(r.ops_per_ms())),
        ("instructions", Value::Int(r.instructions as i64)),
        ("loads", Value::Int(r.loads as i64)),
        ("stores", Value::Int(r.stores as i64)),
        ("sync_requests", Value::Int(r.sync_requests as i64)),
        (
            "energy_pj",
            Value::table([
                ("cache", Value::Float(r.energy.cache_pj)),
                ("network", Value::Float(r.energy.network_pj)),
                ("memory", Value::Float(r.energy.memory_pj)),
                ("total", Value::Float(r.energy.total_pj())),
            ]),
        ),
        (
            "traffic",
            Value::table([
                (
                    "intra_unit_bytes",
                    Value::Int(r.traffic.intra_unit_bytes as i64),
                ),
                (
                    "inter_unit_bytes",
                    Value::Int(r.traffic.inter_unit_bytes as i64),
                ),
                (
                    "intra_unit_msgs",
                    Value::Int(r.traffic.intra_unit_msgs as i64),
                ),
                (
                    "inter_unit_msgs",
                    Value::Int(r.traffic.inter_unit_msgs as i64),
                ),
            ]),
        ),
        (
            "sync",
            Value::table([
                ("requests", Value::Int(r.sync.requests as i64)),
                ("completions", Value::Int(r.sync.completions as i64)),
                ("local_messages", Value::Int(r.sync.local_messages as i64)),
                ("global_messages", Value::Int(r.sync.global_messages as i64)),
                (
                    "overflow_messages",
                    Value::Int(r.sync.overflow_messages as i64),
                ),
                ("mem_accesses", Value::Int(r.sync.mem_accesses as i64)),
                (
                    "overflowed_requests",
                    Value::Int(r.sync.overflowed_requests as i64),
                ),
                (
                    "overflow_fraction",
                    Value::Float(r.sync.overflow_fraction()),
                ),
                ("st_max_occupancy", Value::Float(r.sync.st_max_occupancy)),
                ("st_avg_occupancy", Value::Float(r.sync.st_avg_occupancy)),
                (
                    "delivered_signals",
                    Value::Int(r.sync.delivered_signals as i64),
                ),
                (
                    "coalesced_signals",
                    Value::Int(r.sync.coalesced_signals as i64),
                ),
                (
                    "consumed_signals",
                    Value::Int(r.sync.consumed_signals as i64),
                ),
                ("signal_nacks", Value::Int(r.sync.signal_nacks as i64)),
                (
                    "max_pending_signals",
                    Value::Int(r.sync.max_pending_signals as i64),
                ),
            ]),
        ),
        ("dram_accesses", Value::Int(r.dram_accesses as i64)),
        ("l1_hit_ratio", Value::Float(r.l1_hit_ratio)),
        (
            "perf",
            Value::table([
                ("wall_seconds", Value::Float(r.perf.wall_seconds)),
                (
                    "events_delivered",
                    Value::Int(r.perf.events_delivered as i64),
                ),
                ("events_per_sec", Value::Float(r.perf.events_per_sec())),
                ("shards", Value::Int(r.perf.shards as i64)),
                ("windows", Value::Int(r.perf.windows as i64)),
            ]),
        ),
    ]);
    // Open-loop runs carry a latency summary; closed-loop reports omit the key
    // entirely rather than emitting a table of nulls.
    if let (Some(l), Value::Table(map)) = (r.latency, &mut table) {
        map.insert(
            "latency".to_string(),
            Value::table([
                ("ops", Value::Int(l.ops as i64)),
                ("mean_ns", Value::Float(l.mean_ns)),
                ("p50_ns", Value::Float(l.p50_ns)),
                ("p99_ns", Value::Float(l.p99_ns)),
                ("p999_ns", Value::Float(l.p999_ns)),
                ("max_ns", Value::Int(l.max_ns as i64)),
            ]),
        );
    }
    // Incomplete runs carry a diagnosis; clean reports omit the keys entirely.
    if let (Some(reason), Value::Table(map)) = (&r.incomplete, &mut table) {
        map.insert("incomplete_reason".to_string(), Value::str(reason.label()));
        match reason {
            IncompleteReason::Panicked(msg) => {
                map.insert("panic_message".to_string(), Value::str(msg.clone()));
            }
            IncompleteReason::Stalled(stall) => {
                map.insert(
                    "stall".to_string(),
                    Value::table([
                        ("blocked_total", Value::Int(stall.blocked_total as i64)),
                        ("unfinished", Value::Int(stall.unfinished as i64)),
                        (
                            "blocked",
                            Value::Array(
                                stall
                                    .blocked
                                    .iter()
                                    .map(|b| {
                                        Value::table([
                                            ("unit", Value::Int(b.unit as i64)),
                                            ("core", Value::Int(b.core as i64)),
                                            ("addr", Value::Int(b.addr as i64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                );
            }
            IncompleteReason::EventBudget => {}
        }
    }
    // Fault-injection counters ride along only when the fault substrate was on,
    // so faults-off exports stay byte-identical to older documents.
    if let (Some(f), Value::Table(map)) = (&r.faults, &mut table) {
        map.insert(
            "faults".to_string(),
            Value::table([
                ("dropped", Value::Int(f.dropped as i64)),
                ("retransmitted", Value::Int(f.retransmitted as i64)),
                ("duplicated", Value::Int(f.duplicated as i64)),
                ("dup_discarded", Value::Int(f.dup_discarded as i64)),
                ("delayed", Value::Int(f.delayed as i64)),
                ("stalled", Value::Int(f.stalled as i64)),
            ]),
        );
    }
    table
}

/// FNV-1a over the compact JSON of [`report_to_value`] with the host-side
/// `perf` table removed: a 64-bit fingerprint of every simulated result a
/// report exports. Reports whose exports agree modulo `perf` share it, and a
/// moved result changes it (barring a 64-bit collision).
pub fn digest(r: &RunReport) -> u64 {
    let mut value = report_to_value(r);
    if let Value::Table(map) = &mut value {
        map.remove("perf");
    }
    value
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use crate::spec::WorkloadSpec;
    use crate::sweep::Sweep;
    use syncron_core::MechanismKind;
    use syncron_workloads::micro::SyncPrimitive;

    fn small_set() -> RunSet {
        let scenarios = Sweep::new("t")
            .base(ConfigSpec::default().with_geometry(2, 4))
            .workload(WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 100,
                iterations: 4,
            })
            .compared_mechanisms()
            .scenarios()
            .unwrap();
        Runner::new().run(&scenarios).unwrap()
    }

    #[test]
    fn keyed_lookup_and_comparisons() {
        let set = small_set();
        assert_eq!(set.len(), 4);
        let syncron = "t/lock-micro.i100/mechanism=SynCron";
        let central = "t/lock-micro.i100/mechanism=Central";
        assert!(set.get(syncron).is_some());
        assert!(set.get("nope").is_none());
        let speedup = set.speedup_over(syncron, central).unwrap();
        assert!(speedup > 0.0);
        let slowdown = set.slowdown_over(central, syncron).unwrap();
        assert!((speedup - slowdown).abs() < 1e-9);
        // Structured lookup.
        let ideal = set
            .find(|s| s.config.mechanism == MechanismKind::Ideal)
            .unwrap();
        assert_eq!(ideal.report.mechanism, "Ideal");
        assert_eq!(
            set.select(|s| s.config.units == 2).len(),
            4,
            "all four scenarios share the base geometry"
        );
    }

    #[test]
    fn incomplete_runs_are_not_valid_comparison_points() {
        // A scenario truncated by max_events reports a lower bound on its simulated
        // time; speedups computed against it are meaningless and must come back None
        // in both directions.
        let make = |label: &str, max_events: u64| {
            let mut config = ConfigSpec::default().with_geometry(2, 4);
            config.max_events = max_events;
            let scenario = Scenario::new(
                label,
                config,
                WorkloadSpec::Micro {
                    primitive: SyncPrimitive::Lock,
                    interval: 100,
                    iterations: 8,
                },
            );
            let report = scenario.run().unwrap();
            (scenario, report)
        };
        let ok = make("ok", 50_000_000);
        let other = make("other", 50_000_000);
        let truncated = make("truncated", 60);
        assert!(ok.1.completed && other.1.completed);
        assert!(!truncated.1.completed);
        let set = RunSet::from_pairs([ok, other, truncated]).unwrap();
        assert!(set.speedup_over("ok", "other").is_some());
        assert_eq!(set.speedup_over("ok", "truncated"), None);
        assert_eq!(set.speedup_over("truncated", "ok"), None);
        assert_eq!(set.slowdown_over("truncated", "ok"), None);
        // The partial run is still exported — flagged by its completed column.
        let csv = set.to_csv_string();
        let truncated_row = csv.lines().find(|l| l.starts_with("truncated")).unwrap();
        assert!(truncated_row.contains(",false,"));
    }

    #[test]
    fn json_export_parses_back_and_carries_reports() {
        let set = small_set();
        let text = set.to_json_string();
        let doc = crate::json::parse(&text).unwrap();
        let rows = doc.as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.get("label").unwrap().as_str().is_some());
            let report = row.get("report").unwrap();
            assert!(report.get("sim_time_ps").unwrap().as_i64().unwrap() > 0);
            assert_eq!(report.get("completed").unwrap().as_bool(), Some(true));
            // Scenario part round-trips.
            let scenario = Scenario::from_value(row).unwrap();
            assert!(set.get(&scenario.label).is_some());
        }
    }

    #[test]
    fn csv_export_has_header_and_one_row_per_entry() {
        let set = small_set();
        let csv = set.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + set.len());
        assert!(lines[0].starts_with("label,workload,mechanism"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header and rows must have the same column count"
        );
        // Simulator-throughput and diagnosis columns ride along in both formats.
        assert!(
            lines[0].ends_with("wall_seconds,events_delivered,events_per_sec,incomplete_reason")
        );
        // Clean runs leave the diagnosis column empty.
        assert!(lines[1].ends_with(','), "{}", lines[1]);
        let doc = crate::json::parse(&set.to_json_string()).unwrap();
        let perf = doc.as_array().unwrap()[0]
            .get("report")
            .unwrap()
            .get("perf")
            .unwrap();
        assert!(perf.get("events_delivered").unwrap().as_i64().unwrap() > 0);
        assert!(perf.get("wall_seconds").is_some());
        assert!(perf.get("events_per_sec").is_some());
        assert!(perf.get("windows").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn latency_columns_populated_for_open_loop_and_empty_for_closed_loop() {
        use syncron_workloads::service::{ArrivalProcess, ServiceShape};
        let scenarios = Sweep::new("lat")
            .base(ConfigSpec::default().with_geometry(2, 4))
            .workload(WorkloadSpec::Service {
                shape: ServiceShape::Kv,
                arrival: ArrivalProcess::Poisson { rate_per_us: 0.05 },
                keys: 10_000,
                zipf_s: 0.99,
                requests: 8,
            })
            .workload(WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 100,
                iterations: 4,
            })
            .mechanisms([MechanismKind::SynCron])
            .scenarios()
            .unwrap();
        let set = Runner::new().run(&scenarios).unwrap();
        let open = set.find(|s| s.workload.kind() == "service").unwrap();
        let closed = set.find(|s| s.workload.kind() == "micro").unwrap();
        assert!(open.report.latency.is_some());
        assert!(closed.report.latency.is_none());

        let csv = set.to_csv_string();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let ops_col = header.iter().position(|c| *c == "latency_ops").unwrap();
        let p999_col = header.iter().position(|c| *c == "latency_p999_ns").unwrap();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header.len());
            if line.contains("svc-kv") {
                assert!(cells[ops_col].parse::<u64>().unwrap() > 0);
                assert!(cells[p999_col].parse::<f64>().unwrap() > 0.0);
            } else {
                assert!(cells[ops_col].is_empty() && cells[p999_col].is_empty());
            }
        }

        // JSON mirrors the same presence/absence.
        let doc = crate::json::parse(&set.to_json_string()).unwrap();
        for row in doc.as_array().unwrap() {
            let report = row.get("report").unwrap();
            let is_service = row
                .get("workload")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap()
                == "service";
            assert_eq!(report.get("latency").is_some(), is_service);
            if let Some(lat) = report.get("latency") {
                assert!(lat.get("ops").unwrap().as_i64().unwrap() > 0);
                let p50 = lat.get("p50_ns").unwrap().as_f64().unwrap();
                let p99 = lat.get("p99_ns").unwrap().as_f64().unwrap();
                let p999 = lat.get("p999_ns").unwrap().as_f64().unwrap();
                assert!(p50 <= p99 && p99 <= p999);
                assert!(lat.get("max_ns").unwrap().as_i64().unwrap() > 0);
            }
        }
    }

    #[test]
    fn incomplete_reason_round_trips_through_csv_and_json() {
        use syncron_system::{BlockedCore, StallKind, StallReport};

        // A real event-budget truncation...
        let mut config = ConfigSpec::default().with_geometry(2, 4);
        config.max_events = 60;
        let budget = Scenario::new(
            "budget",
            config,
            WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 100,
                iterations: 8,
            },
        );
        let budget_report = budget.run().unwrap();
        assert!(!budget_report.completed);

        // ...plus synthesized panic and stall diagnoses (the runner and the
        // watchdog produce these shapes; here we only test the export).
        let panicked = Scenario::new(
            "panicked",
            ConfigSpec::default().with_geometry(2, 4),
            WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 50,
                iterations: 8,
            },
        );
        let panicked_report = syncron_system::RunReport::failed(
            "lock-micro",
            "SynCron",
            syncron_system::IncompleteReason::Panicked("boom".into()),
        );
        let stalled = Scenario::new(
            "stalled",
            ConfigSpec::default().with_geometry(2, 4),
            WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 75,
                iterations: 8,
            },
        );
        let stalled_report = syncron_system::RunReport::failed(
            "lock-micro",
            "SynCron",
            syncron_system::IncompleteReason::Stalled(StallReport {
                kind: StallKind::EmptyFrontier,
                blocked: vec![BlockedCore {
                    unit: 0,
                    core: 1,
                    addr: 64,
                }],
                blocked_total: 1,
                unfinished: 2,
            }),
        );
        let set = RunSet::from_pairs([
            (budget, budget_report),
            (panicked, panicked_report),
            (stalled, stalled_report),
        ])
        .unwrap();

        // CSV: the last column carries the stable diagnosis label.
        let csv = set.to_csv_string();
        let row = |label: &str| csv.lines().find(|l| l.starts_with(label)).unwrap();
        assert!(row("budget").ends_with(",event-budget"));
        assert!(row("panicked").ends_with(",panicked"));
        assert!(row("stalled").ends_with(",stalled-deadlock"));

        // JSON: reason + structured detail survive a parse round trip.
        let doc = crate::json::parse(&set.to_json_string()).unwrap();
        let report_of = |label: &str| {
            doc.as_array()
                .unwrap()
                .iter()
                .find(|row| row.get("label").unwrap().as_str() == Some(label))
                .unwrap()
                .get("report")
                .unwrap()
                .clone()
        };
        let budget = report_of("budget");
        assert_eq!(
            budget.get("incomplete_reason").unwrap().as_str(),
            Some("event-budget")
        );
        assert!(budget.get("panic_message").is_none());
        assert!(budget.get("stall").is_none());
        let panicked = report_of("panicked");
        assert_eq!(
            panicked.get("incomplete_reason").unwrap().as_str(),
            Some("panicked")
        );
        assert_eq!(
            panicked.get("panic_message").unwrap().as_str(),
            Some("boom")
        );
        let stalled = report_of("stalled");
        assert_eq!(
            stalled.get("incomplete_reason").unwrap().as_str(),
            Some("stalled-deadlock")
        );
        let stall = stalled.get("stall").unwrap();
        assert_eq!(stall.get("blocked_total").unwrap().as_i64(), Some(1));
        assert_eq!(stall.get("unfinished").unwrap().as_i64(), Some(2));
        let blocked = stall.get("blocked").unwrap().as_array().unwrap();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].get("unit").unwrap().as_i64(), Some(0));
        assert_eq!(blocked[0].get("core").unwrap().as_i64(), Some(1));
        assert_eq!(blocked[0].get("addr").unwrap().as_i64(), Some(64));

        // Clean runs: no diagnosis key anywhere, and an empty CSV cell.
        let clean = small_set();
        let doc = crate::json::parse(&clean.to_json_string()).unwrap();
        for row in doc.as_array().unwrap() {
            assert!(row
                .get("report")
                .unwrap()
                .get("incomplete_reason")
                .is_none());
        }
    }

    #[test]
    fn fault_counters_are_exported_only_when_injection_is_on() {
        let fault = syncron_system::FaultConfig {
            enabled: true,
            drop_nth: 1,
            ..syncron_system::FaultConfig::default()
        };
        let faulted = Scenario::new(
            "faulted",
            ConfigSpec::default()
                .with_geometry(2, 4)
                .with_mechanism(MechanismKind::Central)
                .with_fault(fault),
            WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 100,
                iterations: 4,
            },
        );
        let report = faulted.run().unwrap();
        assert!(report.completed);
        let faults = report.faults.expect("fault stats when injection is on");
        assert!(faults.dropped >= 1);

        let set = RunSet::from_pairs([(faulted, report)]).unwrap();
        let doc = crate::json::parse(&set.to_json_string()).unwrap();
        let exported = doc.as_array().unwrap()[0]
            .get("report")
            .unwrap()
            .get("faults")
            .unwrap();
        assert!(exported.get("dropped").unwrap().as_i64().unwrap() >= 1);
        assert_eq!(
            exported.get("retransmitted").unwrap().as_i64(),
            exported.get("dropped").unwrap().as_i64(),
        );

        // Faults-off exports don't even carry the key.
        let clean = small_set();
        let doc = crate::json::parse(&clean.to_json_string()).unwrap();
        for row in doc.as_array().unwrap() {
            assert!(row.get("report").unwrap().get("faults").is_none());
        }
    }

    #[test]
    fn aggregates_sum_perf_across_entries() {
        let set = small_set();
        let events: u64 = set
            .entries()
            .iter()
            .map(|e| e.report.perf.events_delivered)
            .sum();
        assert!(events > 0);
        assert_eq!(set.total_events_delivered(), events);
        assert!(set.total_wall_seconds() >= 0.0);
        if set.total_wall_seconds() > 0.0 {
            assert!(set.aggregate_events_per_sec() > 0.0);
        }
        assert_eq!(RunSet::empty().aggregate_events_per_sec(), 0.0);
    }

    #[test]
    fn digest_ignores_perf_but_not_results() {
        let set = small_set();
        let report = &set.entries()[0].report;
        let mut other = report.clone();
        other.perf.wall_seconds += 1.0;
        other.perf.events_delivered += 1;
        assert_eq!(digest(report), digest(&other));
        other.loads += 1;
        assert_ne!(digest(report), digest(&other));
        let mut moved_energy = report.clone();
        moved_energy.energy.network_pj += 0.25;
        assert_ne!(digest(report), digest(&moved_energy));
    }
}
