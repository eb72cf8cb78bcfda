//! # syncron-bench
//!
//! The evaluation harness of the SynCron (HPCA 2021) reproduction.
//!
//! Every table and figure of the paper's evaluation has a corresponding function in
//! [`experiments`] and a bench target under `benches/` (run with
//! `cargo bench -p syncron-bench --bench <name>`); the bench target simply runs the
//! experiment and prints the regenerated table. `EXPERIMENTS.md` at the repository root
//! records the paper-reported numbers next to the values measured with this harness.
//!
//! Experiments are expressed against the `syncron-harness` scenario API: each builds a
//! labelled [`syncron_harness::Sweep`] (or an explicit scenario list), executes it on
//! the parallel [`syncron_harness::Runner`], and reads results back from the keyed
//! [`syncron_harness::RunSet`] — no positional job lists. The same sweeps are
//! available declaratively to `syncron-cli` through the files under `scenarios/`.
//!
//! All experiments respect the `SYNCRON_SCALE` environment variable (default `1.0`):
//! values below 1 shrink the workloads for quick smoke runs, values above 1 grow them
//! towards the paper's full sizes at the cost of simulation time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

pub use syncron_harness::{ConfigSpec, RunSet, Runner, Scenario, Sweep, WorkloadSpec};

/// A simple text table: the output format of every experiment.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (the paper's table/figure number and caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:<width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(8) + 2
                    )
                })
                .collect::<String>()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().max(8)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Returns the global workload scale factor from `SYNCRON_SCALE` (default 1.0, clamped
/// to a sane range).
pub fn scale() -> f64 {
    std::env::var("SYNCRON_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.05, 100.0)
}

/// Scales an integer quantity by [`scale`], keeping at least `min`.
pub fn scaled(base: u32, min: u32) -> u32 {
    ((base as f64 * scale()).round() as u32).max(min)
}

/// Runs a scenario list on the parallel runner.
///
/// Experiments construct their scenarios internally, so failures here are programming
/// errors (duplicate labels, unknown workload names) — panic with the harness error.
pub fn run_scenarios(scenarios: &[Scenario]) -> RunSet {
    Runner::new()
        .run(scenarios)
        .unwrap_or_else(|e| panic!("experiment scenarios failed to run: {e}"))
}

/// Formats a floating-point cell with two decimals.
pub fn f2(value: f64) -> String {
    format!("{value:.2}")
}

/// Speedup of `label` over `baseline`, panicking with a diagnostic that names the
/// offending run. [`RunSet::speedup_over`] returns `None` both for a missing label
/// and for a run truncated by `max_events`; experiments must not blame a key-lookup
/// bug when a run was actually incomplete.
pub fn expect_speedup(results: &RunSet, label: &str, baseline: &str) -> f64 {
    results
        .speedup_over(label, baseline)
        .unwrap_or_else(|| panic!("{}", comparison_failure(results, label, baseline)))
}

/// Slowdown of `label` over `baseline`; see [`expect_speedup`] for the panic policy.
pub fn expect_slowdown(results: &RunSet, label: &str, baseline: &str) -> f64 {
    results
        .slowdown_over(label, baseline)
        .unwrap_or_else(|| panic!("{}", comparison_failure(results, label, baseline)))
}

fn comparison_failure(results: &RunSet, label: &str, baseline: &str) -> String {
    for l in [label, baseline] {
        match results.report(l) {
            None => return format!("no run labelled '{l}' in the result set"),
            Some(r) if !r.completed => {
                return format!(
                    "run '{l}' hit its max_events budget (completed = false); a partial \
                     run cannot be a comparison point — raise max_events or shrink the \
                     workload"
                )
            }
            Some(_) => {}
        }
    }
    unreachable!("comparison failed although both runs are present and complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_workloads::micro::SyncPrimitive;

    #[test]
    fn table_renders_alignment() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["a".into(), "1.00".into()]);
        t.push_row(vec!["longer-name".into(), "2.00".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("longer-name"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn scale_is_sane() {
        let s = scale();
        assert!((0.05..=100.0).contains(&s));
        assert!(scaled(100, 5) >= 5);
    }

    #[test]
    fn run_scenarios_keys_results_by_label() {
        let scenarios = Sweep::new("t")
            .base(ConfigSpec::default().with_geometry(1, 3))
            .workloads([WorkloadSpec::Micro {
                primitive: SyncPrimitive::Lock,
                interval: 100,
                iterations: 3,
            }])
            .units([1, 2])
            .scenarios()
            .unwrap();
        let set = run_scenarios(&scenarios);
        assert_eq!(set.len(), 2);
        let one = set.get("t/lock-micro.i100/units=1").unwrap();
        let two = set.get("t/lock-micro.i100/units=2").unwrap();
        assert_eq!(one.scenario.config.mechanism, MechanismKind::SynCron);
        // Twice the units, twice the clients, twice the total operations.
        assert!(one.report.total_ops < two.report.total_ops);
    }
}
