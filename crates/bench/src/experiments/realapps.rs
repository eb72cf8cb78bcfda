//! Figures 12–15 and Table 7: the real applications (graph analytics and time series).

use crate::{expect_speedup, f2, run_scenarios, scaled, RunSet, Sweep, Table, WorkloadSpec};
use syncron_core::MechanismKind;
use syncron_workloads::graph::{GraphAlgo, GraphInput, Partitioning};

/// One application–input combination of the paper's real-application set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppCombo {
    /// Application name ("bfs" … "tc", or "ts").
    pub app: &'static str,
    /// Input name ("wk", "sl", "sx", "co", "air", "pow").
    pub input: &'static str,
}

impl AppCombo {
    /// Label in the paper's `app.input` format (also the workload-spec label).
    pub fn label(&self) -> String {
        format!("{}.{}", self.app, self.input)
    }
}

/// All 26 application–input combinations of Figure 12 (6 graph apps × 4 graphs + time
/// series × 2 datasets).
pub fn all_combos() -> Vec<AppCombo> {
    let mut combos = Vec::new();
    for algo in GraphAlgo::ALL {
        for input in GraphInput::ALL {
            combos.push(AppCombo {
                app: algo.name(),
                input: input.name,
            });
        }
    }
    combos.push(AppCombo {
        app: "ts",
        input: "air",
    });
    combos.push(AppCombo {
        app: "ts",
        input: "pow",
    });
    combos
}

/// The eight representative combinations used by Figures 13, 14 and 15.
pub fn highlighted_combos() -> Vec<AppCombo> {
    [
        ("bfs", "sl"),
        ("cc", "sx"),
        ("sssp", "co"),
        ("pr", "wk"),
        ("tf", "sl"),
        ("tc", "sx"),
        ("ts", "air"),
        ("ts", "pow"),
    ]
    .iter()
    .map(|&(app, input)| AppCombo { app, input })
    .collect()
}

/// The workload spec for one combination (time-series work is scaled with
/// `SYNCRON_SCALE` like everything else).
pub fn workload_spec(combo: &AppCombo) -> WorkloadSpec {
    if combo.app == "ts" {
        WorkloadSpec::TimeSeries {
            input: combo.input.to_string(),
            diagonals_per_core: scaled(6, 2),
        }
    } else {
        WorkloadSpec::Graph {
            algo: GraphAlgo::by_name(combo.app).expect("known graph algorithm"),
            input: combo.input.to_string(),
            partitioning: Partitioning::Striped,
        }
    }
}

/// Runs a set of combinations under every compared scheme at the paper-default system
/// size; results are keyed `{name}/{app.input}/mechanism={scheme}`.
pub fn run_combos(name: &str, combos: &[AppCombo]) -> RunSet {
    let sweep = Sweep::new(name)
        .workloads(combos.iter().map(workload_spec))
        .compared_mechanisms();
    run_scenarios(&sweep.scenarios().expect("valid sweep"))
}

fn combo_label(name: &str, combo: &AppCombo, kind: MechanismKind) -> String {
    format!("{name}/{}/mechanism={}", combo.label(), kind.name())
}

/// Figure 12: speedup of every scheme over Central for all 26 combinations.
pub fn fig12() -> Table {
    let combos = all_combos();
    let results = run_combos("fig12", &combos);
    let mut table = Table::new(
        "Figure 12: real-application speedup over Central",
        &["app.input", "Central", "Hier", "SynCron", "Ideal"],
    );
    let mut geo = [1.0f64; 4];
    for combo in &combos {
        let central = combo_label("fig12", combo, MechanismKind::Central);
        let mut cells = vec![combo.label()];
        for (j, kind) in MechanismKind::COMPARED.iter().enumerate() {
            let speedup = expect_speedup(&results, &combo_label("fig12", combo, *kind), &central);
            geo[j] *= speedup;
            cells.push(f2(speedup));
        }
        table.push_row(cells);
    }
    let n = combos.len() as f64;
    table.push_row(vec![
        "GEOMEAN".into(),
        f2(geo[0].powf(1.0 / n)),
        f2(geo[1].powf(1.0 / n)),
        f2(geo[2].powf(1.0 / n)),
        f2(geo[3].powf(1.0 / n)),
    ]);
    table
}

/// Figure 13: scalability of SynCron from 1 to 4 NDP units for the highlighted
/// combinations (speedup over the 1-unit run).
pub fn fig13() -> Table {
    let combos = highlighted_combos();
    let unit_steps = [1usize, 2, 3, 4];
    let sweep = Sweep::new("fig13")
        .workloads(combos.iter().map(workload_spec))
        .units(unit_steps);
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Figure 13: SynCron scalability (speedup over 1 NDP unit)",
        &["app.input", "1 unit", "2 units", "3 units", "4 units"],
    );
    let mut avg = [0.0f64; 4];
    for combo in &combos {
        let one_unit = format!("fig13/{}/units=1", combo.label());
        let mut cells = vec![combo.label()];
        for (j, &units) in unit_steps.iter().enumerate() {
            let label = format!("fig13/{}/units={units}", combo.label());
            let speedup = expect_speedup(&results, &label, &one_unit);
            avg[j] += speedup;
            cells.push(f2(speedup));
        }
        table.push_row(cells);
    }
    table.push_row(vec![
        "AVG".into(),
        f2(avg[0] / combos.len() as f64),
        f2(avg[1] / combos.len() as f64),
        f2(avg[2] / combos.len() as f64),
        f2(avg[3] / combos.len() as f64),
    ]);
    table
}

/// Figure 14: energy breakdown (cache / network / memory) normalized to Central.
pub fn fig14() -> Table {
    let combos = highlighted_combos();
    let results = run_combos("fig14", &combos);
    let mut table = Table::new(
        "Figure 14: energy normalized to Central (cache/network/memory fractions)",
        &[
            "app.input",
            "scheme",
            "total vs Central",
            "cache",
            "network",
            "memory",
        ],
    );
    for combo in &combos {
        let central_energy = results
            .report(&combo_label("fig14", combo, MechanismKind::Central))
            .expect("swept")
            .energy
            .total_pj();
        for kind in MechanismKind::COMPARED {
            let report = results
                .report(&combo_label("fig14", combo, kind))
                .expect("swept");
            let (c, n, m) = report.energy.breakdown();
            table.push_row(vec![
                combo.label(),
                kind.name().into(),
                f2(report.energy.total_pj() / central_energy),
                f2(c),
                f2(n),
                f2(m),
            ]);
        }
    }
    table
}

/// Figure 15: data movement (inside / across NDP units) normalized to Central.
pub fn fig15() -> Table {
    let combos = highlighted_combos();
    let results = run_combos("fig15", &combos);
    let mut table = Table::new(
        "Figure 15: data movement normalized to Central",
        &[
            "app.input",
            "scheme",
            "total vs Central",
            "inside-unit bytes",
            "across-unit bytes",
        ],
    );
    for combo in &combos {
        let central_bytes = results
            .report(&combo_label("fig15", combo, MechanismKind::Central))
            .expect("swept")
            .traffic
            .total_bytes() as f64;
        for kind in MechanismKind::COMPARED {
            let report = results
                .report(&combo_label("fig15", combo, kind))
                .expect("swept");
            table.push_row(vec![
                combo.label(),
                kind.name().into(),
                f2(report.traffic.total_bytes() as f64 / central_bytes),
                report.traffic.intra_unit_bytes.to_string(),
                report.traffic.inter_unit_bytes.to_string(),
            ]);
        }
    }
    table
}

/// Table 7: maximum and average ST occupancy of SynCron for every combination.
pub fn table07() -> Table {
    let combos = all_combos();
    let sweep = Sweep::new("table07").workloads(combos.iter().map(workload_spec));
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));
    let mut table = Table::new(
        "Table 7: ST occupancy in real applications (percent of 64 entries)",
        &["app.input", "max %", "avg %"],
    );
    for combo in &combos {
        let report = results
            .report(&format!("table07/{}", combo.label()))
            .expect("swept");
        table.push_row(vec![
            combo.label(),
            f2(report.sync.st_max_occupancy * 100.0),
            f2(report.sync.st_avg_occupancy * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_sets_match_paper_counts() {
        assert_eq!(all_combos().len(), 26);
        assert_eq!(highlighted_combos().len(), 8);
        assert_eq!(all_combos()[0].label(), "bfs.wk");
    }

    #[test]
    fn workloads_build_for_every_combo() {
        for combo in all_combos() {
            let spec = workload_spec(&combo);
            assert_eq!(spec.label(), combo.label());
            let wl = spec.build().expect("known combo");
            assert!(!wl.name().is_empty());
        }
    }
}
