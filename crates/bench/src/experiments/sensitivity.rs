//! Figures 17–22, the fairness extension (Figure 24 in this reproduction), and the
//! large-geometry scaling study beyond Figure 13's range.

use crate::experiments::realapps::{workload_spec, AppCombo};
use crate::{
    expect_slowdown, expect_speedup, f2, run_scenarios, scaled, Sweep, Table, WorkloadSpec,
};
use syncron_core::MechanismKind;
use syncron_mem::MemTech;
use syncron_workloads::graph::{GraphAlgo, GraphInput, Partitioning};
use syncron_workloads::micro::SyncPrimitive;

/// The Figure 17 sweep: pr.wk across the compared schemes as the inter-unit link
/// latency grows (low contention).
pub fn fig17_sweep() -> Sweep {
    Sweep::new("fig17")
        .workload(workload_spec(&AppCombo {
            app: "pr",
            input: "wk",
        }))
        .link_latencies_ns([40, 100, 200, 500])
        .compared_mechanisms()
}

/// Figure 17: slowdown over Ideal of each scheme for pr.wk as the inter-unit link
/// latency grows (low contention).
pub fn fig17() -> Table {
    let latencies_ns = [40u64, 100, 200, 500];
    let results = run_scenarios(&fig17_sweep().scenarios().expect("valid sweep"));
    let mut table = Table::new(
        "Figure 17: pr.wk slowdown over Ideal vs inter-unit link latency",
        &["latency_ns", "Ideal", "SynCron", "Hier", "Central"],
    );
    for &lat in &latencies_ns {
        let label =
            |kind: MechanismKind| format!("fig17/pr.wk/link_latency_ns={lat}/mechanism={kind}");
        let ideal = label(MechanismKind::Ideal);
        table.push_row(vec![
            lat.to_string(),
            f2(1.0),
            f2(expect_slowdown(
                &results,
                &label(MechanismKind::SynCron),
                &ideal,
            )),
            f2(expect_slowdown(
                &results,
                &label(MechanismKind::Hier),
                &ideal,
            )),
            f2(expect_slowdown(
                &results,
                &label(MechanismKind::Central),
                &ideal,
            )),
        ]);
    }
    table
}

/// Figure 18: speedup over Central of each scheme for cc.wk, pr.wk and ts.pow under
/// HBM, HMC and DDR4 memory.
pub fn fig18() -> Table {
    let combos = [
        AppCombo {
            app: "cc",
            input: "wk",
        },
        AppCombo {
            app: "pr",
            input: "wk",
        },
        AppCombo {
            app: "ts",
            input: "pow",
        },
    ];
    let techs = [MemTech::Hbm, MemTech::Hmc, MemTech::Ddr4];
    let sweep = Sweep::new("fig18")
        .workloads(combos.iter().map(workload_spec))
        .mem_techs(techs)
        .compared_mechanisms();
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Figure 18: speedup over Central under different memory technologies",
        &["app.input", "memory", "Central", "Hier", "SynCron", "Ideal"],
    );
    for combo in &combos {
        for &tech in &techs {
            let label = |kind: MechanismKind| {
                format!(
                    "fig18/{}/mechanism={}/mem_tech={}",
                    combo.label(),
                    kind.name(),
                    tech.name()
                )
            };
            let central = label(MechanismKind::Central);
            let mut cells = vec![combo.label(), tech.name().to_string()];
            for kind in MechanismKind::COMPARED {
                cells.push(f2(expect_speedup(&results, &label(kind), &central)));
            }
            table.push_row(cells);
        }
    }
    table
}

/// Figure 19: effect of a better graph partitioning (greedy min-cut stand-in for Metis)
/// on PageRank, plus SynCron's maximum ST occupancy.
pub fn fig19() -> Table {
    let partitionings = [
        ("striped", Partitioning::Striped),
        ("greedy", Partitioning::Greedy),
    ];
    let sweep = Sweep::new("fig19")
        .workloads(GraphInput::ALL.iter().flat_map(|input| {
            partitionings
                .iter()
                .map(|&(_, partitioning)| WorkloadSpec::Graph {
                    algo: GraphAlgo::Pr,
                    input: input.name.to_string(),
                    partitioning,
                })
        }))
        .compared_mechanisms();
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Figure 19: PageRank speedup over Central(striped) with better data placement",
        &[
            "input",
            "placement",
            "Central",
            "Hier",
            "SynCron",
            "Ideal",
            "SynCron max ST occupancy %",
        ],
    );
    for input in GraphInput::ALL {
        // Workload labels: `pr.{input}` for striped, `pr.{input}.greedy` for greedy.
        let label = |pname: &str, kind: MechanismKind| {
            let suffix = if pname == "greedy" { ".greedy" } else { "" };
            format!("fig19/pr.{}{suffix}/mechanism={kind}", input.name)
        };
        let striped_central = label("striped", MechanismKind::Central);
        for (pname, _) in &partitionings {
            let mut cells = vec![format!("pr.{}", input.name), pname.to_string()];
            for kind in MechanismKind::COMPARED {
                cells.push(f2(expect_speedup(
                    &results,
                    &label(pname, kind),
                    &striped_central,
                )));
            }
            cells.push(f2(results
                .report(&label(pname, MechanismKind::SynCron))
                .expect("swept")
                .sync
                .st_max_occupancy
                * 100.0));
            table.push_row(cells);
        }
    }
    table
}

/// Figure 20: SynCron vs its flat variant for the graph applications (low contention,
/// synchronization non-intensive), 40 ns links.
pub fn fig20() -> Table {
    let mut combos = Vec::new();
    for algo in GraphAlgo::ALL {
        for input in GraphInput::ALL {
            combos.push(AppCombo {
                app: algo.name(),
                input: input.name,
            });
        }
    }
    let sweep = Sweep::new("fig20")
        .workloads(combos.iter().map(workload_spec))
        .mechanisms([MechanismKind::SynCronFlat, MechanismKind::SynCron]);
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Figure 20: SynCron speedup over flat (graph applications, 40ns links)",
        &["app.input", "speedup vs flat"],
    );
    let mut sum = 0.0;
    for combo in &combos {
        let hier = format!("fig20/{}/mechanism=SynCron", combo.label());
        let flat = format!("fig20/{}/mechanism=SynCron-flat", combo.label());
        let speedup = expect_speedup(&results, &hier, &flat);
        sum += speedup;
        table.push_row(vec![combo.label(), f2(speedup)]);
    }
    table.push_row(vec!["AVG".into(), f2(sum / combos.len() as f64)]);
    table
}

/// Figure 21: SynCron vs flat under (a) a synchronization-intensive low-contention
/// workload (time series) and (b) a high-contention workload (queue), sweeping the
/// inter-unit link latency.
pub fn fig21() -> Table {
    let latencies_ns = [40u64, 100, 200, 500];
    let flat_vs_hier = [MechanismKind::SynCronFlat, MechanismKind::SynCron];

    // (a) time series, 4 NDP units; (b) queue with 30 and 60 cores. One combined run.
    let mut scenarios = Sweep::new("fig21-ts")
        .workloads(["air", "pow"].map(|input| workload_spec(&AppCombo { app: "ts", input })))
        .link_latencies_ns(latencies_ns)
        .mechanisms(flat_vs_hier)
        .scenarios()
        .expect("valid sweep");
    let ops = scaled(40, 8);
    scenarios.extend(
        Sweep::new("fig21-queue")
            .workload(WorkloadSpec::DataStructure {
                name: "queue".into(),
                ops_per_core: ops,
            })
            .units([2, 4])
            .link_latencies_ns(latencies_ns)
            .mechanisms(flat_vs_hier)
            .scenarios()
            .expect("valid sweep"),
    );
    let results = run_scenarios(&scenarios);

    let mut table = Table::new(
        "Figure 21: SynCron speedup over flat vs link latency",
        &["workload", "latency_ns", "speedup vs flat"],
    );
    for ts in ["ts.air", "ts.pow"] {
        for &lat in &latencies_ns {
            let hier = format!("fig21-ts/{ts}/link_latency_ns={lat}/mechanism=SynCron");
            let flat = format!("fig21-ts/{ts}/link_latency_ns={lat}/mechanism=SynCron-flat");
            table.push_row(vec![
                ts.into(),
                lat.to_string(),
                f2(expect_speedup(&results, &hier, &flat)),
            ]);
        }
    }
    for (units, display) in [(2usize, "queue.30cores"), (4, "queue.60cores")] {
        for &lat in &latencies_ns {
            let hier =
                format!("fig21-queue/queue/link_latency_ns={lat}/mechanism=SynCron/units={units}");
            let flat = format!(
                "fig21-queue/queue/link_latency_ns={lat}/mechanism=SynCron-flat/units={units}"
            );
            table.push_row(vec![
                display.into(),
                lat.to_string(),
                f2(expect_speedup(&results, &hier, &flat)),
            ]);
        }
    }
    table
}

/// Figure 22: slowdown of SynCron with smaller STs (normalized to the 64-entry ST) and
/// the fraction of overflowed requests, for cc.wk, pr.wk, ts.air and ts.pow.
pub fn fig22() -> Table {
    let combos = [
        AppCombo {
            app: "cc",
            input: "wk",
        },
        AppCombo {
            app: "pr",
            input: "wk",
        },
        AppCombo {
            app: "ts",
            input: "air",
        },
        AppCombo {
            app: "ts",
            input: "pow",
        },
    ];
    let st_sizes = [64usize, 48, 32, 16, 8];
    let sweep = Sweep::new("fig22")
        .workloads(combos.iter().map(workload_spec))
        .st_entries(st_sizes);
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Figure 22: slowdown vs ST size (normalized to 64 entries) and overflowed requests",
        &["app.input", "ST entries", "slowdown", "overflowed %"],
    );
    for combo in &combos {
        let baseline = format!("fig22/{}/st_entries=64", combo.label());
        for &st in &st_sizes {
            let label = format!("fig22/{}/st_entries={st}", combo.label());
            table.push_row(vec![
                combo.label(),
                st.to_string(),
                f2(expect_slowdown(&results, &label, &baseline)),
                f2(results
                    .report(&label)
                    .expect("swept")
                    .sync
                    .overflow_fraction()
                    * 100.0),
            ]);
        }
    }
    table
}

/// Fairness extension (Section 4.4.2): effect of the local-grant threshold on a
/// high-contention lock microbenchmark. This experiment goes beyond the paper's
/// evaluation, which leaves fairness exploration to future work.
pub fn fig24_fairness() -> Table {
    let thresholds: [Option<u32>; 4] = [None, Some(32), Some(8), Some(2)];
    let iterations = scaled(30, 6);
    let sweep = Sweep::new("fig24")
        .workload(WorkloadSpec::Micro {
            primitive: SyncPrimitive::Lock,
            interval: 100,
            iterations,
        })
        .fairness_thresholds(thresholds);
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Fairness extension: lock microbenchmark vs local-grant threshold",
        &["threshold", "total time (us)", "ops/ms", "remote messages"],
    );
    for &threshold in &thresholds {
        let fragment = threshold.map_or("off".to_string(), |t| t.to_string());
        let report = results
            .report(&format!(
                "fig24/lock-micro.i100/fairness_threshold={fragment}"
            ))
            .expect("swept");
        table.push_row(vec![
            fragment,
            f2(report.sim_time.as_us_f64()),
            f2(report.ops_per_ms()),
            report.sync.global_messages.to_string(),
        ]);
    }
    table
}

/// Scaling sensitivity beyond Figure 13's range: Figure 13 stops at 4 NDP units
/// (64 cores); this experiment grows the machine to 64 units (1024 cores) at the
/// paper's 16 cores per unit and reports each scheme's throughput scaling relative
/// to its own 4-unit run on a contended barrier microbenchmark. Declarative twin:
/// `scenarios/scaling_sensitivity.toml`.
pub fn scaling_beyond_fig13() -> Table {
    let unit_steps = [4usize, 16, 64];
    let sweep = Sweep::new("scaling")
        .workload(WorkloadSpec::Micro {
            primitive: SyncPrimitive::Barrier,
            interval: 200,
            iterations: scaled(4, 2),
        })
        .units(unit_steps)
        .compared_mechanisms();
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Scaling beyond Figure 13: barrier throughput scaling vs a 4-unit machine",
        &["units", "cores", "Central", "Hier", "SynCron", "Ideal"],
    );
    let label = |kind: MechanismKind, units: usize| {
        format!(
            "scaling/barrier-micro.i200/mechanism={}/units={units}",
            kind.name()
        )
    };
    for &units in &unit_steps {
        let mut cells = vec![units.to_string(), (units * 16).to_string()];
        for kind in MechanismKind::COMPARED {
            let base = results.report(&label(kind, 4)).expect("swept");
            let run = results.report(&label(kind, units)).expect("swept");
            assert!(
                base.completed && run.completed,
                "scaling runs must complete within their event budget"
            );
            // Throughput ratio: > 1 means the scheme scales past its 4-unit run.
            cells.push(f2(run.ops_per_ms() / base.ops_per_ms()));
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_experiment_covers_1024_cores_and_completes() {
        std::env::set_var("SYNCRON_SCALE", "0.2");
        let t = scaling_beyond_fig13();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[2][0], "64", "largest step is 64 units");
        assert_eq!(t.rows[2][1], "1024", "1024 cores, beyond Fig 13's 64");
        // Every cell parsed as a finite ratio (the runs completed).
        for row in &t.rows {
            for cell in &row[2..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v.is_finite() && v > 0.0, "{cell}");
            }
        }
    }

    #[test]
    fn fig22_baseline_row_is_unity() {
        std::env::set_var("SYNCRON_SCALE", "0.2");
        let t = fig22();
        // Every first row of each block is the 64-entry baseline → slowdown 1.00.
        assert!(t.rows.iter().step_by(5).all(|r| r[2] == "1.00"));
    }

    #[test]
    fn fairness_thresholds_increase_remote_messages() {
        std::env::set_var("SYNCRON_SCALE", "0.2");
        let t = fig24_fairness();
        let off: u64 = t.rows[0][3].parse().unwrap();
        let aggressive: u64 = t.rows[3][3].parse().unwrap();
        assert!(
            aggressive >= off,
            "fairness hand-offs should add global traffic"
        );
    }
}
