//! Figures 11, 16 and 23: pointer-chasing data structures.

use crate::{f2, run_scenarios, scaled, ConfigSpec, Sweep, Table, WorkloadSpec};
use syncron_core::protocol::OverflowMode;
use syncron_core::MechanismKind;
use syncron_workloads::datastructures;

fn ds_spec(name: &str, ops: u32) -> WorkloadSpec {
    WorkloadSpec::DataStructure {
        name: name.to_string(),
        ops_per_core: ops,
    }
}

/// Figure 11: throughput (operations/ms) of the nine data structures as the number of
/// NDP cores grows from 15 to 60 (one NDP unit added per step), for each scheme.
pub fn fig11() -> Vec<Table> {
    let ops = scaled(40, 8);
    let unit_steps = [1usize, 2, 3, 4];
    datastructures::ALL_NAMES
        .iter()
        .map(|&name| {
            let sweep = Sweep::new(format!("fig11-{name}"))
                .workload(ds_spec(name, ops))
                .units(unit_steps)
                .compared_mechanisms();
            let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));
            let mut table = Table::new(
                format!("Figure 11 ({name}): throughput in operations/ms vs NDP cores"),
                &["cores", "Central", "Hier", "SynCron", "Ideal"],
            );
            for &units in &unit_steps {
                let mut cells = vec![(units * 15).to_string()];
                for kind in MechanismKind::COMPARED {
                    let label = format!("fig11-{name}/{name}/mechanism={kind}/units={units}");
                    cells.push(f2(results.report(&label).expect("swept").ops_per_ms()));
                }
                table.push_row(cells);
            }
            table
        })
        .collect()
}

/// Figure 16: throughput of the stack and the priority queue (operations/µs) as the
/// inter-unit link transfer latency grows from 40 ns to 9 µs (high contention).
pub fn fig16() -> Vec<Table> {
    let ops = scaled(40, 8);
    let latencies_ns: [u64; 8] = [40, 100, 200, 500, 1_000, 2_000, 4_500, 9_000];
    ["stack", "priority-queue"]
        .iter()
        .map(|&name| {
            let sweep = Sweep::new(format!("fig16-{name}"))
                .workload(ds_spec(name, ops))
                .link_latencies_ns(latencies_ns)
                .compared_mechanisms();
            let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));
            let mut table = Table::new(
                format!("Figure 16 ({name}): operations/us vs inter-unit link transfer latency"),
                &["latency_ns", "Central", "Hier", "SynCron", "Ideal"],
            );
            for &lat in &latencies_ns {
                let mut cells = vec![lat.to_string()];
                for kind in MechanismKind::COMPARED {
                    let label =
                        format!("fig16-{name}/{name}/link_latency_ns={lat}/mechanism={kind}");
                    cells.push(format!(
                        "{:.3}",
                        results.report(&label).expect("swept").ops_per_us()
                    ));
                }
                table.push_row(cells);
            }
            table
        })
        .collect()
}

/// Figure 23: throughput of BST_FG under the three overflow-management schemes as the
/// ST size varies, plus the fraction of overflowed requests.
pub fn fig23() -> Table {
    let ops = scaled(30, 6);
    let st_sizes = [16usize, 32, 48, 64, 128, 256];
    let modes = [
        ("SynCron", OverflowMode::Integrated),
        ("SynCron_CentralOvrfl", OverflowMode::MiSarCentral),
        ("SynCron_DistribOvrfl", OverflowMode::MiSarDistributed),
    ];
    let sweep = Sweep::new("fig23")
        .workload(ds_spec("bst-fg", ops))
        .st_entries(st_sizes)
        .overflow_modes(modes.iter().map(|&(_, m)| m));
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        "Figure 23: BST_FG throughput (operations/ms) under different overflow schemes",
        &[
            "ST entries",
            "SynCron",
            "SynCron_CentralOvrfl",
            "SynCron_DistribOvrfl",
            "overflowed %",
        ],
    );
    for &st in &st_sizes {
        let label = |mode: OverflowMode| {
            format!("fig23/bst-fg/overflow_mode={}/st_entries={st}", mode.name())
        };
        let mut cells = vec![st.to_string()];
        for &(_, mode) in &modes {
            cells.push(f2(results
                .report(&label(mode))
                .expect("swept")
                .ops_per_ms()));
        }
        cells.push(f2(results
            .report(&label(OverflowMode::Integrated))
            .expect("swept")
            .sync
            .overflow_fraction()
            * 100.0));
        table.push_row(cells);
    }
    table
}

/// Building block shared by tests and quick examples: runs one structure under one
/// scheme at the paper's default system size.
pub fn run_structure(name: &str, kind: MechanismKind, ops: u32) -> syncron_system::RunReport {
    let scenario = crate::Scenario::new(
        format!("{name}/{}", kind.name()),
        ConfigSpec::default().with_mechanism(kind),
        ds_spec(name, ops),
    );
    scenario.run().expect("known structure")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_throughput_ranks_schemes_like_the_paper() {
        let central = run_structure("stack", MechanismKind::Central, 20);
        let syncron = run_structure("stack", MechanismKind::SynCron, 20);
        let ideal = run_structure("stack", MechanismKind::Ideal, 20);
        assert!(syncron.ops_per_ms() > central.ops_per_ms());
        assert!(ideal.ops_per_ms() >= syncron.ops_per_ms());
    }

    #[test]
    fn bst_fg_overflows_small_sts() {
        let config = ConfigSpec {
            st_entries: 16,
            ..ConfigSpec::default()
        };
        let scenario = crate::Scenario::new("bst-fg-16", config, ds_spec("bst-fg", 10));
        let report = scenario.run().unwrap();
        assert!(report.completed);
        assert!(
            report.sync.overflow_fraction() > 0.0,
            "a 16-entry ST should overflow under BST_FG"
        );
    }
}
