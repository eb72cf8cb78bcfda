//! Figure 10: speedup of the four synchronization primitives over Central, as a
//! function of the number of instructions between synchronization points.

use crate::{expect_speedup, f2, run_scenarios, scaled, Sweep, Table, WorkloadSpec};
use syncron_core::MechanismKind;
use syncron_workloads::micro::SyncPrimitive;

/// The instruction intervals swept for each primitive (the x-axes of Figure 10).
pub fn intervals_for(primitive: SyncPrimitive) -> &'static [u64] {
    match primitive {
        SyncPrimitive::Lock => &[50, 100, 200, 400, 1_000, 2_000, 5_000],
        SyncPrimitive::Barrier => &[20, 50, 100, 200, 500, 1_000, 2_000],
        SyncPrimitive::Semaphore => &[100, 200, 400, 1_000, 2_000, 5_000, 10_000],
        SyncPrimitive::CondVar => &[200, 400, 1_000, 2_000, 5_000, 10_000, 50_000],
    }
}

/// The Figure 10 sweep for one primitive: one microbenchmark per interval, across the
/// four compared schemes at the paper-default system size.
pub fn fig10_sweep(primitive: SyncPrimitive) -> Sweep {
    let iterations = scaled(24, 4);
    Sweep::new(format!("fig10-{}", primitive.name()))
        .workloads(
            intervals_for(primitive)
                .iter()
                .map(|&interval| WorkloadSpec::Micro {
                    primitive,
                    interval,
                    iterations,
                }),
        )
        .compared_mechanisms()
}

/// Runs the Figure 10 sweep for one primitive and returns one row per interval with the
/// speedup of every scheme over Central.
pub fn fig10_primitive(primitive: SyncPrimitive) -> Table {
    let sweep = fig10_sweep(primitive);
    let results = run_scenarios(&sweep.scenarios().expect("valid sweep"));

    let mut table = Table::new(
        format!(
            "Figure 10 ({}): speedup over Central vs instructions between sync points",
            primitive.name()
        ),
        &["interval", "Central", "Hier", "SynCron", "Ideal"],
    );
    for &interval in intervals_for(primitive) {
        let label = |kind: MechanismKind| {
            format!(
                "fig10-{}/{}-micro.i{}/mechanism={}",
                primitive.name(),
                primitive.name(),
                interval,
                kind.name()
            )
        };
        let central = label(MechanismKind::Central);
        let mut cells = vec![interval.to_string()];
        for kind in MechanismKind::COMPARED {
            cells.push(f2(expect_speedup(&results, &label(kind), &central)));
        }
        table.push_row(cells);
    }
    table
}

/// Runs Figure 10 for all four primitives.
pub fn fig10_all() -> Vec<Table> {
    SyncPrimitive::ALL
        .iter()
        .map(|&p| fig10_primitive(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_sweep_has_expected_shape() {
        std::env::set_var("SYNCRON_SCALE", "0.25");
        let t = fig10_primitive(SyncPrimitive::Lock);
        assert_eq!(t.rows.len(), intervals_for(SyncPrimitive::Lock).len());
        // At the shortest interval SynCron must beat Central, and Ideal must be the
        // fastest scheme.
        let first = &t.rows[0];
        let syncron: f64 = first[3].parse().unwrap();
        let ideal: f64 = first[4].parse().unwrap();
        assert!(syncron > 1.0, "SynCron speedup {syncron}");
        assert!(ideal >= syncron);
    }

    #[test]
    fn sweep_cardinality_matches_axes() {
        let scenarios = fig10_sweep(SyncPrimitive::Barrier).scenarios().unwrap();
        assert_eq!(
            scenarios.len(),
            intervals_for(SyncPrimitive::Barrier).len() * MechanismKind::COMPARED.len()
        );
    }
}
