//! Time-series analysis (SCRIMP-style matrix profile).
//!
//! The paper's third application class (Table 6) is time-series motif discovery using
//! SCRIMP over the Matrix Profile datasets (air quality, power consumption). Input data
//! is replicated in every NDP unit (read-only, cacheable); the output matrix-profile
//! array is read-write data partitioned across units and protected by fine-grained
//! locks; cores process diagonals of the distance matrix and meet at barriers between
//! batches. The paper notes this workload has the highest *synchronization intensity*
//! of the evaluated applications — the ratio of synchronization to computation is high,
//! which is why it benefits the most from SynCron's direct ST buffering (Figures 12,
//! 18 and 21a).
//!
//! The real Matrix Profile datasets are not modelled value by value: no series is
//! generated, and each diagonal step updates profile entries at a fixed probability,
//! since the synchronization behaviour depends only on the update pattern of the
//! profile array, not on the data values (see "Synthetic inputs" in `ARCHITECTURE.md`).

use std::collections::VecDeque;

use crate::script::{build, OpGenerator, Refill, ScriptProgram};
use syncron_core::request::{BarrierScope, SyncRequest};
use syncron_sim::rng::SimRng;
use syncron_sim::{Addr, GlobalCoreId};
use syncron_system::address::{AddressSpace, DataClass};
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

/// A SCRIMP-style matrix-profile workload over a synthetic time series.
#[derive(Clone, Copy, Debug)]
pub struct TimeSeries {
    /// Label used in reports (the paper's dataset abbreviations "air" and "pow").
    pub name: &'static str,
    /// Length of the time series (number of subsequences in the profile).
    pub length: usize,
    /// Subsequence (window) length.
    pub window: usize,
    /// Diagonals processed per client core.
    pub diagonals_per_core: u32,
    /// Maximum number of profile entries evaluated per diagonal.
    pub diagonal_span: usize,
}

impl TimeSeries {
    /// The synthetic stand-in for the air-quality dataset (shorter series, more
    /// frequent profile updates).
    pub fn air() -> Self {
        TimeSeries {
            name: "air",
            length: 2_048,
            window: 64,
            diagonals_per_core: 6,
            diagonal_span: 192,
        }
    }

    /// The synthetic stand-in for the power-consumption dataset (longer series).
    pub fn pow() -> Self {
        TimeSeries {
            name: "pow",
            length: 3_072,
            window: 96,
            diagonals_per_core: 6,
            diagonal_span: 224,
        }
    }

    /// Looks up a dataset by its label.
    pub fn by_name(name: &str) -> Option<TimeSeries> {
        match name {
            "air" => Some(TimeSeries::air()),
            "pow" => Some(TimeSeries::pow()),
            _ => None,
        }
    }

    /// Scales the amount of work per core (used by quick examples and tests).
    pub fn with_diagonals_per_core(mut self, diagonals: u32) -> Self {
        self.diagonals_per_core = diagonals;
        self
    }
}

struct TsLayout {
    series_parts: Vec<Addr>,
    profile_parts: Vec<Addr>,
    lock_parts: Vec<Addr>,
    per_unit: u64,
    units: usize,
}

impl TsLayout {
    fn series(&self, unit: usize, i: u64) -> Addr {
        self.series_parts[unit].offset((i / 8 % self.per_unit) * 64)
    }
    fn profile(&self, i: u64) -> Addr {
        let unit = (i % self.units as u64) as usize;
        self.profile_parts[unit].offset((i / self.units as u64 % self.per_unit) * 64)
    }
    fn lock(&self, i: u64) -> Addr {
        let unit = (i % self.units as u64) as usize;
        self.lock_parts[unit].offset((i / self.units as u64 % self.per_unit) * 64)
    }
}

struct TsGen {
    layout: std::sync::Arc<TsLayout>,
    cfg: TimeSeries,
    barrier: Addr,
    participants: u32,
    my_unit: usize,
    rng: SimRng,
    remaining: u32,
    /// The diagonal in progress: its offset, its next step and its step count.
    /// The program buffers one step at a time; `step == span` means the diagonal
    /// (and its barrier) has been handed out.
    diag: u64,
    step: u64,
    span: u64,
}

impl OpGenerator for TsGen {
    /// One diagonal is one operation, handed out one step per call.
    fn next_op(&mut self, _core: GlobalCoreId, script: &mut VecDeque<Action>) -> Refill {
        let refill = if self.step < self.span {
            Refill::Continue
        } else {
            if self.remaining == 0 {
                return Refill::Finished;
            }
            self.remaining -= 1;
            let n = (self.cfg.length - self.cfg.window).max(2) as u64;
            // SCRIMP processes random diagonals of the distance matrix.
            self.diag = 1 + self.rng.gen_range(n - 1);
            self.span = (n - self.diag).min(self.cfg.diagonal_span as u64);
            self.step = 0;
            Refill::NewOp
        };
        // The probability that a dot product improves the best-so-far profile entry
        // decays as the profile converges; early diagonals update often.
        let update_probability = 0.35;

        if self.step < self.span {
            let i = self.step;
            let j = self.step + self.diag;
            // Incremental dot-product update: two cacheable reads of the replicated
            // series plus a handful of arithmetic instructions.
            build::compute(script, 12);
            build::load(
                script,
                self.layout.series(self.my_unit, i + self.cfg.window as u64),
            );
            build::load(
                script,
                self.layout.series(self.my_unit, j + self.cfg.window as u64),
            );
            // Check the current profile entries (uncacheable shared data).
            build::load(script, self.layout.profile(i));
            if self.rng.gen_bool(update_probability) {
                build::lock(script, self.layout.lock(i));
                build::store(script, self.layout.profile(i));
                build::unlock(script, self.layout.lock(i));
            }
            if self.rng.gen_bool(update_probability * 0.6) {
                build::lock(script, self.layout.lock(j));
                build::store(script, self.layout.profile(j));
                build::unlock(script, self.layout.lock(j));
            }
            self.step += 1;
        }
        if self.step == self.span {
            // Cores meet at a barrier after every batch of diagonals.
            script.push_back(Action::Sync(SyncRequest::BarrierWait {
                var: self.barrier,
                participants: self.participants,
                scope: BarrierScope::AcrossUnits,
            }));
        }
        refill
    }
}

impl TimeSeries {
    /// One diagonal generator per client core.
    fn generators(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<TsGen> {
        let per_unit = (self.length as u64 / config.units as u64).max(8);
        // The input series is replicated per unit (read-only, cacheable).
        let series_parts =
            space.allocate_partitioned(self.length as u64 * 8, DataClass::SharedReadOnly);
        // The output profile and its locks are partitioned (read-write, uncacheable).
        let profile_parts = space.allocate_partitioned(per_unit * 64, DataClass::SharedReadWrite);
        let lock_parts = space.allocate_partitioned(per_unit * 64, DataClass::SharedReadWrite);
        let barrier = space.allocate_shared_rw(64, syncron_sim::UnitId(0));
        let layout = std::sync::Arc::new(TsLayout {
            series_parts,
            profile_parts,
            lock_parts,
            per_unit,
            units: config.units,
        });
        clients
            .iter()
            .enumerate()
            .map(|(i, c)| TsGen {
                layout: std::sync::Arc::clone(&layout),
                cfg: *self,
                barrier,
                participants: clients.len() as u32,
                my_unit: c.unit.index(),
                rng: SimRng::seed_from(config.seed ^ ((i as u64) << 24) ^ 0x7153),
                remaining: self.diagonals_per_core,
                diag: 0,
                step: 0,
                span: 0,
            })
            .collect()
    }
}

impl Workload for TimeSeries {
    fn name(&self) -> String {
        format!("ts.{}", self.name)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        self.generators(space, config, clients)
            .into_iter()
            .map(|g| Box::new(ScriptProgram::new(g)) as Box<dyn CoreProgram>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_sim::time::Time;
    use syncron_system::run_workload;

    fn config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .expect("valid config")
    }

    fn small() -> TimeSeries {
        TimeSeries {
            name: "air",
            length: 512,
            window: 32,
            diagonals_per_core: 3,
            diagonal_span: 48,
        }
    }

    #[test]
    fn completes_under_every_mechanism() {
        for kind in MechanismKind::COMPARED {
            let report = run_workload(&config(kind), &small());
            assert!(report.completed, "{kind:?}");
            assert_eq!(report.total_ops, 6 * 3, "{kind:?}");
        }
    }

    #[test]
    fn buffers_one_diagonal_step_and_counts_each_diagonal_at_its_first_step() {
        let config = config(MechanismKind::SynCron);
        let clients = config.client_cores();
        let mut space = AddressSpace::new(config.units);
        let generators = small().generators(&mut space, &config, &clients);
        let is_barrier = |a: &Action| matches!(a, Action::Sync(SyncRequest::BarrierWait { .. }));
        // Each core runs alone: nothing blocks outside the machine.
        for (generator, &core) in generators.into_iter().zip(&clients) {
            let mut program = ScriptProgram::new(generator);
            let (mut barriers, mut refills) = (0, 0);
            loop {
                let refill = program.buffered().is_empty();
                let action = program.step(core, Time::ZERO);
                if action == Action::Done {
                    break;
                }
                if refill {
                    refills += 1;
                    let buffered: Vec<Action> = std::iter::once(action)
                        .chain(program.buffered().iter().copied())
                        .collect();
                    let steps = buffered
                        .iter()
                        .filter(|a| **a == Action::Compute { instrs: 12 })
                        .count();
                    assert_eq!(steps, 1, "one diagonal step per refill: {buffered:?}");
                    if let Some(k) = buffered.iter().position(is_barrier) {
                        assert_eq!(k, buffered.len() - 1, "the barrier ends the diagonal");
                    }
                }
                assert_eq!(
                    program.ops_completed(),
                    barriers + 1,
                    "a diagonal counts at its first step"
                );
                if is_barrier(&action) {
                    barriers += 1;
                }
            }
            assert_eq!(barriers, u64::from(small().diagonals_per_core));
            assert_eq!(program.ops_completed(), barriers);
            assert!(refills > barriers, "a diagonal spans several steps");
        }
    }

    #[test]
    fn has_high_synchronization_intensity() {
        // Far more than one synchronization request per diagonal: lock pairs per
        // updated element plus the batch barrier.
        let report = run_workload(&config(MechanismKind::SynCron), &small());
        assert!(report.sync_requests > report.total_ops * 10);
    }

    #[test]
    fn syncron_outperforms_hier_thanks_to_direct_buffering() {
        // The paper singles out time series as the workload where SynCron's ST
        // buffering pays off the most against Hier (Section 6.1.3).
        let hier = run_workload(&config(MechanismKind::Hier), &small());
        let syncron = run_workload(&config(MechanismKind::SynCron), &small());
        assert!(
            syncron.sim_time < hier.sim_time,
            "SynCron {} vs Hier {}",
            syncron.sim_time,
            hier.sim_time
        );
    }

    #[test]
    fn dataset_lookup() {
        assert_eq!(TimeSeries::by_name("air").unwrap().name, "air");
        assert_eq!(TimeSeries::by_name("pow").unwrap().name, "pow");
        assert!(TimeSeries::by_name("x").is_none());
        assert_eq!(TimeSeries::air().name(), "ts.air");
        assert_eq!(
            TimeSeries::pow()
                .with_diagonals_per_core(2)
                .diagonals_per_core,
            2
        );
    }
}
