//! System configuration.
//!
//! [`NdpConfig`] captures the simulated machine of Table 5 of the paper and the knobs
//! its sensitivity studies sweep: number of NDP units and cores, memory technology
//! (HBM / HMC / DDR4), inter-unit link latency, synchronization mechanism and its
//! parameters (ST size, overflow mode, fairness threshold), and the coherence mode
//! used by the motivational MESI experiments.

pub use syncron_mem::dram::MemTech;
pub use syncron_net::fault::FaultConfig;

use core::fmt;

use syncron_core::mechanism::{MechanismKind, MechanismParams};
use syncron_mem::cache::CacheConfig;
use syncron_mem::mesi::MesiParams;
use syncron_net::crossbar::CrossbarConfig;
use syncron_net::link::LinkConfig;
use syncron_sim::time::{Freq, Time};
use syncron_sim::{CoreId, GlobalCoreId, UnitId};

/// Largest number of NDP units a configuration may request, bounded by the 8-bit
/// unit IDs ([`UnitId::MAX_COUNT`]).
pub const MAX_UNITS: usize = UnitId::MAX_COUNT;

/// Largest number of NDP cores per unit a configuration may request, bounded by the
/// 8-bit local core IDs ([`CoreId::MAX_COUNT`]).
pub const MAX_CORES_PER_UNIT: usize = CoreId::MAX_COUNT;

/// Largest Synchronization Table a configuration may request. Every SE
/// allocates its table up front, so a larger request would abort the process
/// on allocation instead of failing as a config error.
pub const MAX_ST_ENTRIES: usize = 1 << 20;

/// Largest delay, in nanoseconds, that any nanosecond knob may derive (10^14 ns,
/// about 28 simulated hours). About 180 such delays in a row still fit the
/// `u64` picosecond clock, so no time sum on a valid configuration overflows.
pub const MAX_DELAY_NS: u64 = 100_000_000_000_000;

/// Converts a `link_latency_ns` knob to the inter-unit transfer latency,
/// rejecting a value above [`MAX_DELAY_NS`] before [`Time::from_ns`] could
/// overflow.
pub fn link_latency_from_ns(ns: u64) -> Result<Time, ConfigError> {
    if ns > MAX_DELAY_NS {
        return Err(ConfigError::TooLarge {
            field: "link_latency_ns",
            value: ns,
            max: MAX_DELAY_NS,
        });
    }
    Ok(Time::from_ns(ns))
}

/// A rejected machine configuration, naming the offending field.
///
/// Produced by [`NdpConfigBuilder::build`] and [`NdpConfig::validate`]. Before this
/// existed, impossible geometries were silently clamped or — worse — accepted:
/// `cores_per_unit(128)` built fine while the 64-bit waiting lists aliased waiters
/// modulo 64 in release builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// A count field that must be at least 1 was 0.
    Zero {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A field exceeded its supported maximum: a geometry the hardware IDs
    /// cannot address, or a size or delay the simulator cannot represent.
    TooLarge {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// The largest supported value.
        max: u64,
    },
    /// A field whose value is outside its valid domain (e.g. a probability
    /// not in `[0, 1]`).
    OutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// What the valid domain is.
        detail: &'static str,
    },
}

impl ConfigError {
    /// The name of the offending configuration field.
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::Zero { field }
            | ConfigError::TooLarge { field, .. }
            | ConfigError::OutOfRange { field, .. } => field,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero { field } => {
                write!(f, "invalid config: {field} must be at least 1")
            }
            ConfigError::TooLarge { field, value, max } => write!(
                f,
                "invalid config: {field} = {value} exceeds the supported maximum of {max}"
            ),
            ConfigError::OutOfRange { field, detail } => {
                write!(f, "invalid config: {field} {detail}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How shared read-write data is kept coherent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CoherenceMode {
    /// The NDP baseline (Section 2.1): software-assisted coherence; shared read-write
    /// data is uncacheable.
    #[default]
    SoftwareAssisted,
    /// A directory-based MESI protocol over the cores' private caches. Used only by the
    /// motivational experiments (Figure 2 and Table 1); real NDP systems do not
    /// support it.
    MesiDirectory,
}

impl CoherenceMode {
    /// Every coherence mode.
    pub const ALL: [CoherenceMode; 2] = [
        CoherenceMode::SoftwareAssisted,
        CoherenceMode::MesiDirectory,
    ];

    /// Short name used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            CoherenceMode::SoftwareAssisted => "software-assisted",
            CoherenceMode::MesiDirectory => "mesi",
        }
    }
}

/// Configuration of the simulated NDP system.
#[derive(Clone, Copy, Debug)]
pub struct NdpConfig {
    /// Number of NDP units (Table 5: 4).
    pub units: usize,
    /// NDP cores per unit (Table 5: 16).
    pub cores_per_unit: usize,
    /// NDP core clock (Table 5: 2.5 GHz, in-order, CPI 1 for compute).
    pub core_freq: Freq,
    /// Memory technology attached to each unit.
    pub mem_tech: MemTech,
    /// Private L1 configuration.
    pub l1: CacheConfig,
    /// Intra-unit crossbar configuration.
    pub crossbar: CrossbarConfig,
    /// Inter-unit link configuration.
    pub link: LinkConfig,
    /// Synchronization mechanism and its parameters.
    pub mechanism: MechanismParams,
    /// Coherence mode for shared read-write data.
    pub coherence: CoherenceMode,
    /// Latency parameters of the MESI directory protocol (only used when `coherence`
    /// is [`CoherenceMode::MesiDirectory`]).
    pub mesi: MesiParams,
    /// Whether one core per unit is reserved as a synchronization server / disabled for
    /// SynCron, so that every scheme runs the same number of client cores (Section 5).
    pub reserve_server_core: bool,
    /// Deterministic seed used by workloads.
    pub seed: u64,
    /// Safety limit on delivered events, after which the run is aborted and the report
    /// is marked incomplete.
    pub max_events: u64,
    /// Number of worker threads the sharded (conservative-PDES) execution mode
    /// may use. `1` (the default) runs the classic sequential loop. Values
    /// above 1 partition the units into up to `sim_threads` shards that advance
    /// in lookahead-bounded windows; reports are bit-identical to `1` whenever
    /// the configuration is shardable (the machine documents its fallbacks and
    /// falls back to sequential execution otherwise). The effective shard count
    /// is `min(sim_threads, units)`.
    pub sim_threads: usize,
    /// Deterministic fault injection on inter-unit synchronization messages
    /// (drops, duplicates, jitter, SE stall windows). Off by default; when
    /// enabled with all probabilities zero the run is bit-identical to a
    /// faults-off run (knob aliveness).
    pub fault: FaultConfig,
}

impl NdpConfig {
    /// The paper's default configuration: 4 NDP units × 16 cores, HBM (2.5D NDP),
    /// 40 ns / 12.8 GB/s inter-unit links, SynCron with a 64-entry ST.
    pub fn paper_default() -> Self {
        NdpConfig {
            units: 4,
            cores_per_unit: 16,
            core_freq: Freq::ghz(2.5),
            mem_tech: MemTech::Hbm,
            l1: CacheConfig::ndp_l1(),
            crossbar: CrossbarConfig::default(),
            link: LinkConfig::default(),
            mechanism: MechanismParams::new(MechanismKind::SynCron),
            coherence: CoherenceMode::SoftwareAssisted,
            mesi: MesiParams::ndp_default(),
            reserve_server_core: true,
            seed: 0x5EED_5EED,
            max_events: 400_000_000,
            sim_threads: 1,
            fault: FaultConfig::default(),
        }
    }

    /// Starts building a configuration from the paper defaults.
    pub fn builder() -> NdpConfigBuilder {
        NdpConfigBuilder {
            config: NdpConfig::paper_default(),
        }
    }

    /// Validates the machine geometry and mechanism parameters, naming the offending
    /// field on rejection.
    ///
    /// [`NdpConfigBuilder::build`] runs this automatically; call it directly when a
    /// configuration is assembled field-by-field rather than through the builder.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let at_least_one = [
            ("units", self.units),
            ("cores_per_unit", self.cores_per_unit),
            ("st_entries", self.mechanism.st_entries),
            ("indexing_counters", self.mechanism.indexing_counters),
        ];
        for (field, value) in at_least_one {
            if value == 0 {
                return Err(ConfigError::Zero { field });
            }
        }
        if self.max_events == 0 {
            return Err(ConfigError::Zero {
                field: "max_events",
            });
        }
        if self.sim_threads == 0 {
            return Err(ConfigError::Zero {
                field: "sim_threads",
            });
        }
        let fault = &self.fault;
        // Nanosecond knobs are bounded by their largest derived delay: the
        // backoff base grows 64x, a retry shifts by up to 32, jitter adds 1.
        let bounded = [
            ("units", self.units as u64, MAX_UNITS as u64),
            (
                "cores_per_unit",
                self.cores_per_unit as u64,
                MAX_CORES_PER_UNIT as u64,
            ),
            (
                "st_entries",
                self.mechanism.st_entries as u64,
                MAX_ST_ENTRIES as u64,
            ),
            (
                "link_latency_ns",
                self.link.transfer_latency.as_ns(),
                MAX_DELAY_NS,
            ),
            (
                "signal_backoff_ns",
                self.mechanism.signal_backoff_ns,
                MAX_DELAY_NS / 64,
            ),
            (
                "fault_retry_ns",
                fault.retry_timeout_ns,
                MAX_DELAY_NS >> fault.backoff_cap.min(32),
            ),
            ("fault_jitter_ns", fault.jitter_ns, MAX_DELAY_NS - 1),
            ("fault_stall_ns", fault.stall_ns, MAX_DELAY_NS),
            ("fault_stall_period_ns", fault.stall_period_ns, MAX_DELAY_NS),
        ];
        for (field, value, max) in bounded {
            if value > max {
                return Err(ConfigError::TooLarge { field, value, max });
            }
        }
        let probabilities = [
            ("fault_drop", self.fault.drop_prob),
            ("fault_dup", self.fault.dup_prob),
        ];
        for (field, value) in probabilities {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::OutOfRange {
                    field,
                    detail: "must be a probability in [0, 1]",
                });
            }
        }
        if self.fault.enabled && self.fault.retry_timeout_ns == 0 {
            return Err(ConfigError::Zero {
                field: "fault_retry_ns",
            });
        }
        if self.fault.stall_period_ns > 0 && self.fault.stall_ns >= self.fault.stall_period_ns {
            return Err(ConfigError::OutOfRange {
                field: "fault_stall_ns",
                detail: "must be shorter than fault_stall_period_ns",
            });
        }
        Ok(())
    }

    /// The liveness watchdog's threshold: delivered events without forward
    /// progress before the run aborts with a structured stall report instead
    /// of burning the rest of its event budget. It is
    /// `max(10_000, max_events / 100)`, so a stalled run burns at most ~1% of
    /// its budget.
    pub fn watchdog_limit(&self) -> u64 {
        10_000.max(self.max_events / 100)
    }

    /// Total number of NDP cores, including any reserved server cores.
    pub fn total_cores(&self) -> usize {
        self.units * self.cores_per_unit
    }

    /// Whether each unit actually dedicates one core to synchronization serving.
    ///
    /// `reserve_server_core` only takes effect when a unit has more than one core:
    /// with `cores_per_unit == 1` the lone core must keep executing the workload, so
    /// it doubles as the server (message-passing schemes time-share it) and no core is
    /// set aside.
    pub fn has_dedicated_server(&self) -> bool {
        self.reserve_server_core && self.cores_per_unit > 1
    }

    /// Number of client cores per unit (cores that execute the workload).
    ///
    /// With a dedicated server core this is `cores_per_unit - 1`; otherwise every core
    /// is a client — including the single-core-per-unit edge case, where the lone core
    /// is a client *and* implicitly serves synchronization requests (see
    /// [`NdpConfig::has_dedicated_server`]).
    pub fn clients_per_unit(&self) -> usize {
        if self.has_dedicated_server() {
            self.cores_per_unit - 1
        } else {
            self.cores_per_unit
        }
    }

    /// Total number of client cores.
    pub fn total_clients(&self) -> usize {
        self.units * self.clients_per_unit()
    }

    /// The identities of the client cores, unit-major (the order workloads receive
    /// them in [`crate::workload::Workload::build`]).
    pub fn client_cores(&self) -> Vec<GlobalCoreId> {
        let per_unit = self.clients_per_unit();
        (0..self.units)
            .flat_map(move |u| {
                (0..per_unit).map(move |c| GlobalCoreId::new(UnitId(u as u8), CoreId(c as u8)))
            })
            .collect()
    }

    /// Period of one NDP core cycle.
    pub fn core_cycle(&self) -> Time {
        self.core_freq.period()
    }
}

impl Default for NdpConfig {
    fn default() -> Self {
        NdpConfig::paper_default()
    }
}

/// Builder for [`NdpConfig`].
#[derive(Clone, Copy, Debug)]
pub struct NdpConfigBuilder {
    config: NdpConfig,
}

impl NdpConfigBuilder {
    /// Sets the number of NDP units. Out-of-range values are reported by
    /// [`NdpConfigBuilder::build`] rather than silently clamped.
    pub fn units(mut self, units: usize) -> Self {
        self.config.units = units;
        self
    }

    /// Sets the number of NDP cores per unit. Out-of-range values are reported by
    /// [`NdpConfigBuilder::build`] rather than silently clamped.
    pub fn cores_per_unit(mut self, cores: usize) -> Self {
        self.config.cores_per_unit = cores;
        self
    }

    /// Sets the memory technology (Figure 18 sweep).
    pub fn mem_tech(mut self, tech: MemTech) -> Self {
        self.config.mem_tech = tech;
        self
    }

    /// Sets the synchronization mechanism with its default parameters.
    pub fn mechanism(mut self, kind: MechanismKind) -> Self {
        self.config.mechanism = MechanismParams::new(kind);
        self
    }

    /// Sets the synchronization mechanism with explicit parameters.
    pub fn mechanism_params(mut self, params: MechanismParams) -> Self {
        self.config.mechanism = params;
        self
    }

    /// Sets the inter-unit per-cache-line transfer latency (Figures 16, 17, 21 sweeps).
    pub fn link_latency(mut self, latency: Time) -> Self {
        self.config.link.transfer_latency = latency;
        self
    }

    /// Sets the coherence mode (MESI only for the motivational experiments).
    pub fn coherence(mut self, mode: CoherenceMode) -> Self {
        self.config.coherence = mode;
        self
    }

    /// Sets the MESI latency parameters (e.g. [`MesiParams::cpu_two_socket`] for the
    /// Table 1 CPU experiment).
    pub fn mesi_params(mut self, params: MesiParams) -> Self {
        self.config.mesi = params;
        self
    }

    /// Controls whether one core per unit is reserved as a synchronization server.
    pub fn reserve_server_core(mut self, reserve: bool) -> Self {
        self.config.reserve_server_core = reserve;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the event safety limit.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.config.max_events = max_events;
        self
    }

    /// Sets the sharded execution mode's worker-thread budget (see
    /// [`NdpConfig::sim_threads`]; `1` = sequential).
    pub fn sim_threads(mut self, threads: usize) -> Self {
        self.config.sim_threads = threads;
        self
    }

    /// Sets the deterministic fault-injection plan (see [`NdpConfig::fault`];
    /// disabled by default).
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = fault;
        self
    }

    /// Finalizes the configuration, validating the machine geometry.
    ///
    /// Returns a [`ConfigError`] naming the offending field for degenerate layouts
    /// (zero units/cores/ST entries/event budget), for geometries beyond what the
    /// hardware IDs can address ([`MAX_UNITS`] × [`MAX_CORES_PER_UNIT`]), and for
    /// sizes and delays above [`MAX_ST_ENTRIES`] and [`MAX_DELAY_NS`].
    pub fn build(self) -> Result<NdpConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table5() {
        let cfg = NdpConfig::paper_default();
        assert_eq!(cfg.units, 4);
        assert_eq!(cfg.cores_per_unit, 16);
        assert_eq!(cfg.total_cores(), 64);
        assert_eq!(cfg.core_freq.period(), Time::from_ps(400));
        assert_eq!(cfg.mem_tech, MemTech::Hbm);
        assert_eq!(cfg.link.transfer_latency, Time::from_ns(40));
        assert_eq!(cfg.mechanism.kind, MechanismKind::SynCron);
        assert_eq!(cfg.mechanism.st_entries, 64);
        // Extension default: condvar signal coalescing is on.
        assert!(cfg.mechanism.signal_coalescing);
    }

    #[test]
    fn sim_threads_knob_builds_and_rejects_zero() {
        assert_eq!(NdpConfig::paper_default().sim_threads, 1);
        let cfg = NdpConfig::builder().sim_threads(4).build().unwrap();
        assert_eq!(cfg.sim_threads, 4);
        let err = NdpConfig::builder().sim_threads(0).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Zero {
                field: "sim_threads"
            }
        );
    }

    #[test]
    fn fault_and_watchdog_knobs_build_and_validate() {
        // Defaults: faults off; the watchdog has no knob of its own, and its
        // threshold is 1% of the event budget.
        let cfg = NdpConfig::paper_default();
        assert!(!cfg.fault.enabled);
        assert_eq!(cfg.watchdog_limit(), cfg.max_events / 100);

        let fault = FaultConfig {
            enabled: true,
            drop_prob: 0.25,
            ..FaultConfig::default()
        };
        let cfg = NdpConfig::builder()
            .fault(fault)
            .max_events(5_000_000)
            .build()
            .unwrap();
        assert_eq!(cfg.fault.drop_prob, 0.25);
        assert_eq!(cfg.watchdog_limit(), 50_000);

        // The threshold has a 10k floor for tiny event budgets.
        let cfg = NdpConfig::builder().max_events(50_000).build().unwrap();
        assert_eq!(cfg.watchdog_limit(), 10_000);

        // Out-of-domain fault knobs are typed errors.
        let err = NdpConfig::builder()
            .fault(FaultConfig {
                drop_prob: 1.5,
                ..FaultConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "fault_drop");
        assert!(err.to_string().contains("probability"));
        let err = NdpConfig::builder()
            .fault(FaultConfig {
                dup_prob: f64::NAN,
                ..FaultConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "fault_dup");
        let err = NdpConfig::builder()
            .fault(FaultConfig {
                enabled: true,
                retry_timeout_ns: 0,
                ..FaultConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "fault_retry_ns");
        let err = NdpConfig::builder()
            .fault(FaultConfig {
                stall_ns: 100,
                stall_period_ns: 100,
                ..FaultConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "fault_stall_ns");
    }

    #[test]
    fn client_cores_exclude_the_server_core() {
        let cfg = NdpConfig::paper_default();
        // Section 5: 15 client cores per NDP unit for every scheme.
        assert_eq!(cfg.clients_per_unit(), 15);
        assert_eq!(cfg.total_clients(), 60);
        let clients = cfg.client_cores();
        assert_eq!(clients.len(), 60);
        assert!(clients.iter().all(|c| c.core.index() < 15));
        // Without the reservation all cores are clients.
        let cfg = NdpConfig::builder()
            .reserve_server_core(false)
            .build()
            .unwrap();
        assert_eq!(cfg.total_clients(), 64);
    }

    #[test]
    fn single_core_units_keep_their_only_core_as_client() {
        // Edge case: with one core per unit the reservation cannot take effect — the
        // lone core stays a client and implicitly doubles as the server.
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(1)
            .reserve_server_core(true)
            .build()
            .unwrap();
        assert!(!cfg.has_dedicated_server());
        assert_eq!(cfg.clients_per_unit(), 1);
        assert_eq!(cfg.total_clients(), 2);
        assert_eq!(cfg.client_cores().len(), 2);

        // With two or more cores the reservation is real.
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(2)
            .reserve_server_core(true)
            .build()
            .unwrap();
        assert!(cfg.has_dedicated_server());
        assert_eq!(cfg.clients_per_unit(), 1);
        assert_eq!(cfg.total_clients(), 2);
    }

    #[test]
    fn builder_overrides() {
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(8)
            .mem_tech(MemTech::Ddr4)
            .mechanism_params(
                MechanismParams::new(MechanismKind::Central)
                    .with_st_entries(16)
                    .with_signal_coalescing(false)
                    .with_signal_backoff_ns(75),
            )
            .link_latency(Time::from_ns(500))
            .coherence(CoherenceMode::MesiDirectory)
            .seed(7)
            .max_events(1000)
            .build()
            .unwrap();
        assert!(!cfg.mechanism.signal_coalescing);
        assert_eq!(cfg.mechanism.signal_backoff_ns, 75);
        assert_eq!(cfg.units, 2);
        assert_eq!(cfg.cores_per_unit, 8);
        assert_eq!(cfg.mem_tech, MemTech::Ddr4);
        assert_eq!(cfg.mechanism.kind, MechanismKind::Central);
        assert_eq!(cfg.mechanism.st_entries, 16);
        assert_eq!(cfg.link.transfer_latency, Time::from_ns(500));
        assert_eq!(cfg.coherence, CoherenceMode::MesiDirectory);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.max_events, 1000);
    }

    #[test]
    fn degenerate_geometries_are_typed_errors() {
        // Zero-sized fields name themselves.
        let err = NdpConfig::builder().units(0).build().unwrap_err();
        assert_eq!(err, ConfigError::Zero { field: "units" });
        let err = NdpConfig::builder().cores_per_unit(0).build().unwrap_err();
        assert_eq!(err.field(), "cores_per_unit");
        let err = NdpConfig::builder()
            .mechanism_params(MechanismParams::default().with_st_entries(0))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "st_entries");
        let err = NdpConfig::builder().max_events(0).build().unwrap_err();
        assert_eq!(err.field(), "max_events");

        // Geometries beyond the 8-bit hardware IDs are rejected, not aliased.
        let err = NdpConfig::builder()
            .cores_per_unit(MAX_CORES_PER_UNIT + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooLarge {
                field: "cores_per_unit",
                value: MAX_CORES_PER_UNIT as u64 + 1,
                max: MAX_CORES_PER_UNIT as u64,
            }
        );
        assert!(err.to_string().contains("cores_per_unit"));
        let err = NdpConfig::builder()
            .units(MAX_UNITS + 1)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "units");
    }

    #[test]
    fn large_geometries_within_the_id_width_build() {
        // The fixed-width waitlists used to cap the machine at 64 cores/units; the
        // full ID-addressable range now builds.
        for (units, cores) in [
            (1, 128),
            (16, 256),
            (64, 64),
            (MAX_UNITS, MAX_CORES_PER_UNIT),
        ] {
            let cfg = NdpConfig::builder()
                .units(units)
                .cores_per_unit(cores)
                .build()
                .unwrap_or_else(|e| panic!("{units}x{cores}: {e}"));
            assert_eq!(cfg.total_cores(), units * cores);
        }
    }

    #[test]
    fn client_core_order_is_unit_major() {
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(3)
            .build()
            .unwrap();
        let clients = cfg.client_cores();
        assert_eq!(clients[0], GlobalCoreId::new(UnitId(0), CoreId(0)));
        assert_eq!(clients[2], GlobalCoreId::new(UnitId(1), CoreId(0)));
    }
}
