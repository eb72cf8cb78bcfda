//! # syncron
//!
//! A from-scratch Rust reproduction of **SynCron: Efficient Synchronization Support for
//! Near-Data-Processing Architectures** (Giannoula et al., HPCA 2021).
//!
//! This facade crate re-exports the individual workspace crates so applications and
//! examples can depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel (time, events, RNG, stats).
//! * [`mem`] — DRAM timing models (HBM / HMC / DDR4), private L1 caches, MESI directory.
//! * [`net`] — intra-unit crossbar and inter-unit link models.
//! * [`core`] — the SynCron mechanism (Synchronization Engines, Synchronization Table,
//!   hierarchical protocol, overflow management) and the Central / Hier / Ideal baselines.
//! * [`system`] — NDP system assembly, configuration, execution model and reports.
//! * [`workloads`] — microbenchmarks, concurrent data structures, graph applications and
//!   time-series analysis used in the paper's evaluation.
//! * [`harness`] — declarative scenarios and sweeps over the paper's evaluation axes,
//!   a parallel runner, and results keyed by scenario label with JSON/CSV export
//!   (also driven from TOML/JSON files by the `syncron-cli` binary).
//!
//! # Quickstart
//!
//! ```
//! use syncron::prelude::*;
//!
//! // A small NDP system: 2 units x 4 cores, HBM memory, SynCron synchronization.
//! let config = NdpConfig::builder()
//!     .units(2)
//!     .cores_per_unit(4)
//!     .mechanism(MechanismKind::SynCron)
//!     .build()
//!     .expect("a valid machine geometry");
//!
//! // Each core repeatedly acquires one global lock with an empty critical section.
//! let workload = syncron::workloads::micro::LockMicrobench::new(200, 32);
//! let report = syncron::system::run_workload(&config, &workload);
//! assert!(report.sim_time > Time::ZERO);
//! ```

pub use syncron_core as core;
pub use syncron_harness as harness;
pub use syncron_mem as mem;
pub use syncron_net as net;
pub use syncron_sim as sim;
pub use syncron_system as system;
pub use syncron_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use syncron_core::MechanismKind;
    pub use syncron_harness::{ConfigSpec, RunSet, Runner, Scenario, Sweep, WorkloadSpec};
    pub use syncron_sim::{Addr, CoreId, Freq, GlobalCoreId, Time, UnitId};
    pub use syncron_system::config::{FaultConfig, MemTech, NdpConfig};
    pub use syncron_system::report::{IncompleteReason, RunReport};
    pub use syncron_system::run_workload;
    pub use syncron_system::workload::{Action, CoreProgram, Workload};
}
