//! # syncron-harness
//!
//! Declarative scenarios, sweeps and a parallel runner for the SynCron (HPCA 2021)
//! reproduction — the evaluation's run API.
//!
//! The paper's evaluation spans ~20 figures and tables, each a cartesian product over
//! a few axes (mechanism × link latency × ST size × memory technology × units ×
//! workload). This crate makes those products first-class, serializable data instead
//! of hand-rolled `Vec<(NdpConfig, Box<dyn Workload>)>` job lists:
//!
//! * [`spec::WorkloadSpec`] — a plain-data description that can name and construct
//!   every workload in `syncron-workloads`;
//! * [`scenario::ConfigSpec`] / [`scenario::Scenario`] — a serializable system
//!   configuration and a labelled (config, workload) pair;
//! * [`sweep::Sweep`] — a builder producing labelled cartesian products over the
//!   paper's sweep axes, in code or from TOML/JSON documents;
//! * [`runner::Runner`] — a work-queue thread pool with progress callbacks;
//! * [`runset::RunSet`] — results keyed by scenario label, with `get` /
//!   `speedup_over` lookups and JSON / CSV export;
//! * [`json`] / [`toml`] — the self-contained document model and parsers behind the
//!   scenario files (the build environment has no crates.io access, so no serde).
//!
//! # Example
//!
//! ```
//! use syncron_harness::prelude::*;
//! use syncron_workloads::micro::SyncPrimitive;
//!
//! // Figure 10 (lock), narrowed down: two intervals x the four compared schemes.
//! let scenarios = Sweep::new("fig10-lock")
//!     .base(ConfigSpec::default().with_geometry(2, 4))
//!     .workloads([50, 500].map(|interval| WorkloadSpec::Micro {
//!         primitive: SyncPrimitive::Lock,
//!         interval,
//!         iterations: 4,
//!     }))
//!     .compared_mechanisms()
//!     .scenarios()
//!     .unwrap();
//! assert_eq!(scenarios.len(), 8);
//!
//! let results = Runner::new().run(&scenarios).unwrap();
//! let speedup = results
//!     .speedup_over(
//!         "fig10-lock/lock-micro.i50/mechanism=SynCron",
//!         "fig10-lock/lock-micro.i50/mechanism=Central",
//!     )
//!     .unwrap();
//! assert!(speedup > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod error;
pub mod json;
pub mod runner;
pub mod runset;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod toml;

pub use error::HarnessError;
pub use json::Value;
pub use runner::{Progress, Runner};
pub use runset::{digest, report_to_value, RunEntry, RunSet};
pub use scenario::{ConfigSpec, MesiProfile, Scenario};
pub use spec::WorkloadSpec;
pub use sweep::Sweep;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::error::HarnessError;
    pub use crate::runner::{Progress, Runner};
    pub use crate::runset::{RunEntry, RunSet};
    pub use crate::scenario::{ConfigSpec, MesiProfile, Scenario};
    pub use crate::spec::WorkloadSpec;
    pub use crate::sweep::Sweep;
}
