//! # syncron-sim
//!
//! Deterministic discrete-event simulation kernel used by every other crate of the
//! SynCron reproduction (HPCA 2021).
//!
//! The crate provides the small set of primitives that the memory, network,
//! synchronization and system crates are built on:
//!
//! * [`time`] — the global time base. All models operate on a single integer time
//!   unit of **picoseconds** ([`time::Time`]) so that components running at different
//!   clock frequencies (2.5 GHz NDP cores, 1 GHz Synchronization Engines, 500 MHz HBM)
//!   can be composed without fractional cycles.
//! * [`ids`] — strongly-typed identifiers for NDP units, per-unit cores, and
//!   system-global cores, plus physical addresses.
//! * [`bitqueue`] — a growable, allocation-light waiter bit queue (inline `u64` fast
//!   path, spilling past 64 bits) backing the Synchronization Table waiting lists.
//! * [`event`] — a stable (FIFO-within-timestamp) event queue: a binary heap
//!   ordered by `(time, key)`.
//! * [`rng`] — a small, fully deterministic `SplitMix64`/`xoshiro256**` random number
//!   generator so simulations are reproducible regardless of platform.
//! * [`stats`] — counters, running statistics, histograms and time-weighted averages
//!   used for the evaluation reports (energy, traffic, occupancy).
//! * [`queueing`] — the M/D/1 queueing-delay model used by the paper for the
//!   intra-unit crossbar (Table 5 of the paper).
//! * [`shard`] — conservative-PDES building blocks (shard map, stable event
//!   keys, cross-shard mailboxes, the two-phase window barrier) used by the
//!   system crate's sharded execution mode.
//!
//! # Example
//!
//! ```
//! use syncron_sim::event::EventQueue;
//! use syncron_sim::time::{Time, Freq};
//!
//! let core = Freq::ghz(2.5);
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(core.cycles_to_ps(4), "l1-hit");
//! q.push(core.cycles_to_ps(1), "issue");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "issue");
//! assert_eq!(t, Time::from_ps(400));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bitqueue;
pub mod event;
pub mod hash;
pub mod ids;
pub mod queueing;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use bitqueue::BitQueue;
pub use event::EventQueue;
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{Addr, CoreId, GlobalCoreId, UnitId};
pub use rng::SimRng;
pub use time::{Freq, Time};
