//! # syncron-core
//!
//! The SynCron synchronization mechanism (HPCA 2021) and the baseline mechanisms it is
//! evaluated against.
//!
//! SynCron adds one **Synchronization Engine (SE)** to the compute die of each NDP
//! unit. NDP cores issue synchronization requests (locks, barriers, semaphores,
//! condition variables — Table 2 of the paper) to their *local* SE with hardware
//! messages; SEs coordinate among themselves hierarchically, with the **Master SE**
//! (the SE of the unit that owns the variable's address) arbitrating globally.
//! Synchronization variables are buffered directly in a 64-entry **Synchronization
//! Table (ST)** inside each SE, so no memory accesses are needed on the fast path;
//! when the ST overflows, a hardware-only scheme falls back to an in-memory
//! `syncronVar` structure tracked by per-SE indexing counters.
//!
//! This crate implements:
//!
//! * [`request`] — the core-facing request API (the semantics of Table 2's
//!   programming interface) and its `req_sync` / `req_async` classification;
//! * [`table`] — the Synchronization Table, modelled as the occupancy tracker
//!   the engine consults (Table 7, Figures 19 and 22) with Figure 7's entry width;
//! * [`counters`] — the indexing counters used during ST overflow;
//! * [`mechanism`] — the [`SyncMechanism`] / [`SyncContext`] interface the NDP
//!   system drives, and the [`MechanismKind`] selector;
//! * [`ideal`] — the zero-overhead *Ideal* baseline;
//! * [`protocol`] — the message-passing protocol engine that implements **SynCron**
//!   (hierarchical or flat, with integrated or MiSAR-style overflow management) as
//!   well as the *Central* and *Hier* server-core baselines of Section 5, plus the
//!   condvar signal-coalescing / backoff extension (see the module docs). It
//!   charges the 140/149-bit message sizes of Section 4.1.2 and, on the overflow
//!   path, the memory accesses to the `syncronVar` structure of Section 4.3.1;
//! * [`hw_cost`] — the area/power model behind Table 8.
//!
//! Internally the engine-backed mechanisms share one *ownership-of-state* layer
//! (per-primitive component tables over arena slots, `components`) and differ
//! only in a small *policy* object (`policy`): where requests are served, how
//! locks arbitrate, and whether the placement adapts at runtime. The MCS queue
//! lock and the adaptive Central↔Hier scheme are policy modules over the same
//! tables; see `ARCHITECTURE.md` for the split.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod components;
pub mod counters;
pub mod hw_cost;
pub mod ideal;
pub mod mechanism;
mod policy;
pub mod protocol;
pub mod request;
pub mod table;

pub use mechanism::{
    build_mechanism, MechanismKind, SyncContext, SyncMechanism, SyncMechanismStats,
};
pub use protocol::{OverflowMode, ProtocolConfig, ProtocolMechanism};
pub use request::{BarrierScope, PrimitiveKind, SyncRequest};
pub use table::{StEntry, SynchronizationTable};
