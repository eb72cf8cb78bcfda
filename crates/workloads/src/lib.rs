//! # syncron-workloads
//!
//! The workloads used in the SynCron (HPCA 2021) evaluation, implemented against the
//! simulated NDP system of `syncron-system`.
//!
//! Three classes of applications (Table 6 of the paper), plus the microbenchmarks and
//! motivational baselines:
//!
//! * [`micro`] — single-variable lock / barrier / semaphore / condition-variable
//!   microbenchmarks with a configurable interval between synchronization points
//!   (Figure 10).
//! * [`spinlock`] — TTAS and hierarchical-ticket spin locks built from atomic RMW
//!   operations on coherent (MESI) memory, and a stack protected by such a lock; these
//!   reproduce the motivational experiments (Table 1 and Figure 2).
//! * [`datastructures`] — nine pointer-chasing concurrent data structures used as
//!   key-value sets (stack, queue, array map, priority queue, skip list, hash table,
//!   linked list, fine-grained external BST, Drachsler BST), mirroring the ASCYLIB-based
//!   benchmarks of Figure 11.
//! * [`graph`] — six graph applications (BFS, Connected Components, SSSP, PageRank,
//!   Teenage Followers, Triangle Counting) in the Crono push style with per-vertex
//!   locks and inter-iteration barriers, over synthetic R-MAT / uniform graphs
//!   (Figures 12–15, 17, 19, 20).
//! * [`timeseries`] — SCRIMP-style matrix-profile time-series analysis with
//!   fine-grained locks on the output profile (Figures 12–15, 18, 21).
//! * [`service`] — open-loop service workloads beyond the paper's evaluation:
//!   deterministic Poisson / bursty / diurnal arrival processes, Zipf-skewed key
//!   sampling over millions of sync variables, and three service shapes (sharded
//!   KV, work-stealing deque, epoch reclamation) with per-request tail-latency
//!   telemetry.
//!
//! Real datasets used by the paper (wikipedia / soc-LiveJournal / sx-stackoverflow /
//! com-Orkut graphs and the air-quality / power Matrix Profile traces) are not
//! redistributable here; the generators in [`graph`] and [`timeseries`] synthesize
//! inputs with the structural properties the synchronization depends on (power-law
//! degree skew, the profile-update pattern of a matrix-profile computation) and the
//! evaluation keeps the paper's input names as labels for the matching synthetic
//! configurations (see "Synthetic inputs" in `ARCHITECTURE.md`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod datastructures;
pub mod graph;
pub mod micro;
pub mod script;
pub mod service;
pub mod spinlock;
pub mod timeseries;

pub use micro::{
    BarrierMicrobench, CondVarMicrobench, LockMicrobench, SemaphoreMicrobench, SyncPrimitive,
};
pub use service::{
    service_workload, ArrivalProcess, EpochService, KvService, ServiceParams, ServiceShape,
    StealService,
};
