//! The message-passing synchronization protocol engine.
//!
//! This module implements the mechanism the paper proposes — **SynCron** — and the two
//! message-passing baselines it is compared against (Section 5):
//!
//! * **SynCron** ([`MechanismKind::SynCron`]): one Synchronization Engine (SE) per NDP
//!   unit. Cores send requests to their *local* SE; SEs coordinate globally with the
//!   **Master SE** of each variable (the SE of the variable's home unit). Variables are
//!   buffered directly in the SE's Synchronization Table; when an ST overflows, the
//!   integrated hardware scheme falls back to the in-memory `syncronVar` structure,
//!   tracked by indexing counters (Section 4.3).
//! * **SynCron-flat** ([`MechanismKind::SynCronFlat`]): the ablation of Section 6.7.1 —
//!   every core sends its requests directly to the Master SE of the variable.
//! * **Hier** ([`MechanismKind::Hier`]): same hierarchical organization, but each unit's
//!   server is an NDP core that keeps synchronization state in memory, accessed through
//!   its cache hierarchy (similar to the tree-barrier of Gao et al.).
//! * **Central** ([`MechanismKind::Central`]): a single NDP core of the whole system
//!   serves every synchronization request (similar to the Tesseract barrier).
//!
//! The protocol engine is one struct with three orthogonal knobs — topology
//! (hierarchical / flat), backend (SE with ST / server core with memory) and overflow
//! mode (integrated / MiSAR-style) — which is exactly the design space the paper's
//! ablations explore (Sections 6.7.1 and 6.7.3).
//!
//! # Signal coalescing and backoff (extension)
//!
//! A `cond_signal` is fire-and-forget (`req_async`), so a signaler loop that races
//! ahead of the waiters — exactly the Figure 10 condvar microbenchmark — floods the
//! serving engine with signals that find no queued waiter. Under the Central scheme
//! every one of those wasted signals crosses the chip to the single server, and the
//! event count explodes. With [`MechanismParams::signal_coalescing`] enabled (the
//! default) the serving engine instead:
//!
//! * **banks** a signal that finds no waiter into a per-variable pending-signal count
//!   (capped by [`ProtocolConfig::pending_signal_cap`]) and ACKs the signaler; a later
//!   `cond_wait` consumes a banked signal exactly once and returns immediately;
//! * **NACKs** a signal that finds the pending count at its cap, replying with a
//!   backoff delay hint (`cond_signal_nack` opcodes); the delay doubles per
//!   consecutive NACK from the same core, from
//!   [`MechanismParams::signal_backoff_ns`] up to 64x that base, and resets as
//!   soon as one of the core's signals is accepted.
//!
//! Under this policy the signaling core stalls until the ACK/NACK reply arrives
//! ([`SyncMechanism::blocks_core`]), so each signaler has at most one signal in
//! flight and the serving engine's queue stays bounded.

use syncron_sim::FxHashSet;

use crate::components::{ComponentTables, Grantee, McsRelease};
use crate::counters::{IndexingCounters, SignalCounters};
use crate::mechanism::{
    MechanismKind, MechanismParams, SyncContext, SyncMechanism, SyncMechanismStats,
};
use crate::message::{MessageScope, SyncMessage};
use crate::policy::{policy_for, LockVariant, SyncPolicy};
use crate::request::{BarrierScope, PrimitiveKind, SyncRequest};
use crate::syncvar::SyncronVar;
use crate::table::{SynchronizationTable, TableInfo};
use syncron_sim::queueing::Serializer;
use syncron_sim::time::{Freq, Time};
use syncron_sim::{Addr, GlobalCoreId, UnitId};

/// How ST overflow is handled (Section 6.7.3 comparison).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OverflowMode {
    /// SynCron's integrated hardware-only scheme: the Master SE falls back to the
    /// in-memory `syncronVar`, local SEs redirect requests with overflow opcodes.
    #[default]
    Integrated,
    /// MiSAR-style overflow where the cores are aborted and synchronization falls back
    /// to one dedicated NDP core for the entire system (`SynCron_CentralOvrfl`).
    MiSarCentral,
    /// MiSAR-style overflow where one NDP core per unit handles the variables homed in
    /// that unit (`SynCron_DistribOvrfl`).
    MiSarDistributed,
}

impl OverflowMode {
    /// Every overflow mode, in the order Figure 23 presents them.
    pub const ALL: [OverflowMode; 3] = [
        OverflowMode::Integrated,
        OverflowMode::MiSarCentral,
        OverflowMode::MiSarDistributed,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OverflowMode::Integrated => "integrated",
            OverflowMode::MiSarCentral => "central-overflow",
            OverflowMode::MiSarDistributed => "distributed-overflow",
        }
    }
}

/// Whether cores talk to their local engine first, or directly to the master engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// SynCron / Hier: cores talk to the engine of their own NDP unit.
    Hierarchical,
    /// Central / SynCron-flat: cores talk directly to the serving engine of the
    /// variable (a fixed unit for Central, the variable's home unit otherwise).
    Flat,
}

/// What kind of hardware processes messages at each unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineBackend {
    /// A Synchronization Engine with a Synchronization Table (SynCron).
    SyncronSe,
    /// An NDP core acting as a server, keeping state in memory behind its cache
    /// (Central / Hier).
    ServerCore,
}

/// Configuration of a [`ProtocolMechanism`]: the [`MechanismParams`] it is
/// built from plus what the engine derives from them and the geometry.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolConfig {
    /// The mechanism parameters this configuration was built from.
    pub params: MechanismParams,
    /// Number of NDP units.
    pub units: usize,
    /// Number of NDP cores per unit.
    pub cores_per_unit: usize,
    /// Topology (hierarchical or flat).
    pub topology: Topology,
    /// Backend (SE or server core).
    pub backend: EngineBackend,
    /// For Central: the unit whose server handles every variable.
    pub fixed_server: Option<UnitId>,
    /// SE message service time (Table 5: 12 cycles at 1 GHz).
    pub se_service: Time,
    /// Instruction overhead of a server core handling one message (Central / Hier).
    pub server_service: Time,
    /// Maximum signals banked per condition variable (at least 1).
    pub pending_signal_cap: u16,
}

impl ProtocolConfig {
    /// Configuration for `params` on a `units × cores_per_unit` system.
    ///
    /// # Panics
    ///
    /// Panics if `params.kind` is [`MechanismKind::Ideal`], which is not a
    /// message-passing protocol (use [`crate::ideal::IdealMechanism`]).
    pub fn new(params: MechanismParams, units: usize, cores_per_unit: usize) -> Self {
        let (topology, backend, fixed_server) = match params.kind {
            MechanismKind::Central => (Topology::Flat, EngineBackend::ServerCore, Some(UnitId(0))),
            MechanismKind::Hier => (Topology::Hierarchical, EngineBackend::ServerCore, None),
            MechanismKind::SynCron => (Topology::Hierarchical, EngineBackend::SyncronSe, None),
            MechanismKind::SynCronFlat => (Topology::Flat, EngineBackend::SyncronSe, None),
            // MCS is hierarchical SynCron with the queue-lock policy for locks.
            MechanismKind::Mcs => (Topology::Hierarchical, EngineBackend::SyncronSe, None),
            // Adaptive starts every variable flat at its home unit; the policy
            // escalates hot variables to the hierarchical protocol at runtime.
            MechanismKind::Adaptive => (Topology::Flat, EngineBackend::ServerCore, None),
            MechanismKind::Ideal => panic!("Ideal is not a protocol mechanism"),
        };
        ProtocolConfig {
            params,
            units,
            cores_per_unit,
            topology,
            backend,
            fixed_server,
            // Table 5 / Section 5: each message is served in 12 SE cycles at 1 GHz.
            se_service: Freq::ghz(1.0).cycles_to_ps(12),
            // A server core spends ~30 instructions of control code per message at
            // 2.5 GHz, before its memory accesses to the synchronization variable.
            server_service: Freq::ghz(2.5).cycles_to_ps(30),
            pending_signal_cap: 1,
        }
    }

    /// Sets the maximum number of signals banked per condition variable.
    pub fn with_pending_signal_cap(mut self, cap: u16) -> Self {
        self.pending_signal_cap = cap.max(1);
        self
    }

    /// The NACK backoff delay after `streak` consecutive NACKs to the same core:
    /// the base doubles per NACK, up to 64x (six doublings).
    fn backoff_delay(&self, streak: u32) -> Time {
        Time::from_ns(self.params.signal_backoff_ns).saturating_mul(1u64 << streak.min(6))
    }
}

// The per-variable sub-states (LocalLock, MasterLock, LocalBarrier,
// MasterBarrier, MasterSem, MasterCond, the MCS queue components) and the slot
// arena that owns them live in `crate::components`: one ownership-of-state
// layer shared by every engine-backed mechanism, with presence-bit claiming and
// free-list recycling (see `ComponentTables`). This module keeps only the
// message mechanics; the per-kind decisions live in `crate::policy`.

/// Per-unit engine state (one SE or one server core).
#[derive(Debug)]
struct Engine {
    busy: Serializer,
    st: SynchronizationTable,
    counters: IndexingCounters,
    /// Per-variable protocol state (see [`ComponentTables`]).
    vars: ComponentTables,
    signals: SignalCounters,
    /// Consecutive-NACK streak per signaling core, dense over the geometry
    /// (`flat core index → streak`); indexes the exponential backoff and is
    /// cleared whenever one of the core's signals is accepted. Kept per
    /// *serving* engine (not globally) so that the streak a core builds on one
    /// engine's condvars never depends on traffic it sends to other engines —
    /// the property that lets each shard of a partitioned run own its engines'
    /// streak state outright. Empty until the engine's first NACK: the table
    /// spans the whole geometry per engine, and most runs never NACK.
    signal_streaks: Vec<u32>,
    units: usize,
    cores_per_unit: usize,
}

impl Engine {
    fn new(st_entries: usize, counters: usize, units: usize, cores_per_unit: usize) -> Self {
        Engine {
            busy: Serializer::new(),
            // Pre-size the waitlists of fresh ST entries for the configured geometry
            // so tracking waiters never allocates on the pop/wake hot path.
            st: SynchronizationTable::with_waiter_hint(st_entries, units, cores_per_unit),
            counters: IndexingCounters::new(counters),
            // Pre-size the variable arena from the geometry: an engine buffers at
            // most `st_entries` variables directly, plus (conservatively) one
            // overflowed/served-in-memory variable per local core, so the
            // steady-state hot path neither grows the slot vector nor rehashes
            // the index.
            vars: ComponentTables::with_capacity(st_entries + cores_per_unit),
            signals: SignalCounters::new(),
            signal_streaks: Vec::new(),
            units,
            cores_per_unit,
        }
    }

    /// Clears the NACK streak of the core at flat index `core` (its signal was
    /// accepted). Before the first NACK every streak is zero already.
    fn reset_streak(&mut self, core: usize) {
        if let Some(streak) = self.signal_streaks.get_mut(core) {
            *streak = 0;
        }
    }

    /// The NACK streak of the core at flat index `core`, which this NACK then
    /// extends by one. The first NACK allocates the table.
    fn bump_streak(&mut self, core: usize) -> u32 {
        if self.signal_streaks.is_empty() {
            self.signal_streaks = vec![0; self.units * self.cores_per_unit];
        }
        let streak = self.signal_streaks[core];
        self.signal_streaks[core] = streak.saturating_add(1);
        streak
    }
}

/// An opaque synchronization payload traveling between NDP units.
///
/// Produced by the protocol mechanism and handed to
/// [`SyncContext::send_remote`];
/// the system carries it (unopened) to the shard owning the destination unit
/// and hands it back through
/// [`SyncMechanism::deliver_remote`]
/// at the arrival time. The contents stay private to the protocol crate.
#[derive(Clone, Copy, Debug)]
pub struct RemotePayload(PayloadKind);

#[derive(Clone, Copy, Debug)]
enum PayloadKind {
    /// An engine-to-engine message (or re-routed core request) bound for the
    /// engine of `to`.
    Msg { to: UnitId, msg: EngineMsg },
    /// The response completing `core`'s blocking request, about to traverse the
    /// destination unit's local crossbar to reach the core.
    Complete { core: GlobalCoreId },
}

/// A message processed by an engine.
#[derive(Clone, Copy, Debug)]
enum EngineMsg {
    /// A request originating from a core. `direct` marks requests that the serving
    /// engine must handle at the master level (flat topology, overflow redirection or
    /// MiSAR fallback); `fallback` marks MiSAR fallback processing (server-core cost
    /// model even under the SE backend).
    CoreReq {
        core: GlobalCoreId,
        req: SyncRequest,
        direct: bool,
        fallback: bool,
    },
    LockAcquireGlobal {
        from: UnitId,
        var: Addr,
    },
    LockReleaseGlobal {
        from: UnitId,
        var: Addr,
    },
    LockGrantGlobal {
        var: Addr,
    },
    BarrierArriveGlobal {
        from: UnitId,
        var: Addr,
        count: u32,
        participants: u32,
    },
    BarrierDepartGlobal {
        var: Addr,
    },
    /// MCS: a waiter's engine asks the master to swap the new node instance
    /// `(core, seq)` into the queue's tail pointer.
    McsEnqueue {
        core: GlobalCoreId,
        seq: u32,
        var: Addr,
    },
    /// MCS: the master tells the predecessor instance `(pred, pred_seq)` that
    /// `succ` is now linked behind it.
    McsLink {
        pred: GlobalCoreId,
        pred_seq: u32,
        succ: GlobalCoreId,
        var: Addr,
    },
    /// MCS: a releasing holder with no linked successor asks the master to swap
    /// the tail back to free — valid only if instance `(core, seq)` is still the
    /// tail (otherwise a link to the holder is already in flight).
    McsReleaseTail {
        core: GlobalCoreId,
        seq: u32,
        var: Addr,
    },
    /// MCS: the master confirmed the tail swap for instance `(core, seq)`; the
    /// waiter's engine reaps the node.
    McsNodeFree {
        core: GlobalCoreId,
        seq: u32,
        var: Addr,
    },
}

impl EngineMsg {
    fn var(&self) -> Addr {
        match *self {
            EngineMsg::CoreReq { req, .. } => req.var(),
            EngineMsg::LockAcquireGlobal { var, .. }
            | EngineMsg::LockReleaseGlobal { var, .. }
            | EngineMsg::LockGrantGlobal { var }
            | EngineMsg::BarrierArriveGlobal { var, .. }
            | EngineMsg::BarrierDepartGlobal { var }
            | EngineMsg::McsEnqueue { var, .. }
            | EngineMsg::McsLink { var, .. }
            | EngineMsg::McsReleaseTail { var, .. }
            | EngineMsg::McsNodeFree { var, .. } => var,
        }
    }

    fn primitive(&self) -> PrimitiveKind {
        match self {
            EngineMsg::CoreReq { req, .. } => req.primitive(),
            EngineMsg::LockAcquireGlobal { .. }
            | EngineMsg::LockReleaseGlobal { .. }
            | EngineMsg::LockGrantGlobal { .. }
            | EngineMsg::McsEnqueue { .. }
            | EngineMsg::McsLink { .. }
            | EngineMsg::McsReleaseTail { .. }
            | EngineMsg::McsNodeFree { .. } => PrimitiveKind::Lock,
            EngineMsg::BarrierArriveGlobal { .. } | EngineMsg::BarrierDepartGlobal { .. } => {
                PrimitiveKind::Barrier
            }
        }
    }
}

/// Deferred effect of processing a message, applied after the engine borrow ends.
#[derive(Clone, Copy, Debug)]
enum Outcome {
    /// Complete a blocking request for `core`, responding from the processing engine.
    Complete { core: GlobalCoreId },
    /// Send a message to another engine (global scope).
    Send {
        to: UnitId,
        msg: EngineMsg,
        overflow: bool,
    },
    /// Route a brand-new core request (used by condition variables to release or
    /// re-acquire the associated lock on behalf of a waiting core).
    Inject {
        core: GlobalCoreId,
        req: SyncRequest,
    },
    /// NACK a signaler whose signal could neither be delivered nor banked: the reply
    /// completes the core only after the backoff delay.
    Nack { core: GlobalCoreId, delay: Time },
    /// Charge a MiSAR abort broadcast to every core of the processing engine's unit.
    MisarAbortBroadcast,
    /// Charge the MiSAR "switch back to hardware" notification message.
    MisarSwitchBack { core: GlobalCoreId },
}

/// One in-flight delivery: every message bound for `unit` that was merged into
/// this queued event (usually exactly one).
///
/// The first — and overwhelmingly most common only — message lives inline in
/// the slab slot; merged follow-ups spill to the `rest` vector. Keeping the
/// singleton case pointer-free matters: the slab bracketed every message event
/// before batching existed, and a heap indirection per message showed up as a
/// measurable regression.
#[derive(Debug)]
struct PendingBatch {
    unit: UnitId,
    /// Guards against double delivery (slab slots are recycled).
    live: bool,
    first: EngineMsg,
    rest: Vec<EngineMsg>,
}

impl PendingBatch {
    fn idle() -> Self {
        PendingBatch {
            unit: UnitId(0),
            live: false,
            first: EngineMsg::LockGrantGlobal { var: Addr(0) },
            rest: Vec::new(),
        }
    }
}

/// The batch `schedule_msg` may still append to: the most recently scheduled
/// one, valid while the system-wide push count (`stamp`) has not moved.
#[derive(Clone, Copy, Debug)]
struct OpenBatch {
    token: u32,
    unit: UnitId,
    at: Time,
    stamp: u64,
}

/// The message-passing protocol mechanism (SynCron, SynCron-flat, Hier, Central,
/// MCS, Adaptive).
#[derive(Debug)]
pub struct ProtocolMechanism {
    config: ProtocolConfig,
    /// The mechanism's decision layer (fixed at construction): where requests
    /// are served, how locks arbitrate, whether placement adapts at runtime.
    /// The engines below own all state; the policy owns none of it.
    policy: Box<dyn SyncPolicy>,
    engines: Vec<Engine>,
    /// In-flight scheduled message batches, indexed by their event token. A slab
    /// with a free list (rather than a map): scheduling and delivery bracket
    /// every message event, so this sits on the hottest protocol path, and slot
    /// reuse — message buffers included — keeps the vector as small as the
    /// in-flight high-water mark.
    pending: Vec<PendingBatch>,
    pending_free: Vec<u32>,
    /// See [`OpenBatch`]; `None` when nothing can be appended to.
    open_batch: Option<OpenBatch>,
    /// Reusable buffer the delivered batch is swapped into, so processing can
    /// borrow the mechanism mutably while walking the messages.
    batch_scratch: Vec<EngineMsg>,
    /// Reusable outcome buffer for message processing: outcomes never nest
    /// (applying them routes/schedules but does not process further messages
    /// synchronously), so one buffer serves every `deliver` without a per-message
    /// allocation.
    outcome_scratch: Vec<Outcome>,
    stats: SyncMechanismStats,
    /// Variables that have been handed to the MiSAR-style software fallback. Once a
    /// variable overflows anywhere, every SE redirects it to the fallback server so
    /// that acquire/release pairs stay consistent (the cores were "aborted" to the
    /// alternative solution, Section 6.7.3).
    misar_fallback: FxHashSet<Addr>,
}

impl ProtocolMechanism {
    /// Creates a mechanism from a configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        let engines = (0..config.units)
            .map(|_| {
                Engine::new(
                    config.params.st_entries.max(1),
                    config.params.indexing_counters.max(1),
                    config.units,
                    config.cores_per_unit,
                )
            })
            .collect();
        ProtocolMechanism {
            policy: policy_for(&config),
            config,
            engines,
            pending: Vec::new(),
            pending_free: Vec::new(),
            open_batch: None,
            batch_scratch: Vec::new(),
            outcome_scratch: Vec::new(),
            stats: SyncMechanismStats::default(),
            misar_fallback: FxHashSet::default(),
        }
    }

    /// The configuration this mechanism was built from.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    fn master_of(&self, ctx: &dyn SyncContext, var: Addr) -> UnitId {
        self.policy.master_of(ctx, var)
    }

    /// Whether `req`, delivered non-direct at `unit`, is a partial across-unit
    /// barrier arrival that this SE merely forwards to the Master SE (one-level
    /// communication, Section 4.1.2) without tracking the variable locally.
    fn is_partial_barrier_forward(
        &self,
        ctx: &dyn SyncContext,
        unit: UnitId,
        req: &SyncRequest,
    ) -> bool {
        let SyncRequest::BarrierWait {
            var,
            participants,
            scope,
        } = *req
        else {
            return false;
        };
        scope == BarrierScope::AcrossUnits
            && self.policy.topology(var) == Topology::Hierarchical
            && participants != (self.config.units * self.config.cores_per_unit) as u32
            && self.master_of(ctx, var) != unit
    }

    fn local_bytes() -> u64 {
        SyncMessage::wire_bytes(MessageScope::Local)
    }

    fn global_bytes() -> u64 {
        SyncMessage::wire_bytes(MessageScope::Global)
    }

    fn schedule_msg(&mut self, ctx: &mut dyn SyncContext, at: Time, unit: UnitId, msg: EngineMsg) {
        // Equal-timestamp batching: if this message targets the same engine at
        // the same time as the most recently scheduled one, and *nothing else*
        // was pushed onto the event queue in between (the schedule-stamp
        // watermark), then the two deliveries would pop back to back anyway —
        // appending to the open batch delivers them in one event without
        // changing the global delivery order by a single bit. Contended
        // broadcast/wake phases schedule O(1) events where they scheduled
        // O(waiters).
        let stamp = ctx.schedule_stamp();
        if self.config.params.message_batching {
            if let (Some(open), Some(stamp)) = (self.open_batch, stamp) {
                if open.unit == unit && open.at == at && open.stamp == stamp {
                    let batch = &mut self.pending[open.token as usize];
                    debug_assert!(batch.live);
                    batch.rest.push(msg);
                    return;
                }
            }
        }
        let token = match self.pending_free.pop() {
            Some(slot) => slot,
            None => {
                self.pending.push(PendingBatch::idle());
                (self.pending.len() - 1) as u32
            }
        };
        let batch = &mut self.pending[token as usize];
        debug_assert!(!batch.live && batch.rest.is_empty());
        batch.unit = unit;
        batch.live = true;
        batch.first = msg;
        ctx.schedule(at, unit, u64::from(token));
        // `SyncContext::schedule` pushes exactly one event, so the post-push
        // count is `stamp + 1`: that watermarks "no pushes since this batch's
        // event" without a second context call.
        self.open_batch = stamp.map(|stamp| OpenBatch {
            token,
            unit,
            at,
            stamp: stamp + 1,
        });
    }

    /// Charges the message cost from `from` to engine `to` and schedules delivery.
    ///
    /// Cross-unit messages leave through [`SyncContext::send_remote`] and finish
    /// their journey in [`SyncMechanism::deliver_remote`] on the destination
    /// unit's shard; the message statistics are counted here, at the send side,
    /// so a shard's counters describe the traffic *its* engines originate.
    fn send_engine_msg(
        &mut self,
        ctx: &mut dyn SyncContext,
        at: Time,
        from: UnitId,
        to: UnitId,
        msg: EngineMsg,
        overflow: bool,
    ) {
        if from != to {
            if overflow {
                self.stats.overflow_messages += 1;
            } else {
                self.stats.global_messages += 1;
            }
            ctx.send_remote(
                at,
                from,
                to,
                Self::global_bytes(),
                RemotePayload(PayloadKind::Msg { to, msg }),
            );
            return;
        }
        self.schedule_msg(ctx, at, to, msg);
    }

    /// Sends the response that completes a blocking request, from engine `from` back to
    /// `core`, starting at time `at`.
    ///
    /// When the response crosses units it travels as a [`RemotePayload`]; the
    /// final crossbar hop — and the completion itself — happen in
    /// [`SyncMechanism::deliver_remote`] on the core's shard at the arrival
    /// time (`local_messages`/`completions` are therefore counted where the
    /// core lives, `global_messages` where the response was sent).
    fn complete_core(
        &mut self,
        ctx: &mut dyn SyncContext,
        at: Time,
        from: UnitId,
        core: GlobalCoreId,
    ) {
        if from != core.unit {
            self.stats.global_messages += 1;
            ctx.send_remote(
                at,
                from,
                core.unit,
                Self::global_bytes(),
                RemotePayload(PayloadKind::Complete { core }),
            );
            return;
        }
        let t = at + ctx.local_hop(core.unit, Self::local_bytes());
        self.stats.local_messages += 1;
        self.stats.completions += 1;
        ctx.complete(core, t);
    }

    /// Service time of one message at engine `unit`, including any memory accesses.
    /// `use_memory` forces uncached `syncronVar` accesses (SynCron overflow path);
    /// `fallback` forces server-core processing (MiSAR fallback).
    fn service_time(
        &mut self,
        ctx: &mut dyn SyncContext,
        unit: UnitId,
        var: Addr,
        use_memory: bool,
        fallback: bool,
    ) -> Time {
        match self.config.backend {
            EngineBackend::ServerCore => {
                // The server core reads and updates the synchronization variable through
                // its cache hierarchy.
                let read = ctx.sync_mem_access(unit, var, false, true);
                let write = ctx.sync_mem_access(unit, var, true, true);
                self.stats.mem_accesses += 2;
                self.config.server_service + read + write
            }
            EngineBackend::SyncronSe => {
                if fallback {
                    // The MiSAR-style software fallback synchronizes through main
                    // memory: without shared caches or hardware coherence there is no
                    // faster place for the alternative solution to live (Section 4.5).
                    let read = ctx.sync_mem_access(unit, var, false, false);
                    let write = ctx.sync_mem_access(unit, var, true, false);
                    self.stats.mem_accesses += 2;
                    self.config.server_service + read + write
                } else if use_memory {
                    // Overflow: the SE reads and writes the in-memory syncronVar.
                    let read = ctx.sync_mem_access(unit, var, false, false);
                    let write = ctx.sync_mem_access(unit, var, true, false);
                    self.stats.mem_accesses += 2;
                    self.config.se_service + read + write
                } else {
                    self.config.se_service
                }
            }
        }
    }

    /// Resolves the ST state for a message about `var` at engine `unit`.
    /// Returns `(needs_memory, must_redirect)`.
    ///
    /// `counter_action` is +1 for acquire-type core requests, -1 for release-type core
    /// requests and 0 for SE-to-SE messages; `count_stat` controls whether an overflow
    /// is counted towards the overflowed-request statistic (redirected requests are
    /// only counted once, at the SE that first observed the overflow).
    #[allow(clippy::too_many_arguments)]
    fn st_resolve(
        &mut self,
        ctx: &dyn SyncContext,
        now: Time,
        unit: UnitId,
        var: Addr,
        kind: PrimitiveKind,
        counter_action: i8,
        count_stat: bool,
    ) -> (bool, bool) {
        if self.config.backend != EngineBackend::SyncronSe {
            return (false, false);
        }
        let is_master = self.master_of(ctx, var) == unit;
        // A variable already handed to the MiSAR software fallback stays there for
        // every SE, so acquire/release pairs are always served by the same place.
        if self.config.params.overflow_mode != OverflowMode::Integrated
            && self.misar_fallback.contains(&var)
        {
            if count_stat {
                self.stats.overflowed_requests += 1;
            }
            return (false, true);
        }
        let engine = &mut self.engines[unit.index()];
        if engine.st.lookup(var).is_some() {
            return (false, false);
        }
        if !engine.counters.is_overflowed(var) && !engine.st.is_full() {
            engine.st.allocate(now, var, kind);
            return (false, false);
        }
        // Overflow.
        if count_stat {
            self.stats.overflowed_requests += 1;
        }
        if self.config.params.overflow_mode != OverflowMode::Integrated {
            self.misar_fallback.insert(var);
        }
        match self.config.params.overflow_mode {
            OverflowMode::Integrated => {
                match counter_action {
                    1 => engine.counters.increment(var),
                    -1 => engine.counters.decrement(var),
                    _ => {}
                }
                if is_master {
                    // The Master SE services the variable via the in-memory syncronVar.
                    (true, false)
                } else {
                    // A local SE overflowed: redirect to the Master SE with overflow
                    // opcodes and track the variable in the indexing counters.
                    (false, true)
                }
            }
            OverflowMode::MiSarCentral | OverflowMode::MiSarDistributed => (false, true),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_core_request(
        &mut self,
        unit: UnitId,
        slot: usize,
        ctx: &mut dyn SyncContext,
        core: GlobalCoreId,
        req: SyncRequest,
        direct: bool,
        out: &mut Vec<Outcome>,
    ) {
        let cores_per_unit = self.config.cores_per_unit;
        let total_cores = (self.config.units * cores_per_unit) as u32;
        let master = self.master_of(ctx, req.var());
        let fairness = self.config.params.fairness_threshold;
        let coalescing = self.config.params.signal_coalescing;
        let pending_cap = self.config.pending_signal_cap;
        let mcs = self.policy.lock_variant() == LockVariant::McsQueue;
        let config = self.config;
        let engine = &mut self.engines[unit.index()];

        match req {
            SyncRequest::LockAcquire { var } if mcs => {
                // MCS queue lock: claim a queue node at the requester's own
                // engine, then swap the instance into the master's tail pointer.
                // The node stays here — the handoff chain never queues waiters
                // at the master, so there is no broadcast wake and no ownership
                // bouncing.
                let nodes = engine.vars.mcs_nodes_mut(slot);
                nodes.ensure(cores_per_unit);
                let seq = nodes.enqueue(core.core.index());
                if unit == master {
                    mcs_master_enqueue(engine, slot, var, core, seq, &mut *out);
                } else {
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::McsEnqueue { core, seq, var },
                        overflow: false,
                    });
                }
            }
            SyncRequest::LockRelease { var } if mcs => {
                let nodes = engine.vars.mcs_nodes_mut(slot);
                match nodes.release(core.core.index()) {
                    McsRelease::Handoff(succ) => {
                        // O(1) handoff: the successor was already linked, so the
                        // grant goes straight to it without a master round-trip.
                        mcs_cleanup_nodes(engine, slot, var);
                        out.push(Outcome::Complete { core: succ });
                    }
                    McsRelease::TailRace(seq) => {
                        // No successor linked yet: ask the master to swap the
                        // tail back to free. If someone enqueued meanwhile, the
                        // master ignores this and the in-flight link hands off.
                        if unit == master {
                            mcs_master_release_tail(engine, slot, var, core, seq, &mut *out);
                        } else {
                            out.push(Outcome::Send {
                                to: master,
                                msg: EngineMsg::McsReleaseTail { core, seq, var },
                                overflow: false,
                            });
                        }
                    }
                }
            }
            SyncRequest::LockAcquire { var } => {
                if direct {
                    master_lock_acquire(engine, slot, var, Grantee::Core(core), &mut *out);
                } else {
                    let ll = engine.vars.local_lock_mut(slot);
                    ll.waiters.push_back(core);
                    if let Some(e) = engine.st.lookup_mut(var) {
                        e.local_waitlist.set(core.core.index());
                    }
                    let ll = engine.vars.local_lock_mut(slot);
                    if ll.has_ownership {
                        if ll.holder.is_none() {
                            grant_local_lock(engine, slot, var, &mut *out);
                        }
                    } else if !ll.pending_global {
                        ll.pending_global = true;
                        out.push(Outcome::Send {
                            to: master,
                            msg: EngineMsg::LockAcquireGlobal { from: unit, var },
                            overflow: false,
                        });
                    }
                }
            }
            SyncRequest::LockRelease { var } => {
                let locally_held = engine
                    .vars
                    .local_lock(slot)
                    .is_some_and(|ll| ll.has_ownership && ll.holder == Some(core));
                if direct {
                    master_lock_release(engine, slot, var, Grantee::Core(core), &mut *out);
                } else if !locally_held {
                    // The core's acquire was granted at the master level (ST overflow
                    // redirection), so its release belongs there too. Processing it
                    // locally sent a phantom release on behalf of a unit that holds
                    // no ownership, desynchronizing the master's grant queue — under
                    // ST overflow this stranded locks forever (the master believed a
                    // core owned a lock whose release it never saw).
                    //
                    // Drop any ST entry this delivery allocated: the variable is not
                    // tracked by this SE (there is no local lock state to mirror),
                    // and leaving it would pin an ST slot forever.
                    if unit != master && engine.vars.local_lock(slot).is_none() {
                        engine.st.release(Time::ZERO, var);
                    }
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        // This hand-off only exists because the matching acquire was
                        // redirected by ST overflow; classify its traffic the same way.
                        overflow: true,
                    });
                } else {
                    let ll = engine.vars.local_lock_mut(slot);
                    ll.holder = None;
                    let over_threshold =
                        fairness.is_some_and(|t| ll.local_grants >= t) && !ll.waiters.is_empty();
                    if !ll.waiters.is_empty() && !over_threshold {
                        grant_local_lock(engine, slot, var, &mut *out);
                    } else {
                        // No more local requests (or fairness hand-off): return the lock
                        // to the Master SE with one aggregated release message.
                        ll.has_ownership = false;
                        ll.local_grants = 0;
                        out.push(Outcome::Send {
                            to: master,
                            msg: EngineMsg::LockReleaseGlobal { from: unit, var },
                            overflow: false,
                        });
                        if over_threshold {
                            // Re-request ownership for the still-waiting local cores.
                            ll.pending_global = true;
                            out.push(Outcome::Send {
                                to: master,
                                msg: EngineMsg::LockAcquireGlobal { from: unit, var },
                                overflow: false,
                            });
                        } else {
                            engine.vars.remove_local_lock(slot);
                            engine.st.release(Time::ZERO, var);
                        }
                    }
                }
            }
            SyncRequest::BarrierWait {
                var,
                participants,
                scope,
            } => {
                let local_only = scope == BarrierScope::WithinUnit;
                if direct {
                    let mb = engine.vars.master_barrier_mut(slot);
                    mb.participants = participants;
                    mb.arrived += 1;
                    mb.direct_waiters.push(core);
                    if mb.arrived >= participants {
                        finish_master_barrier(engine, slot, var, &mut *out);
                    }
                } else if local_only {
                    let lb = engine.vars.local_barrier_mut(slot);
                    lb.waiters.push(core);
                    if lb.waiters.len() as u32 >= participants {
                        engine.st.release(Time::ZERO, var);
                        let lb = engine.vars.local_barrier_mut(slot);
                        for w in lb.waiters.drain(..) {
                            out.push(Outcome::Complete { core: w });
                        }
                        engine.vars.remove_local_barrier(slot);
                    }
                } else if participants == total_cores {
                    // Full-system barrier: hierarchical two-level communication.
                    let lb = engine.vars.local_barrier_mut(slot);
                    lb.waiters.push(core);
                    if lb.waiters.len() >= cores_per_unit {
                        lb.announced = true;
                        out.push(Outcome::Send {
                            to: master,
                            msg: EngineMsg::BarrierArriveGlobal {
                                from: unit,
                                var,
                                count: lb.waiters.len() as u32,
                                participants,
                            },
                            overflow: false,
                        });
                    }
                } else {
                    // Partial across-unit barrier: one-level communication, every
                    // arrival is forwarded to the Master SE as a direct request and
                    // the master responds to each core individually (Section 4.1.2).
                    // The local SE keeps *no* state for the variable: mixing local
                    // waiter queues with master-side direct waiters desynchronized
                    // barrier rounds once ST overflow redirected part of a unit — a
                    // direct-completed core could re-arrive and join the stale local
                    // queue while the previous round's departure was still in flight,
                    // deadlocking the remaining waiters. (deliver() skips ST
                    // allocation for these forwarded arrivals.)
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        overflow: false,
                    });
                }
            }
            SyncRequest::SemWait { initial, .. } => {
                if unit == master || direct {
                    let sem = engine.vars.master_sem_mut(slot);
                    if !sem.initialized {
                        sem.initialized = true;
                        sem.count = i64::from(initial);
                    }
                    if sem.count > 0 {
                        sem.count -= 1;
                        out.push(Outcome::Complete { core });
                    } else {
                        sem.waiters.push_back(core);
                    }
                } else {
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        overflow: false,
                    });
                }
            }
            SyncRequest::SemPost { .. } => {
                if unit == master || direct {
                    let sem = engine.vars.master_sem_mut(slot);
                    // Whichever operation touches the semaphore first initializes
                    // it: a post must mark it initialized so a later wait's
                    // `initial` cannot clobber banked posts (post-before-wait is
                    // how the open-loop deque workload stays deadlock-free).
                    sem.initialized = true;
                    if let Some(next) = sem.waiters.pop_front() {
                        out.push(Outcome::Complete { core: next });
                    } else {
                        sem.count += 1;
                    }
                } else {
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        overflow: false,
                    });
                }
            }
            SyncRequest::CondWait { var, lock } => {
                if unit == master || direct {
                    let mc = engine.vars.master_cond_mut(slot);
                    if coalescing && mc.pending > 0 {
                        // A banked signal wakes this waiter immediately: the atomic
                        // release-and-wait followed by the instant wake-and-reacquire
                        // collapses to the core simply keeping the associated lock.
                        mc.pending -= 1;
                        let pending = mc.pending;
                        engine.signals.record_consumed();
                        mirror_cond_state(engine, slot, var, Some(lock), pending);
                        out.push(Outcome::Complete { core });
                    } else {
                        mc.waiters.push_back((core, lock));
                        let pending = mc.pending;
                        mirror_cond_state(engine, slot, var, Some(lock), pending);
                        // cond_wait atomically releases the associated lock on behalf
                        // of the waiting core.
                        out.push(Outcome::Inject {
                            core,
                            req: SyncRequest::LockRelease { var: lock },
                        });
                    }
                } else {
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        overflow: false,
                    });
                }
            }
            SyncRequest::CondSignal { var } => {
                if unit == master || direct {
                    let streak_idx = core.flat_index(cores_per_unit);
                    let mc = engine.vars.master_cond_mut(slot);
                    if let Some((woken, lock)) = mc.waiters.pop_front() {
                        // The woken core re-acquires the lock; its cond_wait completes
                        // when the lock is granted to it.
                        engine.signals.record_delivered();
                        out.push(Outcome::Inject {
                            core: woken,
                            req: SyncRequest::LockAcquire { var: lock },
                        });
                        if coalescing {
                            engine.reset_streak(streak_idx);
                            out.push(Outcome::Complete { core });
                        }
                    } else if coalescing {
                        if mc.pending < u64::from(pending_cap) {
                            // Bank the signal for the next cond_wait and ACK the
                            // signaler.
                            mc.pending += 1;
                            let pending = mc.pending;
                            // The cap is a u16, so the banked count always fits.
                            engine.signals.record_coalesced(pending as u16);
                            mirror_cond_state(engine, slot, var, None, pending);
                            engine.reset_streak(streak_idx);
                            out.push(Outcome::Complete { core });
                        } else {
                            // Pending count at its cap: NACK the signaler with an
                            // exponentially growing backoff delay.
                            engine.signals.record_nacked();
                            let delay = config.backoff_delay(engine.bump_streak(streak_idx));
                            out.push(Outcome::Nack { core, delay });
                        }
                    }
                } else {
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        overflow: false,
                    });
                }
            }
            SyncRequest::CondBroadcast { .. } => {
                if unit == master || direct {
                    let mc = engine.vars.master_cond_mut(slot);
                    for (woken, lock) in mc.waiters.drain(..) {
                        out.push(Outcome::Inject {
                            core: woken,
                            req: SyncRequest::LockAcquire { var: lock },
                        });
                    }
                } else {
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::CoreReq {
                            core,
                            req,
                            direct: true,
                            fallback: false,
                        },
                        overflow: false,
                    });
                }
            }
        }
    }

    fn process_global(
        &mut self,
        unit: UnitId,
        slot: usize,
        master: UnitId,
        msg: EngineMsg,
        out: &mut Vec<Outcome>,
    ) {
        let engine = &mut self.engines[unit.index()];
        match msg {
            EngineMsg::LockAcquireGlobal { from, var } => {
                master_lock_acquire(engine, slot, var, Grantee::Unit(from), &mut *out);
            }
            EngineMsg::LockReleaseGlobal { from, var } => {
                master_lock_release(engine, slot, var, Grantee::Unit(from), &mut *out);
            }
            EngineMsg::LockGrantGlobal { var } => {
                let ll = engine.vars.local_lock_mut(slot);
                ll.has_ownership = true;
                ll.pending_global = false;
                ll.local_grants = 0;
                let (holder_none, has_waiters) = (ll.holder.is_none(), !ll.waiters.is_empty());
                if holder_none && has_waiters {
                    grant_local_lock(engine, slot, var, &mut *out);
                } else if holder_none {
                    // A grant with no local waiter left to serve (the waiters were
                    // redirected to the master while the request was in flight):
                    // hand the ownership straight back instead of stranding the lock
                    // on a unit that will never release it.
                    engine.vars.remove_local_lock(slot);
                    engine.st.release(Time::ZERO, var);
                    out.push(Outcome::Send {
                        to: master,
                        msg: EngineMsg::LockReleaseGlobal { from: unit, var },
                        overflow: false,
                    });
                }
            }
            EngineMsg::BarrierArriveGlobal {
                from,
                var,
                count,
                participants,
            } => {
                let mb = engine.vars.master_barrier_mut(slot);
                mb.participants = participants;
                mb.arrived += count;
                if !mb.arrived_units.contains(&from) {
                    mb.arrived_units.push(from);
                }
                if mb.arrived >= participants {
                    finish_master_barrier(engine, slot, var, &mut *out);
                }
            }
            EngineMsg::BarrierDepartGlobal { var } => {
                if engine.vars.local_barrier_ref(slot).is_some() {
                    engine.st.release(Time::ZERO, var);
                    let lb = engine.vars.local_barrier_mut(slot);
                    for w in lb.waiters.drain(..) {
                        out.push(Outcome::Complete { core: w });
                    }
                    engine.vars.remove_local_barrier(slot);
                }
            }
            EngineMsg::McsEnqueue { core, seq, var } => {
                mcs_master_enqueue(engine, slot, var, core, seq, &mut *out);
            }
            EngineMsg::McsLink {
                pred,
                pred_seq,
                succ,
                var,
            } => {
                debug_assert_eq!(pred.unit, unit, "MCS link delivered off the pred's engine");
                let nodes = engine.vars.mcs_nodes_mut(slot);
                if let Some(granted) = nodes.link(pred.core.index(), pred_seq, succ) {
                    // The predecessor had already released: the link completes the
                    // handoff to the successor directly.
                    out.push(Outcome::Complete { core: granted });
                    mcs_cleanup_nodes(engine, slot, var);
                }
            }
            EngineMsg::McsReleaseTail { core, seq, var } => {
                mcs_master_release_tail(engine, slot, var, core, seq, &mut *out);
            }
            EngineMsg::McsNodeFree { core, seq, var } => {
                debug_assert_eq!(
                    core.unit, unit,
                    "MCS node-free delivered off the waiter's engine"
                );
                let nodes = engine.vars.mcs_nodes_mut(slot);
                if nodes.reap(core.core.index(), seq) {
                    mcs_cleanup_nodes(engine, slot, var);
                }
            }
            EngineMsg::CoreReq { .. } => unreachable!("core requests use process_core_request"),
        }
    }

    fn apply_outcomes(
        &mut self,
        ctx: &mut dyn SyncContext,
        at: Time,
        unit: UnitId,
        outcomes: &mut Vec<Outcome>,
    ) {
        for outcome in outcomes.drain(..) {
            match outcome {
                Outcome::Complete { core } => self.complete_core(ctx, at, unit, core),
                Outcome::Nack { core, delay } => {
                    // The NACK reply travels now; the core stalls for the delay hint
                    // it carries before resuming.
                    self.complete_core(ctx, at + delay, unit, core)
                }
                Outcome::Send { to, msg, overflow } => {
                    self.send_engine_msg(ctx, at, unit, to, msg, overflow)
                }
                Outcome::Inject { core, req } => self.route_request(ctx, at, unit, core, req),
                Outcome::MisarAbortBroadcast => {
                    // Abort messages to every core of the unit, and matching
                    // acknowledgements once the cores switch to the fallback solution.
                    for _ in 0..self.config.cores_per_unit {
                        ctx.local_hop(unit, Self::local_bytes());
                        self.stats.local_messages += 1;
                    }
                }
                Outcome::MisarSwitchBack { core } => {
                    ctx.local_hop(core.unit, Self::local_bytes());
                    self.stats.local_messages += 1;
                }
            }
        }
    }

    /// Re-routes every lock waiter tracked in hardware for `var` to the MiSAR fallback
    /// server at `fallback_unit`, emulating the abort/retry of the software fallback
    /// (Section 6.7.3). Holders keep the lock; their releases are redirected by the
    /// sticky fallback set.
    fn misar_drain_lock_waiters(
        &mut self,
        ctx: &mut dyn SyncContext,
        at: Time,
        var: Addr,
        fallback_unit: UnitId,
    ) {
        let mut displaced: Vec<GlobalCoreId> = Vec::new();
        for engine in &mut self.engines {
            let Some(slot) = engine.vars.lookup(var) else {
                continue;
            };
            let slot = slot as usize;
            if engine.vars.local_lock(slot).is_some() {
                let ll = engine.vars.local_lock_mut(slot);
                displaced.extend(ll.waiters.drain(..));
                engine.vars.remove_local_lock(slot);
                engine.st.release(Time::ZERO, var);
            }
            if engine.vars.master_lock_ref(slot).is_some() {
                let ml = engine.vars.master_lock_mut(slot);
                for grantee in ml.waiting.drain(..) {
                    if let Grantee::Core(c) = grantee {
                        displaced.push(c);
                    }
                    // Unit-level waiters are covered by draining that unit's local
                    // waiter queue above.
                }
                engine.vars.remove_master_lock(slot);
                engine.st.release(Time::ZERO, var);
            }
            engine.vars.release_if_unused(slot as u32);
        }
        for core in displaced {
            self.send_engine_msg(
                ctx,
                at,
                core.unit,
                fallback_unit,
                EngineMsg::CoreReq {
                    core,
                    req: SyncRequest::LockAcquire { var },
                    direct: true,
                    fallback: true,
                },
                true,
            );
        }
    }

    /// Routes a request on behalf of `core` to the engine that serves it under the
    /// configured topology, charging the message hop from `origin` (the core's unit
    /// when the core itself issues the request, or the engine that generated an
    /// internal request on the core's behalf).
    fn route_request(
        &mut self,
        ctx: &mut dyn SyncContext,
        at: Time,
        origin: UnitId,
        core: GlobalCoreId,
        req: SyncRequest,
    ) {
        let (dest, direct) = match self.policy.topology(req.var()) {
            Topology::Hierarchical => (core.unit, false),
            Topology::Flat => (self.master_of(ctx, req.var()), true),
        };
        let msg = EngineMsg::CoreReq {
            core,
            req,
            direct,
            fallback: false,
        };
        if origin != dest {
            self.stats.global_messages += 1;
            ctx.send_remote(
                at,
                origin,
                dest,
                Self::global_bytes(),
                RemotePayload(PayloadKind::Msg { to: dest, msg }),
            );
            return;
        }
        self.schedule_msg(ctx, at, dest, msg);
    }
}

/// Mirrors the condition-variable state (associated lock, coalesced pending-signal
/// count) into wherever the engine keeps the variable: the ST entry buffering `var`
/// when one exists (Master SE with the SynCron backend), otherwise the in-memory
/// `syncronVar` image — which is where server-core backends and SynCron's overflow
/// path hold their state, using the packed `VarInfo` layout of
/// [`SyncronVar::set_cond_info`].
fn mirror_cond_state(
    engine: &mut Engine,
    slot: usize,
    var: Addr,
    lock: Option<Addr>,
    pending: u64,
) {
    // The component keeps a u64 (shared with the uncapped Ideal mechanism); the
    // protocol bounds it by its u16 pending-signal cap, so the mirror is lossless.
    let pending = pending as u16;
    if let Some(entry) = engine.st.lookup_mut(var) {
        if let TableInfo::CondLock {
            lock: entry_lock,
            pending_signals,
        } = &mut entry.info
        {
            if let Some(lock) = lock {
                *entry_lock = lock;
            }
            *pending_signals = pending;
        }
        return;
    }
    let (units, cores_per_unit) = (engine.units, engine.cores_per_unit);
    let image = engine
        .vars
        .syncron_var_entry(slot)
        .get_or_insert_with(|| Box::new(SyncronVar::with_geometry(var, units, cores_per_unit)));
    let lock = lock.unwrap_or_else(|| image.cond_lock());
    image.set_cond_info(lock, pending);
}

fn grant_local_lock(engine: &mut Engine, slot: usize, var: Addr, out: &mut Vec<Outcome>) {
    debug_assert!(engine.vars.local_lock(slot).is_some(), "local lock state");
    let ll = engine.vars.local_lock_mut(slot);
    if let Some(next) = ll.waiters.pop_front() {
        ll.holder = Some(next);
        ll.local_grants += 1;
        if let Some(e) = engine.st.lookup_mut(var) {
            e.local_waitlist.clear(next.core.index());
        }
        out.push(Outcome::Complete { core: next });
    }
}

fn master_lock_acquire(
    engine: &mut Engine,
    slot: usize,
    var: Addr,
    who: Grantee,
    out: &mut Vec<Outcome>,
) {
    let ml = engine.vars.master_lock_mut(slot);
    if ml.owner.is_none() {
        ml.owner = Some(who);
        match who {
            Grantee::Unit(u) => out.push(Outcome::Send {
                to: u,
                msg: EngineMsg::LockGrantGlobal { var },
                overflow: false,
            }),
            Grantee::Core(c) => out.push(Outcome::Complete { core: c }),
        }
    } else {
        ml.waiting.push_back(who);
        if let (Some(e), Grantee::Unit(u)) = (engine.st.lookup_mut(var), who) {
            e.global_waitlist.set(u.index());
        }
    }
}

fn master_lock_release(
    engine: &mut Engine,
    slot: usize,
    var: Addr,
    _who: Grantee,
    out: &mut Vec<Outcome>,
) {
    let ml = engine.vars.master_lock_mut(slot);
    ml.owner = None;
    if let Some(next) = ml.waiting.pop_front() {
        ml.owner = Some(next);
        if let (Some(e), Grantee::Unit(u)) = (engine.st.lookup_mut(var), next) {
            e.global_waitlist.clear(u.index());
        }
        match next {
            Grantee::Unit(u) => out.push(Outcome::Send {
                to: u,
                msg: EngineMsg::LockGrantGlobal { var },
                overflow: false,
            }),
            Grantee::Core(c) => out.push(Outcome::Complete { core: c }),
        }
    } else {
        engine.vars.remove_master_lock(slot);
        engine.st.release(Time::ZERO, var);
    }
}

fn finish_master_barrier(engine: &mut Engine, slot: usize, var: Addr, out: &mut Vec<Outcome>) {
    debug_assert!(
        engine.vars.master_barrier_ref(slot).is_some(),
        "barrier state"
    );
    engine.st.release(Time::ZERO, var);
    let mb = engine.vars.master_barrier_mut(slot);
    for u in mb.arrived_units.drain(..) {
        out.push(Outcome::Send {
            to: u,
            msg: EngineMsg::BarrierDepartGlobal { var },
            overflow: false,
        });
    }
    for c in mb.direct_waiters.drain(..) {
        out.push(Outcome::Complete { core: c });
    }
    engine.vars.remove_master_barrier(slot);
}

/// MCS master: swaps node instance `(core, seq)` into the tail pointer. A free
/// lock grants immediately; otherwise the previous tail's engine is told to
/// link the new waiter behind it.
fn mcs_master_enqueue(
    engine: &mut Engine,
    slot: usize,
    var: Addr,
    core: GlobalCoreId,
    seq: u32,
    out: &mut Vec<Outcome>,
) {
    let tail = engine.vars.mcs_tail_mut(slot);
    match tail.tail.replace((core, seq)) {
        None => out.push(Outcome::Complete { core }),
        Some((prev, prev_seq)) => out.push(Outcome::Send {
            to: prev.unit,
            msg: EngineMsg::McsLink {
                pred: prev,
                pred_seq: prev_seq,
                succ: core,
                var,
            },
            overflow: false,
        }),
    }
}

/// MCS master: a holder with no linked successor asks to swap the tail back to
/// free. Valid only while instance `(core, seq)` is still the tail — otherwise a
/// successor enqueued meanwhile and the in-flight link performs the handoff, so
/// the stale request is ignored.
fn mcs_master_release_tail(
    engine: &mut Engine,
    slot: usize,
    var: Addr,
    core: GlobalCoreId,
    seq: u32,
    out: &mut Vec<Outcome>,
) {
    let is_tail = engine
        .vars
        .mcs_tail_ref(slot)
        .is_some_and(|t| t.tail == Some((core, seq)));
    if is_tail {
        engine.vars.remove_mcs_tail(slot);
        engine.st.release(Time::ZERO, var);
        out.push(Outcome::Send {
            to: core.unit,
            msg: EngineMsg::McsNodeFree { core, seq, var },
            overflow: false,
        });
    }
}

/// Frees the waiter-side MCS node component (and its ST entry) once the last
/// node instance for `var` at this engine is gone.
fn mcs_cleanup_nodes(engine: &mut Engine, slot: usize, var: Addr) {
    if engine
        .vars
        .mcs_nodes_ref(slot)
        .is_some_and(|n| n.active == 0)
    {
        engine.vars.remove_mcs_nodes(slot);
        engine.st.release(Time::ZERO, var);
    }
}

impl SyncMechanism for ProtocolMechanism {
    fn name(&self) -> &'static str {
        self.config.params.kind.name()
    }

    fn blocks_core(&self, req: &SyncRequest) -> bool {
        // With signal coalescing every cond_signal is ACK/NACKed, so the signaling
        // core stalls until the (possibly backoff-delayed) reply arrives.
        req.is_blocking()
            || (self.config.params.signal_coalescing
                && matches!(req, SyncRequest::CondSignal { .. }))
    }

    fn request(&mut self, ctx: &mut dyn SyncContext, core: GlobalCoreId, req: SyncRequest) {
        self.stats.requests += 1;
        if req.is_acquire_type() {
            self.stats.acquire_requests += 1;
        }
        // The core's request always traverses its local crossbar to reach the network
        // interface of its unit.
        let now = ctx.now();
        let local = ctx.local_hop(core.unit, Self::local_bytes());
        self.stats.local_messages += 1;
        self.route_request(ctx, now + local, core.unit, core, req);
    }

    fn deliver(&mut self, ctx: &mut dyn SyncContext, token: u64) {
        // Slab slots are reused, so a token that resolves to a dead slot is no
        // longer a harmless stray — it means a message was double-delivered (and
        // its slot possibly already re-issued to an unrelated message). Fail
        // loudly instead of silently dropping or mis-routing it.
        let batch = match self.pending.get_mut(token as usize) {
            Some(batch) if batch.live => batch,
            _ => panic!(
                "protocol message token {token} delivered with no pending event: \
                 double delivery or a token scheduled outside schedule_msg"
            ),
        };
        batch.live = false;
        let unit = batch.unit;
        let first = batch.first;
        // Swap any merged follow-up messages into the reusable scratch buffer so
        // the mechanism can be borrowed mutably while walking them; the slot
        // gets the (empty) previous scratch vector back and returns to the free
        // list.
        debug_assert!(self.batch_scratch.is_empty());
        std::mem::swap(&mut self.batch_scratch, &mut batch.rest);
        self.pending_free.push(token as u32);
        // The open batch must be closed *before* processing: a message scheduled
        // during processing could otherwise append to this already-delivered
        // token and be lost.
        if self
            .open_batch
            .is_some_and(|open| open.token == token as u32)
        {
            self.open_batch = None;
        }
        // Batched messages were scheduled back to back for the same timestamp,
        // so walking them here is exactly the pop order the unbatched queue
        // would have produced (`EngineMsg` is `Copy`; indexing sidesteps the
        // borrow of `self`).
        self.deliver_one(ctx, unit, first);
        for i in 0..self.batch_scratch.len() {
            let msg = self.batch_scratch[i];
            self.deliver_one(ctx, unit, msg);
        }
        self.batch_scratch.clear();
    }

    fn deliver_remote(&mut self, ctx: &mut dyn SyncContext, payload: RemotePayload) {
        // Running at the arrival time on the destination unit's shard: the
        // send-side legs (source crossbar, inter-unit link) and the message
        // statistics were charged by `send_remote`'s caller; only the
        // receive-side crossbar hop remains.
        match payload.0 {
            PayloadKind::Msg { to, msg } => {
                let at = ctx.now() + ctx.recv_hop(to, Self::global_bytes());
                self.schedule_msg(ctx, at, to, msg);
            }
            PayloadKind::Complete { core } => {
                let t = ctx.now()
                    + ctx.recv_hop(core.unit, Self::global_bytes())
                    + ctx.local_hop(core.unit, Self::local_bytes());
                self.stats.local_messages += 1;
                self.stats.completions += 1;
                ctx.complete(core, t);
            }
        }
    }

    fn st_unit_occupancy(&self, end: Time, unit: usize) -> Option<(f64, f64)> {
        if self.config.backend != EngineBackend::SyncronSe {
            return None;
        }
        let e = self.engines.get(unit)?;
        Some((e.st.avg_occupancy(end), e.st.max_occupancy()))
    }

    fn stats(&self, end: Time) -> SyncMechanismStats {
        let mut stats = self.stats;
        for e in &self.engines {
            stats.delivered_signals += e.signals.delivered();
            stats.coalesced_signals += e.signals.coalesced();
            stats.consumed_signals += e.signals.consumed();
            stats.signal_nacks += e.signals.nacked();
            stats.max_pending_signals = stats
                .max_pending_signals
                .max(u64::from(e.signals.max_pending()));
        }
        if self.config.backend == EngineBackend::SyncronSe && !self.engines.is_empty() {
            let mut max = 0.0f64;
            let mut avg_sum = 0.0f64;
            for e in &self.engines {
                max = max.max(e.st.max_occupancy());
                avg_sum += e.st.avg_occupancy(end);
            }
            stats.st_max_occupancy = max;
            stats.st_avg_occupancy = avg_sum / self.engines.len() as f64;
        }
        stats
    }
}

impl ProtocolMechanism {
    /// Processes one message at engine `unit` at the current time.
    fn deliver_one(&mut self, ctx: &mut dyn SyncContext, unit: UnitId, msg: EngineMsg) {
        // The one compact `addr -> slot` resolution of this message; every
        // subsequent component-table touch indexes the columns densely.
        let slot = self.engines[unit.index()].vars.resolve(msg.var());
        if self.deliver_one_slot(ctx, unit, msg, slot as usize) {
            // Recycle the slot if this message left the variable with no state
            // at this engine (forward-only hops, completed barriers, released
            // locks).
            self.engines[unit.index()].vars.release_if_unused(slot);
        }
    }

    /// Processes one message whose variable is already resolved to `slot`.
    ///
    /// Returns `true` when the caller still owes the trailing
    /// `release_if_unused(slot)` (the normal path) and `false` when the
    /// message consumed the slot itself (redirect paths).
    fn deliver_one_slot(
        &mut self,
        ctx: &mut dyn SyncContext,
        unit: UnitId,
        msg: EngineMsg,
        slot: usize,
    ) -> bool {
        let now = ctx.now();
        let var = msg.var();
        let kind = msg.primitive();

        // Resolve ST / overflow state (SynCron backends only).
        let (mut use_memory, redirect) = match msg {
            EngineMsg::CoreReq {
                req,
                direct,
                fallback,
                ..
            } => {
                if fallback {
                    (false, false)
                } else if !direct && self.is_partial_barrier_forward(ctx, unit, &req) {
                    // Partial across-unit barrier arriving at a non-master SE: the
                    // request is forwarded to the Master SE untouched (one-level
                    // communication), so the local SE neither buffers the variable
                    // in its ST nor updates its indexing counters — allocating an
                    // entry per arrival only to drop it again would churn the
                    // occupancy/allocation statistics of Table 7.
                    (false, false)
                } else {
                    let counter_action = if req.is_acquire_type() { 1 } else { -1 };
                    // Redirected (direct) requests were already counted by the SE that
                    // first overflowed.
                    let count_stat = req.is_acquire_type()
                        && !(direct && self.policy.topology(var) == Topology::Hierarchical);
                    let (mem, redir) =
                        self.st_resolve(ctx, now, unit, var, kind, counter_action, count_stat);
                    // Direct requests reaching the master during overflow are serviced
                    // via memory rather than redirected again. MCS lock requests are
                    // never redirected either: the queue nodes are bound to the
                    // requester's engine, so an overflowed variable spills its node
                    // state to memory in place instead of moving the queue.
                    let queue_bound = kind == PrimitiveKind::Lock
                        && self.policy.lock_variant() == LockVariant::McsQueue;
                    if redir && (direct || queue_bound) {
                        (true, false)
                    } else {
                        (mem, redir)
                    }
                }
            }
            _ => {
                let (mem, _) = self.st_resolve(ctx, now, unit, var, kind, 0, false);
                (mem, false)
            }
        };

        if redirect {
            // The engine could not track the variable: hand the request over.
            if let EngineMsg::CoreReq { core, req, .. } = msg {
                match self.config.params.overflow_mode {
                    OverflowMode::Integrated => {
                        let master = self.master_of(ctx, var);
                        self.send_engine_msg(
                            ctx,
                            now,
                            unit,
                            master,
                            EngineMsg::CoreReq {
                                core,
                                req,
                                direct: true,
                                fallback: false,
                            },
                            true,
                        );
                    }
                    OverflowMode::MiSarCentral | OverflowMode::MiSarDistributed => {
                        let fallback_unit = match self.config.params.overflow_mode {
                            OverflowMode::MiSarCentral => UnitId(0),
                            _ => ctx.home_unit(var),
                        };
                        let first = self.engines[unit.index()].vars.claim_misar_abort(slot);
                        let mut outcomes = Vec::new();
                        if first {
                            outcomes.push(Outcome::MisarAbortBroadcast);
                        }
                        outcomes.push(Outcome::MisarSwitchBack { core });
                        self.apply_outcomes(ctx, now, unit, &mut outcomes);
                        // The abort notification reaches the core, which switches to
                        // the software fallback and re-issues the request from there.
                        let abort_delivery = ctx.local_hop(unit, Self::local_bytes());
                        self.stats.local_messages += 1;
                        let switch_overhead = Freq::ghz(2.5).cycles_to_ps(100);
                        let retry_at = now + abort_delivery + switch_overhead;
                        if first {
                            // The aborted cores retry through the fallback server:
                            // every waiter queued in hardware for this variable is
                            // re-routed so that no grant is lost during the switch.
                            self.misar_drain_lock_waiters(ctx, retry_at, var, fallback_unit);
                        }
                        self.send_engine_msg(
                            ctx,
                            retry_at,
                            unit,
                            fallback_unit,
                            EngineMsg::CoreReq {
                                core,
                                req,
                                direct: true,
                                fallback: true,
                            },
                            true,
                        );
                    }
                }
                // Redirected requests leave no state here (the MiSAR abort flag,
                // when set, pins the slot); recycle it otherwise. The MiSAR
                // drain above may also have released slots across engines, so
                // the slot handed in is dead either way.
                self.engines[unit.index()]
                    .vars
                    .release_if_unused(slot as u32);
                return false;
            }
            // Global messages are never redirected; fall through and service via memory.
            use_memory = true;
        }

        let fallback = matches!(msg, EngineMsg::CoreReq { fallback: true, .. });
        let service = self.service_time(ctx, unit, var, use_memory, fallback);
        let start = self.engines[unit.index()].busy.acquire(now, service);
        let done = start + service;

        let mut outcomes = std::mem::take(&mut self.outcome_scratch);
        debug_assert!(outcomes.is_empty());
        match msg {
            EngineMsg::CoreReq {
                core, req, direct, ..
            } => self.process_core_request(
                unit,
                slot,
                ctx,
                core,
                req,
                direct || fallback,
                &mut outcomes,
            ),
            other => {
                let master = self.master_of(ctx, var);
                self.process_global(unit, slot, master, other, &mut outcomes)
            }
        }
        self.apply_outcomes(ctx, done, unit, &mut outcomes);
        outcomes.clear();
        self.outcome_scratch = outcomes;
        // Adaptive policies watch master-side lock contention: the global
        // waiting-queue depth after this message is the signal. Only lock
        // traffic feeds the probe (the depth is 0 off the master, where the
        // component is absent), so barrier rounds never see their topology
        // change mid-round.
        if kind == PrimitiveKind::Lock && self.policy.observes_contention() {
            let depth = self.engines[unit.index()].vars.master_lock_depth(slot);
            self.policy.observe_contention(var, depth);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{build_mechanism, MechanismParams};
    use syncron_sim::event::EventQueue;
    use syncron_sim::{CoreId, UnitId};

    /// A miniature NDP system used to drive mechanisms in isolation: fixed hop and
    /// memory latencies, FIFO event delivery, and a record of completions.
    struct Harness {
        mech: Box<dyn SyncMechanism>,
        ctx: HarnessCtx,
    }

    struct HarnessCtx {
        now: Time,
        queue: EventQueue<u64>,
        /// Remote payloads in flight, delivered interleaved with the token
        /// queue in arrival-time order (the machine's sharded mailboxes,
        /// collapsed to one queue).
        inbox: EventQueue<RemotePayload>,
        completed: Vec<(GlobalCoreId, Time)>,
        local_hops: u64,
        remote_hops: u64,
        mem_accesses: u64,
    }

    impl SyncContext for HarnessCtx {
        fn now(&self) -> Time {
            self.now
        }
        fn schedule(&mut self, at: Time, _unit: UnitId, token: u64) {
            self.queue.push(at, token);
        }
        fn schedule_stamp(&self) -> Option<u64> {
            // The harness pushes nothing but mechanism tokens, so the queue's
            // push count is the system-wide count: batching is active in these
            // tests exactly as it is under the full machine.
            Some(self.queue.scheduled_total())
        }
        fn local_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
            self.local_hops += 1;
            Time::from_ns(2)
        }
        fn send_remote(&mut self, at: Time, _f: UnitId, _t: UnitId, _bytes: u64, p: RemotePayload) {
            // One flat 40 ns for the whole remote journey, charged at the send
            // side; `recv_hop` is free so end-to-end latencies match the old
            // single-call hop model these tests were written against.
            self.remote_hops += 1;
            self.inbox.push(at + Time::from_ns(40), p);
        }
        fn recv_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
            Time::ZERO
        }
        fn sync_mem_access(&mut self, _u: UnitId, _a: Addr, _w: bool, _c: bool) -> Time {
            self.mem_accesses += 1;
            Time::from_ns(20)
        }
        fn home_unit(&self, addr: Addr) -> UnitId {
            UnitId(((addr.value() >> 22) % 4) as u8)
        }
        fn complete(&mut self, core: GlobalCoreId, at: Time) {
            self.completed.push((core, at));
        }
        fn units(&self) -> usize {
            4
        }
        fn cores_per_unit(&self) -> usize {
            16
        }
    }

    impl HarnessCtx {
        /// Delivers the earliest pending item (scheduled token or in-flight
        /// remote payload); returns `false` when both queues are empty.
        fn drive(&mut self, mech: &mut dyn SyncMechanism) -> bool {
            let token_at = self.queue.peek_time();
            let remote_at = self.inbox.peek_time();
            match (token_at, remote_at) {
                (None, None) => false,
                (Some(t), r) if r.is_none_or(|r| t <= r) => {
                    let (at, token) = self.queue.pop().unwrap();
                    self.now = self.now.max(at);
                    mech.deliver(self, token);
                    true
                }
                _ => {
                    let (at, payload) = self.inbox.pop().unwrap();
                    self.now = self.now.max(at);
                    mech.deliver_remote(self, payload);
                    true
                }
            }
        }
    }

    impl Harness {
        fn new(kind: MechanismKind) -> Self {
            Harness::with_params(MechanismParams::new(kind))
        }

        fn with_params(params: MechanismParams) -> Self {
            Harness {
                mech: build_mechanism(&params, 4, 16),
                ctx: bare_ctx(),
            }
        }

        fn request(&mut self, core: GlobalCoreId, req: SyncRequest) {
            self.mech.request(&mut self.ctx, core, req);
            self.drain();
        }

        fn drain(&mut self) {
            while self.ctx.drive(self.mech.as_mut()) {}
        }

        fn completed(&self) -> &[(GlobalCoreId, Time)] {
            &self.ctx.completed
        }
    }

    fn core(u: u8, c: u8) -> GlobalCoreId {
        GlobalCoreId::new(UnitId(u), CoreId(c))
    }

    /// The 4x16 protocol configuration of `kind` at default parameters.
    fn config_4x16(kind: MechanismKind) -> ProtocolConfig {
        ProtocolConfig::new(MechanismParams::new(kind), 4, 16)
    }

    fn lock_var() -> Addr {
        // Homed in unit 1 for the harness's home_unit function.
        Addr(1 << 22)
    }

    fn exercise_lock_mutual_exclusion(kind: MechanismKind) {
        let mut h = Harness::new(kind);
        let var = lock_var();
        let cores = [core(0, 0), core(0, 1), core(1, 0), core(2, 5), core(3, 2)];
        for &c in &cores {
            h.request(c, SyncRequest::LockAcquire { var });
        }
        // Exactly one acquisition is granted before any release.
        assert_eq!(h.completed().len(), 1, "{kind:?}");
        let mut held = h.completed()[0].0;
        let mut order = vec![held];
        for _ in 0..cores.len() - 1 {
            h.request(held, SyncRequest::LockRelease { var });
            let newly = h
                .completed()
                .last()
                .copied()
                .expect("a grant follows a release");
            assert_ne!(newly.0, held, "{kind:?}: release granted back to holder");
            held = newly.0;
            order.push(held);
        }
        h.request(held, SyncRequest::LockRelease { var });
        // Every core acquired the lock exactly once.
        let mut sorted: Vec<_> = order.iter().map(|c| c.flat_index(16)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            cores.len(),
            "{kind:?}: duplicate grants {order:?}"
        );
    }

    #[test]
    fn lock_mutual_exclusion_all_mechanisms() {
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
            MechanismKind::SynCronFlat,
        ] {
            exercise_lock_mutual_exclusion(kind);
        }
    }

    #[test]
    fn syncron_prefers_local_grants() {
        // Two cores of unit 1 (the variable's home) and one core of unit 3 compete.
        // After the first local release, the lock should be handed to the other local
        // waiter before leaving the unit.
        let mut h = Harness::new(MechanismKind::SynCron);
        let var = lock_var();
        h.request(core(1, 0), SyncRequest::LockAcquire { var });
        h.request(core(1, 1), SyncRequest::LockAcquire { var });
        h.request(core(3, 0), SyncRequest::LockAcquire { var });
        assert_eq!(h.completed().len(), 1);
        assert_eq!(h.completed()[0].0, core(1, 0));
        h.request(core(1, 0), SyncRequest::LockRelease { var });
        assert_eq!(h.completed()[1].0, core(1, 1), "local waiter served first");
        h.request(core(1, 1), SyncRequest::LockRelease { var });
        assert_eq!(h.completed()[2].0, core(3, 0));
        h.request(core(3, 0), SyncRequest::LockRelease { var });
    }

    #[test]
    fn fairness_threshold_hands_lock_to_other_unit() {
        let params = MechanismParams::new(MechanismKind::SynCron).with_fairness_threshold(1);
        let mut h = Harness::with_params(params);
        let var = lock_var();
        h.request(core(1, 0), SyncRequest::LockAcquire { var });
        h.request(core(1, 1), SyncRequest::LockAcquire { var });
        h.request(core(3, 0), SyncRequest::LockAcquire { var });
        assert_eq!(h.completed()[0].0, core(1, 0));
        // Threshold of 1 consecutive local grant: on release the lock must go to the
        // waiting remote unit even though a local waiter exists.
        h.request(core(1, 0), SyncRequest::LockRelease { var });
        assert_eq!(
            h.completed()[1].0,
            core(3, 0),
            "fairness hand-off to unit 3"
        );
        h.request(core(3, 0), SyncRequest::LockRelease { var });
        assert_eq!(h.completed()[2].0, core(1, 1));
        h.request(core(1, 1), SyncRequest::LockRelease { var });
    }

    #[test]
    fn full_system_barrier_releases_everyone() {
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
            MechanismKind::SynCronFlat,
        ] {
            let mut h = Harness::new(kind);
            let var = Addr(2 << 22);
            let total = 64u32;
            for u in 0..4u8 {
                for c in 0..16u8 {
                    h.request(
                        core(u, c),
                        SyncRequest::BarrierWait {
                            var,
                            participants: total,
                            scope: BarrierScope::AcrossUnits,
                        },
                    );
                }
            }
            assert_eq!(h.completed().len(), 64, "{kind:?}");
        }
    }

    #[test]
    fn partial_barrier_uses_one_level_and_completes() {
        let mut h = Harness::new(MechanismKind::SynCron);
        let var = Addr(2 << 22);
        // 6 participants spread over 3 units (fewer than the 64 total cores).
        let participants = [
            core(0, 0),
            core(0, 1),
            core(1, 0),
            core(1, 1),
            core(2, 0),
            core(2, 1),
        ];
        for &c in &participants {
            h.request(
                c,
                SyncRequest::BarrierWait {
                    var,
                    participants: participants.len() as u32,
                    scope: BarrierScope::AcrossUnits,
                },
            );
        }
        assert_eq!(h.completed().len(), participants.len());
    }

    #[test]
    fn within_unit_barrier_stays_local() {
        let mut h = Harness::new(MechanismKind::SynCron);
        let var = Addr(3 << 22);
        for c in 0..8u8 {
            h.request(
                core(2, c),
                SyncRequest::BarrierWait {
                    var,
                    participants: 8,
                    scope: BarrierScope::WithinUnit,
                },
            );
        }
        assert_eq!(h.completed().len(), 8);
        // A within-unit barrier at unit 2 for a variable homed at unit 1 never needs a
        // remote hop under SynCron.
        assert_eq!(h.ctx.remote_hops, 0);
    }

    #[test]
    fn semaphore_grants_match_resources() {
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
        ] {
            let mut h = Harness::new(kind);
            let var = Addr(1 << 22);
            for c in 0..4u8 {
                h.request(core(0, c), SyncRequest::SemWait { var, initial: 2 });
            }
            assert_eq!(h.completed().len(), 2, "{kind:?}");
            h.request(core(0, 0), SyncRequest::SemPost { var });
            h.request(core(0, 1), SyncRequest::SemPost { var });
            assert_eq!(h.completed().len(), 4, "{kind:?}");
        }
    }

    #[test]
    fn posts_before_the_first_wait_are_banked_not_clobbered() {
        // Post-before-wait is the deadlock-freedom invariant of the open-loop
        // deque workload: the first post initializes the semaphore, so the first
        // wait's `initial` must not reset the banked count.
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
        ] {
            let mut h = Harness::new(kind);
            let var = Addr(1 << 22);
            h.request(core(0, 0), SyncRequest::SemPost { var });
            h.request(core(0, 1), SyncRequest::SemPost { var });
            h.request(core(0, 0), SyncRequest::SemWait { var, initial: 0 });
            h.request(core(0, 1), SyncRequest::SemWait { var, initial: 0 });
            // Both waits consume the banked posts and complete immediately.
            assert_eq!(h.completed().len(), 2, "{kind:?}");
        }
    }

    #[test]
    fn condvar_signal_and_broadcast() {
        let mut h = Harness::new(MechanismKind::SynCron);
        let cond = Addr(1 << 22);
        let lock = Addr((1 << 22) + 64);
        let signaler = core(1, 0);
        for c in 0..3u8 {
            h.request(core(0, c), SyncRequest::LockAcquire { var: lock });
            h.request(core(0, c), SyncRequest::CondWait { var: cond, lock });
        }
        // Three lock acquisitions completed; the cond_waits have not.
        assert_eq!(h.completed().len(), 3);
        h.request(signaler, SyncRequest::CondSignal { var: cond });
        // One waiter woken and re-acquired the lock, plus the signaler's ACK
        // (signal coalescing is on by default).
        assert_eq!(h.completed().len(), 5);
        let woken = h.completed()[3..]
            .iter()
            .map(|(c, _)| *c)
            .find(|c| *c != signaler)
            .expect("a waiter was woken");
        h.request(woken, SyncRequest::LockRelease { var: lock });
        h.request(signaler, SyncRequest::CondBroadcast { var: cond });
        // Remaining two waiters wake; they serialize on the lock.
        let done: Vec<_> = h.completed().iter().map(|(c, _)| *c).collect();
        assert!(done.len() >= 6, "{done:?}");
    }

    #[test]
    fn coalesced_signal_is_consumed_by_a_later_wait_exactly_once() {
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
            MechanismKind::SynCronFlat,
        ] {
            let mut h = Harness::new(kind);
            let cond = Addr(1 << 22);
            let lock = Addr((1 << 22) + 64);
            let signaler = core(2, 0);

            // A signal with no queued waiter is banked (pending = 1), and the
            // signaler is ACKed instead of left to re-signal forever.
            h.request(signaler, SyncRequest::CondSignal { var: cond });
            assert_eq!(h.completed().len(), 1, "{kind:?}: signaler ACK");
            assert_eq!(h.completed()[0].0, signaler);

            // With the default pending cap of 1, a second wasted signal is NACKed
            // (it still completes the signaler, after the backoff delay).
            h.request(signaler, SyncRequest::CondSignal { var: cond });
            assert_eq!(h.completed().len(), 2, "{kind:?}: signaler NACK");
            let stats = h.mech.stats(h.ctx.now);
            assert_eq!(stats.coalesced_signals, 1, "{kind:?}");
            assert_eq!(stats.signal_nacks, 1, "{kind:?}");
            assert_eq!(stats.consumed_signals, 0, "{kind:?}");

            // The first cond_wait consumes the banked signal exactly once: it
            // completes immediately, keeping the associated lock.
            h.request(core(0, 0), SyncRequest::LockAcquire { var: lock });
            h.request(core(0, 0), SyncRequest::CondWait { var: cond, lock });
            assert_eq!(h.completed().len(), 4, "{kind:?}: wait consumed the signal");
            assert_eq!(h.mech.stats(h.ctx.now).consumed_signals, 1, "{kind:?}");
            h.request(core(0, 0), SyncRequest::LockRelease { var: lock });

            // The second cond_wait finds nothing banked and blocks.
            h.request(core(0, 1), SyncRequest::LockAcquire { var: lock });
            let before = h.completed().len();
            h.request(core(0, 1), SyncRequest::CondWait { var: cond, lock });
            assert_eq!(
                h.completed().len(),
                before,
                "{kind:?}: second wait must block (signal consumed exactly once)"
            );

            // A fresh signal is delivered to the queued waiter, not banked.
            h.request(signaler, SyncRequest::CondSignal { var: cond });
            let done: Vec<_> = h.completed().iter().map(|(c, _)| *c).collect();
            assert!(
                done.contains(&core(0, 1)),
                "{kind:?}: waiter woken {done:?}"
            );
            let stats = h.mech.stats(h.ctx.now);
            assert_eq!(
                stats.coalesced_signals, 1,
                "{kind:?}: delivery is not banked"
            );
            assert_eq!(stats.consumed_signals, 1, "{kind:?}");
        }
    }

    #[test]
    fn nack_backoff_grows_exponentially_and_resets_on_acceptance() {
        let mut h = Harness::new(MechanismKind::Central);
        let cond = Addr(1 << 22);
        let lock = Addr((1 << 22) + 64);
        let signaler = core(0, 0);

        // First signal banks (pending cap = 1); the rest are NACKed with doubling
        // delays.
        h.request(signaler, SyncRequest::CondSignal { var: cond });
        let mut deltas = Vec::new();
        for _ in 0..4 {
            let before = h.ctx.now;
            h.request(signaler, SyncRequest::CondSignal { var: cond });
            let at = h.completed().last().unwrap().1;
            deltas.push(at.saturating_sub(before));
        }
        for pair in deltas.windows(2) {
            assert!(
                pair[1] > pair[0],
                "backoff must grow: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }

        // Consume the banked signal, then bank a fresh one: the acceptance resets
        // the signaler's streak, so the next NACK is fast again.
        h.request(core(0, 1), SyncRequest::LockAcquire { var: lock });
        h.request(core(0, 1), SyncRequest::CondWait { var: cond, lock });
        h.request(core(0, 1), SyncRequest::LockRelease { var: lock });
        h.request(signaler, SyncRequest::CondSignal { var: cond }); // banked: ACK, reset
        let before = h.ctx.now;
        h.request(signaler, SyncRequest::CondSignal { var: cond }); // NACK, streak 0
        let after_reset = h.completed().last().unwrap().1.saturating_sub(before);
        assert!(
            after_reset < *deltas.last().unwrap(),
            "reset streak must shrink the delay: {after_reset:?} vs {:?}",
            deltas.last().unwrap()
        );
    }

    #[test]
    fn pending_signal_cap_bounds_banked_signals() {
        let params = MechanismParams::new(MechanismKind::SynCron);
        let mut h = Harness::with_params(params);
        // Raise the cap directly on the protocol config through a fresh mechanism.
        let config = config_4x16(MechanismKind::SynCron).with_pending_signal_cap(3);
        h.mech = Box::new(ProtocolMechanism::new(config));
        let cond = Addr(1 << 22);
        for _ in 0..5 {
            h.request(core(1, 0), SyncRequest::CondSignal { var: cond });
        }
        let stats = h.mech.stats(h.ctx.now);
        assert_eq!(stats.coalesced_signals, 3, "cap bounds the banked signals");
        assert_eq!(stats.signal_nacks, 2);
    }

    #[test]
    fn server_backend_mirrors_cond_state_into_memory_image() {
        // Central keeps synchronization state in memory: the banked pending count and
        // associated lock must land in the engine's in-memory syncronVar image using
        // the packed VarInfo layout.
        let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::Central));
        let mut ctx = bare_ctx();
        let cond = Addr(1 << 22);
        let lock = Addr((1 << 22) + 64);
        let drain = drain_ctx;
        mech.request(&mut ctx, core(1, 0), SyncRequest::CondSignal { var: cond });
        drain(&mut mech, &mut ctx);
        // Central serves everything at unit 0.
        let image = mech.engines[0]
            .vars
            .syncron_var(cond)
            .expect("in-memory syncronVar image");
        assert_eq!(image.cond_pending_signals(), 1);
        mech.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: lock });
        drain(&mut mech, &mut ctx);
        mech.request(
            &mut ctx,
            core(0, 0),
            SyncRequest::CondWait { var: cond, lock },
        );
        drain(&mut mech, &mut ctx);
        let image = mech.engines[0].vars.syncron_var(cond).unwrap();
        assert_eq!(image.cond_pending_signals(), 0, "consumed exactly once");
        assert_eq!(image.cond_lock(), lock, "wait recorded the associated lock");
        // The SynCron backend buffers the variable in its ST instead: no image.
        let mut se = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
        se.request(&mut ctx, core(1, 0), SyncRequest::CondSignal { var: cond });
        drain(&mut se, &mut ctx);
        let master = 1; // cond is homed at unit 1 under the harness home_unit
        assert!(se.engines[master].vars.syncron_var(cond).is_none());
        assert!(matches!(
            se.engines[master].st.lookup(cond).unwrap().info,
            TableInfo::CondLock {
                pending_signals: 1,
                ..
            }
        ));
    }

    #[test]
    fn coalescing_off_preserves_fire_and_forget_signals() {
        let params = MechanismParams::new(MechanismKind::SynCron).with_signal_coalescing(false);
        let mut h = Harness::with_params(params);
        let cond = Addr(1 << 22);
        let req = SyncRequest::CondSignal { var: cond };
        assert!(
            !h.mech.blocks_core(&req),
            "without coalescing a signal stays req_async"
        );
        h.request(core(0, 0), req);
        assert!(h.completed().is_empty(), "no ACK, the signal is dropped");
        let stats = h.mech.stats(h.ctx.now);
        assert_eq!(stats.coalesced_signals, 0);
        assert_eq!(stats.signal_nacks, 0);
    }

    #[test]
    fn coalescing_makes_signals_blocking_by_default() {
        let h = Harness::new(MechanismKind::Central);
        let var = lock_var();
        assert!(h.mech.blocks_core(&SyncRequest::CondSignal { var }));
        assert!(!h.mech.blocks_core(&SyncRequest::CondBroadcast { var }));
        assert!(!h.mech.blocks_core(&SyncRequest::LockRelease { var }));
        assert!(h.mech.blocks_core(&SyncRequest::LockAcquire { var }));
    }

    #[test]
    fn syncron_uses_fewer_remote_hops_than_flat_under_contention() {
        let var = lock_var();
        let run = |kind: MechanismKind| {
            let mut h = Harness::new(kind);
            // All 8 cores of unit 0 (remote to the variable's home unit 1) contend.
            for c in 0..8u8 {
                h.request(core(0, c), SyncRequest::LockAcquire { var });
            }
            let mut holder = h.completed()[0].0;
            for _ in 0..7 {
                h.request(holder, SyncRequest::LockRelease { var });
                holder = h.completed().last().unwrap().0;
            }
            h.request(holder, SyncRequest::LockRelease { var });
            h.ctx.remote_hops
        };
        let hier = run(MechanismKind::SynCron);
        let flat = run(MechanismKind::SynCronFlat);
        assert!(
            hier < flat,
            "hierarchical SynCron ({hier} remote hops) must beat flat ({flat})"
        );
    }

    #[test]
    fn syncron_avoids_memory_accesses_without_overflow() {
        let mut h = Harness::new(MechanismKind::SynCron);
        let var = lock_var();
        for c in 0..4u8 {
            h.request(core(0, c), SyncRequest::LockAcquire { var });
        }
        let mut holder = h.completed()[0].0;
        for _ in 0..3 {
            h.request(holder, SyncRequest::LockRelease { var });
            holder = h.completed().last().unwrap().0;
        }
        h.request(holder, SyncRequest::LockRelease { var });
        assert_eq!(h.ctx.mem_accesses, 0, "ST buffering must avoid memory");
        // Hier, in contrast, accesses memory for every message.
        let mut hh = Harness::new(MechanismKind::Hier);
        hh.request(core(0, 0), SyncRequest::LockAcquire { var });
        hh.request(core(0, 0), SyncRequest::LockRelease { var });
        assert!(hh.ctx.mem_accesses > 0);
    }

    #[test]
    fn st_overflow_integrated_still_correct() {
        // A 2-entry ST with many distinct locks: most allocations overflow, requests
        // are redirected to the Master SE and serviced via memory, but mutual exclusion
        // and completion still hold.
        let params = MechanismParams::new(MechanismKind::SynCron).with_st_entries(2);
        let mut h = Harness::with_params(params);
        let locks: Vec<Addr> = (0..16).map(|i| Addr((1 << 22) + i * 64)).collect();
        for (i, &var) in locks.iter().enumerate() {
            let c = core((i % 4) as u8, (i % 16) as u8);
            h.request(c, SyncRequest::LockAcquire { var });
        }
        assert_eq!(
            h.completed().len(),
            locks.len(),
            "uncontended locks all granted"
        );
        for (i, &var) in locks.iter().enumerate() {
            let c = core((i % 4) as u8, (i % 16) as u8);
            h.request(c, SyncRequest::LockRelease { var });
        }
        let stats = h.mech.stats(h.ctx.now);
        assert!(stats.overflowed_requests > 0, "expected ST overflow");
        assert!(stats.mem_accesses > 0, "overflow must touch memory");
    }

    #[test]
    fn misar_overflow_modes_cost_more_traffic_than_integrated() {
        let locks: Vec<Addr> = (0..24).map(|i| Addr((1 << 22) + i * 64)).collect();
        let run = |mode: OverflowMode| {
            let params = MechanismParams::new(MechanismKind::SynCron)
                .with_st_entries(2)
                .with_overflow_mode(mode);
            let mut h = Harness::with_params(params);
            // Hold many distinct locks at the same time so the 2-entry STs overflow.
            for (i, &var) in locks.iter().enumerate() {
                let c = core((i % 4) as u8, (i % 16) as u8);
                h.request(c, SyncRequest::LockAcquire { var });
            }
            for (i, &var) in locks.iter().enumerate() {
                let c = core((i % 4) as u8, (i % 16) as u8);
                h.request(c, SyncRequest::LockRelease { var });
            }
            assert_eq!(
                h.completed().len(),
                locks.len(),
                "{mode:?}: every acquire must complete"
            );
            h.ctx.local_hops + h.ctx.remote_hops
        };
        let integrated = run(OverflowMode::Integrated);
        let central = run(OverflowMode::MiSarCentral);
        let distrib = run(OverflowMode::MiSarDistributed);
        assert!(
            central > integrated,
            "central {central} vs integrated {integrated}"
        );
        assert!(
            distrib > integrated,
            "distrib {distrib} vs integrated {integrated}"
        );
    }

    #[test]
    fn stats_track_messages_and_occupancy() {
        let mut h = Harness::new(MechanismKind::SynCron);
        let var = lock_var();
        h.request(core(0, 0), SyncRequest::LockAcquire { var });
        h.request(core(0, 0), SyncRequest::LockRelease { var });
        let stats = h.mech.stats(h.ctx.now);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.completions, 1);
        assert!(stats.local_messages >= 2);
        assert!(
            stats.global_messages >= 1,
            "acquire crossed to the master SE"
        );
        assert!(stats.st_max_occupancy > 0.0);
        assert_eq!(stats.overflowed_requests, 0);
    }

    fn bare_ctx() -> HarnessCtx {
        HarnessCtx {
            now: Time::ZERO,
            queue: EventQueue::new(),
            inbox: EventQueue::new(),
            completed: Vec::new(),
            local_hops: 0,
            remote_hops: 0,
            mem_accesses: 0,
        }
    }

    fn drain_ctx(mech: &mut ProtocolMechanism, ctx: &mut HarnessCtx) {
        while ctx.drive(mech) {}
    }

    #[test]
    fn arena_recycles_slots_without_leaking_state_between_addresses() {
        let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
        let mut ctx = bare_ctx();
        let a = lock_var();
        let b = Addr(a.value() + 64);

        // Holding A occupies slots at the requesting unit (local lock) and the
        // master (master lock).
        mech.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: a });
        drain_ctx(&mut mech, &mut ctx);
        let live: usize = mech.engines.iter().map(|e| e.vars.live()).sum();
        assert!(live >= 2, "holding a lock must occupy arena slots: {live}");

        // Releasing A must return every slot to the free list.
        mech.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var: a });
        drain_ctx(&mut mech, &mut ctx);
        for (i, e) in mech.engines.iter().enumerate() {
            assert_eq!(e.vars.live(), 0, "engine {i} leaked a slot");
        }

        // B now claims the recycled slots: the index answers B (not A) and the
        // recycled state is clean — no waiters or ownership leaked from A.
        mech.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: b });
        drain_ctx(&mut mech, &mut ctx);
        let e0 = &mech.engines[0];
        assert!(e0.vars.lookup(a).is_none(), "stale index entry for A");
        let slot = e0.vars.lookup(b).expect("B tracked at the local engine") as usize;
        assert_eq!(e0.vars.addr(slot), b);
        let ll = e0.vars.local_lock(slot).expect("local lock state");
        assert_eq!(ll.holder, Some(core(0, 0)));
        assert!(ll.waiters.is_empty(), "waiters leaked across the recycle");
        assert!(ll.has_ownership);
        mech.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var: b });
        drain_ctx(&mut mech, &mut ctx);
    }

    #[test]
    fn arena_tracks_colliding_addresses_in_distinct_slots() {
        // Addresses that share arena slots over time (or collide in the hash
        // index) must never share one *concurrently*: N simultaneously-held
        // locks occupy N distinct slots with independent state.
        let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
        let mut ctx = bare_ctx();
        let vars: Vec<Addr> = (0..8).map(|i| Addr((1 << 22) + i * 64)).collect();
        for (i, &var) in vars.iter().enumerate() {
            mech.request(&mut ctx, core(0, i as u8), SyncRequest::LockAcquire { var });
            drain_ctx(&mut mech, &mut ctx);
        }
        let e0 = &mech.engines[0];
        let mut slots: Vec<u32> = vars
            .iter()
            .map(|&v| e0.vars.lookup(v).expect("held lock tracked"))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), vars.len(), "two variables shared a slot");
        for (i, &var) in vars.iter().enumerate() {
            let slot = e0.vars.lookup(var).unwrap() as usize;
            assert_eq!(e0.vars.addr(slot), var);
            assert_eq!(
                e0.vars.local_lock(slot).unwrap().holder,
                Some(core(0, i as u8)),
                "slot state crossed between variables"
            );
        }
        for (i, &var) in vars.iter().enumerate() {
            mech.request(&mut ctx, core(0, i as u8), SyncRequest::LockRelease { var });
            drain_ctx(&mut mech, &mut ctx);
        }
    }

    #[test]
    fn arena_pre_sized_from_geometry_never_grows_in_steady_state() {
        let mut mech = ProtocolMechanism::new(config_4x16(MechanismKind::SynCron));
        let mut ctx = bare_ctx();
        let caps: Vec<usize> = mech.engines.iter().map(|e| e.vars.capacity()).collect();
        assert!(
            caps.iter().all(|&c| c >= 64 + 16),
            "arena must be pre-sized from st_entries + cores_per_unit: {caps:?}"
        );
        // Steady state: 16 locks cycle concurrently for many rounds, churning
        // the free list. Neither the slot vectors nor (by extension) the index
        // may grow past the pre-size.
        let vars: Vec<Addr> = (0..16).map(|i| Addr((1 << 22) + i * 64)).collect();
        for _ in 0..25 {
            for (i, &var) in vars.iter().enumerate() {
                let c = core((i % 4) as u8, (i % 16) as u8);
                mech.request(&mut ctx, c, SyncRequest::LockAcquire { var });
                drain_ctx(&mut mech, &mut ctx);
            }
            for (i, &var) in vars.iter().enumerate() {
                let c = core((i % 4) as u8, (i % 16) as u8);
                mech.request(&mut ctx, c, SyncRequest::LockRelease { var });
                drain_ctx(&mut mech, &mut ctx);
            }
        }
        let after: Vec<usize> = mech.engines.iter().map(|e| e.vars.capacity()).collect();
        assert_eq!(caps, after, "steady state reallocated an arena");
    }

    #[test]
    fn batching_merges_broadcast_wakeups_without_changing_results() {
        // Central + condvar broadcast: the master injects one lock re-acquire
        // per waiter at the same timestamp, back to back — the canonical
        // O(waiters) -> O(1) batching case. Completions must be identical with
        // batching on and off; the event count must shrink.
        let run = |batching: bool| {
            let config = ProtocolConfig::new(
                MechanismParams::new(MechanismKind::Central).with_message_batching(batching),
                4,
                16,
            );
            let mut mech = ProtocolMechanism::new(config);
            let mut ctx = bare_ctx();
            let cond = Addr(1 << 22);
            let lock = Addr((1 << 22) + 64);
            for c in 0..6u8 {
                mech.request(&mut ctx, core(0, c), SyncRequest::LockAcquire { var: lock });
                drain_ctx(&mut mech, &mut ctx);
                mech.request(
                    &mut ctx,
                    core(0, c),
                    SyncRequest::CondWait { var: cond, lock },
                );
                drain_ctx(&mut mech, &mut ctx);
            }
            mech.request(
                &mut ctx,
                core(1, 0),
                SyncRequest::CondBroadcast { var: cond },
            );
            drain_ctx(&mut mech, &mut ctx);
            // Serve the lock convoy to completion.
            for _ in 0..6 {
                let holder = ctx.completed.last().unwrap().0;
                mech.request(&mut ctx, holder, SyncRequest::LockRelease { var: lock });
                drain_ctx(&mut mech, &mut ctx);
            }
            (ctx.completed.clone(), ctx.queue.scheduled_total())
        };
        let (with_batching, events_batched) = run(true);
        let (without, events_unbatched) = run(false);
        assert_eq!(
            with_batching, without,
            "batching changed completion order or timing"
        );
        assert!(
            events_batched < events_unbatched,
            "broadcast wake-ups must coalesce: {events_batched} vs {events_unbatched}"
        );
    }

    #[test]
    fn batching_preserves_all_protocol_semantics_across_mechanisms() {
        // The whole harness suite runs with batching on (the default); this
        // differential re-runs a contended mixed workload with batching off and
        // pins completion-for-completion equality.
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
            MechanismKind::SynCronFlat,
        ] {
            let run = |batching: bool| {
                let config = ProtocolConfig::new(
                    MechanismParams::new(kind).with_message_batching(batching),
                    4,
                    16,
                );
                let mut mech = ProtocolMechanism::new(config);
                let mut ctx = bare_ctx();
                let bar = Addr(2 << 22);
                for u in 0..4u8 {
                    for c in 0..16u8 {
                        mech.request(
                            &mut ctx,
                            core(u, c),
                            SyncRequest::BarrierWait {
                                var: bar,
                                participants: 64,
                                scope: BarrierScope::AcrossUnits,
                            },
                        );
                    }
                }
                drain_ctx(&mut mech, &mut ctx);
                let lock = lock_var();
                for c in 0..8u8 {
                    mech.request(&mut ctx, core(2, c), SyncRequest::LockAcquire { var: lock });
                    drain_ctx(&mut mech, &mut ctx);
                    mech.request(&mut ctx, core(2, c), SyncRequest::LockRelease { var: lock });
                    drain_ctx(&mut mech, &mut ctx);
                }
                ctx.completed
            };
            assert_eq!(run(true), run(false), "{kind:?}");
        }
    }

    #[test]
    fn central_serializes_all_requests_on_one_server() {
        // With Central, every request goes to unit 0's server; requests from unit 0
        // cores do not cross units but requests from other units do.
        let mut h = Harness::new(MechanismKind::Central);
        let var = lock_var(); // homed at unit 1, but Central serves everything at unit 0
        h.request(core(0, 0), SyncRequest::LockAcquire { var });
        assert_eq!(h.ctx.remote_hops, 0);
        h.request(core(0, 0), SyncRequest::LockRelease { var });
        h.request(core(2, 0), SyncRequest::LockAcquire { var });
        assert!(h.ctx.remote_hops > 0);
        h.request(core(2, 0), SyncRequest::LockRelease { var });
    }
}
