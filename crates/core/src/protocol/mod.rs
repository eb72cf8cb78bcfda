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
//! event count explodes. With [`signal_coalescing`] enabled (the default) the
//! serving engine instead:
//!
//! * **banks** a signal that finds no waiter as the variable's one pending signal
//!   and ACKs the signaler; a later `cond_wait` consumes a banked signal exactly
//!   once and returns immediately;
//! * **NACKs** a signal that finds a signal already banked, replying with a
//!   backoff delay hint (a `cond_signal_nack` reply); the delay doubles per
//!   consecutive NACK from the same core, from [`signal_backoff_ns`] up to 64x
//!   that base, and resets as soon as one of the core's signals is accepted.
//!
//! Under this policy the signaling core stalls until the ACK/NACK reply arrives
//! ([`blocks_core`]), so each signaler has at most one signal in flight and the
//! serving engine's queue stays bounded.
//!
//! # Layout
//!
//! This file keeps the message mechanics: the message types, the batching slab,
//! engine-to-engine sends, completions and delivery. `site.rs` dispatches each
//! delivered message at its engine and makes the one serve-or-forward decision
//! for each core request (`Site::core_request`). Each primitive's handlers live
//! in their own file: `lock.rs` (the ownership-passing lock), `barrier.rs`,
//! `sem_cond.rs` (semaphores and condition variables) and `mcs.rs` (the MCS
//! queue lock). `overflow.rs` resolves the Synchronization Table, charges the
//! service time, and redirects the requests an engine cannot track;
//! `config.rs` holds the configuration. The per-variable state the handlers
//! work on lives in `crate::components`, and the per-kind decisions in
//! `crate::policy`.
//!
//! [`MechanismKind::SynCron`]: crate::MechanismKind::SynCron
//! [`MechanismKind::SynCronFlat`]: crate::MechanismKind::SynCronFlat
//! [`MechanismKind::Hier`]: crate::MechanismKind::Hier
//! [`MechanismKind::Central`]: crate::MechanismKind::Central
//! [`signal_coalescing`]: crate::mechanism::MechanismParams::signal_coalescing
//! [`signal_backoff_ns`]: crate::mechanism::MechanismParams::signal_backoff_ns
//! [`blocks_core`]: crate::mechanism::SyncMechanism::blocks_core

mod barrier;
mod config;
mod lock;
mod mcs;
mod overflow;
mod sem_cond;
mod site;
#[cfg(test)]
mod tests;

pub use config::{EngineBackend, ProtocolConfig};
pub use overflow::OverflowMode;
use site::Site;

use syncron_sim::FxHashSet;

use crate::components::ComponentTables;
use crate::counters::{IndexingCounters, SignalCounters};
use crate::mechanism::{SyncContext, SyncMechanism, SyncMechanismStats};
use crate::policy::{policy_for, LockVariant, SyncPolicy, Topology};
use crate::request::{PrimitiveKind, SyncRequest};
use crate::table::SynchronizationTable;
use syncron_sim::queueing::Serializer;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId, UnitId};

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
    fn new(config: &ProtocolConfig) -> Self {
        Engine {
            busy: Serializer::new(),
            st: SynchronizationTable::new(config.params.st_entries.max(1)),
            counters: IndexingCounters::new(config.params.indexing_counters.max(1)),
            // Grown from use: the arena's high-water mark is the number of
            // variables this engine tracks at once (one for a lone barrier or
            // lock), and free-list recycling stops its growth after warm-up.
            vars: ComponentTables::default(),
            signals: SignalCounters::new(),
            signal_streaks: Vec::new(),
            units: config.units,
            cores_per_unit: config.cores_per_unit,
        }
    }

    /// Frees `var`'s ST entry. Every release is stamped at time zero, so the
    /// time-weighted occupancy back-dates each drop to the table's previous
    /// update and `st_avg_occupancy` reads low; stamping the delivering
    /// message's time instead is a declared change of results.
    fn release_st(&mut self, var: Addr) {
        self.st.release(Time::ZERO, var);
    }
}

/// An opaque synchronization payload traveling between NDP units.
///
/// Produced by the protocol mechanism and handed to [`SyncContext::send_remote`];
/// the system carries it (unopened) to the shard owning the destination unit and
/// hands it back through [`SyncMechanism::deliver_remote`] at the arrival time.
/// The contents stay private to the protocol crate.
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
    /// `core`'s request sent on to be served at the master level: forwarded to
    /// the variable's master, or (`fallback`) to the MiSAR fallback server.
    fn direct(core: GlobalCoreId, req: SyncRequest, fallback: bool) -> Self {
        EngineMsg::CoreReq {
            core,
            req,
            direct: true,
            fallback,
        }
    }

    fn var(&self) -> Addr {
        match *self {
            EngineMsg::CoreReq { req, .. } => req.var(),
            EngineMsg::LockAcquireGlobal { var, .. }
            | EngineMsg::LockReleaseGlobal { var }
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

/// Wire size of a local (core ↔ SE) message: a 64-bit address, a 6-bit opcode,
/// a 6-bit core ID and a 64-bit `MessageInfo` field make 140 bits (Section
/// 4.1.2), rounded up to whole bytes.
const LOCAL_MSG_BYTES: u64 = 18;

/// Wire size of a global message between the engines of two units, overflow
/// traffic included: 149 bits with the sender SE's global ID (Figure 6), rounded
/// up to whole bytes.
const GLOBAL_MSG_BYTES: u64 = 19;

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
}

impl Outcome {
    /// Sends `msg` to the engine of `to` as ordinary (non-overflow) traffic.
    fn send(to: UnitId, msg: EngineMsg) -> Self {
        Outcome::Send {
            to,
            msg,
            overflow: false,
        }
    }
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

/// The batch `schedule_msg` may still append to for one target engine: the
/// one most recently scheduled for it, valid while the stamp of the unit that
/// scheduled it (its next event key, [`SyncContext::schedule_stamp`]) has not
/// moved.
#[derive(Clone, Copy, Debug)]
struct OpenBatch {
    token: u32,
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
    /// One [`OpenBatch`] slot per target engine, `None` when nothing bound
    /// for that engine can be appended to. Per engine, so that a message to
    /// one engine does not close another engine's batch: a sharded run keeps
    /// one mechanism per shard, and a single slot would then merge more at
    /// more shards.
    open_batches: Vec<Option<OpenBatch>>,
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
        let engines = (0..config.units).map(|_| Engine::new(&config)).collect();
        ProtocolMechanism {
            policy: policy_for(&config),
            open_batches: vec![None; config.units],
            config,
            engines,
            pending: Vec::new(),
            pending_free: Vec::new(),
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

    fn schedule_msg(&mut self, ctx: &mut dyn SyncContext, at: Time, unit: UnitId, msg: EngineMsg) {
        // Equal-timestamp batching: if this message targets the same engine at
        // the same time as the one most recently scheduled for that engine,
        // and the scheduling unit pushed *nothing else* onto the event queue
        // in between (the schedule-stamp watermark), then the two deliveries
        // would pop back to back anyway — appending to the open batch
        // delivers them in one event without changing the global delivery
        // order by a single bit. Contended broadcast/wake phases schedule
        // O(1) events where they scheduled O(waiters).
        let stamp = ctx.schedule_stamp();
        if let (Some(open), Some(stamp)) = (self.open_batches[unit.index()], stamp) {
            if open.at == at && open.stamp == stamp {
                let batch = &mut self.pending[open.token as usize];
                debug_assert!(batch.live);
                batch.rest.push(msg);
                return;
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
        self.open_batches[unit.index()] = stamp.map(|stamp| OpenBatch {
            token,
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
                GLOBAL_MSG_BYTES,
                RemotePayload(PayloadKind::Msg { to, msg }),
            );
            return;
        }
        self.schedule_msg(ctx, at, to, msg);
    }

    /// Charges one local (core ↔ engine) message across `unit`'s crossbar and
    /// returns its latency.
    fn local_hop(&mut self, ctx: &mut dyn SyncContext, unit: UnitId) -> Time {
        self.stats.local_messages += 1;
        ctx.local_hop(unit, LOCAL_MSG_BYTES)
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
                GLOBAL_MSG_BYTES,
                RemotePayload(PayloadKind::Complete { core }),
            );
            return;
        }
        self.finish_core(ctx, at, core);
    }

    /// The response's final hop across the core's local crossbar, from `at`,
    /// and the completion itself.
    fn finish_core(&mut self, ctx: &mut dyn SyncContext, at: Time, core: GlobalCoreId) {
        let t = at + self.local_hop(ctx, core.unit);
        self.stats.completions += 1;
        ctx.complete(core, t);
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
            }
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
            Topology::Flat => (self.policy.master_of(ctx, req.var()), true),
        };
        let msg = EngineMsg::CoreReq {
            core,
            req,
            direct,
            fallback: false,
        };
        self.send_engine_msg(ctx, at, origin, dest, msg, false);
    }

    /// Processes one message at engine `unit` at the current time.
    fn deliver_one(&mut self, ctx: &mut dyn SyncContext, unit: UnitId, msg: EngineMsg) {
        // The one compact `addr -> slot` resolution of this message; every
        // subsequent component-table touch indexes the columns densely.
        let slot = self.engines[unit.index()].vars.resolve(msg.var());
        self.process(ctx, unit, slot as usize, msg);
        // Recycle the slot if this message left the variable with no state at
        // this engine (forward-only hops, redirected requests, completed
        // barriers, released locks).
        self.engines[unit.index()].vars.release_if_unused(slot);
    }

    /// Processes one message whose variable is already resolved to `slot`.
    fn process(&mut self, ctx: &mut dyn SyncContext, unit: UnitId, slot: usize, msg: EngineMsg) {
        // Resolve ST / overflow state (SynCron backends only).
        let Some(use_memory) = self.admit(ctx, unit, slot, msg) else {
            return;
        };
        let now = ctx.now();
        let var = msg.var();
        let fallback = matches!(msg, EngineMsg::CoreReq { fallback: true, .. });
        let service = self.service_time(ctx, unit, var, use_memory, fallback);
        let done = self.engines[unit.index()].busy.acquire(now, service) + service;

        let mut outcomes = std::mem::take(&mut self.outcome_scratch);
        debug_assert!(outcomes.is_empty());
        Site {
            config: &self.config,
            engine: &mut self.engines[unit.index()],
            unit,
            master: self.policy.master_of(ctx, var),
            slot,
            mcs: self.policy.lock_variant() == LockVariant::McsQueue,
            out: &mut outcomes,
        }
        .handle(msg);
        self.apply_outcomes(ctx, done, unit, &mut outcomes);
        self.outcome_scratch = outcomes;
        // Adaptive policies watch master-side lock contention: the global
        // waiting-queue depth after this message is the signal. Only lock
        // traffic feeds the probe (the depth is 0 off the master, where the
        // component is absent), so barrier rounds never see their topology
        // change mid-round.
        if msg.primitive() == PrimitiveKind::Lock && self.policy.observes_contention() {
            let depth = self.engines[unit.index()].vars.master_lock_depth(slot);
            self.policy.observe_contention(var, depth);
        }
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
        let local = self.local_hop(ctx, core.unit);
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
        let open = &mut self.open_batches[unit.index()];
        if open.is_some_and(|open| open.token == token as u32) {
            *open = None;
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
                let at = ctx.now() + ctx.recv_hop(to, GLOBAL_MSG_BYTES);
                self.schedule_msg(ctx, at, to, msg);
            }
            PayloadKind::Complete { core } => {
                let at = ctx.now() + ctx.recv_hop(core.unit, GLOBAL_MSG_BYTES);
                self.finish_core(ctx, at, core);
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
