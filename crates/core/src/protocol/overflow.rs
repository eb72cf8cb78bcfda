//! The Synchronization Table and its overflow (Section 4.3): resolving a
//! message's ST entry, the service time with or without the in-memory
//! `syncronVar`, and the two ways a request an engine cannot track leaves it —
//! SynCron's integrated redirect to the Master SE, and the MiSAR-style abort to
//! a software fallback server (Section 6.7.3).

use super::{EngineBackend, EngineMsg, ProtocolMechanism};
use crate::components::Grantee;
use crate::mechanism::SyncContext;
use crate::policy::{LockVariant, Topology};
use crate::request::{PrimitiveKind, SyncRequest};
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

impl ProtocolMechanism {
    /// Resolves `msg`'s ST state at engine `unit`. Returns whether the engine
    /// serves the message through the in-memory `syncronVar`, or `None` when it
    /// redirected a core request it cannot track (the request then leaves no
    /// state here).
    pub(super) fn admit(
        &mut self,
        ctx: &mut dyn SyncContext,
        unit: UnitId,
        slot: usize,
        msg: EngineMsg,
    ) -> Option<bool> {
        let EngineMsg::CoreReq {
            core,
            req,
            direct,
            fallback,
        } = msg
        else {
            // Global messages are never redirected.
            return Some(self.st_resolve(ctx, unit, msg.var(), 0, false).0);
        };
        if fallback || (!direct && self.is_partial_barrier_forward(ctx, unit, &req)) {
            // The MiSAR fallback server keeps no ST. A partial across-unit
            // barrier arriving at a non-master SE is forwarded to the Master SE
            // untouched (one-level communication), so the local SE neither
            // buffers the variable in its ST nor updates its indexing counters
            // — allocating an entry per arrival only to drop it again would
            // churn the occupancy/allocation statistics of Table 7.
            return Some(false);
        }
        let var = req.var();
        let counter_action = if req.is_acquire_type() { 1 } else { -1 };
        // Redirected (direct) requests were already counted by the SE that
        // first overflowed.
        let count_stat = req.is_acquire_type()
            && !(direct && self.policy.topology(var) == Topology::Hierarchical);
        let (use_memory, redirect) = self.st_resolve(ctx, unit, var, counter_action, count_stat);
        // Direct requests reaching the master during overflow are serviced via
        // memory rather than redirected again. MCS lock requests are never
        // redirected either: the queue nodes are bound to the requester's
        // engine, so an overflowed variable spills its node state to memory in
        // place instead of moving the queue.
        let queue_bound = req.primitive() == PrimitiveKind::Lock
            && self.policy.lock_variant() == LockVariant::McsQueue;
        if !redirect {
            Some(use_memory)
        } else if direct || queue_bound {
            Some(true)
        } else {
            self.redirect(ctx, unit, slot, core, req);
            None
        }
    }

    /// Resolves the ST state for a message about `var` at engine `unit`.
    /// Returns `(needs_memory, must_redirect)`.
    ///
    /// `counter_action` is +1 for acquire-type core requests, -1 for release-type core
    /// requests and 0 for SE-to-SE messages; `count_stat` controls whether an overflow
    /// is counted towards the overflowed-request statistic (redirected requests are
    /// only counted once, at the SE that first observed the overflow).
    fn st_resolve(
        &mut self,
        ctx: &dyn SyncContext,
        unit: UnitId,
        var: Addr,
        counter_action: i8,
        count_stat: bool,
    ) -> (bool, bool) {
        if self.config.backend != EngineBackend::SyncronSe {
            return (false, false);
        }
        let is_master = self.policy.master_of(ctx, var) == unit;
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
            engine.st.allocate(ctx.now(), var);
            return (false, false);
        }
        // Overflow.
        if count_stat {
            self.stats.overflowed_requests += 1;
        }
        if self.config.params.overflow_mode != OverflowMode::Integrated {
            self.misar_fallback.insert(var);
            return (false, true);
        }
        match counter_action {
            1 => engine.counters.increment(var),
            -1 => engine.counters.decrement(var),
            _ => {}
        }
        // The Master SE services the variable via the in-memory syncronVar; a
        // local SE that overflowed redirects to the Master SE with overflow
        // opcodes and tracks the variable in the indexing counters.
        (is_master, !is_master)
    }

    /// Service time of one message at engine `unit`, including any memory accesses.
    /// `use_memory` forces uncached `syncronVar` accesses (SynCron overflow path);
    /// `fallback` forces server-core processing (MiSAR fallback).
    pub(super) fn service_time(
        &mut self,
        ctx: &mut dyn SyncContext,
        unit: UnitId,
        var: Addr,
        use_memory: bool,
        fallback: bool,
    ) -> Time {
        let (base, cached) = match self.config.backend {
            // The server core reads and updates the synchronization variable
            // through its cache hierarchy.
            EngineBackend::ServerCore => (self.config.server_service, true),
            // The MiSAR-style software fallback synchronizes through main
            // memory: without shared caches or hardware coherence there is no
            // faster place for the alternative solution to live (Section 4.5).
            EngineBackend::SyncronSe if fallback => (self.config.server_service, false),
            // Overflow: the SE reads and writes the in-memory syncronVar.
            EngineBackend::SyncronSe if use_memory => (self.config.se_service, false),
            EngineBackend::SyncronSe => return self.config.se_service,
        };
        let read = ctx.sync_mem_access(unit, var, false, cached);
        let write = ctx.sync_mem_access(unit, var, true, cached);
        self.stats.mem_accesses += 2;
        base + read + write
    }

    /// Hands over `core`'s request that engine `unit` cannot track: to the
    /// Master SE with overflow opcodes (integrated), or — after aborting the
    /// unit's cores — to the MiSAR fallback server.
    fn redirect(
        &mut self,
        ctx: &mut dyn SyncContext,
        unit: UnitId,
        slot: usize,
        core: GlobalCoreId,
        req: SyncRequest,
    ) {
        let now = ctx.now();
        let var = req.var();
        let fallback_unit = match self.config.params.overflow_mode {
            OverflowMode::Integrated => {
                let master = self.policy.master_of(ctx, var);
                let msg = EngineMsg::direct(core, req, false);
                return self.send_engine_msg(ctx, now, unit, master, msg, true);
            }
            OverflowMode::MiSarCentral => UnitId(0),
            OverflowMode::MiSarDistributed => ctx.home_unit(var),
        };
        let first = self.engines[unit.index()].vars.claim_misar_abort(slot);
        if first {
            // Abort messages to every core of the unit, and matching
            // acknowledgements once the cores switch to the fallback solution.
            for _ in 0..self.config.cores_per_unit {
                self.local_hop(ctx, unit);
            }
        }
        // The "switch back to hardware" notification.
        self.local_hop(ctx, core.unit);
        // The abort notification reaches the core, which switches to the
        // software fallback and re-issues the request from there.
        let abort_delivery = self.local_hop(ctx, unit);
        let switch_overhead = Freq::ghz(2.5).cycles_to_ps(100);
        let retry_at = now + abort_delivery + switch_overhead;
        if first {
            // The aborted cores retry through the fallback server: every
            // waiter queued in hardware for this variable is re-routed so that
            // no grant is lost during the switch.
            self.misar_drain_lock_waiters(ctx, retry_at, var, fallback_unit);
        }
        let msg = EngineMsg::direct(core, req, true);
        self.send_engine_msg(ctx, retry_at, unit, fallback_unit, msg, true);
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
                engine.release_st(var);
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
                engine.release_st(var);
            }
            engine.vars.release_if_unused(slot as u32);
        }
        for core in displaced {
            let msg = EngineMsg::direct(core, SyncRequest::LockAcquire { var }, true);
            self.send_engine_msg(ctx, at, core.unit, fallback_unit, msg, true);
        }
    }
}
