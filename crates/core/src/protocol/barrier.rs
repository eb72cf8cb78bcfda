//! Barriers (Section 4.1.2). A within-unit barrier completes at the unit's
//! engine. A full-system barrier is hierarchical: each engine counts its own
//! cores' arrivals and announces them to the Master SE in one message, and the
//! master's departure message releases each unit. A partial across-unit
//! barrier uses one-level communication: every arrival is forwarded to the
//! master, which responds to each core individually.

use super::{EngineMsg, Outcome, ProtocolMechanism, Site};
use crate::mechanism::SyncContext;
use crate::policy::Topology;
use crate::request::{BarrierScope, SyncRequest};
use syncron_sim::{Addr, GlobalCoreId, UnitId};

impl Site<'_> {
    /// A core's arrival served at this engine: at the master level when
    /// `direct`, else aggregated in this unit's local barrier.
    ///
    /// Partial across-unit arrivals never reach this point at a local SE: the
    /// local SE forwards them and keeps *no* state for the variable. Mixing
    /// local waiter queues with master-side direct waiters desynchronized
    /// barrier rounds once ST overflow redirected part of a unit — a
    /// direct-completed core could re-arrive and join the stale local queue
    /// while the previous round's departure was still in flight, deadlocking
    /// the remaining waiters.
    pub(super) fn barrier_wait(
        &mut self,
        core: GlobalCoreId,
        var: Addr,
        participants: u32,
        scope: BarrierScope,
        direct: bool,
    ) {
        if direct {
            let mb = self.engine.vars.master_barrier_mut(self.slot);
            mb.participants = participants;
            mb.arrived += 1;
            mb.direct_waiters.push(core);
            if mb.arrived >= participants {
                self.finish_master_barrier(var);
            }
            return;
        }
        let lb = self.engine.vars.local_barrier_mut(self.slot);
        lb.waiters.push(core);
        if scope == BarrierScope::WithinUnit {
            if lb.waiters.len() as u32 >= participants {
                self.release_local_barrier(var);
            }
        } else if lb.waiters.len() >= self.config.cores_per_unit {
            // Full-system barrier: hierarchical two-level communication.
            lb.announced = true;
            let count = lb.waiters.len() as u32;
            self.send_to_master(EngineMsg::BarrierArriveGlobal {
                from: self.unit,
                var,
                count,
                participants,
            });
        }
    }

    pub(super) fn barrier_arrive_global(
        &mut self,
        from: UnitId,
        var: Addr,
        count: u32,
        participants: u32,
    ) {
        let mb = self.engine.vars.master_barrier_mut(self.slot);
        mb.participants = participants;
        mb.arrived += count;
        if !mb.arrived_units.contains(&from) {
            mb.arrived_units.push(from);
        }
        if mb.arrived >= participants {
            self.finish_master_barrier(var);
        }
    }

    pub(super) fn barrier_depart_global(&mut self, var: Addr) {
        if self.engine.vars.local_barrier_ref(self.slot).is_some() {
            self.release_local_barrier(var);
        }
    }

    /// Completes every core waiting in this unit's local barrier.
    fn release_local_barrier(&mut self, var: Addr) {
        self.engine.release_st(var);
        let lb = self.engine.vars.local_barrier_mut(self.slot);
        for w in lb.waiters.drain(..) {
            self.out.push(Outcome::Complete { core: w });
        }
        self.engine.vars.remove_local_barrier(self.slot);
    }

    /// The last arrival reached the master: release the arrived units and the
    /// cores served at the master level.
    fn finish_master_barrier(&mut self, var: Addr) {
        debug_assert!(
            self.engine.vars.master_barrier_ref(self.slot).is_some(),
            "barrier state"
        );
        self.engine.release_st(var);
        let mb = self.engine.vars.master_barrier_mut(self.slot);
        for u in mb.arrived_units.drain(..) {
            self.out
                .push(Outcome::send(u, EngineMsg::BarrierDepartGlobal { var }));
        }
        for c in mb.direct_waiters.drain(..) {
            self.out.push(Outcome::Complete { core: c });
        }
        self.engine.vars.remove_master_barrier(self.slot);
    }
}

impl ProtocolMechanism {
    /// Whether `req`, delivered non-direct at `unit`, is a partial across-unit
    /// barrier arrival that this SE merely forwards to the Master SE (one-level
    /// communication) without tracking the variable locally.
    pub(super) fn is_partial_barrier_forward(
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
            && participants != self.config.total_cores()
            && self.policy.master_of(ctx, var) != unit
    }
}
