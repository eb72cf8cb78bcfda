//! The ownership-passing lock (Section 4.1.2): each unit's engine queues its
//! local waiters and, once the Master SE grants the unit ownership, hands the
//! lock from core to core locally before returning it with one aggregated
//! release. The master keeps the global owner and waiting queue, whose entries
//! are units or (for requests served at the master level) single cores. The
//! fairness threshold (Figure 24) caps the consecutive local grants.

use super::{EngineMsg, Outcome, Site};
use crate::components::Grantee;
use syncron_sim::{Addr, GlobalCoreId};

impl Site<'_> {
    /// Whether `core` holds the lock under this unit's local ownership.
    pub(super) fn holds_local_lock(&self, core: GlobalCoreId) -> bool {
        self.engine
            .vars
            .local_lock(self.slot)
            .is_some_and(|ll| ll.has_ownership && ll.holder == Some(core))
    }

    /// A core's acquire: at the master level when `direct`, else queued at
    /// this unit, which asks the master for ownership once.
    pub(super) fn lock_acquire(&mut self, core: GlobalCoreId, var: Addr, direct: bool) {
        if direct {
            return self.master_lock_acquire(var, Grantee::Core(core));
        }
        let ll = self.engine.vars.local_lock_mut(self.slot);
        ll.waiters.push_back(core);
        if ll.has_ownership {
            if ll.holder.is_none() {
                self.grant_local_lock();
            }
        } else if !ll.pending_global {
            ll.pending_global = true;
            self.send_to_master(EngineMsg::LockAcquireGlobal {
                from: self.unit,
                var,
            });
        }
    }

    /// The holder's release: at the master level when `direct`, else of this
    /// unit's local ownership.
    pub(super) fn lock_release(&mut self, var: Addr, direct: bool) {
        if direct {
            return self.master_lock_release(var);
        }
        let fairness = self.config.params.fairness_threshold;
        let ll = self.engine.vars.local_lock_mut(self.slot);
        ll.holder = None;
        let over_threshold =
            fairness.is_some_and(|t| ll.local_grants >= t) && !ll.waiters.is_empty();
        if !ll.waiters.is_empty() && !over_threshold {
            return self.grant_local_lock();
        }
        // No more local requests (or fairness hand-off): return the lock to the
        // Master SE with one aggregated release message.
        ll.has_ownership = false;
        ll.local_grants = 0;
        if over_threshold {
            // Re-request ownership for the still-waiting local cores.
            ll.pending_global = true;
            self.send_to_master(EngineMsg::LockReleaseGlobal { var });
            self.send_to_master(EngineMsg::LockAcquireGlobal {
                from: self.unit,
                var,
            });
        } else {
            self.send_to_master(EngineMsg::LockReleaseGlobal { var });
            self.engine.vars.remove_local_lock(self.slot);
            self.engine.release_st(var);
        }
    }

    /// Before the release of an overflow-redirected acquire is forwarded to
    /// the master: a non-master SE that tracks no local lock for the variable
    /// drops any ST entry this delivery allocated, which would otherwise pin an
    /// ST slot forever. (Processing such a release locally sent a phantom
    /// release on behalf of a unit that holds no ownership, desynchronizing the
    /// master's grant queue: under ST overflow this stranded locks forever.)
    pub(super) fn drop_untracked_st_entry(&mut self, var: Addr) {
        if self.unit != self.master && self.engine.vars.local_lock(self.slot).is_none() {
            self.engine.release_st(var);
        }
    }

    /// The master's global grant: this unit now owns the lock and hands it to
    /// its local waiters.
    pub(super) fn lock_grant_global(&mut self, var: Addr) {
        let ll = self.engine.vars.local_lock_mut(self.slot);
        ll.has_ownership = true;
        ll.pending_global = false;
        ll.local_grants = 0;
        let (holder_none, has_waiters) = (ll.holder.is_none(), !ll.waiters.is_empty());
        if holder_none && has_waiters {
            self.grant_local_lock();
        } else if holder_none {
            // A grant with no local waiter left to serve (the waiters were
            // redirected to the master while the request was in flight):
            // hand the ownership straight back instead of stranding the lock
            // on a unit that will never release it.
            self.engine.vars.remove_local_lock(self.slot);
            self.engine.release_st(var);
            self.out.push(Outcome::send(
                self.master,
                EngineMsg::LockReleaseGlobal { var },
            ));
        }
    }

    fn grant_local_lock(&mut self) {
        debug_assert!(
            self.engine.vars.local_lock(self.slot).is_some(),
            "local lock state"
        );
        let ll = self.engine.vars.local_lock_mut(self.slot);
        if let Some(next) = ll.waiters.pop_front() {
            ll.holder = Some(next);
            ll.local_grants += 1;
            self.out.push(Outcome::Complete { core: next });
        }
    }

    pub(super) fn master_lock_acquire(&mut self, var: Addr, who: Grantee) {
        let ml = self.engine.vars.master_lock_mut(self.slot);
        if ml.owner.is_none() {
            ml.owner = Some(who);
            self.master_grant(var, who);
        } else {
            ml.waiting.push_back(who);
        }
    }

    pub(super) fn master_lock_release(&mut self, var: Addr) {
        let ml = self.engine.vars.master_lock_mut(self.slot);
        ml.owner = None;
        if let Some(next) = ml.waiting.pop_front() {
            ml.owner = Some(next);
            self.master_grant(var, next);
        } else {
            self.engine.vars.remove_master_lock(self.slot);
            self.engine.release_st(var);
        }
    }

    /// The master's grant: global ownership to a unit, or the lock itself to a
    /// core served at the master level.
    fn master_grant(&mut self, var: Addr, who: Grantee) {
        self.out.push(match who {
            Grantee::Unit(u) => Outcome::send(u, EngineMsg::LockGrantGlobal { var }),
            Grantee::Core(core) => Outcome::Complete { core },
        });
    }
}
