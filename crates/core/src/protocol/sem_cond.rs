//! Semaphores and condition variables, both served at the variable's master
//! engine only (a local engine forwards every request to it). A condition
//! variable releases and re-acquires its associated lock on the waiter's
//! behalf, by injecting lock requests into the protocol. The `protocol`
//! module docs describe signal coalescing and NACK backoff.

use super::{Engine, Outcome, ProtocolConfig, Site};
use crate::request::SyncRequest;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId};

/// Signals banked per condition variable before further signals are NACKed.
const PENDING_SIGNAL_CAP: u16 = 1;

impl Site<'_> {
    pub(super) fn sem_wait(&mut self, core: GlobalCoreId, initial: u32) {
        let sem = self.engine.vars.master_sem_mut(self.slot);
        if !sem.initialized {
            sem.initialized = true;
            sem.count = i64::from(initial);
        }
        if sem.count > 0 {
            sem.count -= 1;
            self.out.push(Outcome::Complete { core });
        } else {
            sem.waiters.push_back(core);
        }
    }

    pub(super) fn sem_post(&mut self) {
        let sem = self.engine.vars.master_sem_mut(self.slot);
        // Whichever operation touches the semaphore first initializes it: a
        // post must mark it initialized so a later wait's `initial` cannot
        // clobber banked posts (post-before-wait is how the open-loop deque
        // workload stays deadlock-free).
        sem.initialized = true;
        if let Some(next) = sem.waiters.pop_front() {
            self.out.push(Outcome::Complete { core: next });
        } else {
            sem.count += 1;
        }
    }

    pub(super) fn cond_wait(&mut self, core: GlobalCoreId, lock: Addr) {
        let mc = self.engine.vars.master_cond_mut(self.slot);
        if self.config.params.signal_coalescing && mc.pending > 0 {
            // A banked signal wakes this waiter immediately: the atomic
            // release-and-wait followed by the instant wake-and-reacquire
            // collapses to the core simply keeping the associated lock.
            mc.pending -= 1;
            self.engine.signals.record_consumed();
            self.out.push(Outcome::Complete { core });
        } else {
            mc.waiters.push_back((core, lock));
            // cond_wait atomically releases the associated lock on behalf of
            // the waiting core.
            self.out.push(Outcome::Inject {
                core,
                req: SyncRequest::LockRelease { var: lock },
            });
        }
    }

    pub(super) fn cond_signal(&mut self, core: GlobalCoreId) {
        let coalescing = self.config.params.signal_coalescing;
        let streak_idx = core.flat_index(self.config.cores_per_unit);
        let mc = self.engine.vars.master_cond_mut(self.slot);
        if let Some((woken, lock)) = mc.waiters.pop_front() {
            // The woken core re-acquires the lock; its cond_wait completes
            // when the lock is granted to it.
            self.engine.signals.record_delivered();
            self.out.push(Outcome::Inject {
                core: woken,
                req: SyncRequest::LockAcquire { var: lock },
            });
            if coalescing {
                self.engine.reset_streak(streak_idx);
                self.out.push(Outcome::Complete { core });
            }
        } else if coalescing {
            if mc.pending < u64::from(PENDING_SIGNAL_CAP) {
                // Bank the signal for the next cond_wait and ACK the signaler.
                mc.pending += 1;
                // The cap is a u16, so the banked count always fits.
                self.engine.signals.record_coalesced(mc.pending as u16);
                self.engine.reset_streak(streak_idx);
                self.out.push(Outcome::Complete { core });
            } else {
                // Pending count at its cap: NACK the signaler with an
                // exponentially growing backoff delay.
                self.engine.signals.record_nacked();
                let delay = self
                    .config
                    .backoff_delay(self.engine.bump_streak(streak_idx));
                self.out.push(Outcome::Nack { core, delay });
            }
        }
    }

    pub(super) fn cond_broadcast(&mut self) {
        let mc = self.engine.vars.master_cond_mut(self.slot);
        for (woken, lock) in mc.waiters.drain(..) {
            self.out.push(Outcome::Inject {
                core: woken,
                req: SyncRequest::LockAcquire { var: lock },
            });
        }
    }
}

impl ProtocolConfig {
    /// The NACK backoff delay after `streak` consecutive NACKs to the same core:
    /// the base doubles per NACK, up to 64x (six doublings).
    fn backoff_delay(&self, streak: u32) -> Time {
        Time::from_ns(self.params.signal_backoff_ns).saturating_mul(1u64 << streak.min(6))
    }
}

impl Engine {
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
