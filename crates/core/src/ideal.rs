//! The *Ideal* baseline: synchronization with zero performance overhead.
//!
//! Section 5 of the paper compares every scheme against "an ideal scheme with zero
//! performance overhead for synchronization". Semantics are still enforced — a lock
//! still admits only one holder and a barrier still waits for every participant — but
//! requests travel instantaneously, consume no energy and generate no traffic. The gap
//! between a real scheme and Ideal is exactly the synchronization overhead.
//!
//! Ideal mirrors the signal-coalescing semantics of [`crate::protocol`] whenever the
//! protocol schemes use them, so a sweep always compares identical primitive
//! semantics: with coalescing on (the default), a `cond_signal` that finds no queued
//! waiter is banked as a pending signal and consumed by a later `cond_wait` exactly
//! once — uncapped, since the zero-overhead upper bound never wastes a signal, and
//! without backoff NACKs, since wasted signals cost nothing here. With coalescing
//! off, Ideal drops no-waiter signals just like the real schemes do.

use crate::components::{ComponentTables, Grantee};
use crate::mechanism::{SyncContext, SyncMechanism, SyncMechanismStats};
use crate::request::SyncRequest;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId};

/// Zero-overhead synchronization mechanism.
///
/// Ideal keeps its per-variable state in the same shared
/// `ComponentTables` (crate-private, `components` module) the protocol
/// engines use — the master-side lock,
/// barrier, semaphore and condvar components, with every grantee an
/// individual core (there is no unit-level aggregation to speak of at zero
/// cost). A slot is claimed on first touch: one `addr → slot` probe per
/// request, dense column accesses after that. A lock's slot returns to the free
/// list when a release leaves it with no owner and no waiter, as in the protocol
/// engines, so the arena holds the locks in use rather than every lock the run
/// ever touched. Barrier, semaphore and condvar slots live for the run.
#[derive(Debug)]
pub struct IdealMechanism {
    vars: ComponentTables,
    signal_coalescing: bool,
    stats: SyncMechanismStats,
}

impl Default for IdealMechanism {
    fn default() -> Self {
        IdealMechanism::new()
    }
}

impl IdealMechanism {
    /// Creates an idle mechanism with signal coalescing on (the protocol default).
    /// The arena grows on each variable's first touch.
    pub fn new() -> Self {
        IdealMechanism {
            vars: ComponentTables::default(),
            signal_coalescing: true,
            stats: SyncMechanismStats::default(),
        }
    }

    /// Enables or disables signal coalescing, matching the semantics the protocol
    /// schemes are configured with so sweeps stay apples-to-apples.
    pub fn with_signal_coalescing(mut self, enabled: bool) -> Self {
        self.signal_coalescing = enabled;
        self
    }

    /// The slot tracking `var`, claimed on first touch.
    fn slot(&mut self, var: Addr) -> usize {
        self.vars.resolve(var) as usize
    }

    fn grant_lock(&mut self, ctx: &mut dyn SyncContext, slot: usize, core: GlobalCoreId) {
        let lock = self.vars.master_lock_mut(slot);
        debug_assert!(lock.owner.is_none());
        lock.owner = Some(Grantee::Core(core));
        self.stats.completions += 1;
        ctx.complete(core, ctx.now());
    }

    fn acquire_lock(&mut self, ctx: &mut dyn SyncContext, slot: usize, core: GlobalCoreId) {
        let lock = self.vars.master_lock_mut(slot);
        if lock.owner.is_some() {
            lock.waiting.push_back(Grantee::Core(core));
        } else {
            self.grant_lock(ctx, slot, core);
        }
    }

    /// Hands the lock to its next waiter, or frees its slot when none is queued.
    fn release_lock(&mut self, ctx: &mut dyn SyncContext, slot: usize) {
        let lock = self.vars.master_lock_mut(slot);
        lock.owner = None;
        if let Some(Grantee::Core(next)) = lock.waiting.pop_front() {
            self.grant_lock(ctx, slot, next);
        } else {
            self.vars.remove_master_lock(slot);
            self.vars.release_if_unused(slot as u32);
        }
    }
}

impl SyncMechanism for IdealMechanism {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn request(&mut self, ctx: &mut dyn SyncContext, core: GlobalCoreId, req: SyncRequest) {
        self.stats.requests += 1;
        if req.is_acquire_type() {
            self.stats.acquire_requests += 1;
        }
        match req {
            SyncRequest::LockAcquire { var } => {
                let slot = self.slot(var);
                self.acquire_lock(ctx, slot, core);
            }
            SyncRequest::LockRelease { var } => {
                let slot = self.slot(var);
                self.release_lock(ctx, slot);
            }
            SyncRequest::BarrierWait {
                var, participants, ..
            } => {
                let slot = self.slot(var);
                let bar = self.vars.master_barrier_mut(slot);
                bar.arrived += 1;
                bar.direct_waiters.push(core);
                if bar.arrived >= participants {
                    bar.arrived = 0;
                    // The barrier state is left empty with its buffer retained.
                    // Every `ctx.complete` lands at the same timestamp and
                    // queues one resume per waiter, in arrival order.
                    for i in 0..bar.direct_waiters.len() {
                        let w = bar.direct_waiters[i];
                        self.stats.completions += 1;
                        ctx.complete(w, ctx.now());
                    }
                    bar.direct_waiters.clear();
                }
            }
            SyncRequest::SemWait { var, initial } => {
                let slot = self.slot(var);
                let sem = self.vars.master_sem_mut(slot);
                if !sem.initialized {
                    sem.initialized = true;
                    sem.count = i64::from(initial);
                }
                if sem.count > 0 {
                    sem.count -= 1;
                    self.stats.completions += 1;
                    ctx.complete(core, ctx.now());
                } else {
                    sem.waiters.push_back(core);
                }
            }
            SyncRequest::SemPost { var } => {
                let slot = self.slot(var);
                let sem = self.vars.master_sem_mut(slot);
                // First touch initializes (mirrors `crate::protocol`): a later
                // wait's `initial` must not clobber posts banked before it.
                sem.initialized = true;
                if let Some(next) = sem.waiters.pop_front() {
                    self.stats.completions += 1;
                    ctx.complete(next, ctx.now());
                } else {
                    sem.count += 1;
                }
            }
            SyncRequest::CondWait { var, lock } => {
                let slot = self.slot(var);
                let cond = self.vars.master_cond_mut(slot);
                if self.signal_coalescing && cond.pending > 0 {
                    // Consume one banked signal: the wait returns immediately, the
                    // core keeps holding the associated lock.
                    cond.pending -= 1;
                    self.stats.consumed_signals += 1;
                    self.stats.completions += 1;
                    ctx.complete(core, ctx.now());
                } else {
                    cond.waiters.push_back((core, lock));
                    let lock_slot = self.slot(lock);
                    self.release_lock(ctx, lock_slot);
                }
            }
            SyncRequest::CondSignal { var } => {
                let slot = self.slot(var);
                let cond = self.vars.master_cond_mut(slot);
                if let Some((w, lock)) = cond.waiters.pop_front() {
                    // The woken core re-acquires the associated lock; its cond_wait
                    // completes when the lock is granted.
                    self.stats.delivered_signals += 1;
                    let lock_slot = self.slot(lock);
                    self.acquire_lock(ctx, lock_slot, w);
                } else if self.signal_coalescing {
                    // Uncapped pending count: the u64 component never saturates
                    // in practice and the bound never wastes a signal.
                    cond.pending = cond.pending.saturating_add(1);
                    let pending = cond.pending;
                    self.stats.coalesced_signals += 1;
                    self.stats.max_pending_signals = self.stats.max_pending_signals.max(pending);
                }
            }
            SyncRequest::CondBroadcast { var } => {
                let slot = self.slot(var);
                // Waking a waiter re-acquires its lock through `self`, so pop
                // one at a time instead of holding a borrow of the waiter queue.
                while let Some((w, lock)) = self.vars.master_cond_mut(slot).waiters.pop_front() {
                    let lock_slot = self.slot(lock);
                    self.acquire_lock(ctx, lock_slot, w);
                }
            }
        }
    }

    fn deliver(&mut self, _ctx: &mut dyn SyncContext, _token: u64) {
        // The ideal mechanism never schedules events.
    }

    fn stats(&self, _end: Time) -> SyncMechanismStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::BarrierScope;
    use syncron_sim::{CoreId, UnitId};

    /// A minimal context for unit-testing mechanisms in isolation.
    #[derive(Debug, Default)]
    pub(crate) struct TestCtx {
        pub now: Time,
        pub completed: Vec<(GlobalCoreId, Time)>,
        pub scheduled: Vec<(Time, u64)>,
    }

    impl SyncContext for TestCtx {
        fn now(&self) -> Time {
            self.now
        }
        fn schedule(&mut self, at: Time, _unit: UnitId, token: u64) {
            self.scheduled.push((at, token));
        }
        fn local_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
            Time::from_ns(2)
        }
        fn send_remote(
            &mut self,
            _at: Time,
            _from: UnitId,
            _to: UnitId,
            _bytes: u64,
            payload: crate::mechanism::RemotePayload,
        ) {
            panic!("the ideal mechanism never sends remote payloads: {payload:?}");
        }
        fn recv_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
            Time::ZERO
        }
        fn sync_mem_access(
            &mut self,
            _unit: UnitId,
            _addr: Addr,
            _write: bool,
            _cached: bool,
        ) -> Time {
            Time::from_ns(20)
        }
        fn home_unit(&self, addr: Addr) -> UnitId {
            UnitId(((addr.value() >> 20) % 4) as u8)
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

    fn core(u: u8, c: u8) -> GlobalCoreId {
        GlobalCoreId::new(UnitId(u), CoreId(c))
    }

    #[test]
    fn lock_is_mutually_exclusive_and_fifo() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let var = Addr(0x40);
        m.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var });
        m.request(&mut ctx, core(0, 1), SyncRequest::LockAcquire { var });
        m.request(&mut ctx, core(1, 0), SyncRequest::LockAcquire { var });
        assert_eq!(ctx.completed.len(), 1);
        assert_eq!(ctx.completed[0].0, core(0, 0));
        m.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var });
        assert_eq!(ctx.completed.len(), 2);
        assert_eq!(ctx.completed[1].0, core(0, 1));
        m.request(&mut ctx, core(0, 1), SyncRequest::LockRelease { var });
        m.request(&mut ctx, core(1, 0), SyncRequest::LockRelease { var });
        assert_eq!(ctx.completed.len(), 3);
        assert_eq!(ctx.completed[2].0, core(1, 0));
    }

    #[test]
    fn lock_completion_has_zero_latency() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx {
            now: Time::from_us(3),
            ..Default::default()
        };
        m.request(
            &mut ctx,
            core(0, 0),
            SyncRequest::LockAcquire { var: Addr(0x80) },
        );
        assert_eq!(ctx.completed[0].1, Time::from_us(3));
    }

    #[test]
    fn barrier_releases_all_at_once() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let var = Addr(0x100);
        for i in 0..7 {
            m.request(
                &mut ctx,
                core(i / 4, i % 4),
                SyncRequest::BarrierWait {
                    var,
                    participants: 8,
                    scope: BarrierScope::AcrossUnits,
                },
            );
            assert!(ctx.completed.is_empty());
        }
        m.request(
            &mut ctx,
            core(1, 3),
            SyncRequest::BarrierWait {
                var,
                participants: 8,
                scope: BarrierScope::AcrossUnits,
            },
        );
        assert_eq!(ctx.completed.len(), 8);
    }

    #[test]
    fn barrier_is_reusable_after_release() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let var = Addr(0x100);
        for round in 0..3 {
            for i in 0..4 {
                m.request(
                    &mut ctx,
                    core(0, i),
                    SyncRequest::BarrierWait {
                        var,
                        participants: 4,
                        scope: BarrierScope::WithinUnit,
                    },
                );
            }
            assert_eq!(ctx.completed.len(), 4 * (round + 1));
        }
    }

    #[test]
    fn semaphore_counts_resources() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let var = Addr(0x200);
        // Two resources: first two waits succeed, third blocks until a post.
        m.request(
            &mut ctx,
            core(0, 0),
            SyncRequest::SemWait { var, initial: 2 },
        );
        m.request(
            &mut ctx,
            core(0, 1),
            SyncRequest::SemWait { var, initial: 2 },
        );
        m.request(
            &mut ctx,
            core(0, 2),
            SyncRequest::SemWait { var, initial: 2 },
        );
        assert_eq!(ctx.completed.len(), 2);
        m.request(&mut ctx, core(0, 0), SyncRequest::SemPost { var });
        assert_eq!(ctx.completed.len(), 3);
        assert_eq!(ctx.completed[2].0, core(0, 2));
    }

    #[test]
    fn condvar_signal_wakes_one_and_reacquires_lock() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let cond = Addr(0x300);
        let lock = Addr(0x340);
        // Core 0 takes the lock then waits on the condition variable.
        m.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: lock });
        assert_eq!(ctx.completed.len(), 1);
        m.request(
            &mut ctx,
            core(0, 0),
            SyncRequest::CondWait { var: cond, lock },
        );
        // cond_wait released the lock, so another core can take it.
        m.request(&mut ctx, core(0, 1), SyncRequest::LockAcquire { var: lock });
        assert_eq!(ctx.completed.len(), 2);
        // Signal: core 0 must wait for the lock (held by core 1).
        m.request(&mut ctx, core(0, 1), SyncRequest::CondSignal { var: cond });
        assert_eq!(ctx.completed.len(), 2);
        m.request(&mut ctx, core(0, 1), SyncRequest::LockRelease { var: lock });
        // Now core 0's cond_wait completes (it re-acquired the lock).
        assert_eq!(ctx.completed.len(), 3);
        assert_eq!(ctx.completed[2].0, core(0, 0));
    }

    #[test]
    fn condvar_banks_pending_signals_each_consumed_once() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let cond = Addr(0x300);
        let lock = Addr(0x340);
        // Two signals with no waiter are both banked.
        m.request(&mut ctx, core(1, 0), SyncRequest::CondSignal { var: cond });
        m.request(&mut ctx, core(1, 0), SyncRequest::CondSignal { var: cond });
        // The next two waits each consume one banked signal and return immediately.
        for c in 0..2 {
            m.request(&mut ctx, core(0, c), SyncRequest::LockAcquire { var: lock });
            m.request(
                &mut ctx,
                core(0, c),
                SyncRequest::CondWait { var: cond, lock },
            );
            m.request(&mut ctx, core(0, c), SyncRequest::LockRelease { var: lock });
        }
        assert_eq!(ctx.completed.len(), 4, "both waits returned immediately");
        // A third wait blocks: each signal was consumed exactly once.
        m.request(&mut ctx, core(0, 2), SyncRequest::LockAcquire { var: lock });
        m.request(
            &mut ctx,
            core(0, 2),
            SyncRequest::CondWait { var: cond, lock },
        );
        assert_eq!(ctx.completed.len(), 5, "only the lock acquire completed");
        let s = m.stats(Time::ZERO);
        assert_eq!(s.coalesced_signals, 2);
        assert_eq!(s.consumed_signals, 2);
    }

    #[test]
    fn coalescing_off_drops_no_waiter_signals() {
        // With the knob off, Ideal matches the protocol schemes' restored
        // fire-and-forget semantics: a signal with no waiter is lost.
        let mut m = IdealMechanism::new().with_signal_coalescing(false);
        let mut ctx = TestCtx::default();
        let cond = Addr(0x300);
        let lock = Addr(0x340);
        m.request(&mut ctx, core(1, 0), SyncRequest::CondSignal { var: cond });
        m.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var: lock });
        m.request(
            &mut ctx,
            core(0, 0),
            SyncRequest::CondWait { var: cond, lock },
        );
        assert_eq!(ctx.completed.len(), 1, "the wait must block");
        let s = m.stats(Time::ZERO);
        assert_eq!(s.coalesced_signals, 0);
        // A real signal still wakes the waiter.
        m.request(&mut ctx, core(1, 0), SyncRequest::CondSignal { var: cond });
        assert_eq!(ctx.completed.len(), 2);
        assert_eq!(m.stats(Time::ZERO).delivered_signals, 1);
    }

    #[test]
    fn condvar_broadcast_wakes_all() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let cond = Addr(0x400);
        let lock = Addr(0x440);
        for i in 0..3 {
            m.request(&mut ctx, core(0, i), SyncRequest::LockAcquire { var: lock });
            m.request(
                &mut ctx,
                core(0, i),
                SyncRequest::CondWait { var: cond, lock },
            );
        }
        assert_eq!(ctx.completed.len(), 3); // the three lock acquisitions
        m.request(
            &mut ctx,
            core(1, 0),
            SyncRequest::CondBroadcast { var: cond },
        );
        // All three waiters re-acquire the lock one after another as it is released.
        assert_eq!(ctx.completed.len(), 4);
        let fourth = ctx.completed[3].0;
        m.request(&mut ctx, fourth, SyncRequest::LockRelease { var: lock });
        assert_eq!(ctx.completed.len(), 5);
        let fifth = ctx.completed[4].0;
        m.request(&mut ctx, fifth, SyncRequest::LockRelease { var: lock });
        assert_eq!(ctx.completed.len(), 6);
    }

    #[test]
    fn idle_locks_free_their_slots_and_locks_with_waiters_keep_them() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let locks: Vec<Addr> = (0..300).map(|i| Addr(0x1000 + i * 64)).collect();
        // Core (0, 0) holds every lock at once; core (0, 1) queues on the even ones.
        for &var in &locks {
            m.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var });
        }
        for &var in locks.iter().step_by(2) {
            m.request(&mut ctx, core(0, 1), SyncRequest::LockAcquire { var });
        }
        assert_eq!(m.vars.live(), locks.len());
        for &var in &locks {
            m.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var });
        }
        // A release with a waiter queued hands the lock over and keeps the slot.
        for (i, &var) in locks.iter().enumerate() {
            assert_eq!(m.vars.lookup(var).is_some(), i % 2 == 0, "lock {i}");
        }
        for &var in locks.iter().step_by(2) {
            m.request(&mut ctx, core(0, 1), SyncRequest::LockRelease { var });
        }
        assert_eq!(ctx.completed.len(), locks.len() * 3 / 2);
        assert!(locks.iter().all(|&var| m.vars.lookup(var).is_none()));
        assert_eq!(m.vars.live(), 0);
        // A freed slot serves the next lock, which works as before.
        let var = Addr(0x80_0000);
        m.request(&mut ctx, core(1, 0), SyncRequest::LockAcquire { var });
        m.request(&mut ctx, core(1, 1), SyncRequest::LockAcquire { var });
        assert!(m
            .vars
            .lookup(var)
            .is_some_and(|slot| (slot as usize) < locks.len()));
        m.request(&mut ctx, core(1, 0), SyncRequest::LockRelease { var });
        assert_eq!(ctx.completed.last().map(|c| c.0), Some(core(1, 1)));
    }

    #[test]
    fn stats_count_requests_and_completions() {
        let mut m = IdealMechanism::new();
        let mut ctx = TestCtx::default();
        let var = Addr(0x40);
        m.request(&mut ctx, core(0, 0), SyncRequest::LockAcquire { var });
        m.request(&mut ctx, core(0, 0), SyncRequest::LockRelease { var });
        let s = m.stats(Time::from_ns(10));
        assert_eq!(s.requests, 2);
        assert_eq!(s.completions, 1);
        assert_eq!(s.acquire_requests, 1);
        assert_eq!(s.local_messages, 0);
        assert_eq!(s.global_messages, 0);
        assert_eq!(s.mem_accesses, 0);
    }
}
