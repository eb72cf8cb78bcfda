//! Core-facing synchronization requests.
//!
//! These mirror SynCron's programming interface (Table 2 of the paper):
//! `lock_acquire/lock_release`, `barrier_wait_within_unit/across_units`,
//! `sem_wait/sem_post`, and `cond_wait/cond_signal/cond_broadcast`. A request is
//! carried to the local Synchronization Engine by one of the two ISA extensions:
//! `req_sync` (blocking; the instruction commits when the response message arrives)
//! for acquire-type semantics, and `req_async` (fire-and-forget) for release-type
//! semantics (Section 4.1.1).

use syncron_sim::Addr;

/// The four synchronization primitives SynCron supports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrimitiveKind {
    /// Mutual-exclusion lock.
    Lock,
    /// Barrier (within one NDP unit or across NDP units).
    Barrier,
    /// Counting semaphore.
    Semaphore,
    /// Condition variable (always associated with a lock).
    CondVar,
}

impl PrimitiveKind {
    /// All primitive kinds.
    pub const ALL: [PrimitiveKind; 4] = [
        PrimitiveKind::Lock,
        PrimitiveKind::Barrier,
        PrimitiveKind::Semaphore,
        PrimitiveKind::CondVar,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveKind::Lock => "lock",
            PrimitiveKind::Barrier => "barrier",
            PrimitiveKind::Semaphore => "semaphore",
            PrimitiveKind::CondVar => "condvar",
        }
    }
}

/// Scope of a barrier (Table 2 supports both).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BarrierScope {
    /// Only cores of a single NDP unit participate.
    WithinUnit,
    /// Cores from different NDP units participate.
    AcrossUnits,
}

/// One synchronization request issued by an NDP core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncRequest {
    /// Acquire the lock at `var`. Blocking.
    LockAcquire {
        /// Address of the lock variable.
        var: Addr,
    },
    /// Release the lock at `var`. Non-blocking.
    LockRelease {
        /// Address of the lock variable.
        var: Addr,
    },
    /// Wait on the barrier at `var` until `participants` cores have arrived. Blocking.
    BarrierWait {
        /// Address of the barrier variable.
        var: Addr,
        /// Total number of participating cores (the `initialCores` API argument).
        participants: u32,
        /// Whether participants span multiple NDP units.
        scope: BarrierScope,
    },
    /// Decrement the semaphore at `var`, waiting if it is zero. Blocking.
    SemWait {
        /// Address of the semaphore variable.
        var: Addr,
        /// Initial number of resources (the `initialResources` API argument); applied
        /// the first time the variable is touched.
        initial: u32,
    },
    /// Increment the semaphore at `var`. Non-blocking.
    SemPost {
        /// Address of the semaphore variable.
        var: Addr,
    },
    /// Atomically release `lock` and wait on the condition variable at `var`;
    /// re-acquires `lock` before returning. Blocking.
    CondWait {
        /// Address of the condition variable.
        var: Addr,
        /// Address of the associated lock (carried in the message's `MessageInfo`).
        lock: Addr,
    },
    /// Wake one waiter of the condition variable at `var`. Non-blocking.
    CondSignal {
        /// Address of the condition variable.
        var: Addr,
    },
    /// Wake all waiters of the condition variable at `var`. Non-blocking.
    CondBroadcast {
        /// Address of the condition variable.
        var: Addr,
    },
}

impl SyncRequest {
    /// The synchronization variable this request targets.
    pub fn var(&self) -> Addr {
        match *self {
            SyncRequest::LockAcquire { var }
            | SyncRequest::LockRelease { var }
            | SyncRequest::BarrierWait { var, .. }
            | SyncRequest::SemWait { var, .. }
            | SyncRequest::SemPost { var }
            | SyncRequest::CondWait { var, .. }
            | SyncRequest::CondSignal { var }
            | SyncRequest::CondBroadcast { var } => var,
        }
    }

    /// The primitive this request belongs to.
    pub fn primitive(&self) -> PrimitiveKind {
        match self {
            SyncRequest::LockAcquire { .. } | SyncRequest::LockRelease { .. } => {
                PrimitiveKind::Lock
            }
            SyncRequest::BarrierWait { .. } => PrimitiveKind::Barrier,
            SyncRequest::SemWait { .. } | SyncRequest::SemPost { .. } => PrimitiveKind::Semaphore,
            SyncRequest::CondWait { .. }
            | SyncRequest::CondSignal { .. }
            | SyncRequest::CondBroadcast { .. } => PrimitiveKind::CondVar,
        }
    }

    /// Whether the issuing core blocks until a response arrives.
    ///
    /// Acquire-type semantics use the blocking `req_sync` instruction; release-type
    /// semantics use `req_async`, which commits once the message is issued
    /// (Section 4.1.1 of the paper).
    pub fn is_blocking(&self) -> bool {
        match self {
            SyncRequest::LockAcquire { .. }
            | SyncRequest::BarrierWait { .. }
            | SyncRequest::SemWait { .. }
            | SyncRequest::CondWait { .. } => true,
            SyncRequest::LockRelease { .. }
            | SyncRequest::SemPost { .. }
            | SyncRequest::CondSignal { .. }
            | SyncRequest::CondBroadcast { .. } => false,
        }
    }

    /// Whether this request has acquire-type semantics (may add the core to a waiting
    /// list). Used by the indexing counters during ST overflow.
    pub fn is_acquire_type(&self) -> bool {
        self.is_blocking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification_follows_paper() {
        let var = Addr(0x40);
        let lock = Addr(0x80);
        assert!(SyncRequest::LockAcquire { var }.is_blocking());
        assert!(!SyncRequest::LockRelease { var }.is_blocking());
        assert!(SyncRequest::BarrierWait {
            var,
            participants: 8,
            scope: BarrierScope::AcrossUnits
        }
        .is_blocking());
        assert!(SyncRequest::SemWait { var, initial: 2 }.is_blocking());
        assert!(!SyncRequest::SemPost { var }.is_blocking());
        assert!(SyncRequest::CondWait { var, lock }.is_blocking());
        assert!(!SyncRequest::CondSignal { var }.is_blocking());
        assert!(!SyncRequest::CondBroadcast { var }.is_blocking());
    }

    #[test]
    fn primitive_classification() {
        let var = Addr(0x40);
        assert_eq!(
            SyncRequest::LockAcquire { var }.primitive(),
            PrimitiveKind::Lock
        );
        assert_eq!(
            SyncRequest::BarrierWait {
                var,
                participants: 4,
                scope: BarrierScope::WithinUnit
            }
            .primitive(),
            PrimitiveKind::Barrier
        );
        assert_eq!(
            SyncRequest::SemPost { var }.primitive(),
            PrimitiveKind::Semaphore
        );
        assert_eq!(
            SyncRequest::CondBroadcast { var }.primitive(),
            PrimitiveKind::CondVar
        );
    }

    #[test]
    fn var_accessor_returns_target() {
        let var = Addr(0x1234);
        for req in [
            SyncRequest::LockAcquire { var },
            SyncRequest::LockRelease { var },
            SyncRequest::SemPost { var },
            SyncRequest::CondSignal { var },
        ] {
            assert_eq!(req.var(), var);
        }
    }

    #[test]
    fn primitive_names_are_distinct() {
        let names: Vec<&str> = PrimitiveKind::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
