//! The shared ownership-of-state layer: per-primitive component tables.
//!
//! Every mechanism keeps its per-variable state here — lock, barrier, semaphore
//! and condition-variable sub-state live in separate dense arrays (one component
//! column per primitive), all keyed by the same arena slot index. A message
//! resolves its variable's slot **once** ([`ComponentTables::resolve`]); every
//! later state touch is a dense column access. This is the ECS-style split the
//! ROADMAP called for: the tables own the state, a
//! [`SyncPolicy`](crate::policy::SyncPolicy) decides who touches it, and the
//! protocol engine in [`crate::protocol`] merely moves messages between the two.
//!
//! Slot lifecycle: a slot is claimed on first touch and recycled through a free
//! list as soon as no component of its variable is present anymore. Absent
//! components are always in their reset condition, so claiming one sets only a
//! presence bit — the waiter containers (queues and vectors) keep their
//! allocated buffers across lifecycles, and a slot freed as a lock comes back
//! clean when it is reused as a barrier (pinned by the recycling tests below).

use std::collections::VecDeque;

use syncron_sim::{Addr, FxHashMap, GlobalCoreId, UnitId};

/// Who currently holds (or waits for) a lock at the master level: either a whole NDP
/// unit (hierarchical aggregation) or an individual core (flat topology, ST-overflow
/// redirection, MiSAR fallback).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Grantee {
    /// A whole NDP unit (its engine aggregates the unit's waiters).
    Unit(UnitId),
    /// An individual core.
    Core(GlobalCoreId),
}

/// Unit-local lock aggregation state (hierarchical topologies).
#[derive(Debug, Default)]
pub(crate) struct LocalLock {
    pub(crate) waiters: VecDeque<GlobalCoreId>,
    pub(crate) holder: Option<GlobalCoreId>,
    pub(crate) has_ownership: bool,
    pub(crate) pending_global: bool,
    pub(crate) local_grants: u32,
}

impl LocalLock {
    fn reset(&mut self) {
        self.waiters.clear();
        self.holder = None;
        self.has_ownership = false;
        self.pending_global = false;
        self.local_grants = 0;
    }
}

/// Master-side lock arbitration state.
#[derive(Debug, Default)]
pub(crate) struct MasterLock {
    pub(crate) owner: Option<Grantee>,
    pub(crate) waiting: VecDeque<Grantee>,
}

impl MasterLock {
    fn reset(&mut self) {
        self.owner = None;
        self.waiting.clear();
    }
}

/// Unit-local barrier aggregation state (two-level full-system barriers).
#[derive(Debug, Default)]
pub(crate) struct LocalBarrier {
    pub(crate) waiters: Vec<GlobalCoreId>,
    pub(crate) announced: bool,
}

impl LocalBarrier {
    fn reset(&mut self) {
        self.waiters.clear();
        self.announced = false;
    }
}

/// Master-side barrier state.
#[derive(Debug, Default)]
pub(crate) struct MasterBarrier {
    pub(crate) arrived: u32,
    pub(crate) participants: u32,
    pub(crate) arrived_units: Vec<UnitId>,
    pub(crate) direct_waiters: Vec<GlobalCoreId>,
}

impl MasterBarrier {
    fn reset(&mut self) {
        self.arrived = 0;
        self.participants = 0;
        self.arrived_units.clear();
        self.direct_waiters.clear();
    }
}

/// Master-side semaphore state.
#[derive(Debug, Default)]
pub(crate) struct MasterSem {
    pub(crate) initialized: bool,
    pub(crate) count: i64,
    pub(crate) waiters: VecDeque<GlobalCoreId>,
}

/// Master-side condition-variable state.
#[derive(Debug, Default)]
pub(crate) struct MasterCond {
    pub(crate) waiters: VecDeque<(GlobalCoreId, Addr)>,
    /// Signals banked while no waiter was queued (signal-coalescing extension).
    /// `u64` so the uncapped Ideal mechanism shares the component; the protocol
    /// engine banks at most one signal.
    pub(crate) pending: u64,
}

/// Master-side tail pointer of the MCS queue lock: the last enqueued waiter, or
/// `None` while the lock is free. The `(core, seq)` pair identifies one queue-node
/// *instance* — the sequence number disambiguates a core that releases and
/// immediately re-acquires while its release is still in flight (the classic ABA
/// hazard of a tail compare-and-swap).
#[derive(Debug, Default)]
pub(crate) struct McsTail {
    pub(crate) tail: Option<(GlobalCoreId, u32)>,
}

impl McsTail {
    fn reset(&mut self) {
        self.tail = None;
    }
}

/// One core's MCS queue node(s) at its local engine.
///
/// At most two instances exist per core and variable: the *live* one (queued or
/// holding the lock) and a *dying* one (released with no known successor, waiting
/// for the master to confirm the tail swap or for a late link to arrive). Each
/// instance carries the sequence number it was enqueued with.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct McsNode {
    /// A live instance exists (queued at the master or holding the lock).
    pub(crate) queued: bool,
    /// Sequence number of the live instance.
    pub(crate) queued_seq: u32,
    /// Successor recorded for the live instance (set by a link message).
    pub(crate) next: Option<GlobalCoreId>,
    /// A dying instance exists (release sent, tail confirmation pending).
    pub(crate) releasing: bool,
    /// Sequence number of the dying instance.
    pub(crate) releasing_seq: u32,
    /// Next sequence number to assign at enqueue.
    seq: u32,
}

/// Result of releasing an MCS lock at the holder's engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum McsRelease {
    /// A successor is already linked: grant it directly, the master is untouched.
    Handoff(GlobalCoreId),
    /// No successor known: the node turns dying and the master must confirm the
    /// tail swap for the instance with this sequence number.
    TailRace(u32),
}

/// The per-variable MCS queue nodes of one engine, indexed by local core.
#[derive(Debug, Default)]
pub(crate) struct McsNodes {
    pub(crate) nodes: Vec<McsNode>,
    /// Live + dying instances currently tracked (0 ⇒ the component is removable).
    pub(crate) active: u32,
}

impl McsNodes {
    fn reset(&mut self) {
        debug_assert_eq!(self.active, 0, "resetting MCS nodes with instances live");
        for n in &mut self.nodes {
            *n = McsNode::default();
        }
        self.active = 0;
    }

    /// Grows the node table to the engine's core count (buffer kept across reuse).
    pub(crate) fn ensure(&mut self, cores_per_unit: usize) {
        if self.nodes.len() < cores_per_unit {
            self.nodes.resize(cores_per_unit, McsNode::default());
        }
    }

    /// Claims a fresh live instance for local core `local`; returns its sequence
    /// number (to travel with the enqueue message).
    pub(crate) fn enqueue(&mut self, local: usize) -> u32 {
        let n = &mut self.nodes[local];
        debug_assert!(!n.queued, "core enqueued twice on one MCS lock");
        n.seq = n.seq.wrapping_add(1);
        n.queued = true;
        n.queued_seq = n.seq;
        n.next = None;
        self.active += 1;
        n.seq
    }

    /// Releases the live instance of `local`.
    pub(crate) fn release(&mut self, local: usize) -> McsRelease {
        let n = &mut self.nodes[local];
        debug_assert!(n.queued, "MCS release without a live node");
        if let Some(succ) = n.next.take() {
            n.queued = false;
            self.active -= 1;
            McsRelease::Handoff(succ)
        } else {
            debug_assert!(!n.releasing, "two dying MCS instances for one core");
            n.releasing = true;
            n.releasing_seq = n.queued_seq;
            n.queued = false;
            McsRelease::TailRace(n.releasing_seq)
        }
    }

    /// A link message arrived for instance `(local, seq)`: either records the
    /// successor on the live instance, or — if that instance is already dying —
    /// consumes it and returns the successor to grant directly.
    pub(crate) fn link(
        &mut self,
        local: usize,
        seq: u32,
        succ: GlobalCoreId,
    ) -> Option<GlobalCoreId> {
        let n = &mut self.nodes[local];
        if n.releasing && n.releasing_seq == seq {
            n.releasing = false;
            self.active -= 1;
            Some(succ)
        } else {
            debug_assert!(
                n.queued && n.queued_seq == seq,
                "MCS link for an unknown node instance"
            );
            n.next = Some(succ);
            None
        }
    }

    /// The master confirmed the tail swap for dying instance `(local, seq)`:
    /// reap it. Returns `false` for a stale confirmation (already reaped by a
    /// racing link), which callers treat as a no-op.
    pub(crate) fn reap(&mut self, local: usize, seq: u32) -> bool {
        let n = &mut self.nodes[local];
        if n.releasing && n.releasing_seq == seq {
            n.releasing = false;
            self.active -= 1;
            true
        } else {
            debug_assert!(false, "MCS node-free for an unknown node instance");
            false
        }
    }
}

/// Presence bits of the component columns. A bit plays the role the old
/// per-mechanism `FxHashMap` entry played: set = "the map would contain this
/// variable". Absent components are always in their reset condition, so claiming
/// one is just setting the bit — no construction, and the waiter containers keep
/// their allocated buffers across lifecycles.
const P_LOCAL_LOCK: u8 = 1 << 0;
const P_MASTER_LOCK: u8 = 1 << 1;
const P_LOCAL_BARRIER: u8 = 1 << 2;
const P_MASTER_BARRIER: u8 = 1 << 3;
const P_MASTER_SEM: u8 = 1 << 4;
const P_MASTER_COND: u8 = 1 << 5;
const P_MCS_TAIL: u8 = 1 << 6;
const P_MCS_NODES: u8 = 1 << 7;

macro_rules! component {
    ($(#[$doc:meta])* $get:ident, $get_mut:ident, $remove:ident, $field:ident, $ty:ty, $bit:ident) => {
        $(#[$doc])*
        pub(crate) fn $get(&self, slot: usize) -> Option<&$ty> {
            (self.present[slot] & $bit != 0).then(|| &self.$field[slot])
        }

        /// Mutable access, claiming the component if absent (absent components
        /// are kept reset, so claiming is just the presence bit).
        pub(crate) fn $get_mut(&mut self, slot: usize) -> &mut $ty {
            self.present[slot] |= $bit;
            &mut self.$field[slot]
        }

        /// Removes the component, resetting its state (buffers retained).
        pub(crate) fn $remove(&mut self, slot: usize) {
            if self.present[slot] & $bit != 0 {
                self.present[slot] &= !$bit;
                self.$field[slot].reset();
            }
        }
    };
}

/// One engine's per-variable state: a single `addr → slot` index plus dense
/// per-primitive component columns sharing one slot arena and free list.
///
/// Steady-state discipline: the index is probed **once per message**
/// ([`ComponentTables::resolve`]); every later state touch of that message is a
/// dense column access. Slots whose variable ends a message with no component
/// left are recycled — with their waiter-queue buffers intact — so the arena's
/// high-water mark is the number of *concurrently* tracked variables. The
/// tables start empty and grow from use: once that high-water mark is reached,
/// the hot path stops allocating.
#[derive(Debug, Default)]
pub(crate) struct ComponentTables {
    index: FxHashMap<Addr, u32>,
    free: Vec<u32>,
    addr: Vec<Addr>,
    present: Vec<u8>,
    /// Whether the MiSAR abort broadcast for this variable was already charged
    /// at this engine. Sticky: once set, the slot is pinned for the run.
    misar_abort_sent: Vec<bool>,
    local_lock: Vec<LocalLock>,
    master_lock: Vec<MasterLock>,
    local_barrier: Vec<LocalBarrier>,
    master_barrier: Vec<MasterBarrier>,
    master_sem: Vec<MasterSem>,
    master_cond: Vec<MasterCond>,
    mcs_tail: Vec<McsTail>,
    mcs_nodes: Vec<McsNodes>,
}

impl ComponentTables {
    /// The slot currently tracking `var`, if any (no insertion).
    pub(crate) fn lookup(&self, var: Addr) -> Option<u32> {
        self.index.get(&var).copied()
    }

    /// The slot tracking `var`, claiming a recycled or fresh one if absent.
    pub(crate) fn resolve(&mut self, var: Addr) -> u32 {
        if let Some(&slot) = self.index.get(&var) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.is_unused(slot as usize),
                    "free-listed slot still holds state"
                );
                self.addr[slot as usize] = var;
                slot
            }
            None => {
                let slot = self.addr.len() as u32;
                self.addr.push(var);
                self.present.push(0);
                self.misar_abort_sent.push(false);
                self.local_lock.push(LocalLock::default());
                self.master_lock.push(MasterLock::default());
                self.local_barrier.push(LocalBarrier::default());
                self.master_barrier.push(MasterBarrier::default());
                self.master_sem.push(MasterSem::default());
                self.master_cond.push(MasterCond::default());
                self.mcs_tail.push(McsTail::default());
                self.mcs_nodes.push(McsNodes::default());
                slot
            }
        };
        self.index.insert(var, slot);
        slot
    }

    /// Returns `slot` to the free list if its variable holds no state anymore.
    pub(crate) fn release_if_unused(&mut self, slot: u32) {
        if self.is_unused(slot as usize) {
            self.index.remove(&self.addr[slot as usize]);
            self.free.push(slot);
        }
    }

    /// Whether the slot holds no component at all and can return to the free list.
    fn is_unused(&self, slot: usize) -> bool {
        self.present[slot] == 0 && !self.misar_abort_sent[slot]
    }

    /// The variable tracked by `slot` (meaningful while indexed).
    #[cfg(test)]
    pub(crate) fn addr(&self, slot: usize) -> Addr {
        self.addr[slot]
    }

    component!(
        /// Unit-local lock aggregation component.
        local_lock,
        local_lock_mut,
        remove_local_lock,
        local_lock,
        LocalLock,
        P_LOCAL_LOCK
    );
    component!(
        /// Master-side lock arbitration component.
        master_lock_ref,
        master_lock_mut,
        remove_master_lock,
        master_lock,
        MasterLock,
        P_MASTER_LOCK
    );
    component!(
        /// Unit-local barrier aggregation component.
        local_barrier_ref,
        local_barrier_mut,
        remove_local_barrier,
        local_barrier,
        LocalBarrier,
        P_LOCAL_BARRIER
    );
    component!(
        /// Master-side barrier component.
        master_barrier_ref,
        master_barrier_mut,
        remove_master_barrier,
        master_barrier,
        MasterBarrier,
        P_MASTER_BARRIER
    );
    component!(
        /// Master-side MCS tail-pointer component.
        mcs_tail_ref,
        mcs_tail_mut,
        remove_mcs_tail,
        mcs_tail,
        McsTail,
        P_MCS_TAIL
    );
    component!(
        /// Per-waiter MCS queue-node component.
        mcs_nodes_ref,
        mcs_nodes_mut,
        remove_mcs_nodes,
        mcs_nodes,
        McsNodes,
        P_MCS_NODES
    );

    /// Master-side semaphore component (claiming; sticky at the serving engine,
    /// like the old map entry — semaphore state outlives quiescence).
    pub(crate) fn master_sem_mut(&mut self, slot: usize) -> &mut MasterSem {
        self.present[slot] |= P_MASTER_SEM;
        &mut self.master_sem[slot]
    }

    /// Master-side condition-variable component (claiming; sticky like semaphores).
    pub(crate) fn master_cond_mut(&mut self, slot: usize) -> &mut MasterCond {
        self.present[slot] |= P_MASTER_COND;
        &mut self.master_cond[slot]
    }

    /// Master-side semaphore component, if present.
    #[cfg(test)]
    pub(crate) fn master_sem_ref(&self, slot: usize) -> Option<&MasterSem> {
        (self.present[slot] & P_MASTER_SEM != 0).then(|| &self.master_sem[slot])
    }

    /// Depth of the master-side lock waiting queue (0 when the component is
    /// absent). The contention signal adaptive policies switch on.
    pub(crate) fn master_lock_depth(&self, slot: usize) -> u32 {
        self.master_lock_ref(slot)
            .map_or(0, |ml| ml.waiting.len() as u32)
    }

    /// Marks the MiSAR abort broadcast as charged for `slot`; returns `true` if
    /// this call was the first (the broadcast should be charged now).
    pub(crate) fn claim_misar_abort(&mut self, slot: usize) -> bool {
        !std::mem::replace(&mut self.misar_abort_sent[slot], true)
    }

    /// Number of variables currently tracked.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.index.len()
    }

    /// Allocated slot capacity (for the no-steady-state-growth tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.addr.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_sim::{CoreId, SimRng};

    fn core(u: u8, c: u8) -> GlobalCoreId {
        GlobalCoreId::new(UnitId(u), CoreId(c))
    }

    #[test]
    fn slot_freed_as_lock_reused_as_barrier_leaks_nothing() {
        let mut t = ComponentTables::default();
        let a = Addr(0x40);
        let slot = t.resolve(a) as usize;
        {
            let ll = t.local_lock_mut(slot);
            ll.waiters.push_back(core(0, 1));
            ll.waiters.push_back(core(0, 2));
            ll.holder = Some(core(0, 0));
            ll.has_ownership = true;
            ll.local_grants = 7;
        }
        t.master_lock_mut(slot)
            .waiting
            .push_back(Grantee::Unit(UnitId(3)));
        t.remove_local_lock(slot);
        t.remove_master_lock(slot);
        t.release_if_unused(slot as u32);
        assert!(t.lookup(a).is_none(), "freed slot still indexed");

        // The recycled slot now tracks a *barrier* variable: the index answers
        // the new address and no lock state crossed the recycle.
        let b = Addr(0x80);
        let slot2 = t.resolve(b) as usize;
        assert_eq!(slot, slot2, "free list must hand the slot back");
        assert_eq!(t.addr(slot2), b);
        assert!(t.local_lock(slot2).is_none(), "lock presence leaked");
        assert!(t.master_lock_ref(slot2).is_none(), "master lock leaked");
        let mb = t.master_barrier_mut(slot2);
        assert_eq!(mb.arrived, 0);
        assert!(mb.arrived_units.is_empty());
        assert!(mb.direct_waiters.is_empty());
        // And the freshly claimed lock component (same slot) is reset too.
        let ll = t.local_lock_mut(slot2);
        assert!(ll.waiters.is_empty(), "waiters leaked across the recycle");
        assert_eq!(ll.holder, None);
        assert!(!ll.has_ownership);
        assert_eq!(ll.local_grants, 0);
    }

    #[test]
    fn recycling_is_clean_across_every_primitive_pair() {
        // Randomized property: claim a random subset of components on a slot,
        // populate them, remove them, recycle, and verify the next variable in
        // that slot observes fully reset state for *every* primitive.
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0xEC5_0000 + case);
            let mut t = ComponentTables::default();
            for round in 0..20u64 {
                let var = Addr(0x40 * (round + 1));
                let slot = t.resolve(var) as usize;
                // Absent components must always read as reset.
                assert!(t.local_lock(slot).is_none());
                assert!(t.master_lock_ref(slot).is_none());
                assert!(t.local_barrier_ref(slot).is_none());
                assert!(t.master_barrier_ref(slot).is_none());
                assert!(t.mcs_tail_ref(slot).is_none());
                assert!(t.mcs_nodes_ref(slot).is_none());
                assert!(t.master_sem_ref(slot).is_none());
                if rng.gen_bool(0.5) {
                    t.local_lock_mut(slot).waiters.push_back(core(0, 0));
                }
                if rng.gen_bool(0.5) {
                    t.master_lock_mut(slot).owner = Some(Grantee::Core(core(1, 1)));
                }
                if rng.gen_bool(0.5) {
                    t.local_barrier_mut(slot).waiters.push(core(2, 2));
                }
                if rng.gen_bool(0.5) {
                    let mb = t.master_barrier_mut(slot);
                    mb.arrived = 3;
                    mb.arrived_units.push(UnitId(1));
                }
                if rng.gen_bool(0.5) {
                    t.mcs_tail_mut(slot).tail = Some((core(0, 3), 9));
                }
                t.remove_local_lock(slot);
                t.remove_master_lock(slot);
                t.remove_local_barrier(slot);
                t.remove_master_barrier(slot);
                t.remove_mcs_tail(slot);
                t.release_if_unused(slot as u32);
                assert!(t.lookup(var).is_none());
                assert!(t.live() == 0, "slot leaked in round {round}");
            }
        }
    }

    #[test]
    fn mcs_node_lifecycle_handles_the_requeue_race() {
        let mut nodes = McsNodes::default();
        nodes.ensure(4);
        // Uncontended: enqueue, release with no successor, reap on confirmation.
        let seq1 = nodes.enqueue(0);
        assert_eq!(nodes.release(0), McsRelease::TailRace(seq1));
        assert_eq!(nodes.active, 1);
        assert!(nodes.reap(0, seq1));
        assert_eq!(nodes.active, 0);

        // Handoff: a linked successor is granted directly.
        let seq2 = nodes.enqueue(0);
        assert_eq!(nodes.link(0, seq2, core(1, 0)), None);
        assert_eq!(nodes.release(0), McsRelease::Handoff(core(1, 0)));
        assert_eq!(nodes.active, 0);

        // ABA: the core re-enqueues while its previous instance is still dying;
        // a late link for the dying instance hands off without touching the new
        // live instance.
        let seq3 = nodes.enqueue(0);
        assert_eq!(nodes.release(0), McsRelease::TailRace(seq3));
        let seq4 = nodes.enqueue(0);
        assert_ne!(seq3, seq4);
        assert_eq!(nodes.active, 2);
        let granted = nodes.link(0, seq3, core(2, 5));
        assert_eq!(granted, Some(core(2, 5)), "dying instance must hand off");
        assert_eq!(nodes.active, 1);
        assert!(nodes.nodes[0].queued, "live instance untouched by the link");
        assert_eq!(nodes.nodes[0].queued_seq, seq4);
    }

    #[test]
    fn free_list_reuses_most_recently_freed_slot_first() {
        let mut t = ComponentTables::default();
        let s0 = t.resolve(Addr(0x40));
        let s1 = t.resolve(Addr(0x80));
        assert_ne!(s0, s1);
        t.local_lock_mut(s0 as usize).holder = Some(core(0, 0));
        t.remove_local_lock(s0 as usize);
        t.release_if_unused(s0);
        t.remove_local_lock(s1 as usize);
        t.release_if_unused(s1);
        // LIFO free list: the most recently freed slot (s1) is claimed first.
        assert_eq!(t.resolve(Addr(0xC0)), s1);
        assert_eq!(t.resolve(Addr(0x100)), s0);
    }
}
