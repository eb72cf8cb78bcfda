//! The Synchronization Table (ST).
//!
//! Section 4.2.2 of the paper: each Synchronization Engine contains a 64-entry ST.
//! Each entry holds (i) the 64-bit address of a synchronization variable, (ii) a
//! *global waiting list* — one bit per SE of the system, used by the Master SE,
//! (iii) a *local waiting list* — one bit per NDP core of the unit, (iv) a free/occupied
//! state bit, and (v) a 64-bit `TableInfo` field whose meaning depends on the primitive
//! (lock owner, barrier arrival count, available semaphore resources, or the lock
//! address associated with a condition variable).
//!
//! The ST is the structure that gives SynCron its *direct buffering* property: as long
//! as a variable has an ST entry, no memory access is needed to synchronize on it.
//! Occupancy of the ST is reported in Table 7 of the paper and swept in Figure 22.

use crate::request::PrimitiveKind;
use syncron_sim::stats::TimeWeighted;
use syncron_sim::time::Time;
use syncron_sim::FxHashMap;
use syncron_sim::{Addr, BitQueue, CoreId, UnitId};

/// A hardware bit queue holding one bit per waiter (local NDP cores or SEs).
///
/// Backed by [`BitQueue`]: waitlists of up to 64 waiters (the paper's geometry) stay
/// inline in one machine word; larger geometries spill to a boxed word slice instead
/// of silently aliasing waiter indices modulo 64 the way the old fixed-width `u64`
/// mask did. [`SynchronizationTable`] pre-sizes the waitlists of fresh entries for
/// the configured geometry so the pop/wake hot path never allocates.
pub type Waitlist = BitQueue;

/// Per-primitive `TableInfo` field of an ST entry (Figure 7 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableInfo {
    /// Lock: the current owner — either a local core or a remote SE.
    LockOwner {
        /// Owning SE (global ID), when the lock is held by another NDP unit.
        global: Option<UnitId>,
        /// Owning local core (local ID), when the lock is held within this unit.
        local: Option<CoreId>,
    },
    /// Barrier: number of cores that have arrived so far.
    BarrierCount(u32),
    /// Semaphore: number of available resources.
    SemResources(i64),
    /// Condition variable: address of the associated lock, plus the coalesced
    /// pending-signal count of the signal-coalescing extension (signals that arrived
    /// with no queued waiter and have not yet been consumed by a later `cond_wait`).
    /// The count packs into `TableInfo` bits the 64-bit lock address leaves unused
    /// (synchronization variables are cache-line aligned), so the entry width of
    /// Figure 7 is unchanged.
    CondLock {
        /// Address of the associated lock.
        lock: Addr,
        /// Signals banked while no waiter was queued.
        pending_signals: u16,
    },
}

/// One Synchronization Table entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StEntry {
    /// Address of the synchronization variable buffered by this entry.
    pub addr: Addr,
    /// Global waiting list: one bit per SE of the system (used by the Master SE).
    pub global_waitlist: Waitlist,
    /// Local waiting list: one bit per NDP core of this unit.
    pub local_waitlist: Waitlist,
    /// Primitive-specific information.
    pub info: TableInfo,
    /// Primitive kind tracked by this entry.
    pub kind: PrimitiveKind,
}

impl StEntry {
    /// Size of one entry in bits (Figure 7): 64 address + 4 global + 16 local +
    /// 1 state + 64 TableInfo = 149 bits for the paper's 4-unit / 16-core configuration.
    pub fn bits(units: usize, cores_per_unit: usize) -> u32 {
        64 + units as u32 + cores_per_unit as u32 + 1 + 64
    }
}

/// The Synchronization Table of one Synchronization Engine.
///
/// # Example
///
/// ```
/// use syncron_core::table::SynchronizationTable;
/// use syncron_core::request::PrimitiveKind;
/// use syncron_sim::{Addr, Time};
///
/// let mut st = SynchronizationTable::new(64);
/// assert!(st.allocate(Time::ZERO, Addr(0x40), PrimitiveKind::Lock).is_some());
/// assert!(st.lookup(Addr(0x40)).is_some());
/// st.release(Time::from_ns(10), Addr(0x40));
/// assert!(st.lookup(Addr(0x40)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SynchronizationTable {
    entries: Vec<Option<StEntry>>,
    occupancy: TimeWeighted,
    occupied: usize,
    allocations: u64,
    rejections: u64,
    /// Bits to pre-size the global waitlist of fresh entries for (one per SE).
    global_waiter_bits: usize,
    /// Bits to pre-size the local waitlist of fresh entries for (one per NDP core).
    local_waiter_bits: usize,
    /// Address -> slot index of the occupied entries. The hardware performs this
    /// match associatively in one cycle; scanning all entries per lookup made the
    /// ST the hottest structure of the simulator, so the model keeps a side index
    /// (behaviour, including which slot an allocation picks, is unchanged).
    index: FxHashMap<Addr, u32>,
}

impl SynchronizationTable {
    /// Creates an empty ST with `capacity` entries (the paper uses 64; Figure 22
    /// sweeps 8–64, Figure 23 up to 256). Waitlists are pre-sized for the paper's
    /// machine word; use [`SynchronizationTable::with_waiter_hint`] for larger
    /// geometries.
    pub fn new(capacity: usize) -> Self {
        Self::with_waiter_hint(capacity, 64, 64)
    }

    /// Creates an empty ST whose entries pre-size their waitlists for `global_bits`
    /// SEs and `local_bits` cores per unit, so that tracking waiters on the hot
    /// pop/wake path never allocates even beyond 64 waiters.
    pub fn with_waiter_hint(capacity: usize, global_bits: usize, local_bits: usize) -> Self {
        SynchronizationTable {
            entries: vec![None; capacity.max(1)],
            occupancy: TimeWeighted::new(),
            occupied: 0,
            allocations: 0,
            rejections: 0,
            global_waiter_bits: global_bits,
            local_waiter_bits: local_bits,
            index: FxHashMap::default(),
        }
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of currently occupied entries.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Returns `true` if every entry is occupied.
    pub fn is_full(&self) -> bool {
        self.occupied == self.entries.len()
    }

    /// Looks up the entry for `addr`, if present.
    pub fn lookup(&self, addr: Addr) -> Option<&StEntry> {
        let slot = *self.index.get(&addr)?;
        self.entries[slot as usize].as_ref()
    }

    /// Looks up the entry for `addr` mutably, if present.
    pub fn lookup_mut(&mut self, addr: Addr) -> Option<&mut StEntry> {
        let slot = *self.index.get(&addr)?;
        self.entries[slot as usize].as_mut()
    }

    /// Allocates an entry for `addr`. Returns `None` (and counts a rejection) if the
    /// table is full; the caller must then fall back to the overflow path.
    ///
    /// If an entry for `addr` already exists it is returned unchanged.
    pub fn allocate(&mut self, now: Time, addr: Addr, kind: PrimitiveKind) -> Option<&mut StEntry> {
        if self.index.contains_key(&addr) {
            return self.lookup_mut(addr);
        }
        // First-free-slot choice is part of the modelled behaviour; keep the scan.
        let free = self.entries.iter().position(|e| e.is_none());
        match free {
            Some(slot) => {
                let info = match kind {
                    PrimitiveKind::Lock => TableInfo::LockOwner {
                        global: None,
                        local: None,
                    },
                    PrimitiveKind::Barrier => TableInfo::BarrierCount(0),
                    PrimitiveKind::Semaphore => TableInfo::SemResources(0),
                    PrimitiveKind::CondVar => TableInfo::CondLock {
                        lock: Addr(0),
                        pending_signals: 0,
                    },
                };
                self.entries[slot] = Some(StEntry {
                    addr,
                    global_waitlist: Waitlist::with_capacity(self.global_waiter_bits),
                    local_waitlist: Waitlist::with_capacity(self.local_waiter_bits),
                    info,
                    kind,
                });
                self.index.insert(addr, slot as u32);
                self.occupied += 1;
                self.allocations += 1;
                self.occupancy.update(now, self.occupied as f64);
                self.entries[slot].as_mut()
            }
            None => {
                self.rejections += 1;
                None
            }
        }
    }

    /// Releases the entry for `addr` (no-op if absent).
    pub fn release(&mut self, now: Time, addr: Addr) {
        if let Some(slot) = self.index.remove(&addr) {
            debug_assert!(self.entries[slot as usize]
                .as_ref()
                .is_some_and(|e| e.addr == addr));
            self.entries[slot as usize] = None;
            self.occupied -= 1;
            self.occupancy.update(now, self.occupied as f64);
        }
    }

    /// Number of successful allocations so far.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of allocation attempts rejected because the table was full.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Maximum occupancy observed, as a fraction of capacity.
    pub fn max_occupancy(&self) -> f64 {
        self.occupancy.max() / self.capacity() as f64
    }

    /// Time-weighted average occupancy until `end`, as a fraction of capacity.
    pub fn avg_occupancy(&self, end: Time) -> f64 {
        self.occupancy.average_until(end) / self.capacity() as f64
    }

    /// Iterates over the occupied entries.
    pub fn iter(&self) -> impl Iterator<Item = &StEntry> {
        self.entries.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waitlist_set_clear_pop() {
        let mut w = Waitlist::EMPTY;
        assert!(w.is_empty());
        w.set(3);
        w.set(7);
        assert!(w.contains(3));
        assert!(!w.contains(4));
        assert_eq!(w.count(), 2);
        assert_eq!(w.first(), Some(3));
        assert_eq!(w.pop_first(), Some(3));
        assert_eq!(w.pop_first(), Some(7));
        assert_eq!(w.pop_first(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn waitlist_tracks_waiters_beyond_the_hardware_word() {
        // Regression: the old `Waitlist(u64)` wrapped `1u64 << index` for indices at
        // or beyond 64, silently aliasing waiter 64 onto waiter 0 (release builds) or
        // panicking (debug builds). The grown geometry must track every index
        // distinctly.
        for count in [65usize, 128, 4096] {
            let mut w = Waitlist::EMPTY;
            for i in 0..count {
                w.set(i);
            }
            assert_eq!(w.count() as usize, count, "{count} waiters");
            // FIFO-by-index service order, each waiter exactly once.
            for expect in 0..count {
                assert_eq!(w.pop_first(), Some(expect), "{count} waiters");
            }
            assert!(w.is_empty());
        }
    }

    #[test]
    fn waiter_hints_pre_size_fresh_entries() {
        let mut st = SynchronizationTable::with_waiter_hint(4, 16, 256);
        let entry = st
            .allocate(Time::ZERO, Addr(0x40), PrimitiveKind::Lock)
            .unwrap();
        assert!(entry.local_waitlist.capacity() >= 256);
        // Setting the highest local waiter bit never grows the pre-sized storage.
        let before = entry.local_waitlist.capacity();
        entry.local_waitlist.set(255);
        assert_eq!(entry.local_waitlist.capacity(), before);
    }

    #[test]
    fn entry_size_matches_figure7() {
        // 4 SEs, 16 cores per unit → 149 bits per entry.
        assert_eq!(StEntry::bits(4, 16), 149);
    }

    #[test]
    fn st_capacity_64_total_size_matches_table5() {
        // Table 5 reports the ST as 1192 bytes for 64 entries: 64 * 149 bits = 9536 bits
        // = 1192 bytes.
        let bits = 64 * StEntry::bits(4, 16) as usize;
        assert_eq!(bits / 8, 1192);
    }

    #[test]
    fn allocate_lookup_release() {
        let mut st = SynchronizationTable::new(4);
        assert!(st
            .allocate(Time::ZERO, Addr(0x100), PrimitiveKind::Lock)
            .is_some());
        assert_eq!(st.occupied(), 1);
        assert!(st.lookup(Addr(0x100)).is_some());
        // Re-allocating the same address does not consume another entry.
        assert!(st
            .allocate(Time::ZERO, Addr(0x100), PrimitiveKind::Lock)
            .is_some());
        assert_eq!(st.occupied(), 1);
        st.release(Time::from_ns(5), Addr(0x100));
        assert_eq!(st.occupied(), 0);
        assert!(st.lookup(Addr(0x100)).is_none());
    }

    #[test]
    fn full_table_rejects() {
        let mut st = SynchronizationTable::new(2);
        assert!(st
            .allocate(Time::ZERO, Addr(0x40), PrimitiveKind::Lock)
            .is_some());
        assert!(st
            .allocate(Time::ZERO, Addr(0x80), PrimitiveKind::Barrier)
            .is_some());
        assert!(st.is_full());
        assert!(st
            .allocate(Time::ZERO, Addr(0xC0), PrimitiveKind::Lock)
            .is_none());
        assert_eq!(st.rejections(), 1);
        // Releasing one entry makes room again.
        st.release(Time::from_ns(1), Addr(0x40));
        assert!(st
            .allocate(Time::from_ns(2), Addr(0xC0), PrimitiveKind::Lock)
            .is_some());
    }

    #[test]
    fn occupancy_statistics() {
        let mut st = SynchronizationTable::new(4);
        st.allocate(Time::ZERO, Addr(0x40), PrimitiveKind::Lock);
        st.allocate(Time::ZERO, Addr(0x80), PrimitiveKind::Lock);
        st.release(Time::from_ns(50), Addr(0x40));
        st.release(Time::from_ns(100), Addr(0x80));
        // Max occupancy was 2/4 = 0.5.
        assert!((st.max_occupancy() - 0.5).abs() < 1e-9);
        let avg = st.avg_occupancy(Time::from_ns(100));
        assert!(avg > 0.0 && avg <= 0.5, "avg {avg}");
    }

    #[test]
    fn table_info_defaults_per_primitive() {
        let mut st = SynchronizationTable::new(8);
        let lock = st
            .allocate(Time::ZERO, Addr(0x40), PrimitiveKind::Lock)
            .unwrap();
        assert!(matches!(
            lock.info,
            TableInfo::LockOwner {
                global: None,
                local: None
            }
        ));
        let bar = st
            .allocate(Time::ZERO, Addr(0x80), PrimitiveKind::Barrier)
            .unwrap();
        assert!(matches!(bar.info, TableInfo::BarrierCount(0)));
        let sem = st
            .allocate(Time::ZERO, Addr(0xC0), PrimitiveKind::Semaphore)
            .unwrap();
        assert!(matches!(sem.info, TableInfo::SemResources(0)));
        let cond = st
            .allocate(Time::ZERO, Addr(0x140), PrimitiveKind::CondVar)
            .unwrap();
        assert!(matches!(
            cond.info,
            TableInfo::CondLock {
                lock: Addr(0),
                pending_signals: 0
            }
        ));
        assert_eq!(st.iter().count(), 4);
    }

    #[test]
    fn cond_entry_tracks_pending_signals() {
        let mut st = SynchronizationTable::new(4);
        st.allocate(Time::ZERO, Addr(0x140), PrimitiveKind::CondVar);
        let entry = st.lookup_mut(Addr(0x140)).unwrap();
        if let TableInfo::CondLock {
            lock,
            pending_signals,
        } = &mut entry.info
        {
            *lock = Addr(0x180);
            *pending_signals = 3;
        } else {
            panic!("condvar entry must carry CondLock info");
        }
        assert!(matches!(
            st.lookup(Addr(0x140)).unwrap().info,
            TableInfo::CondLock {
                lock: Addr(0x180),
                pending_signals: 3
            }
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    // Deterministic stand-ins for proptest properties (no crates.io access): many
    // randomized op sequences driven by the in-tree RNG.

    /// Occupancy never exceeds capacity, lookups find exactly the live entries, and
    /// allocations minus releases equals the occupied count.
    #[test]
    fn st_invariants() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x57_0000 + case);
            let ops = 1 + rng.gen_range(299) as usize;
            let mut st = SynchronizationTable::new(8);
            let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
            let mut t = 0u64;
            for _ in 0..ops {
                t += 1;
                let slot = rng.gen_range(32);
                let addr = Addr(slot * 64);
                if rng.gen_bool(0.5) {
                    if st
                        .allocate(Time::from_ns(t), addr, PrimitiveKind::Lock)
                        .is_some()
                    {
                        live.insert(slot);
                    }
                } else {
                    st.release(Time::from_ns(t), addr);
                    live.remove(&slot);
                }
                assert!(st.occupied() <= st.capacity());
                assert_eq!(st.occupied(), live.len());
                for &s in &live {
                    assert!(st.lookup(Addr(s * 64)).is_some());
                }
            }
        }
    }

    /// Waitlist set/clear behaves like a set of small integers.
    #[test]
    fn waitlist_matches_model() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x3A17_0000 + case);
            let ops = 1 + rng.gen_range(199) as usize;
            let mut w = Waitlist::EMPTY;
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..ops {
                let idx = rng.gen_range(16) as usize;
                if rng.gen_bool(0.5) {
                    w.set(idx);
                    model.insert(idx);
                } else {
                    w.clear(idx);
                    model.remove(&idx);
                }
                assert_eq!(w.count() as usize, model.len());
                assert_eq!(w.first(), model.iter().next().copied());
                for i in 0..16 {
                    assert_eq!(w.contains(i), model.contains(&i));
                }
            }
        }
    }
}
