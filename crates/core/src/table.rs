//! The Synchronization Table (ST).
//!
//! Section 4.2.2 of the paper: each Synchronization Engine contains a 64-entry ST.
//! Each entry holds (i) the 64-bit address of a synchronization variable, (ii) a
//! *global waiting list* — one bit per SE of the system, used by the Master SE,
//! (iii) a *local waiting list* — one bit per NDP core of the unit, (iv) a free/occupied
//! state bit, and (v) a 64-bit information field whose meaning depends on the
//! primitive (lock owner, barrier arrival count, available semaphore resources, or the
//! lock address associated with a condition variable).
//!
//! The ST is the structure that gives SynCron its *direct buffering* property: as long
//! as a variable has an ST entry, no memory access is needed to synchronize on it.
//! Occupancy of the ST is reported in Table 7 of the paper and swept in Figure 22.
//!
//! The simulator models the ST as an occupancy tracker: which variables hold an
//! entry, which slot an allocation takes, and when the table is full. The waiting
//! lists and the information field enter only through the entry width
//! ([`StEntry::bits`], Table 8); the per-primitive state they encode lives in the
//! protocol engine's component tables.

use syncron_sim::stats::TimeWeighted;
use syncron_sim::time::Time;
use syncron_sim::Addr;
use syncron_sim::FxHashMap;

/// One occupied Synchronization Table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StEntry {
    /// Address of the synchronization variable buffered by this entry.
    pub addr: Addr,
}

impl StEntry {
    /// Size of one entry in bits (Figure 7): 64 address + 4 global + 16 local +
    /// 1 state + 64 information = 149 bits for the paper's 4-unit / 16-core
    /// configuration.
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
/// use syncron_sim::{Addr, Time};
///
/// let mut st = SynchronizationTable::new(64);
/// assert!(st.allocate(Time::ZERO, Addr(0x40)));
/// assert!(st.lookup(Addr(0x40)).is_some());
/// st.release(Time::from_ns(10), Addr(0x40));
/// assert!(st.lookup(Addr(0x40)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SynchronizationTable {
    entries: Vec<Option<StEntry>>,
    occupancy: TimeWeighted,
    occupied: usize,
    /// Address -> slot index of the occupied entries. The hardware performs this
    /// match associatively in one cycle; scanning all entries per lookup made the
    /// ST the hottest structure of the simulator, so the model keeps a side index
    /// (behaviour, including which slot an allocation picks, is unchanged).
    index: FxHashMap<Addr, u32>,
}

impl SynchronizationTable {
    /// Creates an empty ST with `capacity` entries (the paper uses 64; Figure 22
    /// sweeps 8–64, Figure 23 up to 256).
    pub fn new(capacity: usize) -> Self {
        SynchronizationTable {
            entries: vec![None; capacity.max(1)],
            occupancy: TimeWeighted::new(),
            occupied: 0,
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

    /// Allocates an entry for `addr` and returns whether `addr` now holds one.
    /// `false` means the table is full; the caller must then fall back to the
    /// overflow path.
    ///
    /// If an entry for `addr` already exists it is kept unchanged.
    pub fn allocate(&mut self, now: Time, addr: Addr) -> bool {
        if self.index.contains_key(&addr) {
            return true;
        }
        // First-free-slot choice is part of the modelled behaviour; keep the scan.
        let Some(slot) = self.entries.iter().position(Option::is_none) else {
            return false;
        };
        self.entries[slot] = Some(StEntry { addr });
        self.index.insert(addr, slot as u32);
        self.occupied += 1;
        self.occupancy.update(now, self.occupied as f64);
        true
    }

    /// Releases the entry for `addr` (no-op if absent).
    pub fn release(&mut self, now: Time, addr: Addr) {
        if let Some(slot) = self.index.remove(&addr) {
            debug_assert!(self.entries[slot as usize].is_some_and(|e| e.addr == addr));
            self.entries[slot as usize] = None;
            self.occupied -= 1;
            self.occupancy.update(now, self.occupied as f64);
        }
    }

    /// Maximum occupancy observed, as a fraction of capacity.
    pub fn max_occupancy(&self) -> f64 {
        self.occupancy.max() / self.capacity() as f64
    }

    /// Time-weighted average occupancy until `end`, as a fraction of capacity.
    pub fn avg_occupancy(&self, end: Time) -> f64 {
        self.occupancy.average_until(end) / self.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(st.allocate(Time::ZERO, Addr(0x100)));
        assert_eq!(st.occupied(), 1);
        assert_eq!(st.lookup(Addr(0x100)).map(|e| e.addr), Some(Addr(0x100)));
        // Re-allocating the same address does not consume another entry.
        assert!(st.allocate(Time::ZERO, Addr(0x100)));
        assert_eq!(st.occupied(), 1);
        st.release(Time::from_ns(5), Addr(0x100));
        assert_eq!(st.occupied(), 0);
        assert!(st.lookup(Addr(0x100)).is_none());
    }

    #[test]
    fn full_table_rejects() {
        let mut st = SynchronizationTable::new(2);
        assert!(st.allocate(Time::ZERO, Addr(0x40)));
        assert!(st.allocate(Time::ZERO, Addr(0x80)));
        assert!(st.is_full());
        assert!(!st.allocate(Time::ZERO, Addr(0xC0)));
        assert_eq!(st.occupied(), 2, "a rejected allocation takes no entry");
        // Releasing one entry makes room again.
        st.release(Time::from_ns(1), Addr(0x40));
        assert!(st.allocate(Time::from_ns(2), Addr(0xC0)));
    }

    #[test]
    fn occupancy_statistics() {
        let mut st = SynchronizationTable::new(4);
        st.allocate(Time::ZERO, Addr(0x40));
        st.allocate(Time::ZERO, Addr(0x80));
        st.release(Time::from_ns(50), Addr(0x40));
        st.release(Time::from_ns(100), Addr(0x80));
        // Max occupancy was 2/4 = 0.5.
        assert!((st.max_occupancy() - 0.5).abs() < 1e-9);
        let avg = st.avg_occupancy(Time::from_ns(100));
        assert!(avg > 0.0 && avg <= 0.5, "avg {avg}");
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
            let (mut allocations, mut releases) = (0usize, 0usize);
            let mut t = 0u64;
            for _ in 0..ops {
                t += 1;
                let slot = rng.gen_range(32);
                let addr = Addr(slot * 64);
                if rng.gen_bool(0.5) {
                    let fresh = st.lookup(addr).is_none();
                    if st.allocate(Time::from_ns(t), addr) {
                        allocations += usize::from(fresh);
                        live.insert(slot);
                    } else {
                        assert!(st.is_full(), "only a full table rejects");
                    }
                } else {
                    releases += usize::from(st.lookup(addr).is_some());
                    st.release(Time::from_ns(t), addr);
                    live.remove(&slot);
                }
                assert!(st.occupied() <= st.capacity());
                assert_eq!(st.occupied(), live.len());
                assert_eq!(st.occupied(), allocations - releases);
                for s in 0..32 {
                    assert_eq!(st.lookup(Addr(s * 64)).is_some(), live.contains(&s));
                }
            }
        }
    }
}
