//! The shared physical address space and data placement.
//!
//! The NDP units share one physical address space (Section 2.1). Each unit owns a
//! contiguous 4 GB window (Table 5: 4 GB per stack/DIMM group), and the unit that owns
//! an address is its **home unit** — the unit whose DRAM holds the data and whose
//! Synchronization Engine is the *Master SE* for synchronization variables at that
//! address.
//!
//! Under software-assisted coherence every allocation carries a [`DataClass`]:
//! thread-private and shared read-only data are cacheable in the cores' L1s, shared
//! read-write data is not (Section 2.1).

pub use syncron_mem::cache::DataClass;
use syncron_sim::{Addr, UnitId};

/// Size of the address window owned by each NDP unit: 4 GB (Table 5).
pub const UNIT_SPAN: u64 = 1 << 32;

/// One allocated region of the address space.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// First address of the region.
    pub base: Addr,
    /// Size in bytes.
    pub bytes: u64,
    /// Coherence classification of the region.
    pub class: DataClass,
    /// Home NDP unit.
    pub home: UnitId,
}

impl Region {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.value() >= self.base.value() && addr.value() < self.base.value() + self.bytes
    }
}

/// The allocator / resolver for the shared NDP address space.
///
/// # Example
///
/// ```
/// use syncron_system::address::{AddressSpace, DataClass};
/// use syncron_sim::UnitId;
///
/// let mut space = AddressSpace::new(4);
/// let a = space.allocate(1024, DataClass::SharedReadWrite, UnitId(2));
/// assert_eq!(space.home_unit(a), UnitId(2));
/// assert_eq!(space.class_of(a), DataClass::SharedReadWrite);
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    units: usize,
    next_free: Vec<u64>,
    regions: Vec<Region>,
}

impl AddressSpace {
    /// Creates an empty address space for `units` NDP units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(units: usize) -> Self {
        assert!(units > 0, "at least one NDP unit is required");
        AddressSpace {
            units,
            // Skip the first page of each unit so address 0 is never handed out.
            next_free: (0..units).map(|u| u as u64 * UNIT_SPAN + 4096).collect(),
            regions: Vec::new(),
        }
    }

    /// Number of NDP units this space spans.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Allocates `bytes` of data of class `class` homed in `home`. The allocation is
    /// cache-line aligned.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range or the unit's 4 GB window is exhausted.
    pub fn allocate(&mut self, bytes: u64, class: DataClass, home: UnitId) -> Addr {
        assert!(home.index() < self.units, "home unit {home} out of range");
        let bytes = bytes.max(1).next_multiple_of(Addr::LINE_BYTES);
        let cursor = &mut self.next_free[home.index()];
        let base = *cursor;
        let limit = (home.index() as u64 + 1) * UNIT_SPAN;
        assert!(
            base + bytes <= limit,
            "NDP unit {home} address window exhausted"
        );
        *cursor += bytes;
        let region = Region {
            base: Addr(base),
            bytes,
            class,
            home,
        };
        self.regions.push(region);
        region.base
    }

    /// Allocates shared read-write data (uncacheable) homed in `home`.
    pub fn allocate_shared_rw(&mut self, bytes: u64, home: UnitId) -> Addr {
        self.allocate(bytes, DataClass::SharedReadWrite, home)
    }

    /// Allocates shared read-only data (cacheable) homed in `home`.
    pub fn allocate_shared_ro(&mut self, bytes: u64, home: UnitId) -> Addr {
        self.allocate(bytes, DataClass::SharedReadOnly, home)
    }

    /// Allocates thread-private data (cacheable) homed in `home`.
    pub fn allocate_private(&mut self, bytes: u64, home: UnitId) -> Addr {
        self.allocate(bytes, DataClass::Private, home)
    }

    /// Allocates one chunk of `bytes_per_unit` per NDP unit and returns the base of
    /// each, used for data statically partitioned across units (graphs, output arrays).
    pub fn allocate_partitioned(&mut self, bytes_per_unit: u64, class: DataClass) -> Vec<Addr> {
        (0..self.units)
            .map(|u| self.allocate(bytes_per_unit, class, UnitId(u as u8)))
            .collect()
    }

    /// The NDP unit that owns `addr` (derived from the address bits, so it is defined
    /// even for addresses outside any allocated region).
    pub fn home_unit(&self, addr: Addr) -> UnitId {
        UnitId(((addr.value() / UNIT_SPAN) as usize % self.units) as u8)
    }

    /// The coherence class of `addr`. Unallocated addresses default to shared
    /// read-write (the conservative, uncacheable choice).
    pub fn class_of(&self, addr: Addr) -> DataClass {
        self.regions
            .iter()
            .rev()
            .find(|r| r.contains(addr))
            .map(|r| r.class)
            .unwrap_or(DataClass::SharedReadWrite)
    }

    /// Number of allocated regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total bytes allocated on `unit`.
    pub fn allocated_on(&self, unit: UnitId) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.home == unit)
            .map(|r| r.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut space = AddressSpace::new(4);
        let a = space.allocate(100, DataClass::Private, UnitId(0));
        let b = space.allocate(100, DataClass::Private, UnitId(0));
        assert_eq!(a.value() % 64, 0);
        assert_eq!(b.value() % 64, 0);
        assert!(
            b.value() >= a.value() + 128,
            "second allocation overlaps the first"
        );
    }

    #[test]
    fn home_unit_follows_address_window() {
        let mut space = AddressSpace::new(4);
        for u in 0..4u8 {
            let a = space.allocate(64, DataClass::SharedReadWrite, UnitId(u));
            assert_eq!(space.home_unit(a), UnitId(u));
        }
    }

    #[test]
    fn class_resolution() {
        let mut space = AddressSpace::new(2);
        let private = space.allocate_private(256, UnitId(0));
        let ro = space.allocate_shared_ro(256, UnitId(0));
        let rw = space.allocate_shared_rw(256, UnitId(1));
        assert_eq!(space.class_of(private), DataClass::Private);
        assert_eq!(space.class_of(ro.offset(128)), DataClass::SharedReadOnly);
        assert_eq!(space.class_of(rw), DataClass::SharedReadWrite);
        // Unallocated addresses are conservatively uncacheable.
        assert_eq!(
            space.class_of(Addr(3 * UNIT_SPAN + 64)),
            DataClass::SharedReadWrite
        );
    }

    #[test]
    fn partitioned_allocation_spans_all_units() {
        let mut space = AddressSpace::new(4);
        let parts = space.allocate_partitioned(4096, DataClass::SharedReadWrite);
        assert_eq!(parts.len(), 4);
        for (u, p) in parts.iter().enumerate() {
            assert_eq!(space.home_unit(*p), UnitId(u as u8));
        }
        assert_eq!(space.region_count(), 4);
        assert_eq!(space.allocated_on(UnitId(0)), 4096);
    }

    #[test]
    #[should_panic]
    fn out_of_range_home_rejected() {
        let mut space = AddressSpace::new(2);
        space.allocate(64, DataClass::Private, UnitId(5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    /// Allocated regions never overlap and always resolve to their own class/home.
    ///
    /// Deterministic stand-in for a proptest property (the build environment has no
    /// crates.io access): many randomized allocation sequences driven by the in-tree
    /// RNG.
    #[test]
    fn no_overlap() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0xA11C_0000 + case);
            let count = 1 + rng.gen_range(59) as usize;
            let mut space = AddressSpace::new(4);
            let mut allocated: Vec<(Addr, u64, UnitId)> = Vec::new();
            for _ in 0..count {
                let bytes = 1 + rng.gen_range(9_999);
                let unit = rng.gen_range(4) as u8;
                let a = space.allocate(bytes, DataClass::Private, UnitId(unit));
                let rounded = bytes.max(1).next_multiple_of(64);
                for (prev, pbytes, _) in &allocated {
                    let disjoint =
                        a.value() + rounded <= prev.value() || prev.value() + pbytes <= a.value();
                    assert!(disjoint, "overlap between {a} and {prev}");
                }
                assert_eq!(space.home_unit(a), UnitId(unit));
                allocated.push((a, rounded, UnitId(unit)));
            }
        }
    }
}
