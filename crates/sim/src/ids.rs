//! Strongly-typed identifiers for the simulated NDP system.
//!
//! The paper's system (Table 5) has 4 NDP units with 16 cores each. Cores are
//! addressed in two ways that mirror the hardware of Section 4.2.2:
//!
//! * a **local** ID within an NDP unit ([`CoreId`]) — what the *local waiting list*
//!   of a Synchronization Table entry tracks, and
//! * a **global** ID ([`GlobalCoreId`]) — the `(unit, local core)` pair used by the
//!   rest of the system.

use core::fmt;

/// Identifier of an NDP unit (a memory stack plus its compute die).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct UnitId(pub u8);

impl UnitId {
    /// Maximum number of NDP units addressable by the 8-bit unit ID. Machine
    /// geometries are validated against this bound when a configuration is built.
    pub const MAX_COUNT: usize = u8::MAX as usize + 1;

    /// Returns the unit index as a `usize`, for indexing per-unit vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// Identifier of an NDP core **within** its NDP unit (the "local ID" of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Maximum number of cores per NDP unit addressable by the 8-bit local core ID.
    /// Machine geometries are validated against this bound when a configuration is
    /// built.
    pub const MAX_COUNT: usize = u8::MAX as usize + 1;

    /// Returns the core index as a `usize`, for indexing per-core vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// System-global identifier of an NDP core: the pair of its NDP unit and its local ID.
///
/// # Example
///
/// ```
/// use syncron_sim::ids::{GlobalCoreId, UnitId, CoreId};
/// let c = GlobalCoreId::new(UnitId(2), CoreId(5));
/// assert_eq!(c.flat_index(16), 2 * 16 + 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GlobalCoreId {
    /// The NDP unit the core resides in.
    pub unit: UnitId,
    /// The local ID of the core within its unit.
    pub core: CoreId,
}

impl GlobalCoreId {
    /// Creates a global core identifier from a unit and a local core ID.
    #[inline]
    pub fn new(unit: UnitId, core: CoreId) -> Self {
        GlobalCoreId { unit, core }
    }

    /// Flattens the identifier into a dense index, given the number of cores per unit.
    #[inline]
    pub fn flat_index(self, cores_per_unit: usize) -> usize {
        self.unit.index() * cores_per_unit + self.core.index()
    }

    /// Reconstructs a `GlobalCoreId` from a dense index produced by [`flat_index`].
    ///
    /// [`flat_index`]: GlobalCoreId::flat_index
    #[inline]
    pub fn from_flat(index: usize, cores_per_unit: usize) -> Self {
        GlobalCoreId {
            unit: UnitId((index / cores_per_unit) as u8),
            core: CoreId((index % cores_per_unit) as u8),
        }
    }
}

impl fmt::Display for GlobalCoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.unit, self.core)
    }
}

/// A physical address in the shared NDP address space.
///
/// Addresses are plain 64-bit values. The system crate's address space maps address
/// ranges onto home NDP units and data classes; this crate only needs the ability to
/// derive cache lines and bank/counter indices from an address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Size of a cache line / memory access granule in bytes (Table 5: 64 B lines).
    pub const LINE_BYTES: u64 = 64;

    /// Returns the address of the cache line containing this address.
    #[inline]
    pub fn line(self) -> Addr {
        Addr(self.0 & !(Self::LINE_BYTES - 1))
    }

    /// Returns the cache-line index (address divided by the line size).
    #[inline]
    pub fn line_index(self) -> u64 {
        self.0 / Self::LINE_BYTES
    }

    /// Returns the raw address value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the `n` least-significant bits of the address, used by the
    /// Synchronization Engine's indexing counters (Section 4.2.3 uses the 8 LSBs).
    #[inline]
    pub fn low_bits(self, n: u32) -> u64 {
        if n >= 64 {
            self.0
        } else {
            self.0 & ((1u64 << n) - 1)
        }
    }

    /// Returns a new address offset by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_round_trips() {
        for unit in 0..4u8 {
            for core in 0..16u8 {
                let id = GlobalCoreId::new(UnitId(unit), CoreId(core));
                let flat = id.flat_index(16);
                assert_eq!(GlobalCoreId::from_flat(flat, 16), id);
            }
        }
    }

    #[test]
    fn flat_index_is_dense_and_ordered() {
        let a = GlobalCoreId::new(UnitId(0), CoreId(15)).flat_index(16);
        let b = GlobalCoreId::new(UnitId(1), CoreId(0)).flat_index(16);
        assert_eq!(a + 1, b);
    }

    #[test]
    fn addr_line_masks_low_bits() {
        let a = Addr(0x1234);
        assert_eq!(a.line(), Addr(0x1200));
        assert_eq!(a.line_index(), 0x1234 / 64);
        assert_eq!(Addr(63).line(), Addr(0));
        assert_eq!(Addr(64).line(), Addr(64));
    }

    #[test]
    fn addr_low_bits() {
        let a = Addr(0xABCD);
        assert_eq!(a.low_bits(8), 0xCD);
        assert_eq!(a.low_bits(4), 0xD);
        assert_eq!(a.low_bits(64), 0xABCD);
    }

    #[test]
    fn addr_offset() {
        assert_eq!(Addr(0x100).offset(0x40), Addr(0x140));
    }

    #[test]
    fn display_formats() {
        let c = GlobalCoreId::new(UnitId(3), CoreId(7));
        assert_eq!(format!("{c}"), "U3.c7");
        assert_eq!(format!("{}", Addr(0x40)), "0x40");
    }
}
