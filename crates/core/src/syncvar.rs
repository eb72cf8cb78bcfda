//! The in-memory `syncronVar` structure used during ST overflow.
//!
//! Section 4.3.1 of the paper: synchronization variables are allocated by the NDP
//! driver as an opaque `syncronVar` structure in main memory. During ST overflow the
//! Master SE coordinates synchronization by reading and writing this structure instead
//! of its (full) Synchronization Table. The structure holds one waiting list per SE of
//! the system (one bit per NDP core of that unit), a `VarInfo` field with the same
//! per-primitive meaning as the ST's `TableInfo`, and an `OverflowInfo` bitmask
//! recording which SEs have overflowed for this variable.

use core::fmt;

use crate::table::Waitlist;
use syncron_sim::{Addr, UnitId};

/// Error returned when a lock address cannot be packed into the low
/// [`SyncronVar::COND_LOCK_BITS`] bits of a condition variable's `VarInfo`.
///
/// Before this error existed, an oversized address was silently truncated when the
/// variable was served from memory, associating the condition variable with a
/// different (wrong) lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CondLockOverflow {
    /// The lock address that does not fit the packed layout.
    pub lock: Addr,
}

impl fmt::Display for CondLockOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "condvar lock address {} needs more than {} bits and cannot be packed \
             into the syncronVar VarInfo field",
            self.lock,
            SyncronVar::COND_LOCK_BITS
        )
    }
}

impl std::error::Error for CondLockOverflow {}

/// The driver-allocated, memory-resident synchronization variable (Figure 9).
#[derive(Clone, Debug)]
pub struct SyncronVar {
    /// Address the variable is allocated at (its home NDP unit is derived from it).
    pub addr: Addr,
    /// One waiting list per SE of the system; each holds one bit per NDP core of the
    /// corresponding unit (`uint16_t Waitlist[4]` in the paper's 4-unit configuration;
    /// grows with the geometry here).
    pub waitlists: Vec<Waitlist>,
    /// Per-primitive information (lock owner, barrier count, semaphore resources, or
    /// associated lock address), `uint64_t VarInfo` in the paper.
    pub var_info: u64,
    /// One bit per SE that has overflowed for this variable (`uint8_t OverflowInfo`
    /// in the paper's 4-unit configuration; grows with the number of units here, so
    /// systems with more than 8 units do not alias overflow records).
    pub overflow_info: Waitlist,
}

impl SyncronVar {
    /// Size of the structure in bytes for a system of `units` NDP units with
    /// `cores_per_unit` cores each: one waiting list of `cores_per_unit` bits per
    /// unit, the 8-byte `VarInfo`, and an overflow bitmask of one bit per unit. For
    /// the paper's 4×16 machine this is the `struct syncronVar_t` of Figure 9:
    /// `uint16_t Waitlist[4]` + `uint64_t VarInfo` + `uint8_t OverflowInfo` = 17 B.
    pub fn size_bytes(units: usize, cores_per_unit: usize) -> u64 {
        (units * cores_per_unit.div_ceil(8) + 8 + units.div_ceil(8)) as u64
    }

    /// Creates an empty variable for a system with `units` NDP units. Waitlists are
    /// sized lazily; use [`SyncronVar::with_geometry`] to pre-size them for large
    /// units.
    pub fn new(addr: Addr, units: usize) -> Self {
        SyncronVar {
            addr,
            waitlists: vec![Waitlist::EMPTY; units],
            var_info: 0,
            overflow_info: Waitlist::EMPTY,
        }
    }

    /// Creates an empty variable whose per-unit waitlists are pre-sized for
    /// `cores_per_unit` cores, so waiter tracking never allocates per event.
    pub fn with_geometry(addr: Addr, units: usize, cores_per_unit: usize) -> Self {
        SyncronVar {
            addr,
            waitlists: vec![Waitlist::with_capacity(cores_per_unit); units],
            var_info: 0,
            overflow_info: Waitlist::with_capacity(units),
        }
    }

    /// Sets the waiting bit of `core_index` in the waiting list of `unit`.
    pub fn set_waiter(&mut self, unit: UnitId, core_index: usize) {
        self.waitlists[unit.index()].set(core_index);
    }

    /// Clears the waiting bit of `core_index` in the waiting list of `unit`.
    pub fn clear_waiter(&mut self, unit: UnitId, core_index: usize) {
        self.waitlists[unit.index()].clear(core_index);
    }

    /// Sets **all** bits of `unit`'s waiting list — how the Master SE represents "some
    /// cores of this (non-overflowed) unit are waiting" when it only receives an
    /// aggregated global message from that unit's SE (Section 4.3.2).
    pub fn set_unit_waiting(&mut self, unit: UnitId, cores_per_unit: usize) {
        for i in 0..cores_per_unit {
            self.waitlists[unit.index()].set(i);
        }
    }

    /// Clears all bits of `unit`'s waiting list.
    pub fn clear_unit_waiting(&mut self, unit: UnitId) {
        self.waitlists[unit.index()] = Waitlist::EMPTY;
    }

    /// Marks `unit`'s SE as overflowed for this variable.
    pub fn mark_overflowed(&mut self, unit: UnitId) {
        self.overflow_info.set(unit.index());
    }

    /// Returns whether `unit`'s SE is marked overflowed.
    pub fn is_overflowed(&self, unit: UnitId) -> bool {
        self.overflow_info.contains(unit.index())
    }

    /// Returns `true` when no core of any unit is waiting — the point at which the
    /// Master SE decrements its indexing counter and notifies overflowed SEs with
    /// `decrease_indexing_counter` messages.
    pub fn all_waitlists_empty(&self) -> bool {
        self.waitlists.iter().all(|w| w.is_empty())
    }

    /// Units whose SEs are marked overflowed (targets of `decrease_indexing_counter`).
    pub fn overflowed_units(&self) -> Vec<UnitId> {
        self.overflow_info
            .iter()
            .take_while(|&u| u < self.waitlists.len())
            .map(|u| UnitId(u as u8))
            .collect()
    }

    // ------------------------------------------------------------------
    // Condition-variable VarInfo layout (signal-coalescing extension)
    // ------------------------------------------------------------------
    //
    // For condition variables, the paper stores the associated lock's address in
    // `VarInfo`. Synchronization variables are cache-line aligned and user-space
    // addresses fit in 48 bits, so this reproduction packs the coalesced
    // pending-signal count into the otherwise-unused top 16 bits:
    //
    //   bits 63..48  pending-signal count (signals banked while no waiter queued)
    //   bits 47..0   associated lock address

    /// Number of low `VarInfo` bits holding the associated lock address.
    pub const COND_LOCK_BITS: u32 = 48;

    /// Returns whether a lock address fits the packed cond `VarInfo` layout.
    pub fn cond_lock_fits(lock: Addr) -> bool {
        lock.value() < (1 << Self::COND_LOCK_BITS)
    }

    /// Sets the condition-variable `VarInfo` — associated `lock` address plus the
    /// coalesced `pending` signal count — rejecting lock addresses that need more
    /// than [`Self::COND_LOCK_BITS`] bits instead of silently truncating them.
    pub fn try_set_cond_info(&mut self, lock: Addr, pending: u16) -> Result<(), CondLockOverflow> {
        if !Self::cond_lock_fits(lock) {
            return Err(CondLockOverflow { lock });
        }
        self.var_info = (u64::from(pending) << Self::COND_LOCK_BITS) | lock.value();
        Ok(())
    }

    /// Sets the condition-variable `VarInfo`: associated `lock` address plus the
    /// coalesced `pending` signal count.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — if the lock address needs more than
    /// [`Self::COND_LOCK_BITS`] bits; the old `debug_assert!` guard let release
    /// builds truncate the address and serve the wrong lock from memory. Callers
    /// that can recover should use [`Self::try_set_cond_info`].
    pub fn set_cond_info(&mut self, lock: Addr, pending: u16) {
        if let Err(e) = self.try_set_cond_info(lock, pending) {
            panic!("{e}");
        }
    }

    /// The associated lock address of a condition variable's `VarInfo`.
    pub fn cond_lock(&self) -> Addr {
        Addr(self.var_info & ((1 << Self::COND_LOCK_BITS) - 1))
    }

    /// The coalesced pending-signal count of a condition variable's `VarInfo`.
    pub fn cond_pending_signals(&self) -> u16 {
        (self.var_info >> Self::COND_LOCK_BITS) as u16
    }

    /// Banks one more pending signal (saturating), returning the new count.
    pub fn add_pending_signal(&mut self) -> u16 {
        let next = self.cond_pending_signals().saturating_add(1);
        self.set_cond_info(self.cond_lock(), next);
        next
    }

    /// Consumes one pending signal if any is banked; returns whether one was consumed.
    pub fn take_pending_signal(&mut self) -> bool {
        let pending = self.cond_pending_signals();
        if pending == 0 {
            return false;
        }
        self.set_cond_info(self.cond_lock(), pending - 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_paper_struct() {
        // uint16_t Waitlist[4] + uint64_t VarInfo + uint8_t OverflowInfo = 17 bytes.
        assert_eq!(SyncronVar::size_bytes(4, 16), 17);
        // The structure grows with the geometry: 16 units x 256 cores needs
        // 16 x 32-byte waitlists + 8-byte VarInfo + 2-byte OverflowInfo.
        assert_eq!(SyncronVar::size_bytes(16, 256), 16 * 32 + 8 + 2);
    }

    #[test]
    fn overflow_tracking_beyond_eight_units() {
        // Regression: `OverflowInfo` was a u8 bitmask, so `1 << unit.index()` for
        // units 8.. overflowed the shift and aliased overflow records.
        let mut v = SyncronVar::with_geometry(Addr(0x100), 16, 256);
        v.mark_overflowed(UnitId(15));
        v.mark_overflowed(UnitId(9));
        assert!(v.is_overflowed(UnitId(15)));
        assert!(v.is_overflowed(UnitId(9)));
        assert!(!v.is_overflowed(UnitId(1)), "unit 9 must not alias unit 1");
        assert_eq!(v.overflowed_units(), vec![UnitId(9), UnitId(15)]);
    }

    #[test]
    fn geometry_sized_waitlists_track_large_units() {
        let mut v = SyncronVar::with_geometry(Addr(0x100), 2, 128);
        v.set_waiter(UnitId(1), 127);
        assert!(v.waitlists[1].contains(127));
        assert!(!v.waitlists[1].contains(63), "waiter 127 must not alias 63");
        v.set_unit_waiting(UnitId(0), 128);
        assert_eq!(v.waitlists[0].count(), 128);
        v.clear_unit_waiting(UnitId(0));
        v.clear_waiter(UnitId(1), 127);
        assert!(v.all_waitlists_empty());
    }

    #[test]
    fn oversized_cond_lock_is_rejected_not_truncated() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        let oversized = Addr(1 << SyncronVar::COND_LOCK_BITS);
        assert!(!SyncronVar::cond_lock_fits(oversized));
        assert_eq!(
            v.try_set_cond_info(oversized, 0),
            Err(CondLockOverflow { lock: oversized })
        );
        assert_eq!(v.var_info, 0, "a rejected pack must not corrupt VarInfo");
        let max_ok = Addr((1 << SyncronVar::COND_LOCK_BITS) - 64);
        v.try_set_cond_info(max_ok, 3).unwrap();
        assert_eq!(v.cond_lock(), max_ok);
        assert_eq!(v.cond_pending_signals(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot be packed")]
    fn set_cond_info_panics_on_oversized_lock_in_release_too() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        v.set_cond_info(Addr(!63u64), 0);
    }

    #[test]
    fn waiter_bits_per_unit() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        v.set_waiter(UnitId(2), 5);
        assert!(!v.all_waitlists_empty());
        assert!(v.waitlists[2].contains(5));
        v.clear_waiter(UnitId(2), 5);
        assert!(v.all_waitlists_empty());
    }

    #[test]
    fn unit_level_aggregation() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        v.set_unit_waiting(UnitId(1), 16);
        assert_eq!(v.waitlists[1].count(), 16);
        v.clear_unit_waiting(UnitId(1));
        assert!(v.all_waitlists_empty());
    }

    #[test]
    fn cond_varinfo_packs_lock_and_pending_count() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        let lock = Addr(0xDEAD_BEC0); // line-aligned, fits in 48 bits
        v.set_cond_info(lock, 0);
        assert_eq!(v.cond_lock(), lock);
        assert_eq!(v.cond_pending_signals(), 0);
        assert!(!v.take_pending_signal(), "nothing banked yet");
        assert_eq!(v.add_pending_signal(), 1);
        assert_eq!(v.add_pending_signal(), 2);
        assert_eq!(v.cond_pending_signals(), 2);
        assert_eq!(
            v.cond_lock(),
            lock,
            "count must not disturb the lock address"
        );
        assert!(v.take_pending_signal());
        assert!(v.take_pending_signal());
        assert!(
            !v.take_pending_signal(),
            "each signal is consumed exactly once"
        );
        assert_eq!(v.cond_lock(), lock);
    }

    #[test]
    fn cond_pending_count_saturates() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        v.set_cond_info(Addr(0x40), u16::MAX);
        assert_eq!(v.add_pending_signal(), u16::MAX);
    }

    #[test]
    fn overflow_bookkeeping() {
        let mut v = SyncronVar::new(Addr(0x100), 4);
        assert!(!v.is_overflowed(UnitId(3)));
        v.mark_overflowed(UnitId(3));
        v.mark_overflowed(UnitId(0));
        assert!(v.is_overflowed(UnitId(3)));
        assert_eq!(v.overflowed_units(), vec![UnitId(0), UnitId(3)]);
    }
}
