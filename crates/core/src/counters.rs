//! Indexing counters for ST overflow tracking, and the signal-coalescing counters.
//!
//! Section 4.2.3 of the paper: when the ST is full, the SE keeps track of which
//! synchronization variables are currently serviced via main memory using a small set
//! of counters (256 in the paper's implementation), indexed by the least-significant
//! bits of the variable's address. Acquire-type messages for an overflowed variable
//! increment the counter; release-type messages decrement it. A variable is serviced
//! via memory while its counter is non-zero. Different variables may alias onto the
//! same counter; aliasing never affects correctness, only performance (an aliased
//! variable may be serviced via memory even though the ST has room).
//!
//! This module also hosts [`SignalCounters`], the per-engine bookkeeping of the
//! condvar signal-coalescing / backoff extension (see [`crate::protocol`]): how many
//! signals were banked as pending, consumed by a later wait, or NACKed with a backoff
//! delay. The protocol engine aggregates them into
//! [`SyncMechanismStats`](crate::mechanism::SyncMechanismStats) for reporting.

use syncron_sim::Addr;

/// The per-SE indexing counter file.
///
/// # Example
///
/// ```
/// use syncron_core::counters::IndexingCounters;
/// use syncron_sim::Addr;
///
/// let mut ctrs = IndexingCounters::new(256);
/// assert!(!ctrs.is_overflowed(Addr(0x1240)));
/// ctrs.increment(Addr(0x1240));
/// assert!(ctrs.is_overflowed(Addr(0x1240)));
/// ctrs.decrement(Addr(0x1240));
/// assert!(!ctrs.is_overflowed(Addr(0x1240)));
/// ```
#[derive(Clone, Debug)]
pub struct IndexingCounters {
    counters: Vec<u32>,
    index_bits: u32,
}

impl IndexingCounters {
    /// Creates a counter file with `entries` counters. `entries` is rounded up to the
    /// next power of two (the paper uses 256, indexed by the 8 LSBs of the address).
    pub fn new(entries: usize) -> Self {
        let entries = entries.max(1).next_power_of_two();
        IndexingCounters {
            counters: vec![0; entries],
            index_bits: entries.trailing_zeros(),
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Returns `true` if the counter file is empty (it never is after construction).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    fn index(&self, addr: Addr) -> usize {
        // Index by the LSBs of the *line* address so variables in different cache
        // lines spread across counters (the paper indexes by the address LSBs).
        (addr.line_index() & ((1 << self.index_bits) - 1) as u64) as usize
    }

    /// Increments the counter for `addr` (acquire-type message for an overflowed
    /// variable). Saturates at `u32::MAX`.
    pub fn increment(&mut self, addr: Addr) {
        let idx = self.index(addr);
        self.counters[idx] = self.counters[idx].saturating_add(1);
    }

    /// Decrements the counter for `addr` (release-type message for an overflowed
    /// variable). Saturates at zero.
    pub fn decrement(&mut self, addr: Addr) {
        let idx = self.index(addr);
        if self.counters[idx] > 0 {
            self.counters[idx] -= 1;
        }
    }

    /// Returns `true` if the variable at `addr` is currently serviced via main memory
    /// (its counter — possibly shared with aliasing variables — is non-zero).
    pub fn is_overflowed(&self, addr: Addr) -> bool {
        self.counters[self.index(addr)] > 0
    }

    /// Current value of the counter for `addr`.
    pub fn value(&self, addr: Addr) -> u32 {
        self.counters[self.index(addr)]
    }

    /// Number of counters that are currently non-zero.
    pub fn active(&self) -> usize {
        self.counters.iter().filter(|&&c| c > 0).count()
    }
}

/// Per-engine counters of the condvar signal-coalescing / backoff extension.
///
/// One `cond_signal` arriving at the serving engine ends in exactly one of three
/// ways, each tracked by one counter:
///
/// * **delivered** — a waiter was queued and is woken;
/// * **coalesced** — no waiter was queued, the signal is banked in the pending count;
/// * **nacked** — no waiter was queued and the pending count was at its cap, so the
///   signaler is NACKed with a backoff delay.
///
/// `consumed` counts the pending signals a later `cond_wait` picked up; at quiescence
/// `consumed <= coalesced` (banked signals may outlive the run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SignalCounters {
    delivered: u64,
    coalesced: u64,
    consumed: u64,
    nacked: u64,
    max_pending: u16,
}

impl SignalCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        SignalCounters::default()
    }

    /// Records a signal that woke a queued waiter.
    pub fn record_delivered(&mut self) {
        self.delivered += 1;
    }

    /// Records a signal banked into the pending count, which now stands at
    /// `pending_now`.
    pub fn record_coalesced(&mut self, pending_now: u16) {
        self.coalesced += 1;
        self.max_pending = self.max_pending.max(pending_now);
    }

    /// Records a pending signal consumed by a later `cond_wait`.
    pub fn record_consumed(&mut self) {
        self.consumed += 1;
    }

    /// Records a signal NACKed with a backoff delay.
    pub fn record_nacked(&mut self) {
        self.nacked += 1;
    }

    /// Signals that woke a queued waiter.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Signals banked into the pending count.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Pending signals consumed by a later `cond_wait`.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Signals NACKed with a backoff delay.
    pub fn nacked(&self) -> u64 {
        self.nacked
    }

    /// High-water mark of the pending-signal count.
    pub fn max_pending(&self) -> u16 {
        self.max_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_is_256_entries() {
        let ctrs = IndexingCounters::new(256);
        assert_eq!(ctrs.len(), 256);
        assert!(!ctrs.is_empty());
    }

    #[test]
    fn rounds_up_to_power_of_two() {
        assert_eq!(IndexingCounters::new(200).len(), 256);
        assert_eq!(IndexingCounters::new(1).len(), 1);
    }

    #[test]
    fn increment_decrement_cycle() {
        let mut ctrs = IndexingCounters::new(256);
        let a = Addr(0x4040);
        ctrs.increment(a);
        ctrs.increment(a);
        assert_eq!(ctrs.value(a), 2);
        assert!(ctrs.is_overflowed(a));
        ctrs.decrement(a);
        assert!(ctrs.is_overflowed(a));
        ctrs.decrement(a);
        assert!(!ctrs.is_overflowed(a));
        // Extra decrements saturate at zero.
        ctrs.decrement(a);
        assert_eq!(ctrs.value(a), 0);
        assert!(!ctrs.is_overflowed(a));
    }

    #[test]
    fn aliasing_shares_a_counter() {
        let mut ctrs = IndexingCounters::new(256);
        // Two variables whose line indices differ by exactly 256 alias.
        let a = Addr(0);
        let b = Addr(256 * 64);
        ctrs.increment(a);
        assert!(ctrs.is_overflowed(b), "aliased variable shares the counter");
        assert_eq!(ctrs.active(), 1);
    }

    #[test]
    fn signal_counters_track_each_outcome() {
        let mut s = SignalCounters::new();
        s.record_delivered();
        s.record_coalesced(1);
        s.record_coalesced(2);
        s.record_consumed();
        s.record_nacked();
        s.record_nacked();
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.coalesced(), 2);
        assert_eq!(s.consumed(), 1);
        assert_eq!(s.nacked(), 2);
        assert_eq!(s.max_pending(), 2);
        // The high-water mark never decreases.
        s.record_coalesced(1);
        assert_eq!(s.max_pending(), 2);
        assert!(s.consumed() <= s.coalesced());
    }

    #[test]
    fn distinct_lines_use_distinct_counters() {
        let mut ctrs = IndexingCounters::new(256);
        ctrs.increment(Addr(0));
        ctrs.increment(Addr(64));
        assert_eq!(ctrs.active(), 2);
        assert!(!ctrs.is_overflowed(Addr(128)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    /// A counter's value equals max(0, increments - decrements) applied in order,
    /// for any interleaving on a single address.
    ///
    /// Deterministic stand-in for a proptest property (no crates.io access): many
    /// randomized op sequences driven by the in-tree RNG.
    #[test]
    fn counter_tracks_balance() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0xC0_0000 + case);
            let ops = 1 + rng.gen_range(199) as usize;
            let mut ctrs = IndexingCounters::new(64);
            let addr = Addr(0x80);
            let mut model: i64 = 0;
            for _ in 0..ops {
                if rng.gen_bool(0.5) {
                    ctrs.increment(addr);
                    model += 1;
                } else {
                    ctrs.decrement(addr);
                    model = (model - 1).max(0);
                }
                assert_eq!(ctrs.value(addr) as i64, model);
                assert_eq!(ctrs.is_overflowed(addr), model > 0);
            }
        }
    }
}
