//! A growable, allocation-light bit queue for waiter tracking.
//!
//! The Synchronization Table of the paper (Section 4.2.2) tracks waiters as hardware
//! bit vectors: one bit per NDP core of a unit in the *local* waiting list, one bit
//! per SE of the system in the *global* waiting list. The original reproduction
//! modelled both as a single `u64`, which silently capped the simulated machine at 64
//! cores per unit / 64 units: `1u64 << index` with `index >= 64` panics in debug
//! builds and wraps the shift amount in release builds, aliasing distinct waiters
//! onto the same bit.
//!
//! [`BitQueue`] removes that cap. Indices below 64 use an inline word — no heap
//! allocation, the common case for the paper's 4×16 geometry — and larger indices
//! spill to a boxed word slice sized for the highest bit seen. A queue can also be
//! pre-sized with [`BitQueue::with_capacity`] so that hot paths (the pop/wake path of
//! the synchronization engines) never allocate per event: growth happens at most once
//! per waitlist, at construction or on the first out-of-line `set`.

use core::fmt;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// A growable set of small integers (waiter indices), stored as a bit vector.
///
/// Semantically this is a FIFO-by-index queue: [`BitQueue::first`] /
/// [`BitQueue::pop_first`] always return the *lowest* set index, matching the
/// fixed-priority selection of the hardware bit queues it models.
///
/// # Example
///
/// ```
/// use syncron_sim::bitqueue::BitQueue;
///
/// let mut q = BitQueue::new();
/// q.set(3);
/// q.set(4096); // beyond the hardware word: spills, no aliasing
/// assert!(q.contains(3) && q.contains(4096));
/// assert_eq!(q.pop_first(), Some(3));
/// assert_eq!(q.pop_first(), Some(4096));
/// assert!(q.is_empty());
/// ```
#[derive(Clone)]
pub struct BitQueue {
    words: Words,
}

#[derive(Clone)]
enum Words {
    /// Indices 0..64 — the common case, stored without heap allocation.
    Inline(u64),
    /// Indices beyond the hardware word, spilled to a boxed word slice.
    Spilled(Box<[u64]>),
}

impl BitQueue {
    /// An empty queue (inline storage, no allocation).
    pub const EMPTY: BitQueue = BitQueue {
        words: Words::Inline(0),
    };

    /// Creates an empty queue with inline storage.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates an empty queue pre-sized to hold indices `0..bits` without further
    /// allocation. Queues for at most 64 waiters stay inline.
    pub fn with_capacity(bits: usize) -> Self {
        if bits <= WORD_BITS {
            Self::EMPTY
        } else {
            BitQueue {
                words: Words::Spilled(vec![0u64; bits.div_ceil(WORD_BITS)].into_boxed_slice()),
            }
        }
    }

    /// Number of indices the current storage can hold without growing.
    pub fn capacity(&self) -> usize {
        self.words().len() * WORD_BITS
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => core::slice::from_ref(w),
            Words::Spilled(w) => w,
        }
    }

    /// Grows the storage so `index` is addressable, preserving the current bits.
    fn grow_for(&mut self, index: usize) {
        let needed = index / WORD_BITS + 1;
        let mut new = vec![0u64; needed].into_boxed_slice();
        match &self.words {
            Words::Inline(w) => new[0] = *w,
            Words::Spilled(w) => new[..w.len()].copy_from_slice(w),
        }
        self.words = Words::Spilled(new);
    }

    /// Sets the bit for `index`, growing the storage if needed.
    pub fn set(&mut self, index: usize) {
        let (word, bit) = (index / WORD_BITS, index % WORD_BITS);
        match &mut self.words {
            Words::Inline(w) if word == 0 => *w |= 1u64 << bit,
            Words::Spilled(w) if word < w.len() => w[word] |= 1u64 << bit,
            _ => {
                self.grow_for(index);
                self.set(index);
            }
        }
    }

    /// Clears the bit for `index` (a no-op beyond the current capacity).
    pub fn clear(&mut self, index: usize) {
        let (word, bit) = (index / WORD_BITS, index % WORD_BITS);
        match &mut self.words {
            Words::Inline(w) if word == 0 => *w &= !(1u64 << bit),
            Words::Spilled(w) if word < w.len() => w[word] &= !(1u64 << bit),
            _ => {}
        }
    }

    /// Returns whether the bit for `index` is set.
    pub fn contains(&self, index: usize) -> bool {
        let (word, bit) = (index / WORD_BITS, index % WORD_BITS);
        self.words()
            .get(word)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Returns `true` if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Index of the lowest set bit, if any (the next waiter to serve).
    pub fn first(&self) -> Option<usize> {
        self.words()
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * WORD_BITS + w.trailing_zeros() as usize)
    }

    /// Removes and returns the lowest set bit. Never allocates.
    pub fn pop_first(&mut self) -> Option<usize> {
        let first = self.first()?;
        self.clear(first);
        Some(first)
    }

    /// Iterates over the set bits in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            core::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(i * WORD_BITS + bit)
                }
            })
        })
    }
}

impl Default for BitQueue {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Equality ignores storage representation: an inline queue equals a spilled queue
/// whose extra words are all zero.
impl PartialEq for BitQueue {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let common = a.len().min(b.len());
        a[..common] == b[..common]
            && a[common..].iter().all(|&w| w == 0)
            && b[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitQueue {}

impl fmt::Debug for BitQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BitQueue")?;
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitQueue {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut q = BitQueue::new();
        for index in iter {
            q.set(index);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_set_clear_pop() {
        let mut q = BitQueue::new();
        assert!(q.is_empty());
        q.set(3);
        q.set(7);
        assert!(q.contains(3));
        assert!(!q.contains(4));
        assert_eq!(q.count(), 2);
        assert_eq!(q.first(), Some(3));
        assert_eq!(q.pop_first(), Some(3));
        assert_eq!(q.pop_first(), Some(7));
        assert_eq!(q.pop_first(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn indices_beyond_the_hardware_word_do_not_alias() {
        // Regression for the fixed-width Waitlist: with a u64 bitmask, index 64 wraps
        // onto index 0 in release builds (and panics in debug builds). Each of these
        // pairs aliased under the old masked shift.
        for (lo, hi) in [(0usize, 64usize), (1, 65), (0, 128), (63, 127), (0, 4096)] {
            let mut q = BitQueue::new();
            q.set(hi);
            assert!(q.contains(hi));
            assert!(!q.contains(lo), "bit {hi} aliased onto {lo}");
            q.set(lo);
            assert_eq!(q.count(), 2);
            q.clear(lo);
            assert!(q.contains(hi), "clearing {lo} must not clear {hi}");
            assert_eq!(q.pop_first(), Some(hi));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_order_is_ascending_across_words() {
        let mut q = BitQueue::new();
        for i in [4096usize, 65, 3, 64, 200] {
            q.set(i);
        }
        let mut popped = Vec::new();
        while let Some(i) = q.pop_first() {
            popped.push(i);
        }
        assert_eq!(popped, vec![3, 64, 65, 200, 4096]);
    }

    #[test]
    fn with_capacity_pre_sizes_storage() {
        let q = BitQueue::with_capacity(4096);
        assert!(q.capacity() >= 4096);
        assert!(q.is_empty());
        let inline = BitQueue::with_capacity(64);
        assert_eq!(inline.capacity(), 64);
        // Setting within a pre-sized queue does not change the capacity.
        let mut q = BitQueue::with_capacity(130);
        let cap = q.capacity();
        q.set(129);
        assert_eq!(q.capacity(), cap);
    }

    #[test]
    fn growth_preserves_existing_bits() {
        let mut q = BitQueue::new();
        q.set(5);
        q.set(63);
        q.set(300);
        assert!(q.contains(5) && q.contains(63) && q.contains(300));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn clear_beyond_capacity_is_a_noop() {
        let mut q = BitQueue::new();
        q.set(1);
        q.clear(9999);
        assert_eq!(q.count(), 1);
        assert_eq!(q.capacity(), 64, "clear must not grow the storage");
    }

    #[test]
    fn equality_ignores_storage_representation() {
        let mut spilled = BitQueue::with_capacity(1024);
        spilled.set(7);
        let mut inline = BitQueue::new();
        inline.set(7);
        assert_eq!(spilled, inline);
        assert_eq!(inline, spilled);
        inline.set(80);
        assert_ne!(spilled, inline);
        assert_eq!(BitQueue::with_capacity(512), BitQueue::EMPTY);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let q: BitQueue = [100usize, 2, 65, 63].into_iter().collect();
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![2, 63, 65, 100]);
        assert_eq!(format!("{q:?}"), "BitQueue{2, 63, 65, 100}");
    }

    #[test]
    fn matches_a_model_set_under_random_ops() {
        use crate::SimRng;
        for case in 0..32u64 {
            let mut rng = SimRng::seed_from(0xB17_0000 + case);
            let mut q = BitQueue::new();
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..400 {
                // Indices span several words, crossing the 64-bit boundary often.
                let idx = rng.gen_range(200) as usize;
                if rng.gen_bool(0.5) {
                    q.set(idx);
                    model.insert(idx);
                } else {
                    q.clear(idx);
                    model.remove(&idx);
                }
                assert_eq!(q.count() as usize, model.len());
                assert_eq!(q.first(), model.iter().next().copied());
            }
            assert_eq!(
                q.iter().collect::<Vec<_>>(),
                model.into_iter().collect::<Vec<_>>()
            );
        }
    }
}
