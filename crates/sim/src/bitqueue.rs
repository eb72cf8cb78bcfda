//! A growable, allocation-light bit queue of small indices.
//!
//! Indices below 64 use an inline word — no heap allocation — and larger indices
//! spill to a boxed word slice sized for the highest bit seen. Popping never
//! shrinks the storage, so a queue that is drained and refilled reuses its words.
//! The system crate collects the cores of one resume burst in a [`BitQueue`]: a
//! unit may have up to 256 cores, so the spilling path is live.

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// A growable set of small integers, popped in ascending index order.
///
/// # Example
///
/// ```
/// use syncron_sim::bitqueue::BitQueue;
///
/// let mut q = BitQueue::default();
/// q.set(4096); // beyond the inline word: spills, no aliasing
/// q.set(3);
/// assert_eq!(q.pop_first(), Some(3));
/// assert_eq!(q.pop_first(), Some(4096));
/// assert!(q.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitQueue {
    words: Words,
}

#[derive(Clone, Debug)]
enum Words {
    /// Indices 0..64, stored without heap allocation.
    Inline(u64),
    /// Indices beyond the inline word, spilled to a boxed word slice.
    Spilled(Box<[u64]>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline(0)
    }
}

impl BitQueue {
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

    /// Returns `true` if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Removes and returns the lowest set bit. Never allocates.
    pub fn pop_first(&mut self) -> Option<usize> {
        let words: &mut [u64] = match &mut self.words {
            Words::Inline(w) => core::slice::from_mut(w),
            Words::Spilled(w) => w,
        };
        let (i, w) = words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = w.trailing_zeros() as usize;
        *w &= *w - 1;
        Some(i * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut BitQueue) -> Vec<usize> {
        core::iter::from_fn(|| q.pop_first()).collect()
    }

    #[test]
    fn inline_set_clear_pop() {
        let mut q = BitQueue::default();
        assert!(q.is_empty());
        q.set(7);
        q.set(3);
        q.set(3);
        assert!(!q.is_empty());
        // Popping clears the lowest bit first; a bit set twice pops once.
        assert_eq!(q.pop_first(), Some(3));
        assert_eq!(q.pop_first(), Some(7));
        assert_eq!(q.pop_first(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn indices_beyond_the_hardware_word_do_not_alias() {
        // With a single u64 mask, index 64 wraps onto index 0 in release builds
        // (and panics in debug builds). Each of these pairs would alias.
        for (lo, hi) in [(0usize, 64usize), (1, 65), (0, 128), (63, 127), (0, 4096)] {
            let mut q = BitQueue::default();
            q.set(hi);
            q.set(lo);
            assert_eq!(drain(&mut q), vec![lo, hi], "bit {hi} aliased onto {lo}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_order_is_ascending_across_words() {
        let mut q = BitQueue::default();
        for i in [4096usize, 65, 3, 64, 200] {
            q.set(i);
        }
        assert_eq!(drain(&mut q), vec![3, 64, 65, 200, 4096]);
    }

    #[test]
    fn growth_preserves_existing_bits() {
        let mut q = BitQueue::default();
        q.set(5);
        q.set(63);
        q.set(300);
        assert_eq!(drain(&mut q), vec![5, 63, 300]);
        // A drained spilled queue keeps its words and refills in place.
        q.set(255);
        q.set(0);
        assert_eq!(drain(&mut q), vec![0, 255]);
    }

    #[test]
    fn matches_a_model_set_under_random_ops() {
        use crate::SimRng;
        for case in 0..32u64 {
            let mut rng = SimRng::seed_from(0xB17_0000 + case);
            let mut q = BitQueue::default();
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..400 {
                // Indices span several words, crossing the 64-bit boundary often.
                if rng.gen_bool(0.6) {
                    let idx = rng.gen_range(300) as usize;
                    q.set(idx);
                    model.insert(idx);
                } else {
                    assert_eq!(q.pop_first(), model.pop_first());
                }
                assert_eq!(q.is_empty(), model.is_empty());
            }
            assert_eq!(drain(&mut q), model.into_iter().collect::<Vec<_>>());
        }
    }
}
