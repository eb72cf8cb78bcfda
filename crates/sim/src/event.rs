//! Discrete-event queue.
//!
//! The simulator advances time by repeatedly popping the earliest pending event.
//! Events scheduled for the same timestamp are delivered in FIFO order (insertion
//! order), which keeps simulations deterministic and makes protocol races easy to
//! reason about in tests.
//!
//! Events pop in ascending `(time, key)` order: [`EventQueue::push`] keys an
//! event by its push sequence, [`EventQueue::push_keyed`] by a caller-chosen
//! key, so pop order is a pure function of the pushed keys.
//!
//! # Layout
//!
//! The queue is a binary min-heap of 24-byte `{time, key, slot}` entries over a
//! slab that holds the events, so a sift moves 24 bytes however large an event
//! is. Entries compare as one `u128` (`time << 64 | key`), and a sift picks the
//! smaller child without a branch. The entry vector and the slab are equally
//! long: past the heap's live prefix, the entry vector's tail names the free
//! slab slots, so a push reuses a slot without a free list of its own, and the
//! slab stops growing once the queue length does.
//!
//! A run loop nearly always pushes right after a pop (a core's next step, an
//! engine's reply), so [`EventQueue::pop`] leaves the root vacant, and the next
//! push fills the vacancy with one top-down sift, reusing the popped event's
//! slot. That sift stops at once when the new event precedes both children. A
//! pop that finds the root vacant first refills it with the last entry, as a
//! plain heap pop would.

use crate::time::Time;

/// A time-ordered, insertion-stable event queue.
///
/// # Example
///
/// ```
/// use syncron_sim::event::EventQueue;
/// use syncron_sim::time::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(5), "b");
/// q.push(Time::from_ns(1), "a");
/// q.push(Time::from_ns(5), "c");
/// assert_eq!(q.pop(), Some((Time::from_ns(1), "a")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "b")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `entries[..len]` is the heap; `entries[len..]` are dead entries whose
    /// slots are free. While `vacant`, `entries[0]` is the popped root, and its
    /// slot is free too.
    entries: Vec<Entry>,
    len: usize,
    vacant: bool,
    /// The events, indexed by `Entry::slot`; as long as `entries`.
    slab: Vec<Option<E>>,
    seq: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    at: u64,
    key: u64,
    slot: u32,
}

impl Entry {
    /// The pop order as one integer: time first, then key.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            len: 0,
            vacant: false,
            slab: Vec::new(),
            seq: 0,
        }
    }

    /// Creates an empty event queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            entries: Vec::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            ..EventQueue::new()
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        self.push_keyed(at, self.seq, event);
    }

    /// Schedules `event` at `at` with a caller-chosen tiebreak key instead of the
    /// queue's internal push sequence.
    ///
    /// Events pop in ascending `(time, key)` order, so a caller that derives keys
    /// from its own stable numbering (e.g. per-shard counters in a partitioned
    /// simulation) gets an equal-timestamp order that is independent of *which
    /// queue* an event was pushed into. Keys must be unique per timestamp; a
    /// queue should be driven either entirely through [`EventQueue::push`] or
    /// entirely through `push_keyed` — mixing the two may collide keys.
    pub fn push_keyed(&mut self, at: Time, key: u64, event: E) {
        self.seq += 1; // keep scheduled_total() meaningful as a push count
        let at = at.as_ps();
        if self.vacant {
            self.vacant = false;
            let slot = self.entries[0].slot;
            self.slab[slot as usize] = Some(event);
            self.sift_down(Entry { at, key, slot });
            return;
        }
        let pos = self.len;
        let slot = match self.entries.get(pos) {
            Some(dead) => dead.slot,
            None => {
                let slot = u32::try_from(pos).expect("fewer than 2^32 pending events");
                self.entries.push(Entry { at, key, slot });
                self.slab.push(None);
                slot
            }
        };
        self.slab[slot as usize] = Some(event);
        self.len = pos + 1;
        self.sift_up(pos, Entry { at, key, slot });
    }

    /// Removes and returns the earliest pending event, or `None` if the queue is empty.
    ///
    /// Events with equal timestamps come back in push order (FIFO).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let root = self.root()?;
        Some(self.take_root(root))
    }

    /// Removes and returns the earliest pending event if it is due strictly
    /// before `end`; otherwise leaves the queue as it is and returns `None`.
    pub fn pop_before(&mut self, end: Time) -> Option<(Time, E)> {
        let root = self.root().filter(|root| root.at < end.as_ps())?;
        Some(self.take_root(root))
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        let at = if self.vacant {
            // The root's successor is the earlier of its children.
            match &self.entries[1..self.len] {
                [] => return None,
                [only] => only.at,
                [left, right, ..] => left.at.min(right.at),
            }
        } else {
            self.entries[..self.len].first()?.at
        };
        Some(Time::from_ps(at))
    }

    /// Total number of events scheduled so far (including already-delivered ones).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// The root entry, after refilling the root if the last pop left it vacant.
    fn root(&mut self) -> Option<Entry> {
        if self.vacant {
            self.vacant = false;
            let popped = self.entries[0];
            self.len -= 1;
            if self.len > 0 {
                let last = self.entries[self.len];
                self.entries[self.len] = popped;
                self.sift_down(last);
            }
        }
        self.entries[..self.len].first().copied()
    }

    /// Takes the event of `root` (the current root entry) and leaves the root
    /// vacant.
    fn take_root(&mut self, root: Entry) -> (Time, E) {
        self.vacant = true;
        let event = self.slab[root.slot as usize]
            .take()
            .expect("a heap entry names a filled slot");
        (Time::from_ps(root.at), event)
    }

    /// Writes `entry` into the vacant root, moving the earlier child up into
    /// the hole until `entry` precedes both children.
    fn sift_down(&mut self, entry: Entry) {
        let heap = &mut self.entries[..self.len];
        let rank = entry.rank();
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < heap.len() {
            child += usize::from(heap[child + 1].rank() < heap[child].rank());
            if rank <= heap[child].rank() {
                heap[pos] = entry;
                return;
            }
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == heap.len() && heap[child].rank() < rank {
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = entry;
    }

    /// Writes `entry` into the hole at `pos` of the heap, moving parents down
    /// into the hole until `entry` follows its parent.
    fn sift_up(&mut self, mut pos: usize, entry: Entry) {
        let heap = &mut self.entries[..self.len];
        let rank = entry.rank();
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if heap[parent].rank() <= rank {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = entry;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), 3);
        q.push(Time::from_ps(10), 1);
        q.push(Time::from_ps(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ps(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn counts_scheduled_and_delivered() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.scheduled_total(), 2);
        // Pops deliver every scheduled event and leave the push count alone.
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(9), 1);
        q.push(Time::from_ns(2), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
        // Peeking does not consume.
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
        // With the root vacant, the peek reads its successor.
        assert_eq!(q.peek_time(), Some(Time::from_ns(9)));
        assert_eq!(q.pop(), Some((Time::from_ns(9), 1)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_spill_and_return() {
        // Schedule far in the future, then in front of it, and check global order.
        let mut q = EventQueue::new();
        q.push(Time::from_ms(5), 'z');
        q.push(Time::from_us(100), 'y');
        q.push(Time::from_ps(10), 'a');
        assert_eq!(q.pop(), Some((Time::from_ps(10), 'a')));
        assert_eq!(q.pop(), Some((Time::from_us(100), 'y')));
        assert_eq!(q.pop(), Some((Time::from_ms(5), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn time_max_sentinel_is_accepted() {
        let mut q = EventQueue::new();
        q.push(Time::MAX, "never");
        q.push(Time::ZERO, "now");
        assert_eq!(q.pop(), Some((Time::ZERO, "now")));
        assert_eq!(q.pop(), Some((Time::MAX, "never")));
    }

    #[test]
    fn past_time_pushes_pop_first() {
        // After draining up to t=1000, a push at t=5 (earlier than events already
        // delivered) must still come out before anything later.
        let mut q = EventQueue::new();
        q.push(Time::from_ps(1000), 1);
        assert_eq!(q.pop(), Some((Time::from_ps(1000), 1)));
        q.push(Time::from_ps(2000), 2);
        q.push(Time::from_ps(5), 3);
        assert_eq!(q.pop(), Some((Time::from_ps(5), 3)));
        assert_eq!(q.pop(), Some((Time::from_ps(2000), 2)));
    }

    #[test]
    fn pop_before_stops_at_the_window_end() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), 'a');
        q.push(Time::from_ps(20), 'b');
        assert_eq!(
            q.pop_before(Time::from_ps(20)),
            Some((Time::from_ps(10), 'a'))
        );
        // An event due at the end itself stays queued.
        assert_eq!(q.pop_before(Time::from_ps(20)), None);
        assert_eq!(q.peek_time(), Some(Time::from_ps(20)));
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ps(20), 'b')));
        assert_eq!(q.pop_before(Time::MAX), None);
    }

    #[test]
    fn entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    // Deterministic stand-ins for proptest properties (no crates.io access).

    /// Popping always yields events in non-decreasing time order; events with
    /// equal timestamps come back in insertion order under `push` and in
    /// ascending key order under `push_keyed` (keys pushed in shuffled order).
    #[test]
    fn pops_are_monotone_and_stable() {
        for keyed in [false, true] {
            for case in 0..64u64 {
                let mut rng = SimRng::seed_from(0xE4E7_0000 + case);
                let count = 1 + rng.gen_range(199) as usize;
                let times: Vec<u64> = (0..count).map(|_| rng.gen_range(50)).collect();
                let mut keys: Vec<usize> = (0..count).collect();
                if keyed {
                    rng.shuffle(&mut keys);
                }
                let mut q = EventQueue::new();
                for (t, &key) in times.iter().zip(&keys) {
                    if keyed {
                        q.push_keyed(Time::from_ps(*t), key as u64, key);
                    } else {
                        q.push(Time::from_ps(*t), key);
                    }
                }
                let mut last: Option<(Time, usize)> = None;
                let mut delivered = 0;
                while let Some((t, key)) = q.pop() {
                    if let Some((lt, lkey)) = last {
                        assert!(t >= lt, "case {case}, keyed {keyed}");
                        if t == lt {
                            assert!(key > lkey, "case {case}, keyed {keyed}");
                        }
                    }
                    last = Some((t, key));
                    delivered += 1;
                }
                assert_eq!(delivered, count);
            }
        }
    }

    /// Every pushed event is delivered exactly once.
    #[test]
    fn conservation() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0xC0_5E4B + case);
            let count = rng.gen_range(300) as usize;
            let times: Vec<u64> = (0..count).map(|_| rng.gen_range(1000)).collect();
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Time::from_ps(*t), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some((_, idx)) = q.pop() {
                assert!(!seen[idx]);
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// A 56-byte `Copy` event, the size of the machine's largest event, filled
    /// from its `(time, key)` so a misrouted payload shows.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Payload([u64; 7]);

    impl Payload {
        fn of(at: u64, key: u64) -> Self {
            Payload([
                at,
                key,
                at ^ key,
                !at,
                !key,
                at.rotate_left(17),
                key.wrapping_mul(31),
            ])
        }
    }

    /// Pushes one event into the queue and the reference alike; `keyed` picks
    /// `push_keyed` over `push`, whose key is the push count.
    fn push_both(
        q: &mut EventQueue<Payload>,
        reference: &mut BTreeMap<(u64, u64), Payload>,
        keyed: bool,
        at: u64,
        key: u64,
    ) {
        if keyed {
            q.push_keyed(Time::from_ps(at), key, Payload::of(at, key));
        } else {
            q.push(Time::from_ps(at), Payload::of(at, key));
        }
        reference.insert((at, key), Payload::of(at, key));
    }

    /// One seeded run: random bursts of `push` (or `push_keyed` with shuffled
    /// keys), `pop`, `pop_before` and fused pop-then-push pairs, checked step by
    /// step against a `(time, key)`-ordered reference map. The run grows the
    /// queue from empty to `peak` pending events, churns there, and drains it.
    fn check_against_reference(seed: u64, keyed: bool, peak: usize) {
        let mut rng = SimRng::seed_from(seed);
        let mut q: EventQueue<Payload> = EventQueue::new();
        let mut reference: BTreeMap<(u64, u64), Payload> = BTreeMap::new();
        // Keyed runs draw unique keys from a shuffled permutation.
        let mut keys: Vec<u64> = (0..(16 * peak as u64 + 4_096)).collect();
        rng.shuffle(&mut keys);
        let mut keys = keys.into_iter();
        let mut next_key = |pushes| {
            if keyed {
                keys.next().expect("enough keys")
            } else {
                pushes
            }
        };
        let mut pushes = 0u64;
        let mut now = 0u64;
        let mut high_water = 0usize;

        // Phase 0 grows to `peak`, phase 1 churns at about `peak`, phase 2
        // drains to empty (and pops an empty queue a few times).
        for phase in 0..3 {
            let steps = if phase == 1 {
                2 * peak + 64
            } else {
                usize::MAX
            };
            let mut step = 0;
            while step < steps {
                step += 1;
                let pending = reference.len();
                match phase {
                    0 if pending >= peak => break,
                    2 if pending == 0 && step > 4 => break,
                    _ => {}
                }
                // Bias towards pushes while growing and pops while draining.
                let push_weight = [7, 5, 3][phase];
                let burst = 1 + rng.gen_range(6);
                let pushing = rng.gen_range(10) < push_weight;
                for _ in 0..burst {
                    if pushing {
                        // Mostly near `now`, often equal times, sometimes
                        // before events already popped, rarely `Time::MAX`.
                        let at = match rng.gen_range(16) {
                            0 => u64::MAX,
                            1..=2 => now.saturating_sub(rng.gen_range(50)),
                            3..=8 => now + rng.gen_range(4),
                            _ => now + rng.gen_range(5_000),
                        };
                        push_both(&mut q, &mut reference, keyed, at, next_key(pushes));
                        pushes += 1;
                    } else {
                        // A plain pop, or a `pop_before` whose window end
                        // sometimes stops short of the earliest event.
                        let end = (rng.gen_range(4) == 0).then(|| now + rng.gen_range(3_000));
                        let due = reference
                            .first_key_value()
                            .map(|(&k, &p)| (k, p))
                            .filter(|&((at, _), _)| end.is_none_or(|end| at < end));
                        if let Some((k, _)) = due {
                            reference.remove(&k);
                        }
                        let got = match end {
                            Some(end) => q.pop_before(Time::from_ps(end)),
                            None => q.pop(),
                        };
                        let expected = due.map(|((at, _), p)| (Time::from_ps(at), p));
                        assert_eq!(got, expected, "seed {seed:#x}");
                        if let Some((at, _)) = got.filter(|&(at, _)| at != Time::MAX) {
                            now = now.max(at.as_ps());
                        }
                    }
                    // Checked after every step, so also while the root is vacant.
                    let earliest = reference.keys().next().map(|&(at, _)| Time::from_ps(at));
                    assert_eq!(q.peek_time(), earliest, "seed {seed:#x}");
                    assert_eq!(q.scheduled_total(), pushes);
                    high_water = high_water.max(reference.len());
                    // The slab holds one slot per pending event at the high
                    // water mark and no more: popped slots are reused.
                    assert_eq!(q.slab.len(), high_water, "seed {seed:#x}");
                }
                // A fused pop-then-push pair after every burst.
                if let Some(((at, _), payload)) = reference.pop_first() {
                    assert_eq!(q.pop(), Some((Time::from_ps(at), payload)));
                    if at != u64::MAX {
                        now = now.max(at);
                    }
                    let next = now + rng.gen_range(2_000);
                    push_both(&mut q, &mut reference, keyed, next, next_key(pushes));
                    pushes += 1;
                }
            }
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert!(
            high_water >= peak,
            "seed {seed:#x} reached {high_water} of {peak}"
        );
        assert_eq!(q.slab.len(), high_water);
    }

    /// The queue pops, peeks and counts exactly like a sorted reference model
    /// for queue lengths from 0 to past 4,096, under `push` and `push_keyed`.
    #[test]
    fn matches_a_sorted_reference_model() {
        for case in 0..24u64 {
            let peak = [1, 2, 3, 40, 300, 4_200][case as usize % 6];
            check_against_reference(0x5EED_0000 + case, case % 2 == 1, peak);
        }
    }
}
