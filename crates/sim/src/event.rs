//! Discrete-event queue.
//!
//! The simulator advances time by repeatedly popping the earliest pending event.
//! Events scheduled for the same timestamp are delivered in FIFO order (insertion
//! order), which keeps simulations deterministic and makes protocol races easy to
//! reason about in tests.
//!
//! The queue is a `BinaryHeap` ordered by `(time, key)`: [`EventQueue::push`]
//! keys an event by its push sequence, [`EventQueue::push_keyed`] by a
//! caller-chosen key, so pop order is a pure function of the pushed keys.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    key: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.key.cmp(&other.key))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Creates an empty event queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = EventQueue::new();
        q.reserve(cap);
        q
    }

    /// Pre-allocates room for `cap` additional pending events.
    pub fn reserve(&mut self, cap: usize) {
        self.heap.reserve(cap);
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let key = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, key, event }));
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
        self.heap.push(Reverse(Entry { at, key, event }));
    }

    /// Removes and returns the earliest pending event, or `None` if the queue is empty.
    ///
    /// Events with equal timestamps come back in push order (FIFO).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events scheduled so far (including already-delivered ones).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Total number of events delivered so far.
    pub fn delivered_total(&self) -> u64 {
        self.popped
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
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
        assert_eq!(q.delivered_total(), 0);
        q.pop();
        assert_eq!(q.delivered_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(9), 1);
        q.push(Time::from_ns(2), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
        // Peeking does not consume.
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
    }

    #[test]
    fn far_future_events_spill_and_return() {
        // Schedule far in the future, then in front of it, and check global order.
        let mut q = EventQueue::new();
        q.push(Time::from_ms(5), 'z');
        q.push(Time::from_us(100), 'y');
        q.push(Time::from_ps(10), 'a');
        assert_eq!(q.len(), 3);
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::SimRng;

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
                while let Some((t, key)) = q.pop() {
                    if let Some((lt, lkey)) = last {
                        assert!(t >= lt, "case {case}, keyed {keyed}");
                        if t == lt {
                            assert!(key > lkey, "case {case}, keyed {keyed}");
                        }
                    }
                    last = Some((t, key));
                }
                assert_eq!(q.delivered_total(), count as u64);
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
}
