//! Discrete-event queue.
//!
//! The simulator advances time by repeatedly popping the earliest pending event.
//! Events scheduled for the same timestamp are delivered in FIFO order (insertion
//! order), which keeps simulations deterministic and makes protocol races easy to
//! reason about in tests.
//!
//! Two interchangeable scheduler backends implement that contract:
//!
//! * [`SchedulerKind::Calendar`] (the default) — a hierarchical calendar queue
//!   (time wheel). Near-future events land in O(1) buckets whose width is a power
//!   of two of picoseconds (sized from the core cycle via
//!   [`CalendarParams::for_cycle`]); far-future events spill into a sorted overflow
//!   heap that refills the wheel on rotation.
//! * [`SchedulerKind::Heap`] — the original `BinaryHeap` implementation, kept as
//!   the reference scheduler for differential testing and as the baseline of the
//!   simulator-throughput benchmarks.
//!
//! Both backends pop events in exactly the same order — ascending `(time, push
//! sequence)` — so simulations are bit-identical under either. The randomized
//! differential tests at the bottom of this module pin that equivalence.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which event-queue backend a simulation uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchedulerKind {
    /// Hierarchical calendar queue (time wheel) — O(1) pushes and amortized O(1)
    /// pops for the near-future events that dominate a machine simulation.
    #[default]
    Calendar,
    /// Binary heap — O(log n) pushes and pops; the reference implementation the
    /// calendar queue is differentially tested against.
    Heap,
}

impl SchedulerKind {
    /// All backends, for sweeps and differential tests.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Calendar, SchedulerKind::Heap];

    /// The backend's stable name (`calendar` / `heap`), as used by scenario files.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Calendar => "calendar",
            SchedulerKind::Heap => "heap",
        }
    }
}

/// Geometry of the calendar-queue time wheel.
///
/// The wheel covers a horizon of `buckets × bucket_width` picoseconds; events
/// beyond the horizon spill into the sorted overflow heap and are moved into
/// buckets when the wheel rotates into their lap. Both dimensions are rounded up
/// to powers of two so the hot-path bucket mapping is a shift and a mask, never a
/// division.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CalendarParams {
    /// Width of one bucket in picoseconds (rounded up to a power of two).
    pub bucket_width_ps: u64,
    /// Number of buckets in the wheel (rounded up to a power of two).
    pub buckets: usize,
}

impl CalendarParams {
    /// Default geometry: 512 ps buckets × 1024 buckets ≈ 0.5 µs horizon — enough
    /// for the paper's DRAM (~50 ns), link (40–500 ns) and backoff latencies, so
    /// the overwhelming majority of machine events stay inside the wheel, while
    /// the bucket headers (~24 KB) stay cache-resident. Longer latencies (the
    /// 9 µs link sweeps) spill to the overflow heap, which handles them exactly.
    pub const DEFAULT: CalendarParams = CalendarParams {
        bucket_width_ps: 512,
        buckets: 1024,
    };

    /// Sizes the wheel from a core clock cycle: one bucket spans (the power-of-two
    /// round-up of) one cycle, so consecutive core steps land in distinct buckets
    /// and same-cycle events share one. Absurd cycles are clamped so the
    /// round-up cannot overflow (the wheel clamps again against its bucket
    /// count when built).
    pub fn for_cycle(cycle: Time) -> Self {
        CalendarParams {
            bucket_width_ps: cycle.as_ps().clamp(1, 1 << 53).next_power_of_two(),
            buckets: CalendarParams::DEFAULT.buckets,
        }
    }
}

impl Default for CalendarParams {
    fn default() -> Self {
        CalendarParams::DEFAULT
    }
}

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
    backend: Backend<E>,
    seq: u64,
    popped: u64,
}

#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Calendar(Calendar<E>),
}

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The time wheel: `buckets` slots of `1 << width_shift` picoseconds each, scanned
/// by a cursor, plus a sorted overflow heap for events past the current lap.
///
/// Bucket discipline (chosen for the machine's traffic shapes — huge
/// same-timestamp bursts at wake-ups, plus short low-latency chains):
///
/// * events for buckets the cursor has not reached yet are **appended unsorted**
///   (O(1); a 4096-core wake burst costs 4096 appends, not 4096 sorted inserts);
/// * when the cursor reaches a bucket, it is sorted **descending** by
///   `(time, seq)` exactly once, and then drained from the back with `Vec::pop`
///   (O(1) per event);
/// * events that land in (or before) the bucket currently being drained go to the
///   small `current` min-heap instead; each pop takes the smaller of the bucket's
///   back and the heap's top, so late arrivals still come out in exact
///   `(time, seq)` order.
///
/// Invariants:
///
/// * every event in `current` precedes every event in unreached buckets of the
///   current lap, which precede every overflow event;
/// * `(time, seq)` keys are unique, so the descending unstable sort and the heap
///   merge reproduce the reference heap's pop order bit for bit.
struct Calendar<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Late arrivals for the bucket currently being drained (including past-time
    /// pushes, which must pop before anything else).
    current: BinaryHeap<Reverse<Entry<E>>>,
    /// Whether `buckets[cursor]` has been sorted since the cursor reached it.
    cursor_sorted: bool,
    /// log2 of the bucket width in picoseconds.
    width_shift: u32,
    /// `buckets.len() - 1` (bucket count is a power of two).
    bucket_mask: u64,
    /// log2 of the horizon (`width_shift + log2(buckets)`).
    lap_shift: u32,
    /// Index of the bucket currently being drained.
    cursor: usize,
    /// Which lap of the wheel the cursor is in (`time / horizon`).
    lap: u64,
    /// Number of events currently in buckets plus `current` (excludes overflow).
    wheel_len: usize,
    /// One bit per bucket: set while the bucket holds events. Lets the cursor
    /// jump over runs of empty buckets a word at a time instead of probing each.
    occupancy: Vec<u64>,
    overflow: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> std::fmt::Debug for Calendar<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calendar")
            .field("bucket_width_ps", &(1u64 << self.width_shift))
            .field("buckets", &self.buckets.len())
            .field("wheel_len", &self.wheel_len)
            .field("overflow_len", &self.overflow.len())
            .finish()
    }
}

impl<E> Calendar<E> {
    /// Largest permitted bucket count: a million buckets is already absurd, and
    /// the cap keeps `log2(buckets)` small enough to bound the lap shift.
    const MAX_BUCKETS: usize = 1 << 20;

    fn new(params: CalendarParams) -> Self {
        // Clamp both dimensions so every shift below stays strictly under 64
        // bits. Without the clamp, extreme-but-constructible parameters (e.g.
        // `bucket_width_ps: u64::MAX`, whose `next_power_of_two` overflows to 0
        // in release builds, or widths where `width_shift + log2(buckets)`
        // reaches 64) made `bucket_of`/`lap_end_ps` use masked shift amounts
        // and silently corrupted pop order. Clamped wheels stay correct — an
        // oversized width just means more events share a bucket.
        let buckets = params
            .buckets
            .clamp(2, Calendar::<E>::MAX_BUCKETS)
            .next_power_of_two();
        let bucket_bits = buckets.trailing_zeros();
        let max_width_shift = 63 - bucket_bits;
        let width = params
            .bucket_width_ps
            .clamp(1, 1u64 << max_width_shift)
            .next_power_of_two();
        let width_shift = width.trailing_zeros();
        let lap_shift = width_shift + bucket_bits;
        debug_assert!(lap_shift < 64);
        let mut wheel = Vec::new();
        wheel.resize_with(buckets, Vec::new);
        Calendar {
            buckets: wheel,
            current: BinaryHeap::new(),
            cursor_sorted: true,
            width_shift,
            bucket_mask: buckets as u64 - 1,
            lap_shift,
            cursor: 0,
            lap: 0,
            wheel_len: 0,
            occupancy: vec![0u64; buckets.div_ceil(64)],
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn mark_occupied(&mut self, idx: usize) {
        self.occupancy[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn mark_empty(&mut self, idx: usize) {
        self.occupancy[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Index of the first occupied bucket at or past `from`, scanning the
    /// occupancy bitmap a word at a time.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word_index = from / 64;
        if word_index >= self.occupancy.len() {
            return None;
        }
        let mut word = self.occupancy[word_index] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_index * 64 + word.trailing_zeros() as usize);
            }
            word_index += 1;
            if word_index == self.occupancy.len() {
                return None;
            }
            word = self.occupancy[word_index];
        }
    }

    /// First picosecond past the current lap; everything at or beyond it overflows.
    /// Saturates for the final lap of the `u64` range, where `Time::MAX` sentinels
    /// live ([`Calendar::refill`] compensates by draining the whole overflow there).
    #[inline]
    fn lap_end_ps(&self) -> u64 {
        (self.lap + 1).saturating_mul(1u64 << self.lap_shift)
    }

    /// First picosecond past the bucket currently being drained (saturating in
    /// the final lap, where the last bucket has no end).
    #[inline]
    fn cursor_end_ps(&self) -> u64 {
        (self.lap << self.lap_shift).saturating_add(((self.cursor as u64) + 1) << self.width_shift)
    }

    #[inline]
    fn bucket_of(&self, ps: u64) -> usize {
        ((ps >> self.width_shift) & self.bucket_mask) as usize
    }

    fn push(&mut self, entry: Entry<E>) {
        let t = entry.at.as_ps();
        if t >= self.lap_end_ps() {
            self.overflow.push(Reverse(entry));
            return;
        }
        self.wheel_len += 1;
        if t < self.cursor_end_ps() {
            // The cursor bucket is (potentially) mid-drain; late arrivals — and
            // past-time pushes — merge through the small heap.
            self.current.push(Reverse(entry));
        } else {
            let idx = self.bucket_of(t);
            self.buckets[idx].push(entry);
            self.mark_occupied(idx);
        }
    }

    /// Moves overflow events belonging to the current lap into their buckets. In
    /// the saturated final lap every remaining overflow event belongs to it (there
    /// is no lap beyond), including those at exactly `u64::MAX`.
    fn refill(&mut self) {
        let end = self.lap_end_ps();
        let cursor_end = self.cursor_end_ps();
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| e.at.as_ps() < end || end == u64::MAX)
        {
            let Reverse(entry) = self.overflow.pop().expect("peeked entry");
            let t = entry.at.as_ps();
            self.wheel_len += 1;
            if t < cursor_end {
                self.current.push(Reverse(entry));
            } else {
                let idx = self.bucket_of(t);
                self.buckets[idx].push(entry);
                self.mark_occupied(idx);
            }
        }
    }

    /// Positions the cursor on the bucket holding the earliest event (sorting it
    /// on first contact). Returns `false` when the queue is empty.
    fn advance(&mut self) -> bool {
        loop {
            if !self.current.is_empty() || !self.buckets[self.cursor].is_empty() {
                if !self.cursor_sorted {
                    // Unique (time, seq) keys: unstable descending sort is
                    // deterministic; draining from the back yields ascending order.
                    self.buckets[self.cursor].sort_unstable_by_key(|e| Reverse(e.key()));
                    self.cursor_sorted = true;
                }
                return true;
            }
            if self.wheel_len == 0 {
                // Jump straight to the overflow minimum's lap (skipping empty
                // laps) and pull its lap's events into the wheel.
                let Some(Reverse(min)) = self.overflow.peek() else {
                    return false;
                };
                let t = min.at.as_ps();
                self.lap = t >> self.lap_shift;
                self.cursor = self.bucket_of(t);
                self.cursor_sorted = false;
                self.refill();
                continue;
            }
            // The wheel still holds events, so some later bucket of this lap is
            // non-empty (nothing can be behind the cursor); the occupancy bitmap
            // finds it a word at a time.
            self.cursor = self
                .next_occupied(self.cursor + 1)
                .expect("wheel_len > 0 but no bucket at or past the cursor holds an event");
            self.cursor_sorted = false;
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if !self.advance() {
            return None;
        }
        let take_current = match (self.current.peek(), self.buckets[self.cursor].last()) {
            (Some(Reverse(c)), Some(b)) => c.key() < b.key(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let entry = if take_current {
            self.current.pop().expect("peeked entry").0
        } else {
            let entry = self.buckets[self.cursor]
                .pop()
                .expect("advance stopped on a non-empty bucket");
            if self.buckets[self.cursor].is_empty() {
                self.mark_empty(self.cursor);
            }
            entry
        };
        self.wheel_len -= 1;
        Some(entry)
    }

    fn peek_time(&mut self) -> Option<Time> {
        if !self.advance() {
            return None;
        }
        let bucket_min = self.buckets[self.cursor].last().map(|e| e.key());
        let current_min = self.current.peek().map(|Reverse(e)| e.key());
        match (current_min, bucket_min) {
            (Some(c), Some(b)) => Some(c.min(b).0),
            (Some(c), None) => Some(c.0),
            (None, Some(b)) => Some(b.0),
            (None, None) => unreachable!("advance returned true on an empty wheel"),
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.current.clear();
        self.cursor_sorted = true;
        // Rewind the wheel: with a stale lap/cursor every later push at a small
        // timestamp would classify as "behind the cursor" and fall back to the
        // `current` heap forever, silently degrading the queue into the binary
        // heap it replaces.
        self.cursor = 0;
        self.lap = 0;
        self.wheel_len = 0;
        self.occupancy.fill(0);
        self.overflow.clear();
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue using the default calendar-queue scheduler.
    pub fn new() -> Self {
        EventQueue::with_scheduler(SchedulerKind::Calendar)
    }

    /// Creates an empty event queue with the given scheduler backend.
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Calendar => Backend::Calendar(Calendar::new(CalendarParams::DEFAULT)),
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            seq: 0,
            popped: 0,
        }
    }

    /// Creates a calendar queue with an explicit wheel geometry (see
    /// [`CalendarParams::for_cycle`] for the machine's sizing rule).
    pub fn calendar(params: CalendarParams) -> Self {
        EventQueue {
            backend: Backend::Calendar(Calendar::new(params)),
            seq: 0,
            popped: 0,
        }
    }

    /// Creates an empty event queue with pre-allocated capacity (for the heap
    /// backend the whole heap; for the calendar backend the overflow heap).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = EventQueue::new();
        q.reserve(cap);
        q
    }

    /// Pre-allocates room for `cap` additional events (heap backend) or `cap`
    /// additional far-future spills (calendar backend).
    pub fn reserve(&mut self, cap: usize) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.reserve(cap),
            Backend::Calendar(cal) => cal.overflow.reserve(cap),
        }
    }

    /// The scheduler backend this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match &self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, event };
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Reverse(entry)),
            Backend::Calendar(cal) => cal.push(entry),
        }
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
        let entry = Entry {
            at,
            seq: key,
            event,
        };
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Reverse(entry)),
            Backend::Calendar(cal) => cal.push(entry),
        }
    }

    /// Removes and returns the earliest pending event, or `None` if the queue is empty.
    ///
    /// Events with equal timestamps come back in push order (FIFO).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|Reverse(e)| e),
            Backend::Calendar(cal) => cal.pop(),
        }?;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    ///
    /// Takes `&mut self` because the calendar backend may advance its wheel cursor
    /// over drained buckets to locate the minimum (the queue's contents are not
    /// modified).
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|Reverse(e)| e.at),
            Backend::Calendar(cal) => cal.peek_time(),
        }
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Calendar(cal) => cal.len(),
        }
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Calendar(cal) => cal.clear(),
        }
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

    fn both_backends() -> [EventQueue<i32>; 2] {
        [
            EventQueue::with_scheduler(SchedulerKind::Calendar),
            EventQueue::with_scheduler(SchedulerKind::Heap),
        ]
    }

    #[test]
    fn orders_by_time() {
        for mut q in both_backends() {
            q.push(Time::from_ps(30), 3);
            q.push(Time::from_ps(10), 1);
            q.push(Time::from_ps(20), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3], "{:?}", q.scheduler());
        }
    }

    #[test]
    fn fifo_within_same_timestamp() {
        for mut q in both_backends() {
            for i in 0..100 {
                q.push(Time::from_ps(7), i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{:?}", q.scheduler());
        }
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
        for mut q in both_backends() {
            assert_eq!(q.peek_time(), None);
            q.push(Time::from_ns(9), 1);
            q.push(Time::from_ns(2), 2);
            assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
            // Peeking does not consume.
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
        }
    }

    #[test]
    fn default_is_calendar() {
        let q: EventQueue<()> = EventQueue::default();
        assert_eq!(q.scheduler(), SchedulerKind::Calendar);
        assert_eq!(
            EventQueue::<()>::with_scheduler(SchedulerKind::Heap).scheduler(),
            SchedulerKind::Heap
        );
    }

    #[test]
    fn calendar_params_round_to_powers_of_two() {
        // Table 5's 2.5 GHz core cycle (400 ps) rounds up to a 512 ps bucket.
        let p = CalendarParams::for_cycle(Time::from_ps(400));
        assert_eq!(p.bucket_width_ps, 512);
        let p = CalendarParams::for_cycle(Time::from_ps(1000));
        assert_eq!(p.bucket_width_ps, 1024);
        // Degenerate cycles stay valid.
        let p = CalendarParams::for_cycle(Time::ZERO);
        assert_eq!(p.bucket_width_ps, 1);
    }

    #[test]
    fn far_future_events_spill_and_return() {
        // Horizon of the default wheel is 512 ps * 1024 = ~0.5 us; schedule far
        // beyond it, then in front of it, and check global order.
        let mut q = EventQueue::calendar(CalendarParams::DEFAULT);
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
        let mut q = EventQueue::calendar(CalendarParams::DEFAULT);
        q.push(Time::MAX, "never");
        q.push(Time::ZERO, "now");
        assert_eq!(q.pop(), Some((Time::ZERO, "now")));
        assert_eq!(q.pop(), Some((Time::MAX, "never")));
    }

    #[test]
    fn past_time_pushes_pop_first() {
        // After draining up to t=1000, a push at t=5 (earlier than events already
        // delivered) must still come out before anything later — exactly what the
        // heap reference does.
        for mut q in both_backends() {
            q.push(Time::from_ps(1000), 1);
            assert_eq!(q.pop(), Some((Time::from_ps(1000), 1)));
            q.push(Time::from_ps(2000), 2);
            q.push(Time::from_ps(5), 3);
            assert_eq!(q.pop(), Some((Time::from_ps(5), 3)), "{:?}", q.scheduler());
            assert_eq!(q.pop(), Some((Time::from_ps(2000), 2)));
        }
    }

    #[test]
    fn clear_rewinds_the_wheel() {
        // After draining to a large simulated time, clear() must rewind the
        // cursor/lap so a reused queue files small-timestamp pushes back into
        // buckets (stale wheel state would silently degrade every later push
        // into the current-heap fallback). Behaviourally: order stays exact.
        let mut q = EventQueue::calendar(CalendarParams::DEFAULT);
        q.push(Time::from_ms(3), 1);
        assert_eq!(q.pop(), Some((Time::from_ms(3), 1)));
        q.push(Time::from_ms(5), 2);
        q.clear();
        assert!(q.is_empty());
        q.push(Time::from_ps(700), 20);
        q.push(Time::from_ps(20), 10);
        assert_eq!(q.pop(), Some((Time::from_ps(20), 10)));
        assert_eq!(q.pop(), Some((Time::from_ps(700), 20)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn extreme_wheel_geometries_are_clamped_and_stay_ordered() {
        // Parameters that used to overflow the shift arithmetic (u64::MAX width
        // wraps next_power_of_two to 0 in release; 1<<60 width with 1024
        // buckets pushes the lap shift past 64): the wheel must clamp and keep
        // exact pop order instead of silently corrupting it.
        for params in [
            CalendarParams {
                bucket_width_ps: u64::MAX,
                buckets: 2,
            },
            CalendarParams {
                bucket_width_ps: 1 << 60,
                buckets: 1024,
            },
            CalendarParams {
                bucket_width_ps: 512,
                buckets: usize::MAX,
            },
        ] {
            let mut q = EventQueue::calendar(params);
            let times = [
                u64::MAX,
                0,
                1 << 40,
                3,
                (1 << 62) + 7,
                1 << 40,
                u64::MAX - 1,
            ];
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_ps(t), i);
            }
            let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..times.len()).collect();
            sorted.sort();
            for &(t, idx) in &sorted {
                assert_eq!(q.pop(), Some((Time::from_ps(t), idx)), "params {params:?}");
            }
            assert_eq!(q.pop(), None);
        }
        // for_cycle clamps absurd cycles instead of overflowing the round-up.
        let p = CalendarParams::for_cycle(Time::from_ps(u64::MAX));
        assert!(p.bucket_width_ps.is_power_of_two());
    }

    #[test]
    fn tiny_wheels_still_order_correctly() {
        // A 2-bucket, 1 ps wheel forces constant rotations and overflow traffic.
        let mut q = EventQueue::calendar(CalendarParams {
            bucket_width_ps: 1,
            buckets: 2,
        });
        for i in (0..64u64).rev() {
            q.push(Time::from_ps(i * 3), i);
        }
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
        }
        assert_eq!(q.delivered_total(), 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::SimRng;

    // Deterministic stand-ins for proptest properties (no crates.io access).

    /// Popping always yields events in non-decreasing time order, and events with
    /// equal timestamps preserve insertion order.
    #[test]
    fn pops_are_monotone_and_stable() {
        for kind in SchedulerKind::ALL {
            for case in 0..64u64 {
                let mut rng = SimRng::seed_from(0xE4E7_0000 + case);
                let count = 1 + rng.gen_range(199) as usize;
                let times: Vec<u64> = (0..count).map(|_| rng.gen_range(50)).collect();
                let mut q = EventQueue::with_scheduler(kind);
                for (i, t) in times.iter().enumerate() {
                    q.push(Time::from_ps(*t), i);
                }
                let mut last: Option<(Time, usize)> = None;
                while let Some((t, idx)) = q.pop() {
                    if let Some((lt, lidx)) = last {
                        assert!(t >= lt);
                        if t == lt {
                            assert!(idx > lidx);
                        }
                    }
                    last = Some((t, idx));
                }
            }
        }
    }

    /// Every pushed event is delivered exactly once.
    #[test]
    fn conservation() {
        for kind in SchedulerKind::ALL {
            for case in 0..64u64 {
                let mut rng = SimRng::seed_from(0xC0_5E4B + case);
                let count = rng.gen_range(300) as usize;
                let times: Vec<u64> = (0..count).map(|_| rng.gen_range(1000)).collect();
                let mut q = EventQueue::with_scheduler(kind);
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

    /// The calendar queue and the reference heap pop identically under randomized
    /// push/pop interleavings: same-timestamp bursts, far-future spills past the
    /// horizon, pushes exactly on bucket/lap boundaries, and pushes at times
    /// earlier than events already delivered.
    #[test]
    fn calendar_matches_heap_differentially() {
        // A deliberately tiny wheel (64 ps horizon) so random times constantly
        // cross bucket and lap boundaries and exercise the overflow spill/refill.
        let geometries = [
            CalendarParams {
                bucket_width_ps: 4,
                buckets: 16,
            },
            CalendarParams {
                bucket_width_ps: 512,
                buckets: 4096,
            },
        ];
        for params in geometries {
            let horizon = params.bucket_width_ps * params.buckets as u64;
            for case in 0..96u64 {
                let mut rng = SimRng::seed_from(0xD1FF_0000 + case);
                let mut cal: EventQueue<u32> = EventQueue::calendar(params);
                let mut heap: EventQueue<u32> = EventQueue::with_scheduler(SchedulerKind::Heap);
                let mut next_id = 0u32;
                let mut base = 0u64; // drifts forward like simulated time
                for _ in 0..600 {
                    let action = rng.gen_range(100);
                    if action < 55 {
                        // Push: mix near-future, same-timestamp bursts, exact
                        // boundary hits and far-future spills.
                        let t = match rng.gen_range(6) {
                            0 => base, // "now"
                            1 => base + rng.gen_range(params.bucket_width_ps.max(2)),
                            2 => base + rng.gen_range(horizon), // in-lap
                            3 => base / horizon * horizon + horizon, // lap edge
                            4 => base + horizon * (1 + rng.gen_range(5)), // spill
                            _ => base.saturating_sub(rng.gen_range(50)), // past
                        };
                        let burst = 1 + rng.gen_range(4);
                        for _ in 0..burst {
                            cal.push(Time::from_ps(t), next_id);
                            heap.push(Time::from_ps(t), next_id);
                            next_id += 1;
                        }
                    } else if action < 95 {
                        let a = cal.pop();
                        let b = heap.pop();
                        assert_eq!(a, b, "case {case}: pop diverged");
                        if let Some((t, _)) = a {
                            base = base.max(t.as_ps());
                        }
                    } else {
                        assert_eq!(cal.peek_time(), heap.peek_time(), "case {case}");
                    }
                    assert_eq!(cal.len(), heap.len(), "case {case}");
                }
                // Drain both completely.
                loop {
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "case {case}: drain diverged");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
