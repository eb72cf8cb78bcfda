//! Analytic queueing models.
//!
//! The paper's simulation methodology (Table 5) models the queueing latency of the
//! intra-unit buffered crossbar with an **M/D/1** model: Poisson arrivals, a
//! deterministic service time, and a single server. This module provides that model
//! — the closed form [`md1_wait`] and the precomputed [`Md1Table`] the crossbar
//! evaluates per packet — plus a small utilization tracker that estimates the
//! arrival rate from the stream of packets observed during simulation.

use crate::time::Time;
use std::sync::{Arc, Mutex, PoisonError};

/// Mean waiting time of an M/D/1 queue.
///
/// For arrival rate `lambda` (packets per picosecond) and deterministic service time
/// `service` the mean *waiting* time (excluding service) is
/// `W = rho / (2 * mu * (1 - rho))` where `rho = lambda / mu` and `mu = 1 / service`.
///
/// The returned waiting time is clamped: if the utilization is at or above
/// `max_utilization` (default callers use 0.95) the wait at that utilization is
/// returned instead, keeping the model stable when the simulated network saturates.
///
/// The crossbar evaluates [`Md1Table`] instead; this closed form is the reference
/// the table's property tests hold it to.
///
/// # Example
///
/// ```
/// use syncron_sim::queueing::md1_wait;
/// use syncron_sim::time::Time;
/// // Utilization 0.5 with a 1 ns service time waits 0.5 ns on average.
/// let w = md1_wait(0.0005, Time::from_ns(1), 0.95);
/// assert_eq!(w.as_ps(), 500);
/// ```
pub fn md1_wait(lambda_per_ps: f64, service: Time, max_utilization: f64) -> Time {
    if service == Time::ZERO || lambda_per_ps <= 0.0 {
        return Time::ZERO;
    }
    let mu = 1.0 / (service.as_ps() as f64);
    let rho = (lambda_per_ps / mu).min(max_utilization.clamp(0.0, 0.999));
    if rho <= 0.0 {
        return Time::ZERO;
    }
    let wait = rho / (2.0 * mu * (1.0 - rho));
    Time::from_ps(wait.round() as u64)
}

/// Sub-bucket resolution of the [`Md1Table`] grid: each power-of-two octave of
/// the idle fraction `u = 1 - rho` is split into `2^MD1_SUB_BITS` buckets.
const MD1_SUB_BITS: u64 = 7;
/// Right-shift applied to `u.to_bits()` to obtain a bucket index: buckets are
/// delimited by the exponent plus the top [`MD1_SUB_BITS`] mantissa bits, so
/// consecutive indices tile `(0, 1]` with geometrically growing widths.
const MD1_SHIFT: u64 = 52 - MD1_SUB_BITS;

/// Precomputed M/D/1 waiting-time table for one deterministic service time.
///
/// The closed form `W(rho) = service * rho / (2 (1 - rho))` diverges as the
/// utilization `rho` approaches 1, so the table is keyed on the idle fraction
/// `u = 1 - rho` with **log-spaced** buckets (equal width per octave of `u`,
/// `2^7` sub-buckets each — `MD1_SUB_BITS`): resolution automatically concentrates
/// where the curvature `W'' = service / u^3` is largest. Each bucket stores the
/// exact waiting time at its left edge plus the chord slope to the next edge;
/// evaluation is one multiply (`rho = lambda * service`), one float-bit
/// extraction and one fused interpolation — no divides.
///
/// The interpolant passes through exact values at every bucket edge and every
/// chord of a monotone function is monotone, so the table preserves the
/// model's monotonicity in load. The interpolation error is bounded by
/// `W'' h^2 / 8` with `h ≈ u * 2^-MD1_SUB_BITS`, i.e. about
/// `service * 4e-6 / u`: under 0.25 ps for the paper's packet sizes
/// (service ≤ 1.6 ns) at the default utilization cap 0.95 — see
/// [`Md1Table::ERROR_BOUND_PS`], which the property tests pin.
#[derive(Clone, Debug)]
pub struct Md1Table {
    /// Deterministic service time in picoseconds (as f64: `rho = lambda * this`).
    service_ps: f64,
    /// Utilization clamp (mirrors [`md1_wait`]'s `max_utilization` handling).
    rho_cap: f64,
    /// Bucket index of the smallest reachable idle fraction `1 - rho_cap`.
    base: u64,
    /// Per-bucket `(waiting time at left edge, chord slope)` in picoseconds.
    buckets: Vec<(f64, f64)>,
}

impl Md1Table {
    /// Guaranteed absolute agreement with [`md1_wait`], in picoseconds, for
    /// service times up to 1.6 ns (the paper's line-sized packet) at
    /// utilization caps up to the default 0.95. Asserted by the property tests
    /// and recorded in `EXPERIMENTS.md`.
    pub const ERROR_BOUND_PS: u64 = 1;

    /// Builds the table for one deterministic `service` time and utilization
    /// clamp. A zero service time (or non-positive clamp) yields an empty
    /// table whose [`Md1Table::wait`] is always zero, matching [`md1_wait`].
    pub fn new(service: Time, max_utilization: f64) -> Self {
        let rho_cap = max_utilization.clamp(0.0, 0.999);
        let service_ps = service.as_ps() as f64;
        if service == Time::ZERO || rho_cap <= 0.0 {
            return Md1Table {
                service_ps: 0.0,
                rho_cap: 0.0,
                base: 0,
                buckets: Vec::new(),
            };
        }
        // Reachable idle fractions: u ∈ [1 - rho_cap, 1). The clamp in `wait`
        // computes `1.0 - rho` with the identical rounding, so `u` can never
        // fall below the table floor.
        let u_floor = 1.0 - rho_cap;
        let base = u_floor.to_bits() >> MD1_SHIFT;
        let top = 1.0f64.to_bits() >> MD1_SHIFT;
        let count = (top - base) as usize;
        let exact = |u: f64| service_ps * (1.0 - u) / (2.0 * u);
        let edge = |k: u64| f64::from_bits((base + k) << MD1_SHIFT);
        let mut buckets = Vec::with_capacity(count);
        for k in 0..count as u64 {
            let (u0, u1) = (edge(k), edge(k + 1));
            let (w0, w1) = (exact(u0), exact(u1));
            buckets.push((w0, (w1 - w0) / (u1 - u0)));
        }
        Md1Table {
            service_ps,
            rho_cap,
            base,
            buckets,
        }
    }

    /// The process-wide table for `(service, max_utilization)`: built by the
    /// first request for that pair, then handed out as the same allocation.
    ///
    /// A table is a pure function of its two inputs, so sharing one cannot
    /// change a result, and every crossbar of every machine (on any shard
    /// thread) prices a packet class from one copy instead of its own. A run
    /// sees a handful of pairs — one per distinct flit count per crossbar
    /// configuration — so the memo is a short list, and it lives as long as
    /// the process. A panic while the lock is held cannot leave a half-built
    /// entry (the list only ever gains complete ones), so a poisoned lock is
    /// taken over rather than propagated.
    pub fn shared(service: Time, max_utilization: f64) -> Arc<Md1Table> {
        type Entry = ((u64, u64), Arc<Md1Table>);
        static TABLES: Mutex<Vec<Entry>> = Mutex::new(Vec::new());
        let key = (service.as_ps(), max_utilization.to_bits());
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = tables.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let table = Arc::new(Md1Table::new(service, max_utilization));
        tables.push((key, Arc::clone(&table)));
        table
    }

    /// Mean waiting time at arrival rate `lambda_per_ps`, interpolated from the
    /// table. Agrees with `md1_wait(lambda, service, max_utilization)` to
    /// within [`Md1Table::ERROR_BOUND_PS`] and is monotone in `lambda_per_ps`.
    #[inline]
    pub fn wait(&self, lambda_per_ps: f64) -> Time {
        if lambda_per_ps <= 0.0 || self.buckets.is_empty() {
            return Time::ZERO;
        }
        let rho = (lambda_per_ps * self.service_ps).min(self.rho_cap);
        if rho <= 0.0 {
            return Time::ZERO;
        }
        let u = 1.0 - rho;
        let k = ((u.to_bits() >> MD1_SHIFT) - self.base) as usize;
        let (w0, slope) = self.buckets[k];
        let u0 = f64::from_bits((self.base + k as u64) << MD1_SHIFT);
        Time::from_ps((w0 + slope * (u - u0)).round() as u64)
    }
}

/// A two-way direct-mapped memo for pure `u64 → V` computations.
///
/// Sized for key streams that alternate between (at most) two hot values — the
/// network models' packet sizes are almost entirely header- or line-sized, and
/// the remote data path interleaves the two back to back, so one entry would
/// thrash while two make the memo fire. A hit returns exactly what the
/// computation produced for that key, so memoizing a deterministic function is
/// bit-exact by construction.
#[derive(Clone, Copy, Debug)]
pub struct Memo2<V> {
    entries: [Option<(u64, V)>; 2],
    evict: usize,
}

impl<V: Copy> Memo2<V> {
    /// An empty memo.
    pub fn new() -> Self {
        Memo2 {
            entries: [None, None],
            evict: 0,
        }
    }

    /// Returns the memoized value for `key`, computing (and caching) it on a
    /// miss; a miss evicts the older of the two entries.
    pub fn get_or_insert_with(&mut self, key: u64, compute: impl FnOnce() -> V) -> V {
        if let Some((k, v)) = self.entries[0] {
            if k == key {
                return v;
            }
        }
        if let Some((k, v)) = self.entries[1] {
            if k == key {
                return v;
            }
        }
        let value = compute();
        self.entries[self.evict] = Some((key, value));
        self.evict ^= 1;
        value
    }
}

impl<V: Copy> Default for Memo2<V> {
    fn default() -> Self {
        Memo2::new()
    }
}

/// Tracks the recent arrival rate of packets at a network port so the M/D/1 model can
/// be evaluated with a locally-measured `lambda`.
///
/// The tracker uses an exponentially-decayed packet count over a configurable window,
/// which reacts to bursts (high contention phases) but forgets idle periods.
#[derive(Clone, Debug)]
pub struct RateTracker {
    window: Time,
    last: Time,
    weight: f64,
    total_packets: u64,
    /// Memoized decay factors: a direct-mapped `dt → exp(-dt/w)` cache over the
    /// exact picosecond gap. Event-driven traffic draws its inter-arrival gaps
    /// from a discrete grid (core cycles, service times, hop latencies) that
    /// repeats heavily across phases, but *not* always back to back — the
    /// predecessor of this cache was a single entry, which burst traffic with
    /// alternating gaps missed almost every time, paying the `exp` call (the
    /// single most expensive float operation on the crossbar hot path) per
    /// packet. Keying on the exact `dt` keeps every returned factor bit-exact.
    factor_cache: Vec<(u64, f64)>,
}

/// Ways in the `dt → exp` factor cache (power of two; 4 KiB per tracker).
const FACTOR_WAYS: usize = 256;
/// Multiplicative hash constant (splitmix64 / golden-ratio derived).
const WAY_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl RateTracker {
    /// Creates a tracker with the given averaging window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Time) -> Self {
        assert!(window > Time::ZERO, "rate window must be positive");
        RateTracker {
            window,
            last: Time::ZERO,
            weight: 0.0,
            total_packets: 0,
            // `dt == 0` never reaches the cache (`decay_to` early-returns), so
            // it doubles as the empty marker.
            factor_cache: vec![(0, 1.0); FACTOR_WAYS],
        }
    }

    /// Records the arrival of one packet at time `now`.
    pub fn record(&mut self, now: Time) {
        self.decay_to(now);
        self.weight += 1.0;
        self.total_packets += 1;
    }

    /// Returns the estimated arrival rate in packets per picosecond at time `now`.
    pub fn rate_per_ps(&mut self, now: Time) -> f64 {
        self.decay_to(now);
        self.weight / self.window.as_ps() as f64
    }

    /// Records one packet at `now` and returns the updated arrival rate, with a
    /// single decay step. Bit-identical to `record(now)` followed by
    /// `rate_per_ps(now)` — the second decay there is always a no-op — but the hot
    /// crossbar path pays the `now <= last` comparison once instead of twice.
    pub fn record_and_rate(&mut self, now: Time) -> f64 {
        self.decay_to(now);
        self.weight += 1.0;
        self.total_packets += 1;
        self.weight / self.window.as_ps() as f64
    }

    /// Total packets ever recorded.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    fn decay_to(&mut self, now: Time) {
        if now <= self.last {
            return;
        }
        let dt_ps = (now - self.last).as_ps();
        // Exponential decay with time constant = window; `exp` of an identical
        // `dt` is identical, so the keyed memo is bit-exact.
        let way = (dt_ps.wrapping_mul(WAY_MIX) >> 56) as usize & (FACTOR_WAYS - 1);
        let entry = &mut self.factor_cache[way];
        let factor = if entry.0 == dt_ps {
            entry.1
        } else {
            let w = self.window.as_ps() as f64;
            let factor = (-(dt_ps as f64) / w).exp();
            *entry = (dt_ps, factor);
            factor
        };
        self.weight *= factor;
        self.last = now;
    }
}

/// A single-resource serializer: models a component (DRAM bank, inter-unit link,
/// Synchronization Engine SPU) that can service one request at a time.
///
/// [`Serializer::acquire`] returns the time at which a request arriving at `now` and
/// occupying the resource for `busy` actually starts service, after waiting for all
/// previously accepted requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serializer {
    busy_until: Time,
}

impl Serializer {
    /// Creates an idle serializer.
    pub fn new() -> Self {
        Serializer {
            busy_until: Time::ZERO,
        }
    }

    /// Accepts a request arriving at `now` that occupies the resource for `busy`.
    /// Returns the time service **starts**; the resource is then busy until
    /// `start + busy`.
    pub fn acquire(&mut self, now: Time, busy: Time) -> Time {
        let start = now.max(self.busy_until);
        self.busy_until = start + busy;
        start
    }

    /// Time at which the resource becomes idle.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Returns `true` if the resource is idle at `now`.
    pub fn is_idle_at(&self, now: Time) -> bool {
        self.busy_until <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md1_zero_load_is_zero_wait() {
        assert_eq!(md1_wait(0.0, Time::from_ns(1), 0.95), Time::ZERO);
        assert_eq!(md1_wait(0.5, Time::ZERO, 0.95), Time::ZERO);
    }

    #[test]
    fn md1_wait_grows_with_load() {
        let s = Time::from_ns(1);
        let w1 = md1_wait(0.0001, s, 0.95);
        let w2 = md1_wait(0.0005, s, 0.95);
        let w3 = md1_wait(0.0009, s, 0.95);
        assert!(w1 < w2 && w2 < w3, "{w1:?} {w2:?} {w3:?}");
    }

    #[test]
    fn md1_wait_clamps_at_saturation() {
        let s = Time::from_ns(1);
        let at_limit = md1_wait(0.00095, s, 0.95);
        let beyond = md1_wait(0.5, s, 0.95);
        assert_eq!(at_limit, beyond);
    }

    #[test]
    fn md1_table_degenerate_inputs_are_zero_wait() {
        // Zero service time, non-positive clamp and non-positive load all match
        // md1_wait's corner behavior exactly.
        let zero_service = Md1Table::new(Time::ZERO, 0.95);
        assert_eq!(zero_service.wait(0.5), Time::ZERO);
        let zero_cap = Md1Table::new(Time::from_ns(1), 0.0);
        assert_eq!(zero_cap.wait(0.5), Time::ZERO);
        let t = Md1Table::new(Time::from_ns(1), 0.95);
        assert_eq!(t.wait(0.0), Time::ZERO);
        assert_eq!(t.wait(-1.0), Time::ZERO);
    }

    #[test]
    fn md1_table_clamps_at_saturation_like_the_exact_model() {
        let s = Time::from_ns(1);
        let t = Md1Table::new(s, 0.95);
        // Past the utilization clamp every load maps to the same (capped) wait.
        assert_eq!(t.wait(0.00095), t.wait(0.5));
        let diff = t.wait(0.5).as_ps().abs_diff(md1_wait(0.5, s, 0.95).as_ps());
        assert!(diff <= Md1Table::ERROR_BOUND_PS);
    }

    #[test]
    fn shared_tables_are_one_allocation_per_service_and_cap() {
        // The protocol's 18 B and 19 B messages both take two 16 B flits at
        // 2.5 GHz, so they price from the same table.
        let clock = crate::time::Freq::ghz(2.5);
        let service_of = |bytes: u64| clock.cycles_to_ps(bytes.div_ceil(16));
        assert_eq!(service_of(18), service_of(19));
        let local = Md1Table::shared(service_of(18), 0.95);
        let global = Md1Table::shared(service_of(19), 0.95);
        assert!(Arc::ptr_eq(&local, &global));
        // Either input differing gives a table of its own.
        let line = Md1Table::shared(service_of(64), 0.95);
        let capped = Md1Table::shared(service_of(18), 0.9);
        assert!(!Arc::ptr_eq(&local, &line));
        assert!(!Arc::ptr_eq(&local, &capped));
        assert!(!Arc::ptr_eq(&line, &capped));

        // A shared table answers exactly as a private one, from idle to past
        // the cap, a zero-service table included.
        for (service, cap) in [
            (service_of(18), 0.95),
            (service_of(64), 0.95),
            (service_of(18), 0.9),
            (Time::ZERO, 0.95),
        ] {
            let shared = Md1Table::shared(service, cap);
            let private = Md1Table::new(service, cap);
            let saturation = cap / service.as_ps().max(1) as f64;
            for step in 0..=2000 {
                let lambda = saturation * 1.5 * (step as f64 / 2000.0);
                assert_eq!(
                    shared.wait(lambda),
                    private.wait(lambda),
                    "service={service} cap={cap} lambda={lambda}"
                );
            }
        }
    }

    #[test]
    fn memo2_caches_two_hot_keys_and_evicts_round_robin() {
        let mut memo: Memo2<u64> = Memo2::new();
        let mut computes = 0;
        let get = |memo: &mut Memo2<u64>, k: u64, computes: &mut u32| {
            memo.get_or_insert_with(k, || {
                *computes += 1;
                k.wrapping_mul(10)
            })
        };
        // Alternating two keys computes each exactly once.
        for _ in 0..5 {
            assert_eq!(get(&mut memo, 16, &mut computes), 160);
            assert_eq!(get(&mut memo, 64, &mut computes), 640);
        }
        assert_eq!(computes, 2);
        // A third key evicts one entry; the sentinel-free design also serves
        // u64::MAX as an ordinary key.
        assert_eq!(
            get(&mut memo, u64::MAX, &mut computes),
            u64::MAX.wrapping_mul(10)
        );
        assert_eq!(computes, 3);
        assert_eq!(
            get(&mut memo, u64::MAX, &mut computes),
            u64::MAX.wrapping_mul(10)
        );
        assert_eq!(computes, 3);
    }

    #[test]
    fn record_and_rate_matches_record_then_rate() {
        let mut a = RateTracker::new(Time::from_ns(100));
        let mut b = RateTracker::new(Time::from_ns(100));
        for i in 0..300u64 {
            let now = Time::from_ps(i * 137);
            b.record(now);
            let rb = b.rate_per_ps(now);
            let ra = a.record_and_rate(now);
            assert_eq!(ra.to_bits(), rb.to_bits(), "step {i}");
        }
        assert_eq!(a.total_packets(), b.total_packets());
    }

    #[test]
    fn rate_tracker_estimates_rate() {
        let mut rt = RateTracker::new(Time::from_ns(100));
        // One packet every 1 ns for 200 packets: rate ≈ 0.001 packets/ps.
        for i in 0..200u64 {
            rt.record(Time::from_ns(i));
        }
        let rate = rt.rate_per_ps(Time::from_ns(200));
        assert!(rate > 0.0004 && rate < 0.0012, "rate {rate}");
        assert_eq!(rt.total_packets(), 200);
    }

    #[test]
    fn rate_tracker_decays_when_idle() {
        let mut rt = RateTracker::new(Time::from_ns(10));
        for i in 0..50u64 {
            rt.record(Time::from_ns(i));
        }
        let busy = rt.rate_per_ps(Time::from_ns(50));
        let idle = rt.rate_per_ps(Time::from_us(1));
        assert!(idle < busy / 10.0);
    }

    #[test]
    fn serializer_orders_requests() {
        let mut s = Serializer::new();
        let start1 = s.acquire(Time::from_ns(0), Time::from_ns(5));
        let start2 = s.acquire(Time::from_ns(1), Time::from_ns(5));
        let start3 = s.acquire(Time::from_ns(20), Time::from_ns(5));
        assert_eq!(start1, Time::from_ns(0));
        assert_eq!(start2, Time::from_ns(5));
        assert_eq!(start3, Time::from_ns(20));
        assert!(s.is_idle_at(Time::from_ns(25)));
        assert!(!s.is_idle_at(Time::from_ns(24)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::SimRng;

    // Deterministic stand-ins for proptest properties (no crates.io access).

    /// The serializer never starts a request before it arrives and never overlaps
    /// two requests.
    #[test]
    fn serializer_no_overlap() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x5E7A_0000 + case);
            let count = 1 + rng.gen_range(99) as usize;
            let mut reqs: Vec<(u64, u64)> = (0..count)
                .map(|_| (rng.gen_range(10_000), 1 + rng.gen_range(99)))
                .collect();
            let mut s = Serializer::new();
            reqs.sort();
            let mut prev_end = Time::ZERO;
            for &(arrive, busy) in &reqs {
                let start = s.acquire(Time::from_ps(arrive), Time::from_ps(busy));
                assert!(start >= Time::from_ps(arrive));
                assert!(start >= prev_end);
                prev_end = start + Time::from_ps(busy);
            }
        }
    }

    /// M/D/1 waiting time is monotone in the arrival rate.
    #[test]
    fn md1_monotone() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x3D1_0000 + case);
            let count = 2 + rng.gen_range(18) as usize;
            let mut lams: Vec<f64> = (0..count).map(|_| rng.gen_f64() * 0.002).collect();
            let s = Time::from_ns(1);
            lams.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let waits: Vec<Time> = lams.iter().map(|&l| md1_wait(l, s, 0.95)).collect();
            for w in waits.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    /// The quantized table agrees with the exact closed form to within the
    /// documented absolute bound across a (λ, packet size, utilization cap)
    /// grid covering the paper's packet sizes from idle to past saturation.
    #[test]
    fn md1_table_tracks_exact_within_documented_bound() {
        // Deterministic grid sweep first: every service time the paper's
        // crossbar produces (16 B token → 1 flit, 64 B line → 4 flits) plus a
        // round 1 ns, against dense λ coverage of the whole stable region.
        for service in [Time::from_ps(400), Time::from_ps(1600), Time::from_ns(1)] {
            for cap in [0.5, 0.9, 0.95] {
                let table = Md1Table::new(service, cap);
                let saturation = cap / service.as_ps() as f64;
                for step in 0..=2000 {
                    // Sweep to 1.5× the clamp so the capped region is covered.
                    let lambda = saturation * 1.5 * (step as f64 / 2000.0);
                    let exact = md1_wait(lambda, service, cap);
                    let quant = table.wait(lambda);
                    let diff = exact.as_ps().abs_diff(quant.as_ps());
                    assert!(
                        diff <= Md1Table::ERROR_BOUND_PS,
                        "service={service} cap={cap} lambda={lambda}: \
                         exact {exact} vs quantized {quant}"
                    );
                }
            }
        }
        // Randomized cases on top (deterministic stand-in for a proptest).
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x3D1_7AB0 + case);
            let service = Time::from_ps(1 + rng.gen_range(4000));
            let cap = 0.05 + rng.gen_f64() * 0.90;
            let table = Md1Table::new(service, cap);
            for _ in 0..50 {
                let lambda = rng.gen_f64() * 2.0 / service.as_ps() as f64;
                let exact = md1_wait(lambda, service, cap);
                let quant = table.wait(lambda);
                assert!(
                    exact.as_ps().abs_diff(quant.as_ps()) <= Md1Table::ERROR_BOUND_PS,
                    "service={service} cap={cap} lambda={lambda}"
                );
            }
        }
    }

    /// Beyond the documented absolute regime (utilization clamps past 0.95 push
    /// the idle fraction below 0.05, where the curve steepens as 1/u³) the
    /// table still tracks the exact model to a tight relative error.
    #[test]
    fn md1_table_relative_error_stays_tight_at_extreme_caps() {
        for service in [Time::from_ps(400), Time::from_ps(1600), Time::from_ns(1)] {
            let cap = 0.999;
            let table = Md1Table::new(service, cap);
            let saturation = cap / service.as_ps() as f64;
            for step in 1..=2000 {
                let lambda = saturation * 1.5 * (step as f64 / 2000.0);
                let exact = md1_wait(lambda, service, cap).as_ps() as f64;
                let quant = table.wait(lambda).as_ps() as f64;
                // Both sides round to integer picoseconds, so tiny waits can
                // differ by the 1 ps rounding step; past that, relative.
                let allowed = (exact * 1e-4).max(Md1Table::ERROR_BOUND_PS as f64);
                assert!(
                    (exact - quant).abs() <= allowed,
                    "service={service} lambda={lambda}: exact {exact} vs quantized {quant}"
                );
            }
        }
    }

    /// The quantized waiting time is monotone in the arrival rate, exactly like
    /// the closed form: chords of a monotone function are monotone, and the
    /// interpolant passes through exact values at every bucket edge.
    #[test]
    fn md1_table_monotone_in_load() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x3D1_0A57 + case);
            let service = Time::from_ps(1 + rng.gen_range(4000));
            let table = Md1Table::new(service, 0.95);
            let count = 2 + rng.gen_range(48) as usize;
            let mut lams: Vec<f64> = (0..count)
                .map(|_| rng.gen_f64() * 2.0 / service.as_ps() as f64)
                .collect();
            lams.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let waits: Vec<Time> = lams.iter().map(|&l| table.wait(l)).collect();
            for w in waits.windows(2) {
                assert!(w[0] <= w[1], "service={service}: {:?}", waits);
            }
        }
    }
}
