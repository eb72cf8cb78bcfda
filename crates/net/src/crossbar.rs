//! Intra-unit buffered crossbar model.
//!
//! Table 5 of the paper: "buffered crossbar network with packet flow control; 1-cycle
//! arbiter; 1-cycle per hop; 0.4 pJ/bit per hop; M/D/1 model for queueing latency".
//!
//! The model composes a fixed pipeline latency (arbiter + hops) with an analytic
//! M/D/1 queueing delay, read from a precomputed [`Md1Table`] per packet size, whose
//! arrival rate is measured online from the packet stream crossing the crossbar. The
//! measured-load approach lets contention phases (e.g. all 16 cores hammering the
//! local Synchronization Engine) see growing queueing delay without simulating
//! individual flits.

use syncron_sim::queueing::{Md1Table, RateTracker};
use syncron_sim::stats::Counter;
use syncron_sim::time::{Freq, Time};

/// Configuration of an intra-unit crossbar.
#[derive(Clone, Copy, Debug)]
pub struct CrossbarConfig {
    /// Core/network clock used for the arbiter and hop cycles.
    pub clock: Freq,
    /// Arbiter latency in cycles (Table 5: 1).
    pub arbiter_cycles: u64,
    /// Number of hops a packet traverses on average (request + response paths are
    /// charged separately by the caller).
    pub hops: u64,
    /// Flit width in bytes; a packet of `n` bytes occupies the switch for
    /// `ceil(n / flit_bytes)` cycles.
    pub flit_bytes: u64,
    /// Energy per bit per hop, in picojoules (Table 5: 0.4 pJ/bit/hop).
    pub pj_per_bit_hop: f64,
    /// Maximum utilization the M/D/1 model is evaluated at (stability clamp).
    pub max_utilization: f64,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig {
            clock: Freq::ghz(2.5),
            arbiter_cycles: 1,
            hops: 2,
            flit_bytes: 16,
            pj_per_bit_hop: 0.4,
            max_utilization: 0.95,
        }
    }
}

/// Per-packet-size derived quantities: the deterministic service time and its
/// precomputed waiting-time table. A scenario crosses a handful of distinct
/// packet sizes (16 B tokens, line-sized data), so a linear scan over this
/// small vector beats any hashing and never evicts, so each table is built
/// exactly once.
#[derive(Clone, Debug)]
struct ServiceClass {
    bytes: u64,
    service: Time,
    table: Md1Table,
}

/// Traffic and energy counters of a [`Crossbar`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossbarStats {
    /// Packets transferred.
    pub packets: Counter,
    /// Bytes transferred.
    pub bytes: Counter,
    /// Accumulated queueing delay (for average-latency reporting).
    pub queueing_ps: Counter,
}

/// The intra-unit crossbar connecting NDP cores, the Synchronization Engine and the
/// memory controller of one NDP unit.
///
/// # Example
///
/// ```
/// use syncron_net::crossbar::{Crossbar, CrossbarConfig};
/// use syncron_sim::Time;
///
/// let mut xbar = Crossbar::new(CrossbarConfig::default());
/// let latency = xbar.transfer(Time::ZERO, 64);
/// assert!(latency >= Time::from_ps(3 * 400)); // arbiter + 2 hops at 2.5 GHz
/// assert_eq!(xbar.stats().bytes.get(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct Crossbar {
    config: CrossbarConfig,
    rate: RateTracker,
    stats: CrossbarStats,
    energy_pj: f64,
    /// Arbiter + hop latency, fixed by the configuration; computed once instead of
    /// per packet.
    pipeline: Time,
    /// `bytes → ServiceClass` cache: a hit skips the flit division and the
    /// table build.
    classes: Vec<ServiceClass>,
}

impl Crossbar {
    /// Creates an idle crossbar.
    pub fn new(config: CrossbarConfig) -> Self {
        Crossbar {
            config,
            // Measure load over a 2 µs window: long enough to smooth individual
            // packets, short enough to follow contention phases.
            rate: RateTracker::new(Time::from_us(2)),
            stats: CrossbarStats::default(),
            energy_pj: 0.0,
            pipeline: config
                .clock
                .cycles_to_ps(config.arbiter_cycles + config.hops),
            classes: Vec::new(),
        }
    }

    /// The crossbar's configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Transfers a packet of `bytes` across the crossbar at time `now` and returns the
    /// latency the packet experiences (pipeline + serialization + queueing).
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Time {
        let idx = match self.classes.iter().position(|c| c.bytes == bytes) {
            Some(idx) => idx,
            None => {
                let cfg = self.config;
                let flits = bytes.div_ceil(cfg.flit_bytes).max(1);
                let service = cfg.clock.cycles_to_ps(flits);
                self.classes.push(ServiceClass {
                    bytes,
                    service,
                    table: Md1Table::new(service, cfg.max_utilization),
                });
                self.classes.len() - 1
            }
        };
        let pipeline = self.pipeline;

        let lambda = self.rate.record_and_rate(now);
        let class = &self.classes[idx];
        let service = class.service;
        // A zero service time builds an empty table, whose wait is zero.
        let queueing = class.table.wait(lambda);

        self.stats.packets.inc();
        self.stats.bytes.add(bytes);
        self.stats.queueing_ps.add(queueing.as_ps());
        self.energy_pj += bytes as f64 * 8.0 * self.config.pj_per_bit_hop * self.config.hops as f64;

        pipeline + service + queueing
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }

    /// Total crossbar energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Average queueing delay per packet.
    pub fn avg_queueing(&self) -> Time {
        let pkts = self.stats.packets.get();
        self.stats
            .queueing_ps
            .get()
            .checked_div(pkts)
            .map_or(Time::ZERO, Time::from_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_latency_matches_pipeline() {
        let mut xbar = Crossbar::new(CrossbarConfig::default());
        // A single 16-byte packet on an idle crossbar: 1 arbiter + 2 hops + 1 flit cycle.
        let lat = xbar.transfer(Time::ZERO, 16);
        assert_eq!(lat, Time::from_ps(4 * 400));
    }

    #[test]
    fn larger_packets_take_longer() {
        let mut a = Crossbar::new(CrossbarConfig::default());
        let mut b = Crossbar::new(CrossbarConfig::default());
        let small = a.transfer(Time::ZERO, 16);
        let large = b.transfer(Time::ZERO, 64);
        assert!(large > small);
    }

    #[test]
    fn queueing_grows_under_load() {
        let mut xbar = Crossbar::new(CrossbarConfig::default());
        let idle = xbar.transfer(Time::ZERO, 64);
        // Hammer the crossbar with a packet every nanosecond.
        let mut last = Time::ZERO;
        for i in 1..2000u64 {
            last = xbar.transfer(Time::from_ns(i), 64);
        }
        assert!(
            last > idle,
            "loaded latency {last} should exceed idle {idle}"
        );
        assert!(xbar.avg_queueing() > Time::ZERO);
    }

    #[test]
    fn cached_fast_path_matches_uncached_model() {
        // Drive the crossbar and a hand-rolled (RateTracker + Md1Table)
        // reference in lockstep over two packet streams — a bursty, repeating
        // pattern and a ramp from idle to saturation. Per packet, the
        // ServiceClass / record_and_rate fast path must reproduce the reference
        // bit for bit.
        use syncron_sim::queueing::RateTracker;
        let cfg = CrossbarConfig::default();
        let pipeline = cfg.clock.cycles_to_ps(cfg.arbiter_cycles + cfg.hops);
        let bursty: Vec<(Time, u64)> = (0..50u64)
            .flat_map(|round| {
                [(0u64, 16u64), (0, 16), (3, 64), (40, 16), (40, 64)]
                    .map(|(offset, bytes)| (Time::from_ns(round * 200 + offset), bytes))
            })
            .collect();
        for stream in [bursty, ramp_to_saturation()] {
            let mut xbar = Crossbar::new(cfg);
            let mut rate = RateTracker::new(Time::from_us(2));
            for (i, (now, bytes)) in stream.into_iter().enumerate() {
                let flits = bytes.div_ceil(cfg.flit_bytes).max(1);
                let service = cfg.clock.cycles_to_ps(flits);
                rate.record(now);
                let lambda = rate.rate_per_ps(now);
                let latency = xbar.transfer(now, bytes);
                let table = Md1Table::new(service, cfg.max_utilization);
                assert_eq!(
                    latency,
                    pipeline + service + table.wait(lambda),
                    "packet {i}"
                );
            }
        }
    }

    /// `(arrival, bytes)` for 4000 packets whose inter-arrival shrinks as the
    /// index grows: a ramp from an idle crossbar to saturation.
    fn ramp_to_saturation() -> Vec<(Time, u64)> {
        (0..4000u64)
            .map(|i| {
                (
                    Time::from_ps(i * (4000 - i / 2)),
                    if i % 3 == 0 { 64 } else { 16 },
                )
            })
            .collect()
    }

    #[test]
    fn quantized_crossbar_tracks_exact_within_the_documented_bound() {
        // End-to-end version of the queueing-layer error-bound property: over
        // a ramp from idle to saturation, the table-driven crossbar never
        // disagrees with a closed-form (RateTracker + md1_wait) reference by
        // more than Md1Table::ERROR_BOUND_PS per packet.
        use syncron_sim::queueing::{md1_wait, RateTracker};
        let cfg = CrossbarConfig::default();
        let pipeline = cfg.clock.cycles_to_ps(cfg.arbiter_cycles + cfg.hops);
        let mut xbar = Crossbar::new(cfg);
        let mut rate = RateTracker::new(Time::from_us(2));
        let stream = ramp_to_saturation();
        let packets = stream.len() as u64;
        for (i, (now, bytes)) in stream.into_iter().enumerate() {
            let flits = bytes.div_ceil(cfg.flit_bytes).max(1);
            let service = cfg.clock.cycles_to_ps(flits);
            rate.record(now);
            let lambda = rate.rate_per_ps(now);
            let exact = pipeline + service + md1_wait(lambda, service, cfg.max_utilization);
            let quantized = xbar.transfer(now, bytes);
            let diff = exact.as_ps().abs_diff(quantized.as_ps());
            assert!(
                diff <= Md1Table::ERROR_BOUND_PS,
                "packet {i}: exact {exact} vs quantized {quantized}"
            );
        }
        assert_eq!(xbar.stats().packets.get(), packets);
    }

    #[test]
    fn energy_proportional_to_bytes_and_hops() {
        let cfg = CrossbarConfig::default();
        let mut xbar = Crossbar::new(cfg);
        xbar.transfer(Time::ZERO, 100);
        let expected = 100.0 * 8.0 * cfg.pj_per_bit_hop * cfg.hops as f64;
        assert!((xbar.energy_pj() - expected).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate() {
        let mut xbar = Crossbar::new(CrossbarConfig::default());
        for i in 0..10u64 {
            xbar.transfer(Time::from_ns(i * 100), 32);
        }
        assert_eq!(xbar.stats().packets.get(), 10);
        assert_eq!(xbar.stats().bytes.get(), 320);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    /// Latency is always at least the unloaded pipeline latency and finite.
    ///
    /// Deterministic stand-in for a proptest property (no crates.io access).
    #[test]
    fn latency_bounded_below() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x8BA7_0000 + case);
            let count = 1 + rng.gen_range(199) as usize;
            let mut pkts: Vec<(u64, u64)> = (0..count)
                .map(|_| (rng.gen_range(1_000_000), 1 + rng.gen_range(255)))
                .collect();
            let cfg = CrossbarConfig::default();
            let mut xbar = Crossbar::new(cfg);
            let floor = cfg.clock.cycles_to_ps(cfg.arbiter_cycles + cfg.hops + 1);
            pkts.sort();
            for &(t, bytes) in &pkts {
                let lat = xbar.transfer(Time::from_ps(t), bytes);
                assert!(lat >= floor);
                assert!(lat < Time::from_ms(1));
            }
        }
    }
}
