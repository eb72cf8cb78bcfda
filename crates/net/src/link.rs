//! Inter-unit serial link model.
//!
//! Table 5 of the paper: "Interconnection links across NDP units: 12.8 GB/s per
//! direction; 40 ns per cache line; 20-cycle [controller latency]; 4 pJ/bit". The
//! paper's sensitivity studies (Figures 16, 17 and 21) sweep the per-cache-line
//! transfer latency from 40 ns up to 9 µs, so the latency is a configuration knob.
//!
//! The model keeps one serial resource per *directed* unit pair: a message occupies the
//! link for its serialization time (bytes / bandwidth), experiences the fixed transfer
//! latency, and pays the 20-cycle controller overhead on each side.

use syncron_sim::queueing::{Memo2, Serializer};
use syncron_sim::stats::Counter;
use syncron_sim::time::{Freq, Time};
use syncron_sim::UnitId;

/// Configuration of the inter-unit links.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Bandwidth per direction in bytes per second (Table 5: 12.8 GB/s).
    pub bandwidth_bytes_per_s: f64,
    /// Fixed transfer latency per cache-line-sized message (Table 5: 40 ns; swept up to
    /// 9 µs in the sensitivity studies).
    pub transfer_latency: Time,
    /// Link/controller overhead in core cycles on each traversal (Table 5: 20 cycles).
    pub controller_cycles: u64,
    /// Clock used to convert `controller_cycles` into time.
    pub clock: Freq,
    /// Energy per bit, in picojoules (Table 5: 4 pJ/bit).
    pub pj_per_bit: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth_bytes_per_s: 12.8e9,
            transfer_latency: Time::from_ns(40),
            controller_cycles: 20,
            clock: Freq::ghz(2.5),
            pj_per_bit: 4.0,
        }
    }
}

impl LinkConfig {
    /// Returns a copy of the configuration with a different per-cache-line transfer
    /// latency, used by the link-latency sensitivity experiments.
    pub fn with_transfer_latency(mut self, latency: Time) -> Self {
        self.transfer_latency = latency;
        self
    }

    /// Link energy of moving `bytes` in total, in picojoules.
    pub fn energy_pj_of_bytes(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.pj_per_bit
    }

    /// Serialization time of `bytes` at the configured bandwidth.
    pub fn serialization(&self, bytes: u64) -> Time {
        let ps = bytes as f64 / self.bandwidth_bytes_per_s * 1e12;
        Time::from_ps(ps.round() as u64)
    }
}

/// Traffic and energy counters of the inter-unit link fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Messages transferred across units.
    pub messages: Counter,
    /// Bytes transferred across units.
    pub bytes: Counter,
    /// Accumulated time spent waiting for a busy link.
    pub contention_ps: Counter,
}

/// The serial links connecting NDP units.
///
/// # Example
///
/// ```
/// use syncron_net::link::{InterUnitLink, LinkConfig};
/// use syncron_sim::{Time, UnitId};
///
/// let mut links = InterUnitLink::new(LinkConfig::default(), 4);
/// let latency = links.transfer(Time::ZERO, UnitId(0), UnitId(1), 64);
/// assert!(latency >= Time::from_ns(40));
/// ```
#[derive(Clone, Debug)]
pub struct InterUnitLink {
    config: LinkConfig,
    units: usize,
    /// One serializer per *directed* unit pair, in a dense `units × units`
    /// row-major table (`from * units + to`). The machine geometry is fixed at
    /// construction, so the dense table replaces the per-pair hash map that used
    /// to sit on every remote hop; the diagonal is never used (`transfer` rejects
    /// intra-unit traffic).
    channels: Vec<Serializer>,
    stats: LinkStats,
    /// Memoized `bytes → serialization time`: skips the float division of
    /// [`LinkConfig::serialization`] for the (two) hot packet sizes without
    /// changing a bit of the result.
    serialization_memo: Memo2<Time>,
}

impl InterUnitLink {
    /// Creates an idle link fabric connecting `units` NDP units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(config: LinkConfig, units: usize) -> Self {
        assert!(units > 0, "link fabric needs at least one unit");
        InterUnitLink {
            config,
            units,
            channels: vec![Serializer::new(); units * units],
            stats: LinkStats::default(),
            serialization_memo: Memo2::new(),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Transfers `bytes` from unit `from` to unit `to` starting at `now`, and returns
    /// the end-to-end latency (controller + wait-for-link + serialization + transfer).
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (intra-unit traffic goes through the crossbar
    /// instead), or if either unit is outside the fabric's geometry.
    pub fn transfer(&mut self, now: Time, from: UnitId, to: UnitId, bytes: u64) -> Time {
        assert_ne!(from, to, "inter-unit link used for intra-unit transfer");
        assert!(
            from.index() < self.units && to.index() < self.units,
            "link transfer {from:?} -> {to:?} outside the {}-unit fabric",
            self.units
        );
        let cfg = &self.config;
        let controller = cfg.clock.cycles_to_ps(cfg.controller_cycles);
        let serialization = self
            .serialization_memo
            .get_or_insert_with(bytes, || cfg.serialization(bytes));

        let channel = &mut self.channels[from.index() * self.units + to.index()];
        let start = channel.acquire(now + controller, serialization);
        let wait = start.saturating_sub(now + controller);

        self.stats.messages.inc();
        self.stats.bytes.add(bytes);
        self.stats.contention_ps.add(wait.as_ps());

        (start + serialization + cfg.transfer_latency + controller) - now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Total link energy in picojoules.
    ///
    /// Computed from the integer byte counter rather than accumulated per
    /// transfer: a single multiply gives a value independent of transfer order,
    /// so per-shard link instances of a partitioned run merge exactly (sum the
    /// byte counters, multiply once) into the same energy the sequential run
    /// reports.
    pub fn energy_pj(&self) -> f64 {
        self.config.energy_pj_of_bytes(self.stats.bytes.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_latency_includes_transfer_and_controller() {
        let cfg = LinkConfig::default();
        let mut links = InterUnitLink::new(cfg, 4);
        let lat = links.transfer(Time::ZERO, UnitId(0), UnitId(1), 64);
        // 2 x 20 cycles @2.5GHz = 16 ns, + 40 ns + 5 ns serialization.
        let expected_min = Time::from_ns(40) + cfg.clock.cycles_to_ps(40);
        assert!(lat >= expected_min);
        assert!(lat < Time::from_ns(100));
    }

    #[test]
    fn serialization_respects_bandwidth() {
        let cfg = LinkConfig::default();
        // 12.8 GB/s → 64 bytes take 5 ns.
        assert_eq!(cfg.serialization(64), Time::from_ps(5000));
        assert_eq!(cfg.serialization(128), Time::from_ps(10000));
    }

    #[test]
    fn contention_serializes_same_direction() {
        let mut links = InterUnitLink::new(LinkConfig::default(), 4);
        let a = links.transfer(Time::ZERO, UnitId(0), UnitId(1), 4096);
        let b = links.transfer(Time::ZERO, UnitId(0), UnitId(1), 4096);
        assert!(b > a, "second message should wait for the link");
        assert!(links.stats().contention_ps.get() > 0);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut links = InterUnitLink::new(LinkConfig::default(), 4);
        let a = links.transfer(Time::ZERO, UnitId(0), UnitId(1), 4096);
        let b = links.transfer(Time::ZERO, UnitId(1), UnitId(0), 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn latency_knob_scales_latency() {
        let slow_cfg = LinkConfig::default().with_transfer_latency(Time::from_ns(500));
        let mut fast = InterUnitLink::new(LinkConfig::default(), 4);
        let mut slow = InterUnitLink::new(slow_cfg, 4);
        let f = fast.transfer(Time::ZERO, UnitId(0), UnitId(1), 64);
        let s = slow.transfer(Time::ZERO, UnitId(0), UnitId(1), 64);
        assert!(s > f + Time::from_ns(400));
    }

    #[test]
    fn energy_and_stats() {
        let mut links = InterUnitLink::new(LinkConfig::default(), 4);
        links.transfer(Time::ZERO, UnitId(0), UnitId(2), 64);
        links.transfer(Time::ZERO, UnitId(2), UnitId(0), 17);
        assert_eq!(links.stats().messages.get(), 2);
        assert_eq!(links.stats().bytes.get(), 81);
        let expected = 81.0 * 8.0 * 4.0;
        assert!((links.energy_pj() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn same_unit_transfer_panics() {
        let mut links = InterUnitLink::new(LinkConfig::default(), 4);
        links.transfer(Time::ZERO, UnitId(1), UnitId(1), 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    /// End-to-end latency always covers the configured transfer latency plus
    /// serialization, regardless of contention.
    ///
    /// Deterministic stand-in for a proptest property (no crates.io access).
    #[test]
    fn latency_lower_bound() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0x117C_0000 + case);
            let count = 1 + rng.gen_range(99) as usize;
            let mut msgs: Vec<(u64, u8, u8, u64)> = (0..count)
                .map(|_| {
                    (
                        rng.gen_range(1_000_000),
                        rng.gen_range(4) as u8,
                        rng.gen_range(4) as u8,
                        1 + rng.gen_range(511),
                    )
                })
                .collect();
            let cfg = LinkConfig::default();
            let mut links = InterUnitLink::new(cfg, 4);
            msgs.sort();
            for &(t, from, to, bytes) in &msgs {
                if from == to {
                    continue;
                }
                let lat = links.transfer(Time::from_ps(t), UnitId(from), UnitId(to), bytes);
                assert!(lat >= cfg.transfer_latency + cfg.serialization(bytes));
            }
        }
    }
}
