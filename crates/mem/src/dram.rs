//! DRAM timing and energy models.
//!
//! The paper evaluates three NDP configurations (Section 6.5):
//!
//! * **2.5D NDP** — HBM 1.0, 4 GB per stack, 500 MHz, 8 channels,
//!   `nRCDR/nRCDW/nRAS/nWR = 7/6/17/8 ns`, 7 pJ/bit;
//! * **3D NDP** — HMC 2.1, 1250 MHz, 32 vaults per stack, `nRCD/nRAS/nWR = 17/34/19 ns`;
//! * **2D NDP** — DDR4-2400, 4 DIMMs, `nRCD/nRAS/nWR = 16/39/18 ns`.
//!
//! The model is a bank-level open-row model: each bank tracks its open row and is a
//! serial resource, so bank conflicts and row misses produce the latency (and therefore
//! contention) differences that drive the paper's memory-technology sensitivity study
//! (Figure 18).

use syncron_sim::queueing::Serializer;
use syncron_sim::stats::Counter;
use syncron_sim::time::Time;
use syncron_sim::Addr;

/// The memory technology attached to each NDP unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MemTech {
    /// High-Bandwidth Memory (the paper's default, 2.5D NDP configuration).
    #[default]
    Hbm,
    /// Hybrid Memory Cube (3D NDP configuration).
    Hmc,
    /// DDR4 DIMMs (2D NDP configuration).
    Ddr4,
}

impl MemTech {
    /// All technologies, in the order the paper presents them.
    pub const ALL: [MemTech; 3] = [MemTech::Hbm, MemTech::Hmc, MemTech::Ddr4];

    /// Short lower-case name used in reports ("hbm", "hmc", "ddr4").
    pub fn name(self) -> &'static str {
        match self {
            MemTech::Hbm => "hbm",
            MemTech::Hmc => "hmc",
            MemTech::Ddr4 => "ddr4",
        }
    }
}

impl std::fmt::Display for MemTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Timing and energy parameters of one NDP unit's DRAM device.
#[derive(Clone, Copy, Debug)]
pub struct DramSpec {
    /// Technology this spec describes.
    pub tech: MemTech,
    /// Number of independently-schedulable banks (channels × banks or vaults).
    pub banks: usize,
    /// Row-to-column delay for reads (activate → read).
    pub t_rcd_read: Time,
    /// Row-to-column delay for writes (activate → write).
    pub t_rcd_write: Time,
    /// Column access latency (CAS) plus data burst.
    pub t_cas: Time,
    /// Row precharge latency (needed before activating a different row).
    pub t_rp: Time,
    /// Minimum row-active time; bounds how long a bank stays busy per activation.
    pub t_ras: Time,
    /// Write recovery time.
    pub t_wr: Time,
    /// Row-buffer size per bank, in bytes.
    pub row_bytes: u64,
    /// Energy per transferred bit, in picojoules.
    pub pj_per_bit: f64,
}

impl DramSpec {
    /// HBM 1.0 parameters (Table 5: 500 MHz, 8 channels, 7/6/17/8 ns, 7 pJ/bit).
    pub fn hbm() -> Self {
        DramSpec {
            tech: MemTech::Hbm,
            banks: 8 * 4, // 8 channels x 4 banks each
            t_rcd_read: Time::from_ns(7),
            t_rcd_write: Time::from_ns(6),
            t_cas: Time::from_ns(7),
            t_rp: Time::from_ns(7),
            t_ras: Time::from_ns(17),
            t_wr: Time::from_ns(8),
            row_bytes: 2048,
            pj_per_bit: 7.0,
        }
    }

    /// HMC 2.1 parameters (Table 5: 1250 MHz, 32 vaults, 17/34/19 ns).
    pub fn hmc() -> Self {
        DramSpec {
            tech: MemTech::Hmc,
            banks: 32, // one scheduling queue per vault
            t_rcd_read: Time::from_ns(17),
            t_rcd_write: Time::from_ns(17),
            t_cas: Time::from_ns(10),
            t_rp: Time::from_ns(13),
            t_ras: Time::from_ns(34),
            t_wr: Time::from_ns(19),
            row_bytes: 256,
            pj_per_bit: 9.0,
        }
    }

    /// DDR4-2400 parameters (Table 5: 4 DIMMs, 16/39/18 ns).
    pub fn ddr4() -> Self {
        DramSpec {
            tech: MemTech::Ddr4,
            banks: 16, // 4 DIMMs x 4 bank groups
            t_rcd_read: Time::from_ns(16),
            t_rcd_write: Time::from_ns(16),
            t_cas: Time::from_ns(14),
            t_rp: Time::from_ns(16),
            t_ras: Time::from_ns(39),
            t_wr: Time::from_ns(18),
            row_bytes: 8192,
            pj_per_bit: 20.0,
        }
    }

    /// Returns the spec for a technology.
    pub fn for_tech(tech: MemTech) -> Self {
        match tech {
            MemTech::Hbm => Self::hbm(),
            MemTech::Hmc => Self::hmc(),
            MemTech::Ddr4 => Self::ddr4(),
        }
    }

    /// Unloaded (row-miss, idle-bank) read latency; a useful summary number for tests
    /// and reports.
    pub fn idle_read_latency(&self) -> Time {
        self.t_rp + self.t_rcd_read + self.t_cas
    }
}

/// Aggregate counters maintained by a [`DramModel`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DramStats {
    /// Number of read accesses.
    pub reads: Counter,
    /// Number of write accesses.
    pub writes: Counter,
    /// Accesses that hit in an open row buffer.
    pub row_hits: Counter,
    /// Accesses that required closing and opening a row.
    pub row_misses: Counter,
    /// Accesses that had to wait because their bank was busy.
    pub bank_conflicts: Counter,
}

impl DramStats {
    /// Total accesses (reads + writes).
    pub fn total_accesses(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy: Serializer,
}

/// Bank-level DRAM model for one NDP unit.
///
/// Every access targets one 64-byte line; the bank is derived from the line address,
/// the row from the line address divided by the row size. Bank conflicts serialize;
/// row hits skip the precharge/activate sequence.
///
/// # Example
///
/// ```
/// use syncron_mem::dram::{DramModel, DramSpec};
/// use syncron_sim::{Addr, Time};
///
/// let mut dram = DramModel::new(DramSpec::hbm());
/// let done = dram.access(Time::ZERO, Addr(0x1000), false);
/// assert!(done > Time::ZERO);
/// assert_eq!(dram.stats().reads.get(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DramModel {
    spec: DramSpec,
    banks: Vec<Bank>,
    stats: DramStats,
    bits_transferred: u64,
}

impl DramModel {
    /// Creates a DRAM model from a spec.
    pub fn new(spec: DramSpec) -> Self {
        DramModel {
            banks: vec![Bank::default(); spec.banks],
            spec,
            stats: DramStats::default(),
            bits_transferred: 0,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// Performs one 64-byte access starting no earlier than `now`.
    ///
    /// Returns the absolute time at which the data is available (read) or durably
    /// written (write). Bank conflicts, row misses and write recovery are accounted.
    pub fn access(&mut self, now: Time, addr: Addr, write: bool) -> Time {
        // Row-interleaved mapping: consecutive lines share a row buffer, consecutive
        // rows map to different banks. This preserves row-buffer locality for streaming
        // accesses while spreading rows across banks.
        let line = addr.line_index();
        let lines_per_row = (self.spec.row_bytes / Addr::LINE_BYTES).max(1);
        let row = line / lines_per_row;
        let bank_idx = (row as usize) % self.banks.len();
        let bank = &mut self.banks[bank_idx];

        if write {
            self.stats.writes.inc();
        } else {
            self.stats.reads.inc();
        }
        self.bits_transferred += Addr::LINE_BYTES * 8;

        let row_hit = bank.open_row == Some(row);
        let t_rcd = if write {
            self.spec.t_rcd_write
        } else {
            self.spec.t_rcd_read
        };
        let access_latency = if row_hit {
            self.stats.row_hits.inc();
            self.spec.t_cas
        } else {
            self.stats.row_misses.inc();
            bank.open_row = Some(row);
            self.spec.t_rp + t_rcd + self.spec.t_cas
        };
        // The bank is occupied for the access itself plus write recovery when writing.
        let occupancy = if write {
            access_latency + self.spec.t_wr
        } else {
            access_latency
        };

        if !bank.busy.is_idle_at(now) {
            self.stats.bank_conflicts.inc();
        }
        let start = bank.busy.acquire(now, occupancy);
        start + access_latency
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Total DRAM energy in picojoules (bits transferred × pJ/bit).
    pub fn energy_pj(&self) -> f64 {
        self.bits_transferred as f64 * self.spec.pj_per_bit
    }

    /// Total bytes transferred to/from this DRAM device.
    pub fn bytes_transferred(&self) -> u64 {
        self.bits_transferred / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_table5() {
        let hbm = DramSpec::hbm();
        assert_eq!(hbm.t_rcd_read, Time::from_ns(7));
        assert_eq!(hbm.t_rcd_write, Time::from_ns(6));
        assert_eq!(hbm.t_ras, Time::from_ns(17));
        assert_eq!(hbm.t_wr, Time::from_ns(8));
        assert_eq!(hbm.pj_per_bit, 7.0);

        let hmc = DramSpec::hmc();
        assert_eq!(hmc.t_rcd_read, Time::from_ns(17));
        assert_eq!(hmc.t_ras, Time::from_ns(34));
        assert_eq!(hmc.t_wr, Time::from_ns(19));

        let ddr4 = DramSpec::ddr4();
        assert_eq!(ddr4.t_rcd_read, Time::from_ns(16));
        assert_eq!(ddr4.t_ras, Time::from_ns(39));
        assert_eq!(ddr4.t_wr, Time::from_ns(18));
    }

    #[test]
    fn technology_ordering_of_idle_latency() {
        // The paper's sensitivity study relies on DDR4/HMC having higher access latency
        // than HBM.
        let hbm = DramSpec::hbm().idle_read_latency();
        let hmc = DramSpec::hmc().idle_read_latency();
        let ddr4 = DramSpec::ddr4().idle_read_latency();
        assert!(hbm < hmc);
        assert!(hbm < ddr4);
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let mut dram = DramModel::new(DramSpec::hbm());
        let miss_done = dram.access(Time::ZERO, Addr(0), false);
        // Second access to the same row, issued long after the bank is free.
        let later = Time::from_us(1);
        let hit_done = dram.access(later, Addr(64), false);
        assert!(hit_done - later < miss_done - Time::ZERO);
        assert_eq!(dram.stats().row_hits.get(), 1);
        assert_eq!(dram.stats().row_misses.get(), 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let spec = DramSpec::hbm();
        let mut dram = DramModel::new(spec);
        // Two back-to-back accesses to the same bank but different rows: row R and
        // row R + banks map to the same bank under row-interleaving.
        let stride = spec.row_bytes * spec.banks as u64;
        let first = dram.access(Time::ZERO, Addr(0), false);
        let second = dram.access(Time::ZERO, Addr(stride), false);
        assert!(
            second > first,
            "conflicting access should wait for the bank"
        );
        assert_eq!(dram.stats().bank_conflicts.get(), 1);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let spec = DramSpec::hbm();
        let mut dram = DramModel::new(spec);
        let a = dram.access(Time::ZERO, Addr(0), false);
        let b = dram.access(Time::ZERO, Addr(spec.row_bytes), false); // next row → next bank
        assert_eq!(a - Time::ZERO, b - Time::ZERO);
    }

    #[test]
    fn writes_track_energy_and_counts() {
        let mut dram = DramModel::new(DramSpec::ddr4());
        dram.access(Time::ZERO, Addr(0), true);
        dram.access(Time::ZERO, Addr(64), false);
        assert_eq!(dram.stats().writes.get(), 1);
        assert_eq!(dram.stats().reads.get(), 1);
        assert_eq!(dram.bytes_transferred(), 128);
        let expected = 2.0 * 64.0 * 8.0 * DramSpec::ddr4().pj_per_bit;
        assert!((dram.energy_pj() - expected).abs() < 1e-9);
    }

    #[test]
    fn tech_names() {
        assert_eq!(MemTech::Hbm.name(), "hbm");
        assert_eq!(MemTech::Hmc.to_string(), "hmc");
        assert_eq!(MemTech::ALL.len(), 3);
        assert_eq!(DramSpec::for_tech(MemTech::Ddr4).tech, MemTech::Ddr4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    /// Completion times never precede the request time, and stats add up.
    ///
    /// Deterministic stand-in for a proptest property (no crates.io access).
    #[test]
    fn completion_after_request() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(0xD7A3_0000 + case);
            let count = 1 + rng.gen_range(199) as usize;
            let mut accesses: Vec<(u64, u64, bool)> = (0..count)
                .map(|_| {
                    (
                        rng.gen_range(1_000_000),
                        rng.gen_range(1 << 20),
                        rng.gen_bool(0.5),
                    )
                })
                .collect();
            let mut dram = DramModel::new(DramSpec::hbm());
            accesses.sort();
            for &(t, a, w) in &accesses {
                let now = Time::from_ps(t);
                let done = dram.access(now, Addr(a), w);
                assert!(done > now);
            }
            let s = dram.stats();
            assert_eq!(s.total_accesses(), accesses.len() as u64);
            assert_eq!(s.row_hits.get() + s.row_misses.get(), accesses.len() as u64);
        }
    }
}
