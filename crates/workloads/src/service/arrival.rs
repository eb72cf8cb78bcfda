//! Deterministic open-loop arrival processes.
//!
//! Each client core owns one [`ArrivalGen`] seeded from the workload seed and its
//! core index, so the full arrival stream is a pure function of `(seed, geometry,
//! process)` — independent of shard count or message batching. All three
//! processes are built from the same exponential sampler over integer
//! picoseconds; inter-arrival gaps are rounded to ≥ 1 ps so arrival times are
//! strictly increasing.

use syncron_sim::rng::SimRng;
use syncron_sim::time::Time;

/// The shape of the offered-load curve a service core sees.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant average rate (requests per microsecond).
    Poisson {
        /// Average arrival rate in requests per microsecond.
        rate_per_us: f64,
    },
    /// Bursty on–off Markov-modulated Poisson process: exponentially distributed
    /// on-periods (mean `on_us`) during which arrivals come at an elevated rate,
    /// separated by silent off-periods (mean `off_us`). The on-rate is scaled so
    /// the *average* rate over on+off cycles equals `rate_per_us`, making MMPP
    /// points directly comparable with Poisson points at the same offered load.
    Mmpp {
        /// Average arrival rate in requests per microsecond.
        rate_per_us: f64,
        /// Mean on-period duration in microseconds.
        on_us: f64,
        /// Mean off-period duration in microseconds.
        off_us: f64,
    },
    /// Diurnal-shaped load: a non-homogeneous Poisson process whose instantaneous
    /// rate follows `rate · (1 + amplitude · sin(2π·t/period))`, sampled by
    /// thinning against the peak rate. Models the day/night swing of a global
    /// service compressed to simulator timescales.
    Diurnal {
        /// Average arrival rate in requests per microsecond.
        rate_per_us: f64,
        /// Relative swing of the rate curve, in `[0, 1)`.
        amplitude: f64,
        /// Period of one full rate cycle in microseconds.
        period_us: f64,
    },
}

impl ArrivalProcess {
    /// Short name of the process family.
    pub fn kind_name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Mmpp { .. } => "mmpp",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// The configured average rate in requests per microsecond.
    pub fn rate_per_us(self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_us }
            | ArrivalProcess::Mmpp { rate_per_us, .. }
            | ArrivalProcess::Diurnal { rate_per_us, .. } => rate_per_us,
        }
    }
}

/// Draws an exponential gap with rate `rate_per_us`, rounded to ≥ 1 ps.
fn exp_gap_ps(rng: &mut SimRng, rate_per_us: f64) -> u64 {
    // gen_f64 is in [0, 1), so 1 - u is in (0, 1] and ln() is finite.
    let u = rng.gen_f64();
    let gap_us = -(1.0 - u).ln() / rate_per_us;
    let gap_ps = (gap_us * 1e6).round();
    if gap_ps < 1.0 {
        1
    } else {
        gap_ps as u64
    }
}

/// MMPP generator state: which phase the modulating chain is in and how much of
/// the current phase remains.
#[derive(Clone, Copy, Debug)]
struct MmppState {
    on: bool,
    left_ps: u64,
}

/// A deterministic arrival-time generator for one core.
///
/// [`next_arrival`](Self::next_arrival) returns strictly increasing absolute
/// timestamps; the stream depends only on the process parameters and the seed.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SimRng,
    now_ps: u64,
    mmpp: MmppState,
}

impl ArrivalGen {
    /// Creates a generator producing arrivals from time zero onward.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mmpp = match process {
            ArrivalProcess::Mmpp { on_us, .. } => MmppState {
                on: true,
                left_ps: exp_gap_ps(&mut rng, 1.0 / on_us),
            },
            _ => MmppState {
                on: true,
                left_ps: 0,
            },
        };
        ArrivalGen {
            process,
            rng,
            now_ps: 0,
            mmpp,
        }
    }

    /// The absolute time of the next arrival. Strictly increasing.
    pub fn next_arrival(&mut self) -> Time {
        let gap = match self.process {
            ArrivalProcess::Poisson { rate_per_us } => exp_gap_ps(&mut self.rng, rate_per_us),
            ArrivalProcess::Mmpp {
                rate_per_us,
                on_us,
                off_us,
            } => self.mmpp_gap(rate_per_us, on_us, off_us),
            ArrivalProcess::Diurnal {
                rate_per_us,
                amplitude,
                period_us,
            } => self.diurnal_gap(rate_per_us, amplitude, period_us),
        };
        self.now_ps += gap;
        Time::from_ps(self.now_ps)
    }

    /// Gap sampling for the on–off MMPP. Candidate exponential gaps drawn at the
    /// on-rate that overrun the current on-window are discarded (memorylessness
    /// makes a redraw in the next window equivalent), and off-windows are skipped
    /// whole, so the silent periods contain no arrivals at all.
    fn mmpp_gap(&mut self, rate_per_us: f64, on_us: f64, off_us: f64) -> u64 {
        // Elevated on-rate preserving the configured average over on+off cycles.
        let on_rate = rate_per_us * (on_us + off_us) / on_us;
        let mut gap = 0u64;
        loop {
            if !self.mmpp.on {
                gap += self.mmpp.left_ps;
                self.mmpp = MmppState {
                    on: true,
                    left_ps: exp_gap_ps(&mut self.rng, 1.0 / on_us),
                };
                continue;
            }
            let candidate = exp_gap_ps(&mut self.rng, on_rate);
            if candidate <= self.mmpp.left_ps {
                self.mmpp.left_ps -= candidate;
                return gap + candidate;
            }
            gap += self.mmpp.left_ps;
            self.mmpp = MmppState {
                on: false,
                left_ps: exp_gap_ps(&mut self.rng, 1.0 / off_us),
            };
        }
    }

    /// Thinning against the peak rate: candidates are drawn from a homogeneous
    /// process at `rate·(1+amplitude)` and accepted with probability
    /// `rate(t)/rate_max`. Rejected candidates still advance the candidate clock
    /// and consume RNG draws, keeping the stream deterministic.
    fn diurnal_gap(&mut self, rate_per_us: f64, amplitude: f64, period_us: f64) -> u64 {
        let rate_max = rate_per_us * (1.0 + amplitude);
        let mut gap = 0u64;
        loop {
            gap += exp_gap_ps(&mut self.rng, rate_max);
            let t_us = (self.now_ps + gap) as f64 * 1e-6;
            let phase = std::f64::consts::TAU * (t_us / period_us);
            let rate_t = rate_per_us * (1.0 + amplitude * phase.sin());
            if self.rng.gen_f64() * rate_max < rate_t {
                return gap.max(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaps(process: ArrivalProcess, seed: u64, n: usize) -> Vec<u64> {
        let mut gen = ArrivalGen::new(process, seed);
        let mut prev = 0u64;
        (0..n)
            .map(|_| {
                let t = gen.next_arrival().as_ps();
                let gap = t - prev;
                prev = t;
                gap
            })
            .collect()
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        // rate 0.01/us -> mean gap 100 us = 1e8 ps.
        let g = gaps(
            ArrivalProcess::Poisson { rate_per_us: 0.01 },
            0xA11CE,
            20_000,
        );
        let mean = g.iter().sum::<u64>() as f64 / g.len() as f64;
        let expect = 1e8;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean gap {mean:.3e} vs expected {expect:.3e}"
        );
    }

    #[test]
    fn poisson_gaps_are_strictly_positive_and_times_increase() {
        let g = gaps(ArrivalProcess::Poisson { rate_per_us: 50.0 }, 3, 5_000);
        assert!(g.iter().all(|&gap| gap >= 1));
    }

    #[test]
    fn mmpp_preserves_average_rate_and_is_burstier_than_poisson() {
        let process = ArrivalProcess::Mmpp {
            rate_per_us: 0.01,
            on_us: 200.0,
            off_us: 800.0,
        };
        let g = gaps(process, 0xB0B, 20_000);
        let mean = g.iter().sum::<u64>() as f64 / g.len() as f64;
        let expect = 1e8; // average rate matches the Poisson case above
        assert!(
            (mean - expect).abs() / expect < 0.10,
            "mean gap {mean:.3e} vs expected {expect:.3e}"
        );
        // Coefficient of variation of inter-arrival gaps: 1 for Poisson,
        // substantially larger for an on-off process with long silences.
        let var = g
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / g.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.3, "MMPP should be bursty, CV = {cv:.2}");
    }

    #[test]
    fn diurnal_preserves_average_rate() {
        let process = ArrivalProcess::Diurnal {
            rate_per_us: 0.01,
            amplitude: 0.8,
            period_us: 5_000.0,
        };
        let g = gaps(process, 0xD1A, 20_000);
        let mean = g.iter().sum::<u64>() as f64 / g.len() as f64;
        let expect = 1e8;
        // Integer full cycles average out the sinusoid; allow a looser tolerance
        // for the partial final cycle.
        assert!(
            (mean - expect).abs() / expect < 0.10,
            "mean gap {mean:.3e} vs expected {expect:.3e}"
        );
    }

    #[test]
    fn same_seed_means_identical_streams() {
        for process in [
            ArrivalProcess::Poisson { rate_per_us: 0.5 },
            ArrivalProcess::Mmpp {
                rate_per_us: 0.5,
                on_us: 10.0,
                off_us: 30.0,
            },
            ArrivalProcess::Diurnal {
                rate_per_us: 0.5,
                amplitude: 0.5,
                period_us: 100.0,
            },
        ] {
            let a = gaps(process, 42, 1_000);
            let b = gaps(process, 42, 1_000);
            assert_eq!(a, b, "{}", process.kind_name());
            let c = gaps(process, 43, 1_000);
            assert_ne!(
                a,
                c,
                "{}: different seeds should differ",
                process.kind_name()
            );
        }
    }

    #[test]
    fn process_accessors() {
        let p = ArrivalProcess::Mmpp {
            rate_per_us: 2.0,
            on_us: 1.0,
            off_us: 3.0,
        };
        assert_eq!(p.kind_name(), "mmpp");
        assert_eq!(p.rate_per_us(), 2.0);
        assert_eq!(
            ArrivalProcess::Poisson { rate_per_us: 1.0 }.kind_name(),
            "poisson"
        );
        assert_eq!(
            ArrivalProcess::Diurnal {
                rate_per_us: 1.0,
                amplitude: 0.2,
                period_us: 10.0
            }
            .kind_name(),
            "diurnal"
        );
    }
}
