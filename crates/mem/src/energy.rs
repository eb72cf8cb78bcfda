//! Energy accounting.
//!
//! The paper reports system energy broken down into three components (Figure 14):
//! cache accesses, network transfers, and memory accesses. [`EnergyTally`] accumulates
//! these in picojoules; the system crate fills it from the cache, crossbar/link and
//! DRAM models, and the report formats it.

/// Accumulated energy in picojoules, broken down the way Figure 14 of the paper does.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyTally {
    /// Energy spent in L1 caches (hits and misses).
    pub cache_pj: f64,
    /// Energy spent moving bits through the intra-unit crossbars and inter-unit links.
    pub network_pj: f64,
    /// Energy spent in DRAM accesses.
    pub memory_pj: f64,
}

impl EnergyTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        EnergyTally::default()
    }

    /// Adds cache energy.
    pub fn add_cache(&mut self, pj: f64) {
        self.cache_pj += pj;
    }

    /// Adds network energy.
    pub fn add_network(&mut self, pj: f64) {
        self.network_pj += pj;
    }

    /// Adds memory energy.
    pub fn add_memory(&mut self, pj: f64) {
        self.memory_pj += pj;
    }

    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.cache_pj + self.network_pj + self.memory_pj
    }

    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Fraction of the total spent in each component `(cache, network, memory)`.
    /// Returns `(0, 0, 0)` if the tally is empty.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.total_pj();
        if total <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.cache_pj / total,
                self.network_pj / total,
                self.memory_pj / total,
            )
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &EnergyTally) {
        self.cache_pj += other.cache_pj;
        self.network_pj += other.network_pj;
        self.memory_pj += other.memory_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_totals() {
        let mut e = EnergyTally::new();
        e.add_cache(10.0);
        e.add_network(30.0);
        e.add_memory(60.0);
        assert_eq!(e.total_pj(), 100.0);
        assert!((e.total_uj() - 1e-4).abs() < 1e-12);
        let (c, n, m) = e.breakdown();
        assert!((c - 0.1).abs() < 1e-9);
        assert!((n - 0.3).abs() < 1e-9);
        assert!((m - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(EnergyTally::new().breakdown(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_sums_components() {
        let mut a = EnergyTally {
            cache_pj: 1.0,
            network_pj: 2.0,
            memory_pj: 3.0,
        };
        let b = EnergyTally {
            cache_pj: 10.0,
            network_pj: 20.0,
            memory_pj: 30.0,
        };
        a.merge(&b);
        assert_eq!(a.cache_pj, 11.0);
        assert_eq!(a.network_pj, 22.0);
        assert_eq!(a.memory_pj, 33.0);
    }
}
