//! Hardware area and power model of the Synchronization Engine.
//!
//! Table 8 of the paper compares one SE against an ARM Cortex-A7 core:
//!
//! | | SE (40 nm) | ARM Cortex-A7 (28 nm) |
//! |---|---|---|
//! | SPU | 0.0141 mm² | — |
//! | ST | 0.0112 mm² | — |
//! | Indexing counters | 0.0208 mm² | — |
//! | Total area | 0.0461 mm² | 0.45 mm² (with 32 KB L1) |
//! | Power | 2.7 mW | 100 mW |
//!
//! The paper derives the SPU numbers from Aladdin and the SRAM structures from CACTI.
//! We reproduce Table 8 analytically: the published component values are constants for
//! the paper's configuration (64-entry ST, 256 indexing counters, 4 units × 16 cores)
//! and SRAM area/power scale linearly in capacity for other configurations.

use crate::table::StEntry;

/// Area and power estimate of one Synchronization Engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeCost {
    /// Synchronization Processing Unit area, mm² at 40 nm.
    pub spu_mm2: f64,
    /// Synchronization Table area, mm² at 40 nm.
    pub st_mm2: f64,
    /// Indexing-counter file area, mm² at 40 nm.
    pub counters_mm2: f64,
    /// Total power, mW.
    pub power_mw: f64,
}

/// Reference numbers for the ARM Cortex-A7 comparison point of Table 8.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CortexA7 {
    /// Core + 32 KB L1 area, mm² at 28 nm.
    pub area_mm2: f64,
    /// Power, mW.
    pub power_mw: f64,
}

impl CortexA7 {
    /// The reference values used in Table 8.
    pub const REFERENCE: CortexA7 = CortexA7 {
        area_mm2: 0.45,
        power_mw: 100.0,
    };
}

/// Paper-published component values for the default configuration.
const SPU_MM2: f64 = 0.0141;
const ST64_MM2: f64 = 0.0112;
const COUNTERS256_MM2: f64 = 0.0208;
const SE_POWER_MW: f64 = 2.7;
/// ST capacity in bytes for the paper's configuration (64 entries × 149 bits).
const ST64_BYTES: f64 = 1192.0;
/// Indexing-counter capacity in bytes for the paper's configuration (Table 5: 2304 B).
const COUNTERS256_BYTES: f64 = 2304.0;

impl SeCost {
    /// Cost of an SE with the paper's default configuration (64-entry ST, 256 indexing
    /// counters, 4 units × 16 cores).
    pub fn paper_default() -> Self {
        SeCost::for_config(64, 256, 4, 16)
    }

    /// Cost of an SE for an arbitrary configuration. SRAM structures scale linearly in
    /// capacity from the published CACTI-derived values; the SPU is configuration
    /// independent; power scales with total SRAM capacity.
    pub fn for_config(
        st_entries: usize,
        indexing_counters: usize,
        units: usize,
        cores_per_unit: usize,
    ) -> Self {
        let st_bytes = st_entries as f64 * f64::from(StEntry::bits(units, cores_per_unit)) / 8.0;
        let counter_bytes = indexing_counters as f64 * (COUNTERS256_BYTES / 256.0);
        let st_mm2 = ST64_MM2 * st_bytes / ST64_BYTES;
        let counters_mm2 = COUNTERS256_MM2 * counter_bytes / COUNTERS256_BYTES;
        let sram_scale = (st_bytes + counter_bytes) / (ST64_BYTES + COUNTERS256_BYTES);
        SeCost {
            spu_mm2: SPU_MM2,
            st_mm2,
            counters_mm2,
            power_mw: SE_POWER_MW * (0.5 + 0.5 * sram_scale),
        }
    }

    /// Total SE area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.spu_mm2 + self.st_mm2 + self.counters_mm2
    }

    /// Area of the SE relative to an ARM Cortex-A7 (Table 8's headline comparison).
    pub fn area_vs_cortex_a7(&self) -> f64 {
        self.total_mm2() / CortexA7::REFERENCE.area_mm2
    }

    /// Power of the SE relative to an ARM Cortex-A7.
    pub fn power_vs_cortex_a7(&self) -> f64 {
        self.power_mw / CortexA7::REFERENCE.power_mw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table8() {
        let se = SeCost::paper_default();
        assert!((se.spu_mm2 - 0.0141).abs() < 1e-6);
        assert!((se.st_mm2 - 0.0112).abs() < 1e-6);
        assert!((se.counters_mm2 - 0.0208).abs() < 1e-6);
        assert!((se.total_mm2() - 0.0461).abs() < 1e-4);
        assert!((se.power_mw - 2.7).abs() < 1e-6);
    }

    #[test]
    fn se_is_an_order_of_magnitude_smaller_than_a7() {
        let se = SeCost::paper_default();
        assert!(se.area_vs_cortex_a7() < 0.15);
        assert!(se.power_vs_cortex_a7() < 0.05);
    }

    #[test]
    fn smaller_st_means_smaller_area() {
        let small = SeCost::for_config(16, 256, 4, 16);
        let big = SeCost::for_config(256, 256, 4, 16);
        assert!(small.st_mm2 < SeCost::paper_default().st_mm2);
        assert!(big.st_mm2 > SeCost::paper_default().st_mm2);
        assert!(small.total_mm2() < big.total_mm2());
        assert!(small.power_mw < big.power_mw);
    }

    #[test]
    fn spu_area_is_configuration_independent() {
        let a = SeCost::for_config(8, 64, 2, 8);
        let b = SeCost::for_config(256, 1024, 8, 32);
        assert_eq!(a.spu_mm2, b.spu_mm2);
    }
}
