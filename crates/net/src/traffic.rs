//! Data-movement accounting.
//!
//! Figure 15 of the paper reports data movement split into bytes transferred *inside*
//! NDP units and bytes transferred *across* NDP units. [`TrafficStats`] is the
//! accumulator both the network models and the system crate write into.

/// Bytes and messages moved through the system, split by locality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes moved inside NDP units (core ↔ local memory, core ↔ local SE).
    pub intra_unit_bytes: u64,
    /// Bytes moved across NDP units (remote memory accesses, SE ↔ Master SE messages).
    pub inter_unit_bytes: u64,
    /// Messages moved inside NDP units.
    pub intra_unit_msgs: u64,
    /// Messages moved across NDP units.
    pub inter_unit_msgs: u64,
}

impl TrafficStats {
    /// Creates an empty tally.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records an intra-unit transfer.
    pub fn add_intra(&mut self, bytes: u64) {
        self.intra_unit_bytes += bytes;
        self.intra_unit_msgs += 1;
    }

    /// Records an inter-unit transfer.
    pub fn add_inter(&mut self, bytes: u64) {
        self.inter_unit_bytes += bytes;
        self.inter_unit_msgs += 1;
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.intra_unit_bytes + self.inter_unit_bytes
    }

    /// Fraction of bytes that crossed NDP units, in `[0, 1]` (0 if no traffic).
    pub fn inter_unit_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.inter_unit_bytes as f64 / total as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.intra_unit_bytes += other.intra_unit_bytes;
        self.inter_unit_bytes += other.inter_unit_bytes;
        self.intra_unit_msgs += other.intra_unit_msgs;
        self.inter_unit_msgs += other.inter_unit_msgs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_locality() {
        let mut t = TrafficStats::new();
        t.add_intra(64);
        t.add_intra(64);
        t.add_inter(17);
        assert_eq!(t.intra_unit_bytes, 128);
        assert_eq!(t.inter_unit_bytes, 17);
        assert_eq!(t.intra_unit_msgs, 2);
        assert_eq!(t.inter_unit_msgs, 1);
        assert_eq!(t.total_bytes(), 145);
    }

    #[test]
    fn fraction_handles_empty() {
        assert_eq!(TrafficStats::new().inter_unit_fraction(), 0.0);
        let mut t = TrafficStats::new();
        t.add_intra(50);
        t.add_inter(50);
        assert!((t.inter_unit_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_sums() {
        let mut a = TrafficStats::new();
        a.add_intra(10);
        let mut b = TrafficStats::new();
        b.add_inter(20);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.inter_unit_msgs, 1);
    }
}
