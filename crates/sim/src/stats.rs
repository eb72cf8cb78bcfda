//! Statistics primitives used by the evaluation reports.
//!
//! The paper reports execution time, energy broken down into cache / network / memory,
//! data movement inside and across NDP units, and Synchronization Table occupancy
//! (Table 7). The types in this module are the building blocks those reports are
//! assembled from.

use crate::time::Time;
use core::fmt;

/// A simple monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A time-weighted average of a piecewise-constant quantity, e.g. the number of
/// occupied Synchronization Table entries over the course of a run (Table 7 of the
/// paper reports both the average and the maximum occupancy).
///
/// Call [`TimeWeighted::update`] every time the quantity changes; the integral is
/// accumulated between updates.
#[derive(Clone, Copy, Debug)]
pub struct TimeWeighted {
    last_time: Time,
    last_value: f64,
    integral: f64,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an empty time-weighted average starting at value 0 at time 0.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: Time::ZERO,
            last_value: 0.0,
            integral: 0.0,
            max: 0.0,
            started: false,
        }
    }

    /// Records that the tracked quantity changed to `value` at time `now`.
    ///
    /// Updates arriving out of chronological order are clamped: the elapsed interval
    /// is treated as zero (the new value still takes effect).
    pub fn update(&mut self, now: Time, value: f64) {
        if self.started && now > self.last_time {
            let dt = (now - self.last_time).as_ps() as f64;
            self.integral += self.last_value * dt;
        }
        self.last_time = self.last_time.max(now);
        self.last_value = value;
        self.started = true;
        if value > self.max {
            self.max = value;
        }
    }

    /// Returns the time-weighted average of the quantity from time 0 to `end`.
    pub fn average_until(&self, end: Time) -> f64 {
        if end == Time::ZERO {
            return 0.0;
        }
        let mut integral = self.integral;
        if end > self.last_time {
            integral += self.last_value * (end - self.last_time).as_ps() as f64;
        }
        integral / end.as_ps() as f64
    }

    /// Returns the maximum value ever recorded.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Returns the most recently recorded value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

/// Number of sub-bucket bits of a [`LogHistogram`]: every power-of-two range is
/// split into `2^LOG_HIST_SUB_BITS` equal sub-buckets, bounding the relative
/// quantization error to `2^-LOG_HIST_SUB_BITS` (~3%).
pub const LOG_HIST_SUB_BITS: u32 = 5;

const LOG_SUB_BUCKETS: u64 = 1 << LOG_HIST_SUB_BITS;

/// An HDR-style log2-bucketed histogram over `u64` samples.
///
/// Unlike a linear histogram, whose fixed bucket width loses all tail resolution
/// once samples span several orders of magnitude, this histogram keeps a bounded
/// *relative* error everywhere: values below `2^LOG_HIST_SUB_BITS` get exact
/// unit-width buckets, and every higher power-of-two range is split into
/// `2^LOG_HIST_SUB_BITS` sub-buckets. The whole `u64` range fits in fewer than 2048
/// buckets, allocated lazily, so per-core instances stay cheap at large geometries.
///
/// Quantiles are interpolated linearly inside the resolved bucket and clamped to the
/// recorded min/max, which makes p50/p99/p999 usable for tail-latency reporting.
/// All arithmetic is integer or exactly-reproducible `f64`, so two runs recording
/// the same samples report bit-identical quantiles.
///
/// # Example
///
/// ```
/// use syncron_sim::stats::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.05);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram. All instances share one bucket geometry
    /// ([`LOG_HIST_SUB_BITS`]), so any two histograms can be [merged](Self::merge).
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    fn index_of(value: u64) -> usize {
        if value < LOG_SUB_BUCKETS {
            return value as usize;
        }
        let h = 63 - value.leading_zeros() as u64; // value in [2^h, 2^(h+1))
        let sub = (value >> (h - LOG_HIST_SUB_BITS as u64)) - LOG_SUB_BUCKETS;
        (((h - LOG_HIST_SUB_BITS as u64 + 1) << LOG_HIST_SUB_BITS) + sub) as usize
    }

    /// Inclusive lower bound and exclusive upper bound of bucket `idx`.
    fn bucket_bounds(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        let block = idx >> LOG_HIST_SUB_BITS;
        if block <= 1 {
            // Unit-width buckets: values 0..2^(SUB_BITS+1) map to themselves.
            return (idx, idx + 1);
        }
        let h = block + LOG_HIST_SUB_BITS as u64 - 1;
        let sub = idx & (LOG_SUB_BUCKETS - 1);
        let width = 1u64 << (h - LOG_HIST_SUB_BITS as u64);
        let lower = (LOG_SUB_BUCKETS + sub) << (h - LOG_HIST_SUB_BITS as u64);
        (lower, lower.saturating_add(width))
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` identical samples.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = Self::index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += count;
        self.total += count;
        self.sum += value as u128 * count as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Merges another histogram into this one (same implicit bucket geometry).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Returns the value below which `q` (0..=1) of the samples fall, interpolated
    /// linearly inside the resolved bucket and clamped to the recorded min/max.
    /// Returns `None` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut acc = 0u64;
        for (idx, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = acc + count;
            if (next as f64) >= target {
                let (lower, upper) = Self::bucket_bounds(idx);
                let within = ((target - acc as f64) / count as f64).clamp(0.0, 1.0);
                let value = lower as f64 + within * (upper - lower) as f64;
                return Some(value.clamp(self.min as f64, self.max as f64));
            }
            acc = next;
        }
        Some(self.max as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(format!("{c}"), "5");
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.update(Time::from_ps(0), 2.0);
        tw.update(Time::from_ps(10), 4.0);
        // 2.0 for 10ps, then 4.0 for 10ps → average 3.0 at t=20.
        assert!((tw.average_until(Time::from_ps(20)) - 3.0).abs() < 1e-9);
        assert_eq!(tw.max(), 4.0);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_out_of_order_updates_do_not_panic() {
        let mut tw = TimeWeighted::new();
        tw.update(Time::from_ps(100), 1.0);
        tw.update(Time::from_ps(50), 5.0); // late update: interval ignored
        assert_eq!(tw.max(), 5.0);
        let avg = tw.average_until(Time::from_ps(200));
        assert!(avg > 0.0);
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.total(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // Below 2^LOG_HIST_SUB_BITS every value has its own unit bucket, so
        // quantiles are exact (up to interpolation inside a width-1 bucket).
        let median = h.quantile(0.5).unwrap();
        assert!((15.0..=16.0).contains(&median), "median {median}");
    }

    #[test]
    fn log_histogram_bounds_relative_error() {
        let mut h = LogHistogram::new();
        // Across five decades, any recorded value must be reconstructible from
        // its bucket to within one sub-bucket width (~3% relative error).
        let mut v = 1u64;
        while v < 10_000_000 {
            h.record(v);
            let q = h.quantile(1.0).unwrap();
            let rel = (q - v as f64).abs() / v as f64;
            assert!(rel <= 1.0 / 32.0 + 1e-9, "value {v}: quantile {q}");
            v = v * 7 / 3 + 1;
        }
    }

    #[test]
    fn log_histogram_mean_min_max_and_merge() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [3u64, 700, 40_000] {
            a.record(v);
        }
        b.record_n(9, 5);
        let mean_a = a.mean();
        assert!((mean_a - (3.0 + 700.0 + 40_000.0) / 3.0).abs() < 1e-9);
        a.merge(&b);
        assert_eq!(a.total(), 8);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 40_000);
        assert!((a.mean() - (3.0 + 700.0 + 40_000.0 + 9.0 * 5.0) / 8.0).abs() < 1e-9);
        // Merging into an empty histogram reproduces the source summary.
        let mut c = LogHistogram::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn log_histogram_quantiles_are_monotone_and_clamped() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * i);
        }
        let mut last = 0.0f64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
        assert!(h.quantile(0.0).unwrap() >= h.min() as f64);
        assert!(h.quantile(1.0).unwrap() <= h.max() as f64);
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn log_histogram_handles_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.total(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0).unwrap() <= u64::MAX as f64);
    }
}
