//! Global simulation time base.
//!
//! Every component of the simulated NDP system runs at a different clock frequency:
//! NDP cores at 2.5 GHz, Synchronization Engines at 1 GHz, HBM at 500 MHz, the
//! inter-unit links are specified in nanoseconds. To compose them without rounding
//! surprises, the simulator keeps a single integer time unit of **picoseconds**.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `Time` is a thin newtype over `u64`; a `u64` of picoseconds covers more than
/// 200 days of simulated time, far beyond any experiment in this repository.
///
/// # Example
///
/// ```
/// use syncron_sim::time::Time;
/// let a = Time::from_ns(40);
/// let b = Time::from_ps(400);
/// assert_eq!((a + b).as_ps(), 40_400);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero time (simulation start).
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as "never"/"idle forever" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time value from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time value from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time value from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time value from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Returns the raw number of picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time in (fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the time in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns `self - other`, or zero if `other > self`.
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Checked addition; returns `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: Time) -> Option<Time> {
        self.0.checked_add(other.0).map(Time)
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiplies a duration by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Time {
        Time(self.0.saturating_mul(factor))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock frequency, used to convert between cycle counts and [`Time`].
///
/// Internally the frequency is stored as the clock **period in picoseconds**, which
/// keeps every conversion exact for the frequencies used in the paper's configuration
/// (2.5 GHz → 400 ps, 1 GHz → 1000 ps, 1.25 GHz → 800 ps, 500 MHz → 2000 ps).
///
/// # Example
///
/// ```
/// use syncron_sim::time::Freq;
/// let se = Freq::ghz(1.0);
/// assert_eq!(se.cycles_to_ps(12).as_ns(), 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Freq {
    period_ps: u64,
}

impl Freq {
    /// Creates a frequency from a period expressed in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    pub fn from_period_ps(period_ps: u64) -> Self {
        assert!(period_ps > 0, "clock period must be non-zero");
        Freq { period_ps }
    }

    /// Creates a frequency from a value in GHz. The period is rounded to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not a positive finite number.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        let period = (1000.0 / ghz).round() as u64;
        Freq::from_period_ps(period.max(1))
    }

    /// Creates a frequency from a value in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not a positive finite number.
    pub fn mhz(mhz: f64) -> Self {
        Freq::ghz(mhz / 1000.0)
    }

    /// The clock period.
    #[inline]
    pub fn period(self) -> Time {
        Time::from_ps(self.period_ps)
    }

    /// Converts a number of cycles of this clock into simulated time.
    #[inline]
    pub fn cycles_to_ps(self, cycles: u64) -> Time {
        Time::from_ps(cycles.saturating_mul(self.period_ps))
    }

    /// Converts a duration into a number of cycles of this clock (rounding up).
    #[inline]
    pub fn ps_to_cycles(self, t: Time) -> u64 {
        t.as_ps().div_ceil(self.period_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_ns_conversions() {
        assert_eq!(Time::from_ns(40).as_ps(), 40_000);
        assert_eq!(Time::from_us(2).as_ns(), 2_000);
        assert_eq!(Time::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Time::from_ps(1500).as_ns(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ps(100);
        let b = Time::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(a.saturating_mul(3).as_ps(), 300);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = Time::ZERO;
        for _ in 0..10 {
            t += Time::from_ps(25);
        }
        assert_eq!(t.as_ps(), 250);
    }

    #[test]
    fn freq_paper_clocks_are_exact() {
        // Table 5: NDP cores @2.5GHz, SE SPU @1GHz, HBM @500MHz, HMC @1250MHz.
        assert_eq!(Freq::ghz(2.5).period().as_ps(), 400);
        assert_eq!(Freq::ghz(1.0).period().as_ps(), 1000);
        assert_eq!(Freq::mhz(500.0).period().as_ps(), 2000);
        assert_eq!(Freq::mhz(1250.0).period().as_ps(), 800);
    }

    #[test]
    fn cycles_round_trip() {
        let f = Freq::ghz(2.5);
        assert_eq!(f.cycles_to_ps(4).as_ps(), 1600);
        assert_eq!(f.ps_to_cycles(Time::from_ps(1600)), 4);
        // Rounds up partial cycles.
        assert_eq!(f.ps_to_cycles(Time::from_ps(1601)), 5);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_ps(12)), "12ps");
        assert_eq!(format!("{}", Time::from_ns(40)), "40.000ns");
        assert_eq!(format!("{}", Time::from_us(3)), "3.000us");
        assert_eq!(format!("{}", Time::from_ms(7)), "7.000ms");
    }

    #[test]
    #[should_panic]
    fn zero_period_rejected() {
        let _ = Freq::from_period_ps(0);
    }
}
