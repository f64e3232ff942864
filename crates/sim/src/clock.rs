//! The virtual clock: nanosecond-granular simulated time.

use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
///
/// Nanoseconds in a `u64` cover ~584 years of simulated time — far beyond any
/// run — while keeping ordering exact (no float comparison in the event
/// queue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time `ns` nanoseconds after the start.
    pub const fn from_ns(ns: u64) -> Self {
        Self(ns)
    }

    /// A time `us` microseconds after the start (rounded to whole ns).
    pub fn from_us(us: f64) -> Self {
        Self((us * 1e3).round().max(0.0) as u64)
    }

    /// Nanoseconds since the start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds since the start.
    fn as_us(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds since the start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    /// Advances the clock by `rhs` nanoseconds.
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = u64;

    /// Elapsed nanoseconds between two points (saturating at zero).
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_us(11.0);
        assert_eq!(t.as_ns(), 11_000);
        assert!((t.as_us() - 11.0).abs() < 1e-12);
        assert!((t.as_secs_f64() - 11.0e-6).abs() < 1e-18);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_ns(100);
        let b = a + 50;
        assert!(b > a);
        assert_eq!(b - a, 50);
        assert_eq!(a - b, 0, "elapsed time saturates");
        let mut c = a;
        c += 25;
        assert_eq!(c.as_ns(), 125);
    }

    #[test]
    fn negative_us_clamps_to_zero() {
        assert_eq!(SimTime::from_us(-3.0).as_ns(), 0);
    }
}
