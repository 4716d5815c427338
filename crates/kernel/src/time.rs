//! Simulation time base.
//!
//! All times are integer nanoseconds from simulation start. The Bluetooth
//! symbol rate is 1 Mbit/s, so one symbol is 1 µs; a TDD slot is 625 µs
//! and the native clock CLKN ticks every half slot (312.5 µs).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulation time (nanoseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn ns(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub const fn us(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float (for reporting).
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Number of whole 625 µs slots elapsed.
    pub const fn slots(self) -> u64 {
        self.0 / SimDuration::SLOT.0
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One modulation symbol at 1 Mbit/s: 1 µs.
    pub const SYMBOL: SimDuration = SimDuration(1_000);
    /// Half a TDD slot: 312.5 µs, the CLKN tick period.
    pub const HALF_SLOT: SimDuration = SimDuration(312_500);
    /// One TDD slot: 625 µs.
    pub const SLOT: SimDuration = SimDuration(625_000);

    /// Creates a span from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span of `n` slots.
    pub const fn from_slots(n: u64) -> Self {
        SimDuration(n * Self::SLOT.0)
    }

    /// Creates a span covering `n` symbols (bits) at 1 Mbit/s.
    pub const fn from_bits(n: usize) -> Self {
        SimDuration(n as u64 * Self::SYMBOL.0)
    }

    /// Length in nanoseconds.
    pub const fn ns(self) -> u64 {
        self.0
    }

    /// Length in microseconds (truncating).
    pub const fn us(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in whole slots (truncating).
    pub const fn slots(self) -> u64 {
        self.0 / Self::SLOT.0
    }

    /// Length in seconds as a float (for reporting).
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the span by an integer factor.
    pub const fn times(self, n: u64) -> Self {
        SimDuration(self.0 * n)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}us", self.0 / 1_000, self.0 % 1_000)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}us", self.0 / 1_000, self.0 % 1_000)
    }
}

crate::snap_struct!(SimTime { 0 });
crate::snap_struct!(SimDuration { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_constants_are_consistent() {
        assert_eq!(SimDuration::HALF_SLOT.ns() * 2, SimDuration::SLOT.ns());
        assert_eq!(SimDuration::SLOT.ns(), 625_000);
        assert_eq!(SimDuration::from_bits(625).ns(), SimDuration::SLOT.ns());
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_us(100) + SimDuration::from_us(25);
        assert_eq!(t.us(), 125);
        assert_eq!(t.since(SimTime::from_us(100)).us(), 25);
        assert_eq!(
            SimTime::from_us(1).since(SimTime::from_us(5)),
            SimDuration::ZERO
        );
        assert_eq!((t - SimDuration::from_us(25)).us(), 100);
    }

    #[test]
    fn slot_counting() {
        assert_eq!(SimTime::from_us(624).slots(), 0);
        assert_eq!(SimTime::from_us(625).slots(), 1);
        assert_eq!((SimTime::ZERO + SimDuration::from_slots(7)).slots(), 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_us(625).to_string(), "625.000us");
    }
}
