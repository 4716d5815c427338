//! The Bluetooth native clock (CLKN) and piconet clock (CLK).
//!
//! CLKN is a free-running 28-bit counter ticking every half slot
//! (312.5 µs); it wraps roughly once a day. A slave participating in a
//! piconet derives the piconet clock CLK = CLKN + offset, where the offset
//! is learned from the master's FHS packet. The paper's `CLOCK` module
//! (update_offset / synchro_clk) corresponds to [`Clock`].

use btsim_kernel::{SimDuration, SimTime};

/// Modulus of the 28-bit clock.
pub const CLK_WRAP: u32 = 1 << 28;

/// A 28-bit Bluetooth clock value (half-slot ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ClkVal(u32);

impl ClkVal {
    /// Wraps a raw tick count into a clock value.
    pub fn new(ticks: u32) -> Self {
        ClkVal(ticks & (CLK_WRAP - 1))
    }

    /// The raw 28-bit value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Extracts bit `i`.
    pub fn bit(self, i: u32) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// Extracts the inclusive bit range `hi..=lo` as an integer.
    pub fn bits(self, hi: u32, lo: u32) -> u32 {
        debug_assert!(hi >= lo && hi < 28);
        (self.0 >> lo) & ((1 << (hi - lo + 1)) - 1)
    }

    /// Adds an offset (wrapping mod 2²⁸).
    pub fn offset_by(self, offset: u32) -> ClkVal {
        ClkVal::new(self.0.wrapping_add(offset))
    }

    /// The offset that maps `self` onto `other` (mod 2²⁸).
    pub fn offset_to(self, other: ClkVal) -> u32 {
        other.0.wrapping_sub(self.0) & (CLK_WRAP - 1)
    }

    /// True in master-to-slave transmit slots (CLK₁ = 0).
    pub fn is_master_tx_slot(self) -> bool {
        !self.bit(1)
    }

    /// True at the first tick of a slot (CLK₀ = 0).
    pub fn is_slot_start(self) -> bool {
        !self.bit(0)
    }

    /// Clock bits CLK₆₋₁, the whitening seed of the piconet.
    pub fn whitening_seed(self) -> u8 {
        self.bits(6, 1) as u8
    }

    /// The CLK₂₇₋₂ field carried in FHS packets.
    pub fn clk27_2(self) -> u32 {
        self.bits(27, 2)
    }

    /// Reconstructs a clock value from an FHS CLK₂₇₋₂ field, assuming the
    /// two low bits are zero (FHS packets start at a master slot start).
    pub fn from_clk27_2(field: u32) -> ClkVal {
        ClkVal::new((field & 0x03FF_FFFF) << 2)
    }

    /// Slot index (CLK₂₇₋₁): increments every 625 µs.
    pub fn slot(self) -> u32 {
        self.0 >> 1
    }
}

/// A device's free-running native clock.
///
/// The simulator ticks every device once per half slot; the clock maps
/// simulation time to CLKN deterministically from a start value.
///
/// # Examples
///
/// ```
/// use btsim_baseband::{Clock, ClkVal};
/// use btsim_kernel::SimTime;
///
/// let clock = Clock::new(ClkVal::new(100));
/// assert_eq!(clock.clkn_at(SimTime::ZERO).raw(), 100);
/// assert_eq!(clock.clkn_at(SimTime::from_us(625)).raw(), 102);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    start: ClkVal,
}

impl Clock {
    /// Creates a clock whose CLKN at simulation time zero is `start`.
    pub fn new(start: ClkVal) -> Self {
        Self { start }
    }

    /// CLKN at simulation time `t`.
    pub fn clkn_at(self, t: SimTime) -> ClkVal {
        let ticks = t.ns() / SimDuration::HALF_SLOT.ns();
        self.start.offset_by(ticks as u32)
    }

    /// The simulation time of the tick carrying clock value with the given
    /// raw tick index since start (inverse of [`Clock::clkn_at`] phase).
    pub fn tick_time(self, tick_index: u64) -> SimTime {
        SimTime::from_ns(tick_index * SimDuration::HALF_SLOT.ns())
    }

    /// Initial CLKN value.
    pub fn start_value(self) -> ClkVal {
        self.start
    }
}

btsim_kernel::snap_struct!(Clock { start });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_at_28_bits() {
        let c = ClkVal::new(CLK_WRAP - 1);
        assert_eq!(c.offset_by(1).raw(), 0);
        assert_eq!(ClkVal::new(CLK_WRAP).raw(), 0);
    }

    #[test]
    fn bit_extraction() {
        let c = ClkVal::new(0b1011_0110);
        assert!(c.bit(1));
        assert!(!c.bit(0));
        assert_eq!(c.bits(7, 4), 0b1011);
        assert_eq!(c.bits(2, 0), 0b110);
    }

    #[test]
    fn offsets_roundtrip() {
        let a = ClkVal::new(12345);
        let b = ClkVal::new(CLK_WRAP - 7);
        let off = a.offset_to(b);
        assert_eq!(a.offset_by(off), b);
        let back = b.offset_to(a);
        assert_eq!(b.offset_by(back), a);
    }

    #[test]
    fn slot_parity_helpers() {
        // CLK1=0, CLK0=0: master TX slot start.
        let c = ClkVal::new(0b100);
        assert!(c.is_master_tx_slot());
        assert!(c.is_slot_start());
        let d = ClkVal::new(0b110);
        assert!(!d.is_master_tx_slot());
        assert!(d.is_slot_start());
        let e = ClkVal::new(0b101);
        assert!(!e.is_slot_start());
    }

    #[test]
    fn whitening_seed_is_clk6_1() {
        let c = ClkVal::new(0b111_1110);
        assert_eq!(c.whitening_seed(), 0b11_1111);
        let d = ClkVal::new(0b000_0001);
        assert_eq!(d.whitening_seed(), 0);
    }

    #[test]
    fn clk27_2_roundtrip_at_slot_boundary() {
        let c = ClkVal::new(0xABC_DEF0 & !0b11); // low bits zero
        assert_eq!(ClkVal::from_clk27_2(c.clk27_2()), c);
    }

    #[test]
    fn clock_ticks_every_half_slot() {
        let clk = Clock::new(ClkVal::new(0));
        assert_eq!(clk.clkn_at(SimTime::from_us(0)).raw(), 0);
        assert_eq!(clk.clkn_at(SimTime::from_us(312)).raw(), 0);
        assert_eq!(clk.clkn_at(SimTime::from_ns(312_500)).raw(), 1);
        assert_eq!(clk.clkn_at(SimTime::from_us(1250)).raw(), 4);
    }

    #[test]
    fn slot_counter() {
        assert_eq!(ClkVal::new(0).slot(), 0);
        assert_eq!(ClkVal::new(1).slot(), 0);
        assert_eq!(ClkVal::new(2).slot(), 1);
        assert_eq!(ClkVal::new(5).slot(), 2);
    }
}
