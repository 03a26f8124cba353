//! Virtual time in integer picoseconds.
//!
//! All component costs in the paper are reported with two decimal digits of
//! nanosecond precision (e.g. `LLP_post` = 175.42 ns). Picosecond integers
//! represent those exactly, make the event queue totally ordered without
//! floating-point comparison hazards, and never lose precision when summed
//! over millions of simulated messages.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;

/// An instant on the virtual clock, measured in picoseconds since the start
/// of the simulation.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time in picoseconds.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Duration elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is later than `self`; use [`SimTime::saturating_since`] when the order
    /// is not statically known.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            self >= earlier,
            "SimTime::since called with a later `earlier` ({earlier} > {self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Duration since `earlier`, clamping to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Construct from fractional nanoseconds, rounding to the nearest
    /// picosecond. This is how the paper's tabled constants (e.g. 175.42 ns)
    /// enter the simulation.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "durations must be finite and non-negative, got {ns}"
        );
        SimDuration(round_to_u64(ns * PS_PER_NS as f64))
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// Scale by a non-negative factor, rounding to the nearest picosecond.
    /// Used by the what-if engine ("reduce component X by Y%").
    #[inline]
    pub fn scale(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }

    /// Integer division of two spans (how many `rhs` fit in `self`),
    /// rounding up. Used for the paper's lower bound
    /// `p >= gen_completion / LLP_post`.
    #[inline]
    pub fn div_ceil_by(self, rhs: SimDuration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero-length duration");
        self.0.div_ceil(rhs.0)
    }

    /// Ratio of two spans as `f64`.
    #[inline]
    pub fn ratio(self, rhs: SimDuration) -> f64 {
        assert!(!rhs.is_zero(), "ratio with zero-length denominator");
        self.0 as f64 / rhs.0 as f64
    }
}

/// `x.round() as u64` for `x ≥ 0`, without the libm `round` call
/// (the build targets baseline x86-64, which has no rounding
/// instruction). Truncation leaves the fraction `x − ⌊x⌋`, which is exact
/// below 2^52 and zero above it, and a fraction of one half rounds up:
/// half away from zero, as `f64::round`. At 2^64 and above (+∞ too) the
/// cast saturates, as `as u64` does, and the fraction is ignored.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated run too long"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted duration before time zero"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns_f64();
        if ns >= 10_000.0 {
            write!(f, "{:.2} us", ns / 1_000.0)
        } else {
            write!(f, "{ns:.2} ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tabled_constants_are_exact() {
        // Paper Table 1 values must round-trip exactly through ps integers.
        for &ns in &[
            27.78, 17.33, 21.07, 94.25, 14.99, 175.42, 61.63, 8.99, 49.69, 137.49, 274.81, 108.0,
            240.96, 24.37, 2.19, 47.99, 293.29, 139.78, 150.51,
        ] {
            let d = SimDuration::from_ns_f64(ns);
            assert!(
                (d.as_ns_f64() - ns).abs() < 1e-9,
                "{ns} ns did not round-trip: got {}",
                d.as_ns_f64()
            );
        }
    }

    /// The rounding agrees with `f64::round` at the cases a shortcut gets
    /// wrong: the largest double below one half, exact halves, halves at
    /// the edge of the fractional range, integers past 2^52, and values
    /// the cast saturates.
    #[test]
    fn rounding_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            175_420.499_9,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 * 2.0 + 2.0,
            (1u64 << 63) as f64,
            18_446_744_073_709_549_568.0,
            18_446_744_073_709_551_616.0,
            1e20,
            f64::MAX,
        ] {
            assert_eq!(round_to_u64(x), x.round() as u64, "at {x:e}");
        }
        assert_eq!(round_to_u64(0.49999999999999994), 0);
        assert_eq!(round_to_u64(2.5), 3);
        assert_eq!(round_to_u64(1e20), u64::MAX);
    }

    #[test]
    fn time_arithmetic_basics() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(42);
        assert_eq!((t + d).as_ps(), 142_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling_rounds_to_ps() {
        let d = SimDuration::from_ns_f64(175.42);
        // 90% reduction leaves 10%.
        assert_eq!(d.scale(0.10).as_ps(), 17_542);
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
        assert_eq!(d.scale(1.0), d);
    }

    #[test]
    fn div_ceil_matches_paper_p_bound() {
        // gen_completion / LLP_post with the paper's numbers:
        // gen_completion = 2*(137.49 + 382.81) + RC-to-MEM(64B)~247.67
        let gen = SimDuration::from_ns_f64(2.0 * (137.49 + 382.81) + 247.67);
        let post = SimDuration::from_ns_f64(175.42);
        let p = gen.div_ceil_by(post);
        assert_eq!(p, 8, "paper's put_bw poll interval of 16 must satisfy p>=8");
        assert!(16 >= p);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_ns_f64(282.33).to_string(), "282.33 ns");
        assert_eq!(SimDuration::from_us(35).to_string(), "35.00 us");
        assert_eq!(SimTime::from_ns(1).to_string(), "1.000 ns");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimDuration::from_ns(1) - SimDuration::from_ns(2);
    }

    #[test]
    fn max_of_and_ordering() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(7);
        assert_eq!(a.max_of(b), b);
        assert_eq!(b.max_of(a), b);
        assert!(a < b);
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(t in 0u64..1u64<<60, d in 0u64..1u64<<60) {
            let time = SimTime::from_ps(t);
            let dur = SimDuration::from_ps(d);
            prop_assert_eq!((time + dur).since(time), dur);
            prop_assert_eq!((time + dur) - dur, time);
        }

        #[test]
        fn sum_is_fold(durs in proptest::collection::vec(0u64..1u64<<40, 0..64)) {
            let total: SimDuration = durs.iter().map(|&d| SimDuration::from_ps(d)).sum();
            prop_assert_eq!(total.as_ps(), durs.iter().sum::<u64>());
        }

        #[test]
        fn scale_monotone(d in 0u64..1u64<<50, f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
            let dur = SimDuration::from_ps(d);
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            prop_assert!(dur.scale(lo) <= dur.scale(hi) + SimDuration::from_ps(1));
        }

        #[test]
        fn rounding_matches_f64_round_everywhere(m in 0.0f64..2.0, e in 0i32..70) {
            // Every binade from 1 to 2^70: fractional values below 2^52,
            // integers above it, saturation past 2^64.
            let x = m * 2f64.powi(e);
            prop_assert_eq!(round_to_u64(x), x.round() as u64);
        }

        #[test]
        fn ns_f64_roundtrip(ns in 0.0f64..1e9) {
            let d = SimDuration::from_ns_f64(ns);
            prop_assert!((d.as_ns_f64() - ns).abs() <= 0.001);
        }
    }
}
