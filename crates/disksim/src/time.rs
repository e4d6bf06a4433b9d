//! Simulated-time primitives.
//!
//! All service-time computations in the simulator are deterministic and are
//! expressed in integer nanoseconds so that results are exactly reproducible
//! across runs and platforms.  Floating-point seconds are only used at the
//! edges (configuration and reporting).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with nanosecond resolution.
///
/// `SimDuration` behaves like a small, copyable numeric type: it supports
/// addition, subtraction, scaling by integers and summation.  It never
/// silently overflows — all arithmetic saturates, which is adequate because a
/// saturated duration (≈ 584 years) is far beyond any meaningful simulation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { nanos }
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            nanos: micros.saturating_mul(1_000),
        }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            nanos: millis.saturating_mul(1_000_000),
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            nanos: secs.saturating_mul(1_000_000_000),
        }
    }

    /// Creates a duration from floating-point seconds.
    ///
    /// Negative and non-finite inputs are clamped to zero; values too large to
    /// represent saturate.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration { nanos: u64::MAX }
        } else {
            SimDuration {
                nanos: round_half_up(nanos),
            }
        }
    }

    /// Creates a duration from floating-point milliseconds.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// The duration in floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// The duration in floating-point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }

    /// Saturating subtraction (clamps at zero).
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_mul(factor),
        }
    }

    /// Divides the duration by an integer divisor.  Division by zero yields
    /// the zero duration (callers treat it as "no meaningful average").
    pub const fn checked_div_int(self, divisor: u64) -> SimDuration {
        match self.nanos.checked_div(divisor) {
            Some(nanos) => SimDuration { nanos },
            None => SimDuration::ZERO,
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        self.checked_div_int(rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nanos = self.nanos;
        if nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if nanos >= 1_000_000 {
            write!(f, "{:.3}ms", nanos as f64 / 1e6)
        } else if nanos >= 1_000 {
            write!(f, "{:.3}µs", nanos as f64 / 1e3)
        } else {
            write!(f, "{nanos}ns")
        }
    }
}

/// `x.round() as u64` for a finite `0 ≤ x < 2⁶⁴`, without the out-of-line
/// call `f64::round` compiles to on a CPU without a rounding instruction:
/// the whole part by truncation, plus one if the remainder is at least ½.
///
/// Exact, by cases.  Let `w = x as u64`, which truncates, so `w = ⌊x⌋`.
///
/// * `x < 2⁵²`: `w < 2⁵²` converts back to `f64` exactly.  If `w = 0`, `x −
///   w` is `x`.  Otherwise `w ≤ x < w + 1 ≤ 2w`, so `x − w` is exact by
///   Sterbenz's lemma.  Either way the remainder is exactly `x − ⌊x⌋`, and
///   `f64::round`, which rounds halves away from zero, returns `⌊x⌋ + 1`
///   for `x ≥ 0` exactly when that remainder is `≥ ½`.
/// * `x ≥ 2⁵²`: the spacing of `f64`s there is at least 1, so `x` is an
///   integer, `w = x` converts back exactly, the remainder is 0, and the
///   result is `x`, as `f64::round` leaves it.
#[inline]
pub(crate) fn round_half_up(x: f64) -> u64 {
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

/// A monotonically advancing simulated clock.
///
/// The clock is a thin wrapper over [`SimDuration`]; it exists to make the
/// intent of "current simulated time" explicit in APIs that both read and
/// advance time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    now: SimDuration,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub const fn new() -> Self {
        SimClock {
            now: SimDuration::ZERO,
        }
    }

    /// The current simulated time, as a duration since the start of the run.
    pub const fn now(&self) -> SimDuration {
        self.now
    }

    /// Advances the clock by `delta` and returns the new time.
    pub fn advance(&mut self, delta: SimDuration) -> SimDuration {
        self.now += delta;
        self.now
    }

    /// Resets the clock to zero.
    pub fn reset(&mut self) {
        self.now = SimDuration::ZERO;
    }
}

/// Computes throughput in bytes per second given an amount of data and the
/// simulated time it took to move it.
///
/// Returns `0.0` when `elapsed` is zero so callers can report "no work done"
/// without special-casing.
pub fn throughput_bytes_per_sec(bytes: u64, elapsed: SimDuration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 / secs
    }
}

/// Computes throughput in megabytes per second (decimal MB, matching the
/// paper's MB/s axes).
pub fn throughput_mb_per_sec(bytes: u64, elapsed: SimDuration) -> f64 {
    throughput_bytes_per_sec(bytes, elapsed) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_millis(8);
        assert_eq!(d.as_nanos(), 8_000_000);
        assert!((d.as_millis_f64() - 8.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
    }

    /// The rounding helper against `f64::round` where the two could part:
    /// zero, subnormals, every tie, a tie ± 1 ulp, and the top of the range
    /// where `f64`s stop having fractions.  Mutation-checked: rounding ties
    /// to even fails at 0.5 (every even n + ½), and `>` for `>=` at every
    /// n + ½.
    #[test]
    fn round_half_up_is_f64_round() {
        let two_52 = (1u64 << 52) as f64;
        let mut inputs = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.49999999999999994,
            two_52 - 0.5,
            two_52 - 1.5,
            two_52,
            two_52 + 1.0,
            2.0 * two_52,
            2.0 * two_52 + 2.0,
            u64::MAX as f64 / 2.0,
        ];
        for n in (0u64..64).chain([1_000_000, (1 << 51) + 7, (1 << 52) - 2]) {
            let tie = n as f64 + 0.5;
            inputs.extend([tie, tie.next_down(), tie.next_up(), n as f64]);
        }
        for x in inputs {
            assert_eq!(round_half_up(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(round_half_up(2.5), 3);
        assert_eq!(round_half_up(two_52 - 0.5), 1 << 52);
    }

    #[test]
    fn arithmetic_saturates() {
        let max = SimDuration::from_nanos(u64::MAX);
        assert_eq!(max + SimDuration::from_secs(1), max);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_secs(1),
            SimDuration::ZERO
        );
        assert_eq!(max * 2, max);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(SimDuration::from_secs(1) / 0, SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(10) / 5, SimDuration::from_secs(2));
    }

    #[test]
    fn sum_of_durations() {
        let parts = [
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        ];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total, SimDuration::from_millis(6));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), SimDuration::ZERO);
        clock.advance(SimDuration::from_millis(5));
        clock.advance(SimDuration::from_millis(7));
        assert_eq!(clock.now(), SimDuration::from_millis(12));
        clock.reset();
        assert_eq!(clock.now(), SimDuration::ZERO);
    }

    #[test]
    fn throughput_helpers() {
        let t = throughput_mb_per_sec(10_000_000, SimDuration::from_secs(1));
        assert!((t - 10.0).abs() < 1e-9);
        assert_eq!(throughput_mb_per_sec(10, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000µs");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }
}
