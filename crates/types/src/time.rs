//! Simulated time.
//!
//! The whole stack uses a single monotonically non-decreasing clock
//! measured in nanoseconds. [`Nanos`] is an absolute timestamp *and* a
//! duration (the distinction is not worth two types here: all arithmetic
//! is saturating and non-negative).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

/// A simulated time point or duration in nanoseconds.
///
/// # Example
///
/// ```
/// use hopp_types::Nanos;
/// let t = Nanos::from_micros(4) + Nanos::from_nanos(300);
/// assert_eq!(t.as_nanos(), 4_300);
/// assert_eq!(t.as_micros_f64(), 4.3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Time zero.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time (used as "never").
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time in microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time in milliseconds, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time in seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// `n` back-to-back copies of this duration, saturating at
    /// [`Nanos::MAX`] like `+`.
    pub fn times(self, n: u64) -> Nanos {
        Nanos(self.0.saturating_mul(n))
    }

    /// The later of two times.
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales a duration by a float factor, rounding to the nearest
    /// nanosecond and saturating at the representable range.
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0);
        let scaled = (self.0 as f64 * factor).round();
        if scaled >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(scaled as u64)
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// Saturating subtraction: durations never go negative.
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::MAX + Nanos::from_nanos(1), Nanos::MAX);
        assert_eq!(Nanos::ZERO - Nanos::from_nanos(1), Nanos::ZERO);
        assert_eq!(
            Nanos::from_nanos(5).saturating_since(Nanos::from_nanos(9)),
            Nanos::ZERO
        );
        assert_eq!(Nanos::from_nanos(3).times(4), Nanos::from_nanos(12));
        assert_eq!(Nanos::from_secs(1).times(u64::MAX), Nanos::MAX);
    }

    #[test]
    fn scaling() {
        assert_eq!(Nanos::from_nanos(100).scale(1.2), Nanos::from_nanos(120));
        assert_eq!(Nanos::from_nanos(100).scale(0.0), Nanos::ZERO);
        assert_eq!(Nanos::MAX.scale(2.0), Nanos::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", Nanos::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Nanos::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(5)), "5.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [1u64, 2, 3].into_iter().map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(6));
    }
}
