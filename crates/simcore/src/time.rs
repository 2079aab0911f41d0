//! Simulated time.
//!
//! [`SimTime`] is a strictly finite, non-negative number of seconds since the
//! start of a simulation. It is a newtype over `f64` that restores the total
//! order `f64` lacks, so it can key the future-event list.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// # Invariants
///
/// The inner value is always finite and non-negative. All constructors
/// enforce this; arithmetic saturates at zero rather than going negative.
///
/// # Examples
///
/// ```
/// use distserve_simcore::SimTime;
///
/// let t = SimTime::from_millis(250.0);
/// assert_eq!(t.as_secs(), 0.25);
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds. `-0.0` (what `-(1.0f64).ln()` yields)
    /// becomes `+0.0`, so equal times always compare `Equal`.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite; simulation timestamps
    /// must stay inside the representable timeline.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(if secs == 0.0 { 0.0 } else { secs })
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    /// Returns the time as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the time as milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the duration from `earlier` to `self` in seconds, saturating
    /// at zero if `earlier` is actually later.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }

    /// Advances this time by `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    #[must_use]
    pub fn after(self, secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "cannot advance SimTime by {secs}"
        );
        SimTime(self.0 + secs)
    }

    /// Returns the later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The IEEE-754 bit pattern of the seconds value. For the finite,
    /// non-negative values `SimTime` holds, ordering the patterns as
    /// integers orders the times.
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// Inverse of [`SimTime::to_bits`].
    pub(crate) fn from_bits(bits: u64) -> Self {
        SimTime(f64::from_bits(bits))
    }

    /// Returns the earlier of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

// The invariant guarantees the inner value is never NaN, so the partial
// comparison is total in practice.
impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: f64) -> SimTime {
        self.after(rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = self.after(rhs);
    }
}

impl Sub for SimTime {
    type Output = f64;

    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(1.5).as_secs(), 1.5);
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_micros(1_500_000.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_secs(2.0).as_millis(), 2000.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn negative_zero_is_zero() {
        let z = SimTime::from_secs(-0.0);
        assert_eq!(z.cmp(&SimTime::ZERO), std::cmp::Ordering::Equal);
        assert!(z.as_secs().is_sign_positive());
    }

    #[test]
    fn bit_order_is_time_order() {
        let times = [0.0, 1e-300, 0.25, 1.0, 1.5, 1e9];
        for w in times.windows(2) {
            let (a, b) = (SimTime::from_secs(w[0]), SimTime::from_secs(w[1]));
            assert!(a.to_bits() < b.to_bits());
            assert_eq!(SimTime::from_bits(b.to_bits()), b);
        }
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b.since(a), 2.0);
        assert_eq!(a.since(b), 0.0);
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::from_secs(1.0);
        t += 0.5;
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!((t + 0.5).as_secs(), 2.0);
        assert_eq!(t - SimTime::from_secs(1.0), 0.5);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(format!("{}", SimTime::from_millis(1.5)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_secs(2.25)), "2.250s");
    }
}
