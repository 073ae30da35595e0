//! Simulated time.
//!
//! The simulator uses a continuous virtual clock measured in seconds. Times
//! are represented by [`SimTime`], a thin wrapper around `f64` that provides a
//! total order (NaN is rejected at construction) so times can be used as keys
//! in the event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime(secs)
    }

    /// The time as seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Elapsed duration since `earlier`. Returns zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimDuration cannot be NaN");
        assert!(secs >= 0.0, "SimDuration cannot be negative: {secs}");
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1_000.0)
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Scales the duration by a non-negative factor.
    pub fn scale(self, factor: f64) -> Self {
        Self::from_secs(self.0 * factor)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction forbids NaN, so partial_cmp always succeeds.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs(5.0) + SimDuration::from_secs(2.5);
        assert!((t.as_secs() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn since_clamps_to_zero() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.since(b).as_secs(), 0.0);
        assert!((b.since(a).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_time_rejected() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic]
    fn nan_duration_rejected() {
        SimDuration::from_secs(f64::NAN);
    }

    #[test]
    fn duration_from_millis() {
        assert!((SimDuration::from_millis(250.0).as_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn duration_scale() {
        let d = SimDuration::from_secs(2.0).scale(3.0);
        assert!((d.as_secs() - 6.0).abs() < 1e-12);
    }
}
