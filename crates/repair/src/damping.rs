//! Repair-effect damping.
//!
//! The paper observes (§5.3) that *the effects of a repair on a system will
//! take time* — adding a server does not immediately reduce the group's load —
//! and that ignoring this leads to unnecessary repairs and oscillation
//! (clients bouncing between server groups). The proposed remedy is a repair
//! engine that monitors repairs and their effects. [`RepairDamping`]
//! implements the simplest form: after a repair touches a subject, further
//! repairs for that subject are suppressed until a settle time has elapsed.

use rustc_hash::FxHashMap;

/// Tracks recent repairs and suppresses premature re-repairs.
#[derive(Debug, Clone)]
pub struct RepairDamping {
    settle_secs: f64,
    last_repair: FxHashMap<String, f64>,
}

impl RepairDamping {
    /// Creates a damping policy with the given settle time (seconds).
    pub fn new(settle_secs: f64) -> Self {
        RepairDamping {
            settle_secs: settle_secs.max(0.0),
            last_repair: FxHashMap::default(),
        }
    }

    /// Records that a repair affecting `subject` completed at `now`.
    pub fn record(&mut self, subject: &str, now: f64) {
        self.last_repair.insert(subject.to_string(), now);
    }

    /// True when a repair for `subject` is allowed at `now` (no repair within
    /// the settle window).
    pub fn allows(&self, subject: &str, now: f64) -> bool {
        match self.last_repair.get(subject) {
            Some(&last) => now - last >= self.settle_secs,
            None => true,
        }
    }

    /// Time remaining before a repair for `subject` is allowed again.
    pub fn remaining(&self, subject: &str, now: f64) -> f64 {
        match self.last_repair.get(subject) {
            Some(&last) => (self.settle_secs - (now - last)).max(0.0),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_until_first_repair() {
        let damping = RepairDamping::new(60.0);
        assert!(damping.allows("User3", 0.0));
        assert_eq!(damping.remaining("User3", 0.0), 0.0);
    }

    #[test]
    fn suppresses_within_settle_window() {
        let mut damping = RepairDamping::new(60.0);
        damping.record("User3", 100.0);
        assert!(!damping.allows("User3", 130.0));
        assert!((damping.remaining("User3", 130.0) - 30.0).abs() < 1e-12);
        assert!(damping.allows("User3", 160.0));
        // Other subjects are unaffected.
        assert!(damping.allows("User4", 130.0));
    }

    #[test]
    fn zero_settle_never_suppresses() {
        let mut damping = RepairDamping::new(0.0);
        damping.record("User3", 100.0);
        assert!(damping.allows("User3", 100.0));
    }

    #[test]
    fn negative_settle_clamped() {
        let damping = RepairDamping::new(-5.0);
        assert_eq!(damping.settle_secs, 0.0);
    }
}
