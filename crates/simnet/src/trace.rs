//! Structured event tracing.
//!
//! The simulator records noteworthy occurrences — repairs starting and
//! finishing, constraint violations, reconfiguration operations — as a
//! time-stamped trace. The experiment harness uses traces to report when
//! repairs were active (the horizontal bars at the top of the paper's
//! Figures 11–13) and how long each repair took (§5.3).

use crate::time::SimTime;

/// Severity / category of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Informational progress (e.g. gauge deployed).
    Info,
    /// A monitored constraint was violated.
    Violation,
    /// A repair began executing.
    RepairStart,
    /// A repair finished executing.
    RepairEnd,
    /// A runtime reconfiguration operation was applied.
    Reconfiguration,
    /// A repair was abandoned (no applicable tactic).
    RepairAborted,
    /// A fault was injected or lifted (link capacity change, node or server
    /// liveness flip) — the audit trail of fault-injection runs.
    Fault,
}

/// One entry in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// When the entry was recorded.
    pub time: SimTime,
    /// Category.
    pub kind: TraceKind,
    /// Human-readable description.
    pub message: String,
    /// Optional correlation id (e.g. repair number).
    pub correlation: Option<u64>,
}

/// A time-ordered log of trace entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an entry.
    pub fn record(&mut self, time: SimTime, kind: TraceKind, message: impl Into<String>) {
        self.entries.push(TraceEntry {
            time,
            kind,
            message: message.into(),
            correlation: None,
        });
    }

    /// Records an entry with a correlation id.
    pub fn record_correlated(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        correlation: u64,
        message: impl Into<String>,
    ) {
        self.entries.push(TraceEntry {
            time,
            kind,
            message: message.into(),
            correlation: Some(correlation),
        });
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of a particular kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Number of entries of a particular kind.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Pairs up repair-start and repair-end entries by correlation id and
    /// returns `(start, end)` intervals, used to draw the repair-duration bars
    /// and to compute the average time to effect a repair.
    pub fn repair_intervals(&self) -> Vec<(SimTime, SimTime)> {
        let mut intervals = Vec::new();
        for start in self.of_kind(TraceKind::RepairStart) {
            let Some(corr) = start.correlation else {
                continue;
            };
            if let Some(end) = self
                .of_kind(TraceKind::RepairEnd)
                .find(|e| e.correlation == Some(corr))
            {
                intervals.push((start.time, end.time));
            }
        }
        intervals.sort_by_key(|a| a.0);
        intervals
    }

    /// Mean duration of completed repairs, in seconds.
    pub fn mean_repair_duration_secs(&self) -> Option<f64> {
        let intervals = self.repair_intervals();
        if intervals.is_empty() {
            return None;
        }
        Some(
            intervals
                .iter()
                .map(|(s, e)| e.since(*s).as_secs())
                .sum::<f64>()
                / intervals.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn records_and_filters_by_kind() {
        let mut trace = Trace::new();
        trace.record(t(1.0), TraceKind::Info, "gauge deployed");
        trace.record(t(2.0), TraceKind::Violation, "latency above bound");
        trace.record(t(3.0), TraceKind::Violation, "again");
        assert_eq!(trace.count(TraceKind::Violation), 2);
        assert_eq!(trace.count(TraceKind::Info), 1);
        assert_eq!(trace.entries().len(), 3);
    }

    #[test]
    fn repair_intervals_pair_by_correlation() {
        let mut trace = Trace::new();
        trace.record_correlated(t(10.0), TraceKind::RepairStart, 1, "repair 1");
        trace.record_correlated(t(40.0), TraceKind::RepairEnd, 1, "repair 1 done");
        trace.record_correlated(t(50.0), TraceKind::RepairStart, 2, "repair 2");
        trace.record_correlated(t(70.0), TraceKind::RepairEnd, 2, "repair 2 done");
        let intervals = trace.repair_intervals();
        assert_eq!(intervals.len(), 2);
        assert!((trace.mean_repair_duration_secs().unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn unfinished_repairs_are_ignored() {
        let mut trace = Trace::new();
        trace.record_correlated(t(10.0), TraceKind::RepairStart, 1, "repair 1");
        assert!(trace.repair_intervals().is_empty());
        assert!(trace.mean_repair_duration_secs().is_none());
    }
}
