//! The run's record: one typed log of what the control loop did or saw.
//!
//! The observer pushes every [`Occurrence`] here once, stamped with its sim
//! time. An entry holds no text made for it: a violation holds interned
//! [`Key`]s, a skipped repair the engine's typed [`Skip`] (names and shared
//! lists of typed reasons), and what the planners or the runtime already
//! owned — an abort reason, an error, a runtime operation, the plan — is
//! moved in. An entry is five words: the rare occurrences whose payload is
//! larger are boxed, so the thousands of violation entries of a fleet run
//! cost 40 bytes each. Two renderers read an entry: [`RunLog::legacy_lines`],
//! the `(time, kind, correlation, message)` lines of the original event
//! trace, and `LogEntry::sink_event`, the trace store's subject / detail /
//! value / correlation convention. The repair statistics, the repair bars
//! of Figures 11–13 and the detector layer's lead times are folds over the
//! log.

use crate::framework::RepairStats;
use archmodel::constraint::Violation;
use archmodel::{Key, ModelError};
use gridapp::AppError;
use repair::{RepairPlan, Skip};
use rustc_hash::FxHashMap;
use simnet::SimTime;
use std::fmt;
use std::sync::Arc;
use tracestore::{EventKind, EventRef};
use translator::{RuntimeOp, TranslationError};

/// Something the control loop did or saw.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Occurrence {
    /// Probes and gauges are being deployed.
    Deployed,
    /// A detector flagged a gauge stream drifting towards the named
    /// invariant (stamped with the alarm's own time).
    Advisory(Box<(detect::Advisory, &'static str)>),
    /// A constraint was found violated.
    Violation {
        invariant: Key,
        subject: Key,
        detail: Key,
    },
    /// A repair began executing.
    RepairStarted(Box<RepairStart>),
    /// The repair with this correlation id was committed and executed.
    RepairCompleted {
        correlation: u64,
        plan: Arc<RepairPlan>,
    },
    /// The engine abandoned the invariant (a tactic failed hard, or its
    /// script would break the style).
    RepairAborted { invariant: Key, reason: Box<str> },
    /// The plan for the subject has no runtime translation.
    Untranslatable(Box<(String, TranslationError)>),
    /// The engine passed over every candidate, for the reasons recorded
    /// (damping, nothing applicable).
    RepairSkipped(Box<Skip>),
    /// A runtime operation was applied.
    Reconfigured(Box<RuntimeOp>),
    /// A runtime operation was attempted and failed.
    OpFailed(Box<(RuntimeOp, AppError)>),
    /// The labelled scripted fault action was applied.
    Fault(String),
    /// The labelled scripted fault action could not be applied.
    FaultFailed(Box<(String, AppError)>),
    /// The scripted workload changed phase.
    PhaseChange,
    /// A drain sweep recycled `count` wedged replicas of `group`.
    Drained { group: Box<str>, count: usize },
    /// A due repair's model operation could not be committed.
    CommitFailed(ModelError),
    /// The model broke `count` style rules after a commit.
    StyleViolations(usize),
}

/// A repair as it began executing. `batched` marks the group planner's
/// plans, which name their tactics and count as `planner.plans`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RepairStart {
    pub(crate) correlation: u64,
    pub(crate) plan: Arc<RepairPlan>,
    pub(crate) batched: bool,
    pub(crate) runtime_ops: usize,
    pub(crate) duration_secs: f64,
}

impl Occurrence {
    /// A violated constraint: the names it already holds, copied.
    pub(crate) fn violation(violation: &Violation) -> Self {
        Occurrence::Violation {
            invariant: violation.invariant,
            subject: violation.subject_name,
            detail: violation.detail,
        }
    }

    /// The trace kind the occurrence is recorded under.
    fn kind(&self) -> EventKind {
        match self {
            Occurrence::Advisory(..) => EventKind::Advisory,
            Occurrence::Violation { .. } => EventKind::Violation,
            Occurrence::RepairStarted(_) => EventKind::RepairStart,
            Occurrence::RepairCompleted { .. } => EventKind::RepairEnd,
            Occurrence::RepairAborted { .. } | Occurrence::Untranslatable(_) => {
                EventKind::RepairAborted
            }
            Occurrence::Reconfigured(_) => EventKind::Reconfiguration,
            Occurrence::Fault(_) => EventKind::Fault,
            _ => EventKind::Info,
        }
    }
}

/// One stamped occurrence.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LogEntry {
    time: SimTime,
    occurrence: Occurrence,
}

/// Everything one run recorded, in recording order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    entries: Vec<LogEntry>,
}

/// One line of the legacy event trace. It displays as the line's message.
#[derive(Debug, Clone, Copy)]
pub struct LegacyLine<'a> {
    /// When the occurrence was recorded.
    pub time: SimTime,
    /// Its category.
    pub kind: EventKind,
    /// The repair it belongs to, for repair starts and ends.
    pub correlation: Option<u64>,
    occurrence: &'a Occurrence,
}

impl RunLog {
    pub(crate) fn push(&mut self, time: SimTime, occurrence: Occurrence) -> &LogEntry {
        self.entries.push(LogEntry { time, occurrence });
        self.entries.last().expect("just pushed")
    }

    /// Number of entries of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        let of_kind = |e: &&LogEntry| e.occurrence.kind() == kind;
        self.entries.iter().filter(of_kind).count()
    }

    /// The log rendered as the legacy trace: every entry but advisories,
    /// which never had a line.
    pub fn legacy_lines(&self) -> impl Iterator<Item = LegacyLine<'_>> {
        self.entries.iter().filter_map(|entry| {
            let occurrence = &entry.occurrence;
            let correlation = match occurrence {
                Occurrence::Advisory(..) => return None,
                Occurrence::RepairStarted(start) => Some(start.correlation),
                Occurrence::RepairCompleted { correlation, .. } => Some(*correlation),
                _ => None,
            };
            Some(LegacyLine {
                time: entry.time,
                kind: occurrence.kind(),
                correlation,
                occurrence,
            })
        })
    }

    /// `(start, end)` of every repair that completed, sorted by start: the
    /// bars at the top of Figures 11–13.
    pub fn repair_intervals(&self) -> Vec<(SimTime, SimTime)> {
        self.repairs().1
    }

    /// Repairs started, completed and aborted, and the mean duration of the
    /// completed ones. The tallies the log does not hold are left at zero.
    pub(crate) fn repair_stats(&self) -> RepairStats {
        self.repairs().0
    }

    /// One pass over the repair lifecycle: the statistics, and the
    /// intervals, each start paired with the first end recorded under its
    /// correlation id.
    fn repairs(&self) -> (RepairStats, Vec<(SimTime, SimTime)>) {
        let mut stats = RepairStats::default();
        let (mut starts, mut first_end) = (Vec::new(), FxHashMap::default());
        for entry in &self.entries {
            match &entry.occurrence {
                Occurrence::RepairStarted(start) => {
                    starts.push((entry.time, start.correlation));
                }
                Occurrence::RepairCompleted { correlation, .. } => {
                    stats.completed += 1;
                    first_end.entry(*correlation).or_insert(entry.time);
                }
                Occurrence::RepairAborted { .. } | Occurrence::Untranslatable(_) => {
                    stats.aborted += 1;
                }
                _ => {}
            }
        }
        stats.started = starts.len() as u64;
        let mut intervals: Vec<(SimTime, SimTime)> = starts
            .into_iter()
            .filter_map(|(start, correlation)| Some((start, *first_end.get(&correlation)?)))
            .collect();
        intervals.sort_by_key(|interval| interval.0);
        if !intervals.is_empty() {
            let total: f64 = intervals.iter().map(|(s, e)| e.since(*s).as_secs()).sum();
            stats.mean_duration_secs = Some(total / intervals.len() as f64);
        }
        (stats, intervals)
    }

    /// `(time, subject)` of every advisory.
    fn advisories(&self) -> impl Iterator<Item = (f64, Key)> + '_ {
        self.entries.iter().filter_map(|e| match &e.occurrence {
            Occurrence::Advisory(advisory) => Some((e.time.as_secs(), advisory.0.subject)),
            _ => None,
        })
    }

    /// Advisories recorded so far.
    pub(crate) fn advisory_count(&self) -> u64 {
        self.advisories().count() as u64
    }

    /// Median lead time over all (advisory → first subsequent same-subject
    /// violation within `horizon_secs`) pairs. Quadratic in the two kinds'
    /// counts, run once at end of run over rare events.
    pub(crate) fn median_lead_secs(&self, horizon_secs: f64) -> Option<f64> {
        let violations: Vec<(f64, Key)> = self
            .entries
            .iter()
            .filter_map(|e| match e.occurrence {
                Occurrence::Violation { subject, .. } => Some((e.time.as_secs(), subject)),
                _ => None,
            })
            .collect();
        let mut leads: Vec<f64> = self
            .advisories()
            .filter_map(|(a_time, subject)| {
                violations
                    .iter()
                    .filter(|&&(v_time, v_subject)| {
                        v_subject == subject && v_time >= a_time && v_time - a_time <= horizon_secs
                    })
                    .map(|&(v_time, _)| v_time - a_time)
                    .fold(None, |best: Option<f64>, lead| {
                        Some(best.map_or(lead, |b| b.min(lead)))
                    })
            })
            .collect();
        tracestore::aggregate::median_of(&mut leads)
    }
}

impl LogEntry {
    /// The entry as the trace store records it; `None` for the occurrences
    /// the store never held. A formatted detail is written into `detail`,
    /// which the caller reuses.
    pub(crate) fn sink_event<'a>(&'a self, detail: &'a mut String) -> Option<EventRef<'a>> {
        let secs = self.time.as_secs();
        let kind = self.occurrence.kind();
        let event = match &self.occurrence {
            Occurrence::Advisory(advisory) => {
                let (alarm, predicts) = &**advisory;
                let (property, detector) = (alarm.property, alarm.detector.name());
                let text = format_into(
                    detail,
                    format_args!("{property}/{detector} predict={predicts}"),
                );
                EventRef::new(secs, kind, alarm.subject.as_str(), text).with_value(alarm.score)
            }
            Occurrence::Violation {
                invariant, subject, ..
            } => EventRef::new(secs, kind, subject.as_str(), invariant.as_str()),
            Occurrence::RepairStarted(start) => {
                let plan = &start.plan;
                let (invariant, tactics) = (&plan.invariant, tactics(plan, start.batched));
                let text = format_into(
                    detail,
                    format_args!("{invariant}: {tactics}{}", plan.description),
                );
                EventRef::new(secs, kind, &plan.subject, text).with_correlation(start.correlation)
            }
            Occurrence::RepairCompleted { correlation, plan } => {
                EventRef::new(secs, kind, &plan.subject, &plan.description)
                    .with_correlation(*correlation)
            }
            Occurrence::RepairAborted { invariant, reason } => {
                EventRef::new(secs, kind, invariant.as_str(), reason)
            }
            Occurrence::Untranslatable(untranslatable) => {
                let (subject, error) = &**untranslatable;
                let text = format_into(detail, format_args!("translation failed: {error}"));
                EventRef::new(secs, kind, subject, text)
            }
            Occurrence::Reconfigured(op) => {
                *detail = op.describe();
                EventRef::new(secs, kind, runtime_op_subject(op), detail)
            }
            _ => return None,
        };
        Some(event)
    }
}

/// Overwrites `buffer` with `args` and borrows the result.
fn format_into<'a>(buffer: &'a mut String, args: fmt::Arguments<'_>) -> &'a str {
    buffer.clear();
    fmt::Write::write_fmt(buffer, args).expect("a String takes any write");
    buffer
}

/// A group-planner plan's tactics, `[a+b] `; nothing for the engine's.
fn tactics(plan: &RepairPlan, batched: bool) -> String {
    match batched {
        true => format!("[{}] ", plan.tactics.join("+")),
        false => String::new(),
    }
}

impl fmt::Display for LegacyLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.occurrence {
            Occurrence::Deployed => f.write_str("deploying probes and gauges"),
            // Never a legacy line: `legacy_lines` skips advisories.
            Occurrence::Advisory(..) => Ok(()),
            Occurrence::Violation {
                invariant,
                subject,
                detail,
            } => write!(f, "{invariant} violated for {subject} ({detail})"),
            Occurrence::RepairStarted(start) => {
                let RepairStart {
                    correlation,
                    plan,
                    batched,
                    runtime_ops,
                    duration_secs,
                } = &**start;
                write!(
                    f,
                    "repair #{correlation} for {} ({}): {}{} \
                     [{runtime_ops} runtime ops, ≈{duration_secs:.0} s]",
                    plan.subject,
                    plan.invariant,
                    tactics(plan, *batched),
                    plan.description
                )
            }
            Occurrence::RepairCompleted { correlation, plan } => write!(
                f,
                "repair #{correlation} for {} complete: {}",
                plan.subject, plan.description
            ),
            Occurrence::RepairAborted { invariant, reason } => {
                write!(f, "repair of {invariant} aborted: {reason}")
            }
            Occurrence::Untranslatable(untranslatable) => {
                write!(f, "translation failed: {}", untranslatable.1)
            }
            Occurrence::RepairSkipped(skip) => write!(f, "repair skipped: {skip}"),
            Occurrence::Reconfigured(op) => f.write_str(&op.describe()),
            Occurrence::OpFailed(failed) => {
                let (op, error) = &**failed;
                write!(f, "runtime operation {} failed: {error}", op.describe())
            }
            Occurrence::Fault(label) => write!(f, "fault injected: {label}"),
            Occurrence::FaultFailed(failed) => {
                let (label, e) = &**failed;
                write!(f, "fault action {label} failed: {e}")
            }
            Occurrence::PhaseChange => {
                write!(f, "workload phase change at {:.0} s", self.time.as_secs())
            }
            Occurrence::Drained { group, count } => {
                write!(f, "drained {count} wedged replicas of {group}")
            }
            Occurrence::CommitFailed(e) => write!(f, "model op could not be committed: {e}"),
            Occurrence::StyleViolations(count) => {
                write!(f, "model has {count} style violations after commit")
            }
        }
    }
}

/// The primary element a runtime operation acts on, for the trace sink's
/// `subject` field.
fn runtime_op_subject(op: &RuntimeOp) -> &str {
    match op {
        RuntimeOp::CreateReqQueue { group } | RuntimeOp::DrainStuckServers { group, .. } => group,
        RuntimeOp::FindServer { client, .. }
        | RuntimeOp::MoveClient { client, .. }
        | RuntimeOp::RemosGetFlow { client, .. } => client,
        RuntimeOp::MoveClientGroup { to_group, .. } => to_group,
        RuntimeOp::ConnectServer { server, .. }
        | RuntimeOp::ActivateServer { server }
        | RuntimeOp::DeactivateServer { server } => server,
        RuntimeOp::DeleteGauge { gauge } | RuntimeOp::CreateGauge { gauge } => gauge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan() -> Arc<RepairPlan> {
        Arc::new(RepairPlan {
            invariant: "latency".into(),
            subject: "User3".into(),
            ops: Vec::new(),
            tactics: Vec::new(),
            description: "move User3 to ServerGrp2".into(),
        })
    }

    /// The quadratic pairing the legacy trace used: each start, in
    /// recording order, with the first end anywhere under its id.
    fn intervals_oracle(log: &RunLog) -> Vec<(SimTime, SimTime)> {
        let of = |started: bool| {
            log.entries.iter().filter_map(move |e| match &e.occurrence {
                Occurrence::RepairStarted(start) if started => Some((e.time, start.correlation)),
                Occurrence::RepairCompleted { correlation, .. } if !started => {
                    Some((e.time, *correlation))
                }
                _ => None,
            })
        };
        let mut intervals = Vec::new();
        for (start, correlation) in of(true) {
            if let Some((end, _)) = of(false).find(|&(_, c)| c == correlation) {
                intervals.push((start, end));
            }
        }
        intervals.sort_by_key(|a| a.0);
        intervals
    }

    fn mean_oracle(intervals: &[(SimTime, SimTime)]) -> Option<f64> {
        if intervals.is_empty() {
            return None;
        }
        let total: f64 = intervals.iter().map(|(s, e)| e.since(*s).as_secs()).sum();
        Some(total / intervals.len() as f64)
    }

    /// A log from `(what, correlation, time)` triples: 0 starts a repair,
    /// 1 ends one, anything else is a violation between them.
    fn generated(steps: &[(u8, u64, f64)]) -> RunLog {
        let mut log = RunLog::default();
        let key = Key::new("User3");
        for &(what, correlation, secs) in steps {
            let occurrence = match what {
                0 => Occurrence::RepairStarted(Box::new(RepairStart {
                    correlation,
                    plan: plan(),
                    batched: false,
                    runtime_ops: 4,
                    duration_secs: 30.0,
                })),
                1 => Occurrence::RepairCompleted {
                    correlation,
                    plan: plan(),
                },
                _ => Occurrence::Violation {
                    invariant: key,
                    subject: key,
                    detail: key,
                },
            };
            log.push(SimTime::from_secs(secs), occurrence);
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Unmatched starts, ends without a start, repeated ids and ends
        /// recorded before their start or out of time order: the linear
        /// fold returns the oracle's intervals bit for bit, and the same
        /// mean.
        #[test]
        fn the_interval_fold_pairs_like_the_quadratic_scan(
            steps in proptest::collection::vec((0u8..3, 0u64..6, 0.0f64..500.0), 0..40),
        ) {
            let log = generated(&steps);
            let expected = intervals_oracle(&log);
            let folded = log.repair_intervals();
            let bits = |v: &[(SimTime, SimTime)]| -> Vec<(u64, u64)> {
                v.iter()
                    .map(|(s, e)| (s.as_secs().to_bits(), e.as_secs().to_bits()))
                    .collect()
            };
            prop_assert_eq!(bits(&folded), bits(&expected));
            let mean = log.repair_stats().mean_duration_secs.map(f64::to_bits);
            prop_assert_eq!(mean, mean_oracle(&expected).map(f64::to_bits));
        }
    }

    #[test]
    fn layout_a_log_entry_is_five_words() {
        // 80 bytes while the rare occurrences held their payloads inline.
        assert!(std::mem::size_of::<LogEntry>() <= 40);
    }

    #[test]
    fn repair_stats_count_each_lifecycle_kind_once() {
        let mut log = generated(&[(0, 1, 10.0), (1, 1, 40.0), (0, 2, 50.0), (1, 2, 70.0)]);
        log.push(
            SimTime::from_secs(80.0),
            Occurrence::RepairAborted {
                invariant: "latency".into(),
                reason: "no spare server".into(),
            },
        );
        let stats = log.repair_stats();
        assert_eq!((stats.started, stats.completed, stats.aborted), (2, 2, 1));
        assert_eq!(stats.mean_duration_secs, Some(25.0));
        assert_eq!(log.count(EventKind::RepairStart), 2);
        assert!(generated(&[(0, 1, 10.0)]).repair_intervals().is_empty());
    }
}
