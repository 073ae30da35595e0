//! Reductions over query results.
//!
//! Aggregates work on [`QueryRow`]s — filter first with a
//! [`Query`](crate::query::Query), then reduce. Groups and per-run maps are
//! keyed by interned [`Key`]s: equal names are one key, compared by address,
//! and `Key`'s order is string order, so the same rows always aggregate to
//! the same output, in lexicographic group order.

use crate::event::EventKind;
use crate::query::QueryRow;
use archmodel::Key;
use simnet::quantile_of;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// How to reduce a group of events to one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Number of events.
    Count,
    /// Mean of the numeric payloads (events without one are skipped).
    Mean,
    /// Minimum payload.
    Min,
    /// Maximum payload.
    Max,
    /// Sum of payloads.
    Sum,
    /// 95th-percentile payload (nearest-rank, like the sweep reports).
    P95,
}

impl AggregateOp {
    /// Parses an op name (`count`, `mean`, `min`, `max`, `sum`, `p95`).
    pub fn by_name(name: &str) -> Option<AggregateOp> {
        match name {
            "count" => Some(AggregateOp::Count),
            "mean" => Some(AggregateOp::Mean),
            "min" => Some(AggregateOp::Min),
            "max" => Some(AggregateOp::Max),
            "sum" => Some(AggregateOp::Sum),
            "p95" => Some(AggregateOp::P95),
            _ => None,
        }
    }

    /// The op's query-facing name.
    pub fn name(self) -> &'static str {
        match self {
            AggregateOp::Count => "count",
            AggregateOp::Mean => "mean",
            AggregateOp::Min => "min",
            AggregateOp::Max => "max",
            AggregateOp::Sum => "sum",
            AggregateOp::P95 => "p95",
        }
    }
}

impl fmt::Display for AggregateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What to group rows by before reducing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupBy {
    /// One group for everything.
    #[default]
    None,
    /// Group by run id.
    Run,
    /// Group by event kind.
    Kind,
    /// Group by event subject.
    Subject,
    /// Group by event detail.
    Detail,
}

impl GroupBy {
    /// Parses a group-by name (`none`, `run`, `kind`, `subject`, `detail`).
    pub fn by_name(name: &str) -> Option<GroupBy> {
        match name {
            "none" => Some(GroupBy::None),
            "run" => Some(GroupBy::Run),
            "kind" => Some(GroupBy::Kind),
            "subject" => Some(GroupBy::Subject),
            "detail" => Some(GroupBy::Detail),
            _ => None,
        }
    }

    /// The group `row` falls in. The kind names and `"all"` are interned
    /// once per process, so no row takes the interner's lock.
    fn key(self, row: &QueryRow) -> Key {
        static ALL: OnceLock<Key> = OnceLock::new();
        static KINDS: OnceLock<[Key; EventKind::ALL.len()]> = OnceLock::new();
        match self {
            GroupBy::None => *ALL.get_or_init(|| Key::new("all")),
            GroupBy::Run => row.run_id,
            GroupBy::Kind => {
                let kinds = KINDS.get_or_init(|| EventKind::ALL.map(|k| Key::new(k.name())));
                kinds[usize::from(row.event.kind.code())]
            }
            GroupBy::Subject => row.event.subject,
            GroupBy::Detail => row.event.detail,
        }
    }
}

/// One aggregated group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// The group key (`"all"` when ungrouped).
    pub group: String,
    /// Number of events in the group.
    pub count: usize,
    /// The reduced value: the count for [`AggregateOp::Count`], otherwise
    /// the reduction of the numeric payloads — `None` when no event in the
    /// group carries one.
    pub value: Option<f64>,
}

/// Groups borrowed rows (a slice, or a filtered iterator over one) and
/// reduces each group; output is sorted by group key. A NaN payload is a
/// value like any other: [`AggregateOp::P95`] ranks it where
/// [`simnet::quantile_of`] does, `Min` and `Max` pass over it unless every
/// payload is NaN, and `Mean` and `Sum` of a group holding one are NaN.
pub fn aggregate_rows<'a>(
    rows: impl IntoIterator<Item = &'a QueryRow>,
    op: AggregateOp,
    group_by: GroupBy,
) -> Vec<AggregateRow> {
    // Per group: how many rows, and the payloads of those that carry one.
    // Consecutive rows mostly share a key (a run's rows are contiguous), so
    // a key equal to the previous row's is the same group with no lookup;
    // the index is asked only when the key moves.
    let mut index: BTreeMap<Key, usize> = BTreeMap::new();
    let mut groups: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut open: Option<(Key, usize)> = None;
    for row in rows {
        let key = group_by.key(row);
        let slot = match open {
            Some((last, slot)) if last == key => slot,
            _ => {
                let next = groups.len();
                let slot = *index.entry(key).or_insert(next);
                if slot == next {
                    groups.push((0, Vec::new()));
                }
                open = Some((key, slot));
                slot
            }
        };
        let (count, values) = &mut groups[slot];
        *count += 1;
        values.extend(row.event.value);
    }
    index
        .into_iter()
        .map(|(group, slot)| {
            let (count, values) = std::mem::take(&mut groups[slot]);
            let value = match op {
                AggregateOp::Count => Some(count as f64),
                AggregateOp::Mean => {
                    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
                }
                AggregateOp::Min => values.iter().copied().reduce(f64::min),
                AggregateOp::Max => values.iter().copied().reduce(f64::max),
                AggregateOp::Sum => (!values.is_empty()).then(|| values.iter().sum()),
                AggregateOp::P95 => quantile_of(&values, 0.95),
            };
            AggregateRow {
                group: group.to_string(),
                count,
                value,
            }
        })
        .collect()
}

/// Mean time to repair, per run: pairs each fault event with the first
/// `repair-end` event at or after it in the same run and averages the gaps.
/// Runs with no faults are omitted; runs whose faults never see a repair
/// complete report `count` faults and `value: None` (unrecovered). Repair
/// ends sort by [`f64::total_cmp`], which puts a NaN after +∞ (before −∞
/// when its sign bit is set); a NaN compares false with every time, so a
/// fault at NaN is never recovered and a repair end at NaN recovers nothing.
pub fn mttr_rows(rows: &[QueryRow]) -> Vec<AggregateRow> {
    // Per run: fault onset times and repair-end times.
    let mut by_run: BTreeMap<Key, [Vec<f64>; 2]> = BTreeMap::new();
    for row in rows {
        let slot = match row.event.kind {
            EventKind::Fault => 0,
            EventKind::RepairEnd => 1,
            _ => continue,
        };
        by_run.entry(row.run_id).or_default()[slot].push(row.event.time_secs);
    }
    by_run
        .into_iter()
        .filter(|(_, [faults, _])| !faults.is_empty())
        .map(|(run, [faults, mut ends])| {
            ends.sort_by(f64::total_cmp);
            let gaps: Vec<f64> = faults
                .iter()
                .filter_map(|onset| {
                    ends.iter()
                        .find(|end| **end >= *onset)
                        .map(|end| end - onset)
                })
                .collect();
            AggregateRow {
                group: run.to_string(),
                count: faults.len(),
                value: (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64),
            }
        })
        .collect()
}

/// One run's advisory→violation join: did the online detectors flag trouble
/// before the constraint checker did, and by how much?
#[derive(Debug, Clone, PartialEq)]
pub struct LeadTimeRow {
    /// The run id.
    pub run: String,
    /// Advisory events in the run.
    pub advisories: usize,
    /// Violation events in the run.
    pub violations: usize,
    /// Advisories followed by a violation on the same subject within the
    /// horizon — the detectors' true positives.
    pub matched_advisories: usize,
    /// Violations preceded (within the horizon) by an advisory on the same
    /// subject — the violations the detectors anticipated.
    pub anticipated_violations: usize,
    /// `matched_advisories / advisories` (`None` with no advisories).
    pub precision: Option<f64>,
    /// `anticipated_violations / violations` (`None` with no violations).
    pub recall: Option<f64>,
    /// Median of the matched advisories' lead times (first subsequent
    /// same-subject violation time minus advisory time).
    pub median_lead_secs: Option<f64>,
}

/// Median of an unsorted slice (mean of the middle two when even). Values
/// sort by [`f64::total_cmp`]: a NaN ranks above +∞ (below −∞ when its sign
/// bit is set), so the median is NaN only when a NaN lands in the middle.
pub fn median_of(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Joins advisories against subsequent violations on the same subject, per
/// run: an advisory matches the first violation at or after it on its
/// subject within `horizon_secs`. `rows` must contain both the advisory and
/// the violation events (query without a kind filter, or with both kinds).
/// Runs containing neither kind are omitted; output is sorted by run id.
/// Violation times sort by [`f64::total_cmp`] (a NaN after +∞, or before −∞
/// when its sign bit is set); an event at NaN time is counted but matches
/// nothing, since it compares false with every time.
pub fn leadtime_rows(rows: &[QueryRow], horizon_secs: f64) -> Vec<LeadTimeRow> {
    // Per run, per subject: advisory times and violation times.
    let mut by_run: BTreeMap<Key, BTreeMap<Key, [Vec<f64>; 2]>> = BTreeMap::new();
    for row in rows {
        let slot = match row.event.kind {
            EventKind::Advisory => 0,
            EventKind::Violation => 1,
            _ => continue,
        };
        let times = by_run.entry(row.run_id).or_default();
        times.entry(row.event.subject).or_default()[slot].push(row.event.time_secs);
    }
    by_run
        .into_iter()
        .map(|(run, subjects)| {
            let mut advisories = 0;
            let mut violations = 0;
            let mut matched_advisories = 0;
            let mut anticipated_violations = 0;
            let mut leads = Vec::new();
            for [advisory_times, mut violation_times] in subjects.into_values() {
                violation_times.sort_by(f64::total_cmp);
                advisories += advisory_times.len();
                violations += violation_times.len();
                for a in &advisory_times {
                    if let Some(v) = violation_times.iter().find(|v| **v >= *a) {
                        if v - a <= horizon_secs {
                            matched_advisories += 1;
                            leads.push(v - a);
                        }
                    }
                }
                for v in &violation_times {
                    if advisory_times
                        .iter()
                        .any(|a| *a <= *v && v - a <= horizon_secs)
                    {
                        anticipated_violations += 1;
                    }
                }
            }
            LeadTimeRow {
                run: run.to_string(),
                advisories,
                violations,
                matched_advisories,
                anticipated_violations,
                precision: (advisories > 0).then(|| matched_advisories as f64 / advisories as f64),
                recall: (violations > 0).then(|| anticipated_violations as f64 / violations as f64),
                median_lead_secs: median_of(&mut leads),
            }
        })
        .collect()
}

/// The canned root-cause report: for every fault event, the events of
/// `kind` (violations by default) within `window_secs` after it, across
/// runs — "violations within 10 s of each link-cut onset", grouped however
/// the caller asks. `rows` must contain the fault events *and* the
/// candidate events (i.e. query without a kind filter, or with both kinds).
pub fn near_fault_rows(
    rows: &[QueryRow],
    kind: EventKind,
    window_secs: f64,
    group_by: GroupBy,
) -> Vec<AggregateRow> {
    let mut onsets: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
    for row in rows.iter().filter(|row| row.event.kind == EventKind::Fault) {
        onsets
            .entry(row.run_id)
            .or_default()
            .push(row.event.time_secs);
    }
    let near = rows.iter().filter(|row| {
        let t = row.event.time_secs;
        row.event.kind == kind
            && onsets.get(&row.run_id).is_some_and(|run_onsets| {
                run_onsets
                    .iter()
                    .any(|onset| t >= *onset && t <= onset + window_secs)
            })
    });
    aggregate_rows(near, AggregateOp::Count, group_by)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn row(run: &str, event: TraceEvent) -> QueryRow {
        QueryRow {
            run_id: Key::new(run),
            event,
        }
    }

    fn sample_rows() -> Vec<QueryRow> {
        vec![
            row(
                "a",
                TraceEvent::new(10.0, EventKind::Fault, "R2-R3", "link cut"),
            ),
            row(
                "a",
                TraceEvent::new(12.0, EventKind::Violation, "C3", "minBandwidth"),
            ),
            row(
                "a",
                TraceEvent::new(25.0, EventKind::Violation, "C4", "minBandwidth"),
            ),
            row(
                "a",
                TraceEvent::new(14.0, EventKind::RepairEnd, "C3", "moveClient"),
            ),
            row(
                "b",
                TraceEvent::new(5.0, EventKind::Transfer, "C1", "SG1").with_value(0.5),
            ),
            row(
                "b",
                TraceEvent::new(6.0, EventKind::Transfer, "C2", "SG1").with_value(1.5),
            ),
            row(
                "b",
                TraceEvent::new(7.0, EventKind::Transfer, "C1", "SG2").with_value(2.5),
            ),
        ]
    }

    #[test]
    fn count_and_numeric_ops_group_deterministically() {
        let rows = sample_rows();
        let counts = aggregate_rows(&rows, AggregateOp::Count, GroupBy::Run);
        assert_eq!(counts.len(), 2);
        assert_eq!((counts[0].group.as_str(), counts[0].count), ("a", 4));
        assert_eq!((counts[1].group.as_str(), counts[1].count), ("b", 3));

        let means = aggregate_rows(&rows, AggregateOp::Mean, GroupBy::Subject);
        let c1 = means.iter().find(|r| r.group == "C1").unwrap();
        assert_eq!(c1.value, Some(1.5));
        // Groups whose events carry no payloads reduce to None.
        let c3 = means.iter().find(|r| r.group == "C3").unwrap();
        assert_eq!(c3.value, None);

        let p95 = aggregate_rows(&rows, AggregateOp::P95, GroupBy::None);
        assert_eq!(p95[0].value, Some(2.5));
        assert_eq!(
            aggregate_rows(&rows, AggregateOp::Sum, GroupBy::Kind)
                .iter()
                .find(|r| r.group == "transfer")
                .unwrap()
                .value,
            Some(4.5)
        );
    }

    #[test]
    fn mttr_pairs_faults_with_next_repair_end() {
        let rows = sample_rows();
        let mttr = mttr_rows(&rows);
        assert_eq!(mttr.len(), 1);
        assert_eq!(mttr[0].group, "a");
        assert_eq!(mttr[0].count, 1);
        assert_eq!(mttr[0].value, Some(4.0));

        // A fault with no completed repair counts but reports no value.
        let unrecovered = vec![row(
            "c",
            TraceEvent::new(1.0, EventKind::Fault, "R1", "node down"),
        )];
        let rows = mttr_rows(&unrecovered);
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[0].value, None);
    }

    #[test]
    fn leadtime_joins_advisories_with_subsequent_same_subject_violations() {
        let rows = vec![
            // C3: advisory 20 s before its violation — a true positive.
            row(
                "a",
                TraceEvent::new(100.0, EventKind::Advisory, "C3", "latency/ewma").with_value(3.2),
            ),
            row(
                "a",
                TraceEvent::new(120.0, EventKind::Violation, "C3", "maxLatency"),
            ),
            // C4: advisory with no subsequent violation — a false positive.
            row(
                "a",
                TraceEvent::new(50.0, EventKind::Advisory, "C4", "latency/ewma").with_value(2.1),
            ),
            // C5: violation nobody anticipated — a miss.
            row(
                "a",
                TraceEvent::new(200.0, EventKind::Violation, "C5", "maxLatency"),
            ),
            // Same subjects in another run stay separate.
            row(
                "b",
                TraceEvent::new(10.0, EventKind::Advisory, "C3", "latency/ph").with_value(9.0),
            ),
            row(
                "b",
                TraceEvent::new(14.0, EventKind::Violation, "C3", "maxLatency"),
            ),
        ];
        let lead = leadtime_rows(&rows, 60.0);
        assert_eq!(lead.len(), 2);
        let a = &lead[0];
        assert_eq!(a.run, "a");
        assert_eq!((a.advisories, a.violations), (2, 2));
        assert_eq!(a.matched_advisories, 1);
        assert_eq!(a.anticipated_violations, 1);
        assert_eq!(a.precision, Some(0.5));
        assert_eq!(a.recall, Some(0.5));
        assert_eq!(a.median_lead_secs, Some(20.0));
        let b = &lead[1];
        assert_eq!(b.median_lead_secs, Some(4.0));
        assert_eq!(b.precision, Some(1.0));
        assert_eq!(b.recall, Some(1.0));

        // The horizon bounds the join: shrink it and the C3 pair unmatches.
        let tight = leadtime_rows(&rows, 10.0);
        assert_eq!(tight[0].matched_advisories, 0);
        assert_eq!(tight[0].median_lead_secs, None);
        assert_eq!(tight[0].precision, Some(0.0));

        // An even number of leads reports the midpoint of the middle two.
        let mut leads = vec![30.0, 10.0, 20.0, 40.0];
        assert_eq!(median_of(&mut leads), Some(25.0));
        assert_eq!(median_of(&mut []), None);
    }

    #[test]
    fn near_fault_counts_only_events_inside_the_window() {
        let rows = sample_rows();
        let near = near_fault_rows(&rows, EventKind::Violation, 10.0, GroupBy::Subject);
        // C3's violation at 12 s is within 10 s of the 10 s fault; C4's at
        // 25 s is not.
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].group, "C3");
        assert_eq!(near[0].count, 1);
    }

    /// The per-row definition `aggregate_rows` is held to: one map lookup
    /// per row, whatever the row before it.
    fn aggregate_by_lookup<'a>(
        rows: impl IntoIterator<Item = &'a QueryRow>,
        op: AggregateOp,
        group_by: GroupBy,
    ) -> Vec<AggregateRow> {
        let mut groups: BTreeMap<String, Vec<&QueryRow>> = BTreeMap::new();
        for row in rows {
            groups
                .entry(group_by.key(row).to_string())
                .or_default()
                .push(row);
        }
        let mut out = Vec::new();
        for (group, rows) in groups {
            // Reduce each group alone: a one-group aggregate is no lookup.
            let mut one = aggregate_rows(rows, op, GroupBy::None);
            let mut row = one.pop().expect("a group has rows");
            row.group = group;
            out.push(row);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Rows in runs of one key and interleaved runs group exactly as a
        /// lookup per row keyed by the whole string groups them, for every
        /// op and grouping, and so does the near-fault report: equal names
        /// are one group whichever string each row's key was interned from.
        #[test]
        fn grouping_by_allocation_equals_a_lookup_per_row(
            raws in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..120),
            window in 0.0f64..30.0,
        ) {
            let runs = ["a", "b", "c"];
            let subjects = ["C1", "C2", "R1-R2"];
            let mut rows = Vec::new();
            for (i, &(x, y)) in raws.iter().enumerate() {
                let pick = |shift: u32| ((x >> shift) % 3) as usize;
                // Long stretches of one run, sometimes broken.
                let run = if x % 7 == 0 { pick(3) } else { (i / 20) % 3 };
                let kind = [EventKind::Fault, EventKind::Violation, EventKind::Transfer][pick(9)];
                let value = [None, Some(1.5), Some(f64::NAN), Some(-0.0), Some((y % 100) as f64)]
                    [((y >> 8) % 5) as usize];
                let mut event =
                    TraceEvent::new((y >> 16) as f64 % 200.0, kind, subjects[pick(5)], subjects[pick(7)]);
                event.value = value;
                rows.push(QueryRow { run_id: Key::new(runs[run]), event });
            }
            for group_by in [GroupBy::None, GroupBy::Run, GroupBy::Kind, GroupBy::Subject, GroupBy::Detail] {
                for op in [AggregateOp::Count, AggregateOp::Mean, AggregateOp::Min, AggregateOp::Max, AggregateOp::Sum, AggregateOp::P95] {
                    let got = format!("{:?}", aggregate_rows(&rows, op, group_by));
                    let want = format!("{:?}", aggregate_by_lookup(&rows, op, group_by));
                    proptest::prop_assert_eq!(got, want, "{:?} by {:?}", op, group_by);
                }
                let onsets: Vec<(&str, f64)> = rows
                    .iter()
                    .filter(|r| r.event.kind == EventKind::Fault)
                    .map(|r| (r.run_id.as_str(), r.event.time_secs))
                    .collect();
                let near = rows.iter().filter(|r| {
                    let t = r.event.time_secs;
                    r.event.kind == EventKind::Violation
                        && onsets.iter().any(|&(run, onset)| {
                            run == r.run_id.as_str() && t >= onset && t <= onset + window
                        })
                });
                proptest::prop_assert_eq!(
                    near_fault_rows(&rows, EventKind::Violation, window, group_by),
                    aggregate_by_lookup(near, AggregateOp::Count, group_by)
                );
            }
        }
    }

    #[test]
    fn op_and_group_names_parse() {
        for op in [
            AggregateOp::Count,
            AggregateOp::Mean,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Sum,
            AggregateOp::P95,
        ] {
            assert_eq!(AggregateOp::by_name(op.name()), Some(op));
        }
        assert_eq!(AggregateOp::by_name("median"), None);
        for (name, gb) in [
            ("none", GroupBy::None),
            ("run", GroupBy::Run),
            ("kind", GroupBy::Kind),
            ("subject", GroupBy::Subject),
            ("detail", GroupBy::Detail),
        ] {
            assert_eq!(GroupBy::by_name(name), Some(gb));
        }
        assert_eq!(GroupBy::by_name("cell"), None);
    }
}
