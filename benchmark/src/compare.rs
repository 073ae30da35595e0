//! `gridbench compare A.json.. -- B.json..`: medians per set, the table's
//! bounds, one row per workload × metric, and a non-zero exit on a breach.
//! The files are what `gridbench run --out` / `gridbench trace --out` write.

use crate::jsonio::read_json;
use crate::metrics::{Kind, END_TO_END, FAIL_SHARE, PER_LAYER};
use crate::stats;
use crate::workload::Workload;
use serde_json::Value;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A set's own quartile spread exceeds the bound, and the sets overlap.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a lower-is-better metric: `reference` runs against `candidate` runs,
/// allowed to worsen by `bound` of the reference median plus `slack`.
pub fn judge(reference: &[f64], candidate: &[f64], bound: f64, slack: f64) -> Option<Verdict> {
    let (ref_median, cand_median) = (stats::median(reference)?, stats::median(candidate)?);
    let allowed = bound * ref_median + slack;
    let too_wide = |set: &[f64], median: f64| {
        stats::quartiles(set).is_some_and(|(q1, q3)| q3 - q1 > bound * median + slack)
    };
    if too_wide(reference, ref_median) || too_wide(candidate, cand_median) {
        let max = |set: &[f64]| set.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |set: &[f64]| set.iter().copied().fold(f64::INFINITY, f64::min);
        // Only a clean separation resolves a metric this noisy.
        return Some(if max(candidate) < min(reference) {
            Verdict::Better
        } else if min(candidate) > max(reference) + allowed {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        });
    }
    Some(if cand_median > ref_median + allowed {
        Verdict::Worse
    } else if cand_median < ref_median - allowed {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

fn metric_values(files: &[Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| f["workloads"][workload][section]["metrics"][metric]["value"].as_f64())
        .collect()
}

fn fail_shares(files: &[Value], workload: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            let entry = &f["workloads"][workload]["end_to_end"];
            let attempted = entry["attempted"].as_f64()?;
            Some(entry["failed"].as_f64()? / attempted.max(1.0))
        })
        .collect()
}

/// Prints the table; `Ok(true)` when nothing is worse and no counter differs.
pub fn compare(reference: &[PathBuf], candidate: &[PathBuf]) -> Result<bool, String> {
    let load = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|p| read_json(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (reference, candidate) = (load(reference)?, load(candidate)?);
    let mut clean = true;
    println!(
        "{:<16} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "reference", "candidate", "change", "bound"
    );
    for workload in Workload::ALL {
        let name = workload.name();
        for metric in END_TO_END {
            let a = metric_values(&reference, name, "end_to_end", metric.name);
            let b = metric_values(&candidate, name, "end_to_end", metric.name);
            let Some(verdict) = judge(&a, &b, metric.bound, metric.slack) else {
                continue;
            };
            let (ma, mb) = (
                stats::median(&a).expect("judged"),
                stats::median(&b).expect("judged"),
            );
            println!(
                "{name:<16} {:<30} {ma:>14.6} {mb:>14.6} {:>+8.1}% {:>6.0}%  {}",
                format!("{} [{}]", metric.name, metric.unit),
                (mb / ma - 1.0) * 100.0,
                metric.bound * 100.0,
                verdict.name()
            );
            clean &= verdict != Verdict::Worse;
        }
        let (a, b) = (fail_shares(&reference, name), fail_shares(&candidate, name));
        if let (Some(ma), Some(mb)) = (
            a.iter().copied().reduce(f64::max),
            b.iter().copied().reduce(f64::max),
        ) {
            // Bound 0, absolute: any failed operation is a breach.
            let verdict = if mb > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Same
            };
            println!(
                "{name:<16} {:<30} {ma:>14.6} {mb:>14.6} {:>9} {:>7}  {}",
                format!("{FAIL_SHARE} [failed/attempted]"),
                "",
                "0 abs",
                verdict.name()
            );
            clean &= verdict != Verdict::Worse;
        }
        // Deterministic counters repeat exactly between traced files.
        for metric in PER_LAYER.iter().filter(|m| m.kind == Kind::Counter) {
            let mut values = metric_values(&reference, name, "per_layer", metric.name);
            values.extend(metric_values(&candidate, name, "per_layer", metric.name));
            if values.len() >= 2 && values.iter().any(|v| *v != values[0]) {
                println!(
                    "{name:<16} {:<30} counter differs between traced files: {values:?}",
                    metric.name
                );
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let reference = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&reference, &[10.2, 10.3, 10.1], 0.10, 0.0),
            Some(Verdict::Same)
        );
        assert_eq!(
            judge(&reference, &[11.5, 11.6, 11.4], 0.10, 0.0),
            Some(Verdict::Worse)
        );
        assert_eq!(
            judge(&reference, &[8.0, 8.1, 7.9], 0.10, 0.0),
            Some(Verdict::Better)
        );
        // A set whose own spread exceeds the bound resolves only when the
        // sets do not overlap.
        let noisy = [8.0, 10.0, 12.5];
        assert_eq!(
            judge(&noisy, &[9.0, 10.5, 12.0], 0.10, 0.0),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(&noisy, &[5.0, 6.0, 7.0], 0.10, 0.0),
            Some(Verdict::Better)
        );
        assert_eq!(
            judge(&noisy, &[15.0, 16.0, 19.0], 0.10, 0.0),
            Some(Verdict::Worse)
        );
        // The absolute slack keeps a millisecond set-up from breaching.
        assert_eq!(judge(&[0.030], &[0.045], 0.25, 0.1), Some(Verdict::Same));
        assert_eq!(judge(&[], &[1.0], 0.10, 0.0), None);
    }
}
