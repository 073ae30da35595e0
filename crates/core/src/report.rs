//! Rendering experiment results in the shape of the paper's figures.
//!
//! The harness does not plot; it prints the same series the figures show
//! (time on the x axis, latency / queue length / bandwidth on a log-scale y
//! axis) as text tables and serialises the full results to JSON so they can
//! be plotted or diffed externally.

use crate::experiment::{Comparison, RunResult};
use crate::sweep::SweepReport;

use simnet::TimeSeries;

/// How many rows to print per series (series are downsampled to this length).
pub const REPORT_POINTS: usize = 30;

fn render_series(title: &str, series: &TimeSeries, unit: &str) -> String {
    let mut out = format!("  {title} ({unit})\n");
    if series.is_empty() {
        out.push_str("    (no observations)\n");
        return out;
    }
    for (t, v) in series.downsample(REPORT_POINTS).iter() {
        out.push_str(&format!("    t={t:7.1}s  {v:12.4}\n"));
    }
    out
}

/// Renders one run the way the paper's figures present it: per-client
/// latency, per-group queue length, per-client bandwidth, plus the repair
/// intervals.
pub fn render_run(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("== Run: {} ==\n", result.label));
    let s = &result.summary;
    out.push_str(&format!(
        "  fraction of requests above {:.1}s bound: {:.3}\n",
        result.latency_bound_secs, s.fraction_latency_above_bound
    ));
    if let Some(first) = s.first_violation_secs {
        out.push_str(&format!("  first violation at t={first:.1}s\n"));
    }
    out.push_str(&format!(
        "  repairs: {} started, {} completed, {} aborted",
        s.repairs_started, s.repairs_completed, s.repairs_aborted
    ));
    if let Some(mean) = s.mean_repair_duration_secs {
        out.push_str(&format!(", mean duration {mean:.1}s"));
    }
    out.push('\n');
    out.push_str(&format!(
        "  servers activated: {}, client moves: {}\n",
        s.servers_activated, s.client_moves
    ));
    if !result.repair_intervals.is_empty() {
        out.push_str("  repair intervals (s): ");
        for (start, end) in &result.repair_intervals {
            out.push_str(&format!("[{start:.0}-{end:.0}] "));
        }
        out.push('\n');
    }

    out.push_str("-- Average latency (Figures 8/11) --\n");
    for client in result.metrics.clients() {
        if let Some(series) = result.metrics.latency_series(&client) {
            out.push_str(&render_series(&client, series, "s"));
        }
    }
    out.push_str("-- Server load / queue length (Figures 9/13) --\n");
    for group in result.metrics.groups() {
        if let Some(series) = result.metrics.queue_series(&group) {
            out.push_str(&render_series(&group, series, "requests"));
        }
    }
    out.push_str("-- Available bandwidth (Figures 10/12) --\n");
    for client in result.metrics.clients() {
        if let Some(series) = result.metrics.bandwidth_series(&client) {
            out.push_str(&render_series(&client, series, "bps"));
        }
    }
    out
}

/// Renders the control/adaptive comparison headline.
pub fn render_comparison(comparison: &Comparison) -> String {
    let mut out = String::new();
    out.push_str("== Control vs. adaptive (paper §5.2) ==\n");
    out.push_str(&format!(
        "  control : {:.1}% of requests above the bound, first violation at {:?} s\n",
        comparison.control.summary.fraction_latency_above_bound * 100.0,
        comparison.control.summary.first_violation_secs
    ));
    out.push_str(&format!(
        "  adaptive: {:.1}% of requests above the bound, {} repairs (mean {:.1} s)\n",
        comparison.adaptive.summary.fraction_latency_above_bound * 100.0,
        comparison.adaptive.summary.repairs_completed,
        comparison
            .adaptive
            .summary
            .mean_repair_duration_secs
            .unwrap_or(0.0)
    ));
    if let Some(ratio) = comparison.violation_improvement() {
        out.push_str(&format!(
            "  improvement: {ratio:.1}x fewer bound violations\n"
        ));
    } else {
        out.push_str("  improvement: adaptive run never exceeded the bound\n");
    }
    out
}

/// Renders a sweep report as a per-cell text table: one row per matrix cell
/// with the violation fractions, the improvement interval, and the repair
/// counts aggregated across seeds. When any cell injects faults the table
/// grows a fault column plus availability and MTTR resilience columns; the
/// no-fault layout is unchanged.
pub fn render_sweep(report: &SweepReport) -> String {
    let with_faults = report.cells.iter().any(|cell| cell.key.has_faults());
    // Metered sweeps (`--metrics`) grow three deterministic-counter columns
    // from the adaptive run; unmetered reports keep their historical layout.
    let with_metrics = report
        .cells
        .iter()
        .any(|cell| cell.outcomes.iter().any(|o| o.adaptive_counters.is_some()));
    // Mean of one named adaptive-run counter across a cell's seeds.
    let mean_counter = |cell: &crate::sweep::CellReport, name: &str| -> Option<f64> {
        let values: Vec<f64> = cell
            .outcomes
            .iter()
            .filter_map(|o| o.adaptive_counters.as_ref())
            .filter_map(|counters| {
                counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v as f64)
            })
            .collect();
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    };
    let fmt_counter = |value: Option<f64>| value.map_or("n/a".to_string(), |v| format!("{v:.0}"));
    // Detector-enabled sweeps (`--detectors`) grow two advisory columns from
    // the adaptive run; detector-off reports keep their historical layout.
    let with_detectors = report
        .cells
        .iter()
        .any(|cell| cell.outcomes.iter().any(|o| o.adaptive_detect.is_some()));
    // Mean adaptive-run advisory count and median lead across a cell's
    // seeds (lead averaged over the seeds where anything paired).
    let detect_columns = |cell: &crate::sweep::CellReport| -> (Option<f64>, Option<f64>) {
        let advisories: Vec<f64> = cell
            .outcomes
            .iter()
            .filter_map(|o| o.adaptive_detect.as_ref())
            .map(|d| d.advisories as f64)
            .collect();
        let leads: Vec<f64> = cell
            .outcomes
            .iter()
            .filter_map(|o| o.adaptive_detect.as_ref())
            .filter_map(|d| d.median_lead_secs)
            .collect();
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        (mean(&advisories), mean(&leads))
    };
    let mut out = String::new();
    out.push_str(&format!(
        "== Scenario sweep: {} cells, {} runs ({} seeds each) ==\n",
        report.cells.len(),
        report.total_units,
        report.spec.seeds.len()
    ));
    out.push_str(&format!(
        "  {:<16} {:<12} {:<16} {:>6}  {:>10} {:>10}  {:>18}  {:>8} {:>8}",
        "topology",
        "workload",
        "strategy",
        "dur(s)",
        "ctrl-viol",
        "adpt-viol",
        "improvement",
        "thruput",
        "repairs"
    ));
    if with_faults {
        out.push_str(&format!(" {:<20} {:>6} {:>8}", "fault", "avail", "mttr(s)"));
    }
    if with_metrics {
        out.push_str(&format!(
            " {:>10} {:>8} {:>9}",
            "probe-slv", "epochs", "plan-ops"
        ));
    }
    if with_detectors {
        out.push_str(&format!(" {:>10} {:>8}", "advisories", "lead(s)"));
    }
    out.push('\n');
    for cell in &report.cells {
        let improvement = match &cell.improvement {
            Some(ci) if ci.count > 1 => {
                format!("{:.1}x [{:.1}, {:.1}]", ci.mean, ci.lo, ci.hi)
            }
            Some(ci) => format!("{:.1}x", ci.mean),
            None if !cell.perfect_adaptive_seeds.is_empty() => "perfect".to_string(),
            None => "n/a".to_string(),
        };
        let suffix = if cell.improvement.is_some() && !cell.perfect_adaptive_seeds.is_empty() {
            format!(" (+{} perfect)", cell.perfect_adaptive_seeds.len())
        } else {
            String::new()
        };
        let throughput = cell
            .throughput_ratio
            .map_or("n/a".to_string(), |t| format!("{:.2}x", t.mean));
        out.push_str(&format!(
            "  {:<16} {:<12} {:<16} {:>6.0}  {:>10.3} {:>10.3}  {:>18}  {:>8} {:>8.1}",
            cell.key.topology,
            cell.key.workload,
            cell.key.strategy,
            cell.key.duration_secs,
            cell.control_violation.mean,
            cell.adaptive_violation.mean,
            improvement,
            throughput,
            cell.repairs_completed.mean,
        ));
        if with_faults {
            let availability = cell
                .availability
                .map_or("n/a".to_string(), |a| format!("{:.2}", a.mean));
            let mttr = cell
                .mttr_secs
                .flatten()
                .map_or("n/a".to_string(), |m| format!("{:.0}", m.mean));
            out.push_str(&format!(
                " {:<20} {:>6} {:>8}",
                cell.key.fault, availability, mttr
            ));
        }
        if with_metrics {
            out.push_str(&format!(
                " {:>10} {:>8} {:>9}",
                fmt_counter(mean_counter(cell, "simnet.probe.solves")),
                fmt_counter(mean_counter(cell, "simnet.rate_epochs")),
                fmt_counter(mean_counter(cell, "framework.plan_ops")),
            ));
        }
        if with_detectors {
            let (advisories, lead) = detect_columns(cell);
            out.push_str(&format!(
                " {:>10} {:>8}",
                fmt_counter(advisories),
                lead.map_or("n/a".to_string(), |l| format!("{l:.1}")),
            ));
        }
        out.push_str(&suffix);
        out.push('\n');
    }
    out
}

/// Serialises a run (downsampled) to JSON for external plotting.
pub fn run_to_json(result: &RunResult) -> serde_json::Value {
    fn collect<'a>(
        names: Vec<String>,
        get: impl Fn(&str) -> Option<&'a TimeSeries>,
    ) -> Vec<(String, Vec<(f64, f64)>)> {
        names
            .into_iter()
            .filter_map(|name| {
                get(&name).map(|s| (name.clone(), s.downsample(200).iter().collect::<Vec<_>>()))
            })
            .collect()
    }
    let latency = collect(result.metrics.clients(), |c| {
        result.metrics.latency_series(c)
    });
    let queue = collect(result.metrics.groups(), |g| result.metrics.queue_series(g));
    let bandwidth = collect(result.metrics.clients(), |c| {
        result.metrics.bandwidth_series(c)
    });
    serde_json::json!({
        "label": result.label,
        "summary": result.summary,
        "repair_intervals": result.repair_intervals,
        "latency": latency.iter().map(|(n, p)| serde_json::json!({"name": n, "points": p})).collect::<Vec<_>>(),
        "queue_length": queue.iter().map(|(n, p)| serde_json::json!({"name": n, "points": p})).collect::<Vec<_>>(),
        "bandwidth": bandwidth.iter().map(|(n, p)| serde_json::json!({"name": n, "points": p})).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_observed, ExperimentConfig};
    use crate::framework::FrameworkConfig;
    use gridapp::{ExperimentSchedule, GridConfig};

    fn short_run() -> RunResult {
        let config = ExperimentConfig {
            grid: GridConfig::default(),
            framework: FrameworkConfig::control(),
            duration_secs: 200.0,
        };
        let schedule = ExperimentSchedule::figure7(&config.grid);
        run_observed("control", config, Some(&schedule), None, Default::default()).unwrap()
    }

    #[test]
    fn render_run_contains_all_figure_sections() {
        let run = short_run();
        let text = render_run(&run);
        assert!(text.contains("Average latency"));
        assert!(text.contains("Server load"));
        assert!(text.contains("Available bandwidth"));
        assert!(text.contains("User3"));
        assert!(text.contains("ServerGrp1"));
    }

    #[test]
    fn json_export_round_trips() {
        let run = short_run();
        let json = run_to_json(&run);
        assert_eq!(json["label"], "control");
        assert!(json["latency"].as_array().unwrap().len() >= 6);
        let text = serde_json::to_string(&json).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["label"], "control");
    }

    #[test]
    fn empty_series_is_handled() {
        let rendered = render_series("empty", &TimeSeries::new(), "s");
        assert!(rendered.contains("no observations"));
    }

    #[test]
    fn sweep_rendering_lists_every_cell() {
        let spec = crate::sweep::SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into(), "flash-crowd".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![60.0],
            seeds: vec![42],
            fault_profiles: vec!["none".into()],
            collect_metrics: false,
            detectors: false,
        };
        let report = crate::sweep::run_sweep(&spec, 1).unwrap();
        let text = render_sweep(&report);
        assert!(text.contains("Scenario sweep: 2 cells"));
        assert!(text.contains("step"));
        assert!(text.contains("flash-crowd"));
        assert!(text.contains("adaptive"));
    }

    #[test]
    fn fault_sweeps_render_resilience_columns() {
        let spec = crate::sweep::SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![60.0],
            seeds: vec![42],
            fault_profiles: vec!["single-link-cut".into()],
            collect_metrics: false,
            detectors: false,
        };
        let report = crate::sweep::run_sweep(&spec, 1).unwrap();
        let text = render_sweep(&report);
        assert!(text.contains("fault"));
        assert!(text.contains("avail"));
        assert!(text.contains("mttr(s)"));
        assert!(text.contains("single-link-cut"));
        // A no-fault sweep keeps the original header without fault columns.
        let none = crate::sweep::SweepSpec {
            fault_profiles: vec!["none".into()],
            collect_metrics: false,
            detectors: false,
            ..spec
        };
        let text = render_sweep(&crate::sweep::run_sweep(&none, 1).unwrap());
        assert!(!text.contains("avail"));
        assert!(!text.contains("mttr"));
    }

    #[test]
    fn comparison_rendering_mentions_both_runs() {
        // A short comparison; the real one is covered in experiment tests
        // and benches.
        let grid = GridConfig::default();
        let schedule = ExperimentSchedule::figure7(&grid);
        let cmp = Comparison::run_with(grid, FrameworkConfig::adaptive(), Some(&schedule), 150.0)
            .unwrap();
        let text = render_comparison(&cmp);
        assert!(text.contains("control"));
        assert!(text.contains("adaptive"));
    }
}
