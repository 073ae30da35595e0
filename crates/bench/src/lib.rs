//! Shared helpers for the benchmark harness.
//!
//! Each Criterion bench in `benches/` regenerates one figure or table of the
//! HPDC'02 paper: it performs the full experiment once and prints the series
//! the paper reports (so `cargo bench` reproduces the evaluation), and it
//! registers a reduced-size Criterion measurement so run-to-run performance of
//! the framework itself can be tracked.

use arch_adapt::experiment::{run_observed, ExperimentConfig, RunResult};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig};
use simnet::TimeSeries;

/// Duration of the paper's experiment runs (seconds).
pub const FULL_RUN_SECS: f64 = 1800.0;
/// Duration used for the Criterion-measured reduced runs (seconds).
pub const SHORT_RUN_SECS: f64 = 180.0;

/// Runs one experiment under the Figure 7 workload.
pub fn run_figure7(label: &str, framework: FrameworkConfig, duration_secs: f64) -> RunResult {
    let grid = GridConfig::default();
    let schedule = ExperimentSchedule::figure7(&grid);
    let config = ExperimentConfig {
        grid,
        framework,
        duration_secs,
    };
    let result = run_observed(label, config, Some(&schedule), None, Default::default());
    result.expect("experiment runs")
}

/// Prints a series the way the paper's figures report it: one row per sample
/// (downsampled), log-friendly values.
pub fn print_series(figure: &str, subject: &str, unit: &str, series: &TimeSeries) {
    println!("[{figure}] {subject} ({unit})");
    if series.is_empty() {
        println!("  (no observations)");
        return;
    }
    for (t, v) in series.downsample(24).iter() {
        println!("  t={t:7.1}s  {v:14.5}");
    }
}

/// Prints the standard three-figure set (latency / queue length / bandwidth)
/// for a run.
pub fn print_run_figures(run: &RunResult, latency_fig: &str, queue_fig: &str, bandwidth_fig: &str) {
    for client in run.metrics.clients() {
        if let Some(series) = run.metrics.latency_series(&client) {
            print_series(latency_fig, &client, "s", series);
        }
    }
    for group in run.metrics.groups() {
        if let Some(series) = run.metrics.queue_series(&group) {
            print_series(queue_fig, &group, "requests", series);
        }
    }
    for client in run.metrics.clients() {
        if let Some(series) = run.metrics.bandwidth_series(&client) {
            print_series(bandwidth_fig, &client, "bps", series);
        }
    }
    println!(
        "[{latency_fig}] summary: {:.1}% of requests above the {:.0} s bound, first violation {:?}",
        run.summary.fraction_latency_above_bound * 100.0,
        run.latency_bound_secs,
        run.summary.first_violation_secs
    );
    if run.summary.repairs_started > 0 {
        println!(
            "[{latency_fig}] repairs: {} completed (mean {:.1} s), {} client moves, {} servers activated, intervals {:?}",
            run.summary.repairs_completed,
            run.summary.mean_repair_duration_secs.unwrap_or(0.0),
            run.summary.client_moves,
            run.summary.servers_activated,
            run.repair_intervals
        );
    }
}

/// Whether the full 1800 s figure reproduction should run (skipped when the
/// `BENCH_QUICK` environment variable is set, to keep CI turnaround short).
pub fn full_figures_enabled() -> bool {
    std::env::var("BENCH_QUICK").is_err()
}

/// The figure-reproduction duration honouring `BENCH_QUICK`.
pub fn figure_duration() -> f64 {
    if full_figures_enabled() {
        FULL_RUN_SECS
    } else {
        600.0
    }
}
