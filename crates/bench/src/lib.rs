//! Shared helpers for the benchmark harness.
//!
//! Each target in `benches/` is a plain program (`harness = false`) that
//! regenerates one figure, table or ablation of the HPDC'02 paper, or runs a
//! scale or overhead gate: it performs the experiment once, prints what the
//! paper reports, and panics if a gate fails. `cargo bench --bench <name>`
//! runs one; timing the framework is the `gridbench` benchmark's job.

use arch_adapt::experiment::{run_observed, ExperimentConfig, RunResult};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig};

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
