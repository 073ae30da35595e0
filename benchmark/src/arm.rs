//! One arm of a control-vs-adaptive comparison, driven by hand through the
//! framework's public API so every step can be timed at its interface:
//! `AdaptationFramework::new` → `set_trace_sink` / `set_metrics` →
//! `run_with_faults` → `publish_metrics` → extract → drop.
//!
//! This mirrors `arch_adapt::experiment::run_observed`; the self-test below
//! checks that both paths yield the same `RunSummary`.

use arch_adapt::{AdaptationFramework, FrameworkConfig, RepairStats, RunSummary};
use gridapp::{AppError, ExperimentSchedule, GridConfig, Metrics};
use simnet::Summary;
use std::time::Instant;

/// One timed call into a layer: the span name and the interval it covered.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Step {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Everything one arm needs; the program receives only these values.
pub struct ArmInputs<'a> {
    pub label: &'a str,
    pub grid: GridConfig,
    pub config: FrameworkConfig,
    pub schedule: Option<&'a ExperimentSchedule>,
    pub faults: Option<&'a faultsim::FaultSchedule>,
    pub duration_secs: f64,
}

/// The observers attached to an arm. `quiet()` is the tracing-off pair.
pub struct Observers {
    pub sink: tracestore::SharedSink,
    pub metrics: obs::SharedMetrics,
    /// Time `repair::default_constraints().check(model)` after the run (the
    /// full-sweep cost the incremental checker avoids).
    pub full_check: bool,
}

impl Observers {
    pub fn quiet() -> Self {
        Observers {
            sink: tracestore::null_sink(),
            metrics: obs::null_metrics(),
            full_check: false,
        }
    }
}

/// What one arm produced and how long each step took.
pub struct Arm {
    pub summary: RunSummary,
    pub steps: Vec<Step>,
    /// Number of compiled fault actions injected.
    pub fault_actions: usize,
    /// Pairs evaluated by the post-run full constraint sweep, when asked for.
    pub full_check_pairs: usize,
}

impl Arm {
    /// The first step of that name.
    pub fn step(&self, name: &str) -> Option<&Step> {
        self.steps.iter().find(|s| s.name == name)
    }

    pub fn step_secs(&self, name: &str) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.name == name)
            .map(Step::secs)
            .sum()
    }
}

pub const STEP_NEW: &str = "core.framework_new";
pub const STEP_COMPILE: &str = "faultsim.compile";
pub const STEP_RUN: &str = "core.run";
pub const STEP_SUMMARISE: &str = "core.summarise";
pub const STEP_FULL_CHECK: &str = "archmodel.full_check";
pub const STEP_DROP: &str = "core.framework_drop";

fn timed<T>(steps: &mut Vec<Step>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    steps.push(Step {
        name,
        start,
        end: Instant::now(),
    });
    value
}

/// `arch_adapt::experiment::summarise`, which is private to the crate.
fn summarise(
    label: &str,
    grid: &GridConfig,
    duration_secs: f64,
    metrics: &Metrics,
    stats: &RepairStats,
) -> RunSummary {
    let bound = grid.max_latency_secs;
    let squeezed_client = format!("User{}", grid.testbed.first_squeezed_client());
    let pooled = metrics.pooled_latency();
    RunSummary {
        label: label.to_string(),
        duration_secs,
        fraction_latency_above_bound: metrics.fraction_latency_above(bound, 0.0, duration_secs),
        latency: Summary::of(&pooled),
        queue_sg1: metrics
            .queue_series(gridapp::SERVER_GROUP_1)
            .and_then(Summary::of),
        bandwidth_squeezed: metrics
            .bandwidth_series(&squeezed_client)
            .and_then(Summary::of),
        squeezed_client,
        first_violation_secs: pooled.first_time_above(bound),
        repairs_started: stats.started,
        repairs_completed: stats.completed,
        repairs_aborted: stats.aborted,
        mean_repair_duration_secs: stats.mean_duration_secs,
        servers_activated: stats.servers_activated,
        client_moves: stats.client_moves,
    }
}

/// Runs one arm to completion. Set-up is `STEP_NEW` + `STEP_COMPILE`, the
/// simulated time is `STEP_RUN`, and the rest is teardown.
pub fn drive_arm(inputs: &ArmInputs<'_>, observers: Observers) -> Result<Arm, AppError> {
    let mut steps = Vec::with_capacity(6);
    let mut framework = timed(&mut steps, STEP_NEW, || {
        AdaptationFramework::new(inputs.grid, inputs.config)
    })?;
    framework.set_trace_sink(observers.sink);
    framework.set_metrics(observers.metrics);
    let compiled = match inputs.faults {
        Some(faults) if !faults.is_empty() => Some(
            timed(&mut steps, STEP_COMPILE, || {
                faults.compile(framework.app().testbed(), inputs.grid.seed)
            })
            .map_err(|e| AppError::Invalid(e.to_string()))?,
        ),
        _ => None,
    };
    timed(&mut steps, STEP_RUN, || {
        framework.run_with_faults(inputs.duration_secs, inputs.schedule, compiled.as_ref())
    });
    let summary = timed(&mut steps, STEP_SUMMARISE, || {
        framework.publish_metrics();
        // The experiment driver clones the series and the trace into its
        // `RunResult`; the clones are part of what a comparison costs.
        let metrics = framework.metrics().clone();
        let trace = framework.trace().clone();
        let stats = framework.repair_stats();
        std::hint::black_box(trace.repair_intervals());
        summarise(
            inputs.label,
            &inputs.grid,
            inputs.duration_secs,
            &metrics,
            &stats,
        )
    });
    let full_check_pairs = if observers.full_check {
        timed(&mut steps, STEP_FULL_CHECK, || {
            repair::default_constraints()
                .check(framework.model())
                .evaluated
        })
    } else {
        0
    };
    timed(&mut steps, STEP_DROP, || drop(framework));
    Ok(Arm {
        summary,
        steps,
        fault_actions: compiled.map_or(0, |c| c.actions.len()),
        full_check_pairs,
    })
}

/// The control configuration of a comparison: the adaptive one with
/// adaptation disabled, exactly as `Comparison::run_with` derives it.
pub fn control_of(adaptive: FrameworkConfig) -> FrameworkConfig {
    FrameworkConfig {
        adaptation_enabled: false,
        ..adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_adapt::Comparison;

    #[test]
    fn hand_driven_arms_equal_comparison_run_with() {
        let grid = GridConfig::default();
        let config = FrameworkConfig::adaptive();
        let schedule = ExperimentSchedule::step(&grid, 300.0);
        let reference = Comparison::run_with(grid, config, Some(&schedule), 300.0).unwrap();
        for (label, config, expected) in [
            ("control", control_of(config), &reference.control.summary),
            ("adaptive", config, &reference.adaptive.summary),
        ] {
            let arm = drive_arm(
                &ArmInputs {
                    label,
                    grid,
                    config,
                    schedule: Some(&schedule),
                    faults: None,
                    duration_secs: 300.0,
                },
                Observers::quiet(),
            )
            .unwrap();
            assert_eq!(&arm.summary, expected, "{label} arm diverged");
        }
        assert!(reference.adaptive.summary.repairs_completed >= 1);
    }
}
