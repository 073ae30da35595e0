//! The experiment harness reproducing the paper's evaluation (§5).
//!
//! Two 30-minute runs are executed under the identical Figure 7 workload:
//! the *control* run with adaptation disabled (Figures 8–10) and the
//! *adaptive* run with the full framework (Figures 11–13). Both runs share
//! the same seed so the request/response sequences match, as in the paper.

use crate::framework::{AdaptationFramework, FrameworkConfig, RepairStats};
use crate::log::RunLog;
use faultsim::CompiledFaultSchedule;
use gridapp::{AppError, ExperimentSchedule, GridConfig, Metrics};
use serde::Serialize;
use simnet::Summary;

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// The application/workload parameters.
    pub grid: GridConfig,
    /// The framework parameters.
    pub framework: FrameworkConfig,
    /// Run length in simulated seconds (paper: 1800 s).
    pub duration_secs: f64,
}

/// Headline numbers extracted from one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// Label of the run (`"control"` / `"adaptive"`).
    pub label: String,
    /// Run length (seconds).
    pub duration_secs: f64,
    /// Fraction of completed requests whose latency exceeded the 2 s bound.
    pub fraction_latency_above_bound: f64,
    /// Pooled latency statistics over all clients.
    pub latency: Option<Summary>,
    /// Queue-length statistics for Server Group 1 (the loaded group).
    pub queue_sg1: Option<Summary>,
    /// Name of the first client on the squeezable R2 path (`"User3"` on the
    /// paper testbed), whose bandwidth [`bandwidth_squeezed`]
    /// (Self::bandwidth_squeezed) tracks.
    pub squeezed_client: String,
    /// Bandwidth statistics for the first squeezed client.
    pub bandwidth_squeezed: Option<Summary>,
    /// First time a latency observation exceeded the bound, if ever.
    pub first_violation_secs: Option<f64>,
    /// Number of repairs started / completed and related counters.
    pub repairs_started: u64,
    /// Repairs completed.
    pub repairs_completed: u64,
    /// Repairs aborted.
    pub repairs_aborted: u64,
    /// Mean repair duration (seconds), if any repair completed.
    pub mean_repair_duration_secs: Option<f64>,
    /// Servers activated over the run.
    pub servers_activated: u64,
    /// Client moves over the run.
    pub client_moves: u64,
}

/// The full outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Label of the run.
    pub label: String,
    /// Latency bound used for the headline fraction.
    pub latency_bound_secs: f64,
    /// The recorded figure series.
    pub metrics: Metrics,
    /// The run's log.
    pub trace: RunLog,
    /// Intervals during which a repair was executing (the bars at the top of
    /// Figures 11–13).
    pub repair_intervals: Vec<(f64, f64)>,
    /// The fault timeline the run applied, compiled against its own testbed;
    /// its `onsets` anchor the resilience metrics. Empty for fault-free runs.
    pub faults: CompiledFaultSchedule,
    /// Repair statistics.
    pub repair_stats: RepairStats,
    /// Time-weighted unserved demand at run end: the summed age (seconds)
    /// of every request still in flight. The violation fraction only counts
    /// *completed* requests, so a run whose group wedged mid-fault can
    /// report a clean fraction while carrying minutes of stranded work —
    /// this number exposes that.
    pub unserved_demand_secs: f64,
    /// Online-detector summary: advisory counts and the median advisory →
    /// violation lead time. `None` unless the run's
    /// [`FrameworkConfig::detectors`](crate::FrameworkConfig) was set.
    pub detect: Option<crate::DetectSummary>,
    /// Headline summary.
    pub summary: RunSummary,
}

fn summarise(
    label: &str,
    grid: &GridConfig,
    duration_secs: f64,
    metrics: &Metrics,
    stats: &RepairStats,
) -> RunSummary {
    let latency_bound = grid.max_latency_secs;
    let squeezed_client = format!("User{}", grid.testbed.first_squeezed_client());
    let pooled = metrics.pooled_latency();
    RunSummary {
        label: label.to_string(),
        duration_secs,
        fraction_latency_above_bound: metrics.fraction_latency_above(
            latency_bound,
            0.0,
            duration_secs,
        ),
        latency: Summary::of(&pooled),
        queue_sg1: metrics
            .queue_series(gridapp::SERVER_GROUP_1)
            .and_then(Summary::of),
        bandwidth_squeezed: metrics
            .bandwidth_series(&squeezed_client)
            .and_then(Summary::of),
        squeezed_client,
        first_violation_secs: pooled.first_time_above(latency_bound),
        repairs_started: stats.started,
        repairs_completed: stats.completed,
        repairs_aborted: stats.aborted,
        mean_repair_duration_secs: stats.mean_duration_secs,
        servers_activated: stats.servers_activated,
        client_moves: stats.client_moves,
    }
}

/// Where one run's observations go. The default is the null pair
/// ([`tracestore::null_sink`], [`obs::null_metrics`]): every emission site
/// short-circuits and nothing is recorded.
pub struct Observers {
    /// Receives every observation the run produces: gauge readings,
    /// violations, repair lifecycle, fault actions, transfer completions.
    pub sink: tracestore::SharedSink,
    /// Receives per-tick MAPE phase spans, framework counters and periodic
    /// component-counter snapshots, and is flushed once at end of run.
    pub metrics: obs::SharedMetrics,
}

impl Default for Observers {
    fn default() -> Self {
        Observers {
            sink: tracestore::null_sink(),
            metrics: obs::null_metrics(),
        }
    }
}

/// Runs one experiment under an optional workload schedule while injecting
/// an optional fault schedule, reporting to `observers`. The faults are
/// compiled against the run's own testbed with the run's seed, so a
/// `(config, schedule, faults)` triple is fully reproducible.
pub fn run_observed(
    label: &str,
    config: ExperimentConfig,
    schedule: Option<&ExperimentSchedule>,
    faults: Option<&faultsim::FaultSchedule>,
    observers: Observers,
) -> Result<RunResult, AppError> {
    let mut framework = AdaptationFramework::new(config.grid, config.framework)?;
    framework.set_trace_sink(observers.sink);
    framework.set_metrics(observers.metrics);
    let faults = match faults {
        Some(faults) => faults
            .compile(framework.app().testbed(), config.grid.seed)
            .map_err(|e| AppError::Invalid(e.to_string()))?,
        None => CompiledFaultSchedule::default(),
    };
    framework.run_with_faults(config.duration_secs, schedule, Some(&faults));
    // Flush the components' final counter values so a registry read after
    // the run sees the whole run, not just the last snapshot cadence.
    framework.publish_metrics();
    let unserved_demand_secs = framework.app().unserved_demand_secs();
    let metrics = framework.metrics().clone();
    let stats = framework.repair_stats();
    let detect = framework.detect_summary();
    let trace = framework.into_trace();
    let repair_intervals = trace
        .repair_intervals()
        .into_iter()
        .map(|(s, e)| (s.as_secs(), e.as_secs()))
        .collect();
    let summary = summarise(label, &config.grid, config.duration_secs, &metrics, &stats);
    Ok(RunResult {
        label: label.to_string(),
        latency_bound_secs: config.grid.max_latency_secs,
        metrics,
        trace,
        repair_intervals,
        faults,
        repair_stats: stats,
        unserved_demand_secs,
        detect,
        summary,
    })
}

/// The control/adaptive comparison the paper's evaluation is built on.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The control run.
    pub control: RunResult,
    /// The adaptive run.
    pub adaptive: RunResult,
}

impl Comparison {
    /// [`Comparison::run_observed`] with no faults and no observers.
    pub fn run_with(
        grid: GridConfig,
        adaptive: FrameworkConfig,
        schedule: Option<&ExperimentSchedule>,
        duration_secs: f64,
    ) -> Result<Comparison, AppError> {
        let unobserved = Default::default();
        Self::run_observed(grid, adaptive, schedule, None, duration_secs, unobserved)
    }

    /// Runs the control/adaptive pair under one workload schedule and one
    /// fault schedule with the same seed and duration. The control run uses
    /// the adaptive configuration with adaptation disabled, so the pair
    /// differs only in whether repairs execute. Each run reports to its own
    /// [`Observers`] (`[control, adaptive]`), so the two event streams and
    /// registries stay separable.
    pub fn run_observed(
        grid: GridConfig,
        adaptive: FrameworkConfig,
        schedule: Option<&ExperimentSchedule>,
        faults: Option<&faultsim::FaultSchedule>,
        duration_secs: f64,
        [control_observers, adaptive_observers]: [Observers; 2],
    ) -> Result<Comparison, AppError> {
        let control = FrameworkConfig {
            adaptation_enabled: false,
            ..adaptive
        };
        let run = |label, framework, observers| {
            let config = ExperimentConfig {
                grid,
                framework,
                duration_secs,
            };
            run_observed(label, config, schedule, faults, observers)
        };
        Ok(Comparison {
            control: run("control", control, control_observers)?,
            adaptive: run("adaptive", adaptive, adaptive_observers)?,
        })
    }

    /// How much less often the adaptive run exceeded the latency bound
    /// (control fraction divided by adaptive fraction; `None` when the
    /// adaptive run never exceeded it).
    pub fn violation_improvement(&self) -> Option<f64> {
        let adaptive = self.adaptive.summary.fraction_latency_above_bound;
        if adaptive <= 0.0 {
            return None;
        }
        Some(self.control.summary.fraction_latency_above_bound / adaptive)
    }
}

/// Parses the run-length argument of the example binaries: `default` when
/// the argument is absent, otherwise a positive, finite number of simulated
/// seconds. Anything else is an error naming the offending text — a typo
/// must not silently become the full default run, and a zero, negative, or
/// non-finite length would "succeed" with an empty one.
pub fn parse_duration_secs(arg: Option<&str>, default: f64) -> Result<f64, String> {
    let Some(text) = arg else {
        return Ok(default);
    };
    match text.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Ok(secs),
        _ => Err(format!(
            "invalid duration `{text}`: expected a positive number of simulated seconds"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_argument_is_validated_not_defaulted() {
        assert_eq!(parse_duration_secs(None, 1800.0), Ok(1800.0));
        assert_eq!(parse_duration_secs(Some("300"), 1800.0), Ok(300.0));
        for bad in ["3oo", "-5", "inf", "NaN", "0", ""] {
            let err = parse_duration_secs(Some(bad), 1800.0).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    /// A single shortened comparison shared by the assertions below (a full
    /// 1800 s pair of runs is exercised by the benches; 900 s covers the
    /// quiescent, squeeze, and half the stress phase).
    fn comparison() -> &'static Comparison {
        use std::sync::OnceLock;
        static COMPARISON: OnceLock<Comparison> = OnceLock::new();
        COMPARISON.get_or_init(|| {
            let grid = GridConfig::default();
            let schedule = ExperimentSchedule::figure7(&grid);
            let adaptive = FrameworkConfig::adaptive();
            Comparison::run_with(grid, adaptive, Some(&schedule), 900.0).unwrap()
        })
    }

    #[test]
    fn control_run_violates_and_never_recovers() {
        let control = &comparison().control;
        assert!(
            control.summary.fraction_latency_above_bound > 0.1,
            "the control run spends a substantial fraction above 2 s: {:?}",
            control.summary.fraction_latency_above_bound
        );
        assert!(control.summary.first_violation_secs.is_some());
        assert_eq!(control.summary.repairs_started, 0);
        // Latency keeps getting worse: the late-window mean exceeds the
        // early-window mean.
        let pooled = control.metrics.pooled_latency();
        let early = pooled.window(120.0, 400.0).mean().unwrap_or(0.0);
        let late = pooled.window(600.0, 900.0).mean().unwrap_or(0.0);
        assert!(late > early, "control latency worsens ({early} -> {late})");
    }

    #[test]
    fn adaptive_run_repairs_and_improves_on_control() {
        let cmp = comparison();
        let adaptive = &cmp.adaptive;
        assert!(adaptive.summary.repairs_completed >= 1);
        assert!(
            adaptive.summary.fraction_latency_above_bound
                < cmp.control.summary.fraction_latency_above_bound,
            "adaptive ({}) must beat control ({})",
            adaptive.summary.fraction_latency_above_bound,
            cmp.control.summary.fraction_latency_above_bound
        );
        assert!(!adaptive.repair_intervals.is_empty());
        // Repair durations are tens of seconds (the paper's ~30 s).
        let mean = adaptive.summary.mean_repair_duration_secs.unwrap();
        assert!((10.0..=90.0).contains(&mean), "mean repair duration {mean}");
    }

    #[test]
    fn both_runs_record_figure_series() {
        let cmp = comparison();
        for run in [&cmp.control, &cmp.adaptive] {
            assert!(run.metrics.latency_series("User3").is_some());
            assert!(run.metrics.queue_series(gridapp::SERVER_GROUP_1).is_some());
            assert!(run.metrics.bandwidth_series("User3").is_some());
            assert!(run.summary.latency.is_some());
            // On the paper testbed the first squeezed client is User3.
            assert_eq!(run.summary.squeezed_client, "User3");
            assert!(run.summary.bandwidth_squeezed.is_some());
        }
    }

    #[test]
    fn squeezed_client_follows_the_testbed_spec() {
        // On the wide-fanout preset four clients sit behind R1, so the first
        // squeezed (R2) client is User5.
        let grid = GridConfig::with_testbed(gridapp::TestbedSpec::wide_fanout());
        let config = ExperimentConfig {
            grid,
            framework: FrameworkConfig::control(),
            duration_secs: 60.0,
        };
        let schedule = ExperimentSchedule::figure7(&grid);
        let observers = Observers::default();
        let run = run_observed("control", config, Some(&schedule), None, observers).unwrap();
        assert_eq!(run.summary.squeezed_client, "User5");
        assert!(run.summary.bandwidth_squeezed.is_some());
    }

    #[test]
    fn improvement_ratio_is_reported() {
        let cmp = comparison();
        match cmp.violation_improvement() {
            Some(ratio) => assert!(ratio > 1.0, "improvement ratio {ratio}"),
            None => {
                // Perfect adaptive run: control must still have violations.
                assert!(cmp.control.summary.fraction_latency_above_bound > 0.0);
            }
        }
    }
}
