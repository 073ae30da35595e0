//! Regression tests for the self-observability layer.
//!
//! Two invariants hold the design together:
//!
//! 1. **Metrics are pure observation.** Attaching a registry must not perturb
//!    the simulation: a metered sweep's outcomes, stripped of their counter
//!    sections, equal the unmetered sweep's outcomes, and an unmetered
//!    report's JSON carries no metrics keys at all (byte-identical to the
//!    pre-metrics layout).
//! 2. **The deterministic section is worker-count invariant.** Counters and
//!    gauges record simulation behaviour, never wall-clock, so a metered
//!    report is byte-identical at any worker count — the same gate the
//!    unmetered report has always had.

use arch_adapt::experiment::{run_observed, ExperimentConfig, Observers};
use arch_adapt::framework::FrameworkConfig;
use arch_adapt::sweep::{run_sweep, SweepSpec};
use gridapp::{ExperimentSchedule, GridConfig};
use tracestore::EventKind;

fn small_spec(collect_metrics: bool) -> SweepSpec {
    SweepSpec {
        topologies: vec!["paper".to_string()],
        workloads: vec!["figure7".to_string(), "step".to_string()],
        strategies: vec!["adaptive".to_string()],
        durations_secs: vec![60.0],
        seeds: vec![42, 7],
        fault_profiles: vec!["none".to_string()],
        collect_metrics,
        detectors: false,
    }
}

/// Metering must not perturb the simulation: strip the counters off a
/// metered report and it equals the unmetered report exactly.
#[test]
fn metered_sweep_equals_unmetered_sweep_modulo_counters() {
    let unmetered = run_sweep(&small_spec(false), 2).unwrap();
    let metered = run_sweep(&small_spec(true), 2).unwrap();
    assert_eq!(unmetered.cells.len(), metered.cells.len());
    for (plain, observed) in unmetered.cells.iter().zip(&metered.cells) {
        for (plain, observed) in plain.outcomes.iter().zip(&observed.outcomes) {
            assert!(observed.control_counters.is_some());
            assert!(observed.adaptive_counters.is_some());
            let mut stripped = observed.clone();
            stripped.control_counters = None;
            stripped.adaptive_counters = None;
            assert_eq!(plain, &stripped);
        }
    }
}

/// The metered report's JSON — counter sections included — is byte-identical
/// regardless of worker count: every counter records simulation behaviour,
/// never scheduling or wall-clock.
#[test]
fn metered_sweep_report_is_invariant_under_worker_count() {
    let spec = small_spec(true);
    let serial = run_sweep(&spec, 1).unwrap();
    let parallel = run_sweep(&spec, 4).unwrap();
    assert_eq!(&serial, &parallel);
    assert_eq!(serial.to_json_string(), parallel.to_json_string());
}

/// With metrics off (the default), no metrics key appears anywhere in the
/// report JSON: the layout is byte-identical to the pre-metrics harness.
#[test]
fn unmetered_report_carries_no_metrics_keys() {
    let json = run_sweep(&small_spec(false), 2).unwrap().to_json_string();
    assert!(!json.contains("collect_metrics"));
    assert!(!json.contains("control_counters"));
    assert!(!json.contains("adaptive_counters"));
}

fn observed_run(
    metrics: obs::SharedMetrics,
) -> (
    arch_adapt::experiment::RunResult,
    Vec<tracestore::TraceEvent>,
) {
    let grid = GridConfig::default();
    let schedule = ExperimentSchedule::by_name("figure7", &grid, 200.0).unwrap();
    let (buffer, sink) = tracestore::shared_buffer();
    let result = run_observed(
        "adaptive",
        ExperimentConfig {
            grid,
            framework: FrameworkConfig::default(),
            duration_secs: 200.0,
        },
        Some(&schedule),
        None,
        Observers { sink, metrics },
    )
    .unwrap();
    (result, buffer.take())
}

/// A metered traced run samples the registry at the fixed sim-time cadence:
/// `EventKind::Metric` events appear in the stream, carry deterministic
/// values, and vanish entirely when the `NullRegistry` is attached.
#[test]
fn metric_snapshot_events_follow_the_registry() {
    let (_, registry_handle) = obs::shared_registry();
    let (metered_result, metered_events) = observed_run(registry_handle);
    let metric_events: Vec<_> = metered_events
        .iter()
        .filter(|e| e.kind == EventKind::Metric)
        .collect();
    assert!(
        !metric_events.is_empty(),
        "a 200 s metered run crosses the {} s snapshot cadence",
        arch_adapt::METRIC_SNAPSHOT_PERIOD_SECS
    );
    assert!(metric_events
        .iter()
        .all(|e| &*e.detail == "counter" || &*e.detail == "gauge"));
    assert!(metric_events
        .iter()
        .any(|e| &*e.subject == "framework.ticks" && e.value.is_some()));

    let (null_result, null_events) = observed_run(obs::null_metrics());
    assert!(null_events.iter().all(|e| e.kind != EventKind::Metric));
    // Beyond the metric samples, the two event streams and summaries are
    // identical: observation never perturbs the run.
    let non_metric: Vec<_> = metered_events
        .iter()
        .filter(|e| e.kind != EventKind::Metric)
        .cloned()
        .collect();
    assert_eq!(non_metric, null_events);
    assert_eq!(metered_result.summary, null_result.summary);
}
