//! The trace sink's allocation budget: heap allocations an enabled
//! `BufferSink` adds to a whole run, per event it is handed, on the paper
//! preset (seed 42, the `step` schedule, 300 s, detectors on, a metrics
//! registry attached). The same run is counted twice, once with `NullSink`
//! and once with a `BufferSink`, after an uncounted warm-up run that interns
//! every name either would; the difference is what the sink path costs. Like
//! gridapp's `monitor_alloc_budget.rs`, whose counting allocator it shares,
//! the count is a deterministic work counter: the same on every host.
//!
//! Measured with this file on the commit before events were borrowed
//! (a19d7a5): 12,667 − 7,485 = 5,182 allocations for 2,559 events, 2.03 per
//! event — the two owned `String`s of every `TraceEvent` (1,489 gauge
//! readings and 779 transfer completions among them), the metric snapshots'
//! names, and the growth of the event vector. Since then: 7,574 − 7,485 =
//! 89 allocations, 0.03 per event (the same in release) — the growth of the
//! run buffer's segment, per-kind offset and checkpoint vectors, the two
//! `Vec`s of each 60 s metric snapshot, and the reused detail buffer that
//! advisories and repair starts are formatted into.

use arch_adapt::experiment::{run_observed, ExperimentConfig, Observers};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

/// Allocations per appended event the sink path may add. One `String` per
/// event reads ≈1; the owned `TraceEvent` of the parent read 2.00.
const CEILING_PER_EVENT: f64 = 0.05;

const DURATION_SECS: f64 = 300.0;

/// Allocations made by one observed run that appends to `sink`.
fn allocations(sink: tracestore::SharedSink) -> u64 {
    let grid = GridConfig::default();
    assert_eq!(grid.seed, 42);
    let framework = FrameworkConfig {
        detectors: Some(detect::DetectorConfig::default()),
        ..FrameworkConfig::by_name("adaptive").expect("strategy resolves")
    };
    let schedule = ExperimentSchedule::step(&grid, DURATION_SECS);
    let (_registry, metrics) = obs::shared_registry();
    let config = ExperimentConfig {
        grid,
        framework,
        duration_secs: DURATION_SECS,
    };
    counted(|| {
        let observers = Observers { sink, metrics };
        run_observed("adaptive", config, Some(&schedule), None, observers).expect("run succeeds");
    })
}

#[test]
fn an_enabled_sink_allocates_next_to_nothing_per_event() {
    allocations(tracestore::shared_buffer().1);
    let off = allocations(tracestore::null_sink());
    let (buffer, sink) = tracestore::shared_buffer();
    let on = allocations(sink);
    let events = buffer.len();

    assert!(events > 1_000, "only {events} events appended");
    let added = on as f64 - off as f64;
    let per_event = added / events as f64;
    println!("{on} - {off} = {added} allocations / {events} events = {per_event:.2}");
    assert!(
        per_event <= CEILING_PER_EVENT,
        "an enabled sink added {added} allocations for {events} events: {per_event:.2} per event \
         exceeds the ceiling of {CEILING_PER_EVENT}"
    );
}
