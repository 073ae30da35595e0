//! Who plans what under `plannedRepair`: the group planner has first claim on
//! a violation report, but only on one holding a violation it plans for
//! (`latency`, `bandwidth`, `serverLoad`); any other report is the
//! per-element engine's alone, and whatever the planner abstains from reaches
//! the engine in the same tick.
//!
//! Each planning attempt is one `phase.plan` span, so a sink that logs span
//! closes, violations and repair starts in arrival order shows, tick by
//! tick, who was asked: one span — the engine alone; two — the planner, then
//! the engine.

use arch_adapt::framework::{AdaptationFramework, FrameworkConfig};
use archmodel::Key;
use gridapp::{ExperimentSchedule, GridConfig};
use std::sync::{Arc, Mutex};
use tracestore::{EventKind, EventRef};

/// What one control period did, as far as routing goes.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tick {
    /// The invariant of every violation reported, in report order.
    violated: Vec<String>,
    /// `phase.plan` spans closed.
    plan_spans: usize,
    /// The detail (`invariant: description`) of every repair started.
    started: Vec<String>,
}

/// A trace sink and metrics sink in one, folding what arrives into [`Tick`]s:
/// the `phase.tick` span closes last in every control period.
#[derive(Default)]
struct RoutingLog {
    ticks: Mutex<(Vec<Tick>, Tick)>,
}

impl tracestore::TraceSink for RoutingLog {
    fn append(&self, event: EventRef<'_>) {
        let current = &mut self.ticks.lock().unwrap().1;
        match event.kind {
            EventKind::Violation => current.violated.push(event.detail.to_string()),
            EventKind::RepairStart => current.started.push(event.detail.to_string()),
            _ => {}
        }
    }
}

impl obs::MetricsSink for RoutingLog {
    fn add(&self, _: Key, _: u64) {}
    fn set_counter(&self, _: Key, _: u64) {}
    fn set_gauge(&self, _: Key, _: f64) {}
    fn observe_nanos(&self, key: Key, _: u64) {
        let (done, current) = &mut *self.ticks.lock().unwrap();
        match key.as_str() {
            "phase.plan" => current.plan_spans += 1,
            "phase.tick" => done.push(std::mem::take(current)),
            _ => {}
        }
    }
}

/// Every control period of a 600 s seed-42 `plannedRepair` run on the paper
/// testbed in which two of Server Group 1's replicas crash mid-run, under the
/// given workload.
fn planned_repair_ticks(schedule: Option<&ExperimentSchedule>) -> Vec<Tick> {
    let grid = GridConfig::default();
    let config = FrameworkConfig::by_name("plannedRepair").unwrap();
    let mut framework = AdaptationFramework::new(grid, config).unwrap();
    let log = Arc::new(RoutingLog::default());
    framework.set_trace_sink(log.clone());
    framework.set_metrics(log.clone());
    let faults = faultsim::fault_profile_by_name("server-crash-midrun", 600.0).unwrap();
    let compiled = faults
        .compile(framework.app().testbed(), grid.seed)
        .unwrap();
    framework.run_with_faults(600.0, schedule, Some(&compiled));
    let (ticks, _) = &*log.ticks.lock().unwrap();
    assert_eq!(ticks.len(), 120, "one record per 5 s control period");
    ticks.clone()
}

impl Tick {
    /// Whether the report held a violation the planner plans for.
    fn claimed(&self) -> bool {
        let claims = ["latency", "bandwidth", "serverLoad"];
        self.violated.iter().any(|v| claims.contains(&v.as_str()))
    }

    /// Whether a repair the planner batched started: its trace line names
    /// its tactics in brackets.
    fn batched(&self) -> bool {
        self.started.iter().any(|detail| detail.contains(": ["))
    }
}

/// No tick asks the planner about a report it has no claim on, and none
/// plans more than twice.
fn assert_routing_rule(ticks: &[Tick]) {
    for tick in ticks {
        let most = if tick.claimed() { 2 } else { 1 };
        assert!(tick.plan_spans <= most, "{tick:?}");
        assert!(tick.started.len() <= 1, "{tick:?}");
    }
}

#[test]
fn a_liveness_only_report_goes_straight_to_the_engine() {
    // A steady workload: the crash is the first thing to go wrong.
    let ticks = planned_repair_ticks(None);
    assert_routing_rule(&ticks);
    let first = ticks
        .iter()
        .find(|tick| !tick.violated.is_empty())
        .expect("the crash violates liveness");
    assert_eq!(first.violated, ["liveness"]);
    assert_eq!(first.plan_spans, 1, "the planner was not consulted");
    assert_eq!(first.started.len(), 1);
    let failover = &first.started[0];
    assert!(
        failover.starts_with("liveness: failed ServerGrp1 over"),
        "{failover}"
    );
}

#[test]
fn what_the_planner_abstains_from_reaches_the_engine_in_the_same_tick() {
    let grid = GridConfig::default();
    let ticks = planned_repair_ticks(Some(&ExperimentSchedule::figure7(&grid)));
    assert_routing_rule(&ticks);
    assert!(ticks.iter().any(Tick::batched), "the planner plans too");
    let fell_through = ticks
        .iter()
        .find(|tick| tick.plan_spans == 2 && !tick.started.is_empty())
        .expect("some tick plans through both");
    assert!(fell_through.claimed() && !fell_through.batched());
    assert_eq!(fell_through.started.len(), 1);
}
