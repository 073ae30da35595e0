//! The adaptation framework: the three-layer architecture of Figure 1.
//!
//! The [`AdaptationFramework`] wires the layers together over simulated time:
//!
//! * **Runtime layer** — the grid application on the simulated testbed plus
//!   the probes observing it;
//! * **Model layer** — the architectural model, the gauges that interpret
//!   probe measurements as model properties, the constraint checker, and the
//!   repair engine;
//! * **Task layer** — the performance profile that parameterises the
//!   constraints.
//!
//! Every control period ([`AdaptationFramework::tick`]) is one pass through
//! the phases, each in its own module with the inputs and outputs its doc
//! names: Advance (the application moves to `t`; one flow snapshot), Monitor
//! (`monitor`: probes → gauges → readings → the model), Detect (`detector`:
//! readings → advisories) and — in an adaptive run — the repair half
//! (`repairs`): Check → Plan → Begin, then Commit → Execute through the
//! translator and the Table 1 runtime operators once the repair's priced
//! duration has passed.

use crate::detector::{DetectSummary, DetectorState};
use crate::log::{Occurrence, RunLog};
use crate::model::{build_model, ModelUpdater};
use crate::monitor::Monitor;
use crate::observe::Observer;
use crate::repairs::RepairLoop;
use crate::task::PerformanceProfile;
use archmodel::System;
use faultsim::{CompiledFaultSchedule, TimedAction};
use gridapp::{AppError, ExperimentSchedule, FlowSnapshot, GridApp, GridConfig, Metrics};
use repair::SelectionPolicy;
use simnet::SimTime;
use translator::RepairCostModel;

/// The built-in repair-strategy presets, in sweep-matrix order. Each
/// resolves through [`FrameworkConfig::by_name`] to an adaptive
/// configuration; the sweep harness derives the matching control run by
/// disabling adaptation on the same configuration. `plannedRepair` is the
/// group-level planner: symmetry-aware class probing plus batched
/// `moveClientGroup` / `rebalanceGroups` / `drainServer` tactics, with the
/// per-element engine as its fallback. [`strategy_names`] derives the name
/// list from this table.
pub static STRATEGY_REGISTRY: simnet::Registry<fn() -> FrameworkConfig> = simnet::Registry::new(
    "strategy",
    &[
        ("adaptive", FrameworkConfig::adaptive),
        ("bandwidth-first", FrameworkConfig::bandwidth_first),
        ("no-damping", FrameworkConfig::no_damping),
        ("qos-monitoring", FrameworkConfig::qos_monitoring),
        ("plannedRepair", FrameworkConfig::planned_repair),
    ],
);

/// Names of the built-in repair-strategy presets, in sweep-matrix order —
/// derived from [`STRATEGY_REGISTRY`], never maintained by hand.
pub fn strategy_names() -> &'static [&'static str] {
    STRATEGY_REGISTRY.names()
}

/// Configuration of the adaptation framework.
#[derive(Debug, Clone, Copy)]
pub struct FrameworkConfig {
    /// When false the framework only monitors (the paper's control run).
    pub adaptation_enabled: bool,
    /// Repair execution cost model.
    pub cost_model: RepairCostModel,
    /// Which outstanding violation to repair first.
    pub selection: SelectionPolicy,
    /// Optional repair damping window (seconds) to suppress oscillation.
    pub damping_secs: Option<f64>,
    /// When true, monitoring traffic is prioritised (QoS) and never delayed;
    /// otherwise it shares the congested network and its delivery delay
    /// grows as available bandwidth shrinks (§5.3).
    pub monitoring_qos: bool,
    /// Tactic-ordering ablation: try the bandwidth repair before the
    /// server-load repair.
    pub bandwidth_first: bool,
    /// When true, the group-level planner handles violations first —
    /// class-shared Remos probing, batched `moveClientGroup` /
    /// `rebalanceGroups` / `drainServer` plans — and the per-element engine
    /// only repairs what the planner abstains from (the `plannedRepair`
    /// preset).
    pub group_planner: bool,
    /// When true, the `underutilised` invariant is checked and routed to the
    /// `reduceServers` strategy, retiring replicas that failover or load
    /// repairs recruited once the group idles at more than its provisioned
    /// count (restart-aware cost reduction).
    pub cost_reduction: bool,
    /// Debug/test oracle: after every incremental constraint check, run a
    /// full sweep and assert the reports agree (violations, errors, and
    /// `evaluated + skipped` accounting). Off by default — it re-introduces
    /// the full-sweep cost the incremental checker exists to avoid.
    pub verify_constraint_check: bool,
    /// Online anomaly detection on the gauge streams: when set, a
    /// [`detect::DetectorBank`] watches every (subject, property) series
    /// and emits [`EventKind::Advisory`](tracestore::EventKind::Advisory)
    /// trace events *before* invariants trip (observe-and-report only — no
    /// repair is triggered). `None` (the default) is entirely inert: no
    /// state, no events, no counters, and every output stays byte-identical
    /// to a build without the detector layer.
    pub detectors: Option<detect::DetectorConfig>,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            adaptation_enabled: true,
            cost_model: RepairCostModel::paper_defaults(),
            selection: SelectionPolicy::FirstReported,
            damping_secs: Some(60.0),
            monitoring_qos: false,
            bandwidth_first: false,
            group_planner: false,
            cost_reduction: false,
            verify_constraint_check: false,
            detectors: None,
        }
    }
}

impl FrameworkConfig {
    /// The control configuration: monitoring only, no repairs.
    pub fn control() -> Self {
        FrameworkConfig {
            adaptation_enabled: false,
            ..Self::default()
        }
    }

    /// The adaptive configuration used for Figures 11–13.
    pub fn adaptive() -> Self {
        Self::default()
    }

    /// Resolves a repair-strategy preset by its sweep-matrix name (one of
    /// [`strategy_names`]) — a thin wrapper over [`STRATEGY_REGISTRY`].
    pub fn by_name(name: &str) -> Option<Self> {
        STRATEGY_REGISTRY.find(name).map(|build| build())
    }

    /// The tactic-ordering ablation: try the bandwidth repair first.
    pub fn bandwidth_first() -> Self {
        FrameworkConfig {
            bandwidth_first: true,
            ..Self::adaptive()
        }
    }

    /// The no-damping ablation: repairs are never suppressed.
    pub fn no_damping() -> Self {
        FrameworkConfig {
            damping_secs: None,
            ..Self::adaptive()
        }
    }

    /// The QoS-monitoring variant: gauge traffic is prioritised.
    pub fn qos_monitoring() -> Self {
        FrameworkConfig {
            monitoring_qos: true,
            ..Self::adaptive()
        }
    }

    /// The group-level planner preset. The planner batches and relocates
    /// gauges instead of destroying and recreating them one by one, so it
    /// runs under the §5.3 gauge-caching cost model — without it a bulk
    /// move would spend minutes on churn alone.
    pub fn planned_repair() -> Self {
        FrameworkConfig {
            group_planner: true,
            cost_reduction: true,
            cost_model: RepairCostModel::with_gauge_caching(),
            ..Self::adaptive()
        }
    }
}

/// How often the control loop runs (seconds).
const CONTROL_PERIOD_SECS: f64 = 5.0;

/// Sim-time seconds between control-plane metric snapshots: when a metrics
/// registry *and* a trace sink are attached, the framework publishes its
/// deterministic counters/gauges and appends them as
/// [`EventKind::Metric`](tracestore::EventKind::Metric) events at this
/// cadence, so the trace query engine can aggregate them per run.
pub const METRIC_SNAPSHOT_PERIOD_SECS: f64 = 60.0;

/// Statistics about the repairs performed during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairStats {
    /// Number of repairs started.
    pub started: u64,
    /// Number of repairs completed.
    pub completed: u64,
    /// Number of repairs aborted: the engine's strategy aborted (a tactic
    /// failed hard, or its script would break the style), or the plan had no
    /// runtime translation.
    pub aborted: u64,
    /// Mean repair duration in seconds.
    pub mean_duration_secs: Option<f64>,
    /// Servers activated during the run.
    pub servers_activated: u64,
    /// Client moves performed during the run.
    pub client_moves: u64,
}

/// The three-layer adaptation framework driving one run.
pub struct AdaptationFramework {
    app: GridApp,
    model: System,
    /// The one monitoring path: who is watched, the flow snapshot, the gauge
    /// roster and the run's class index.
    monitor: Monitor,
    /// The one observation path: run log, trace sink, metrics sink, and the
    /// tallies the log does not hold.
    observer: Observer,
    /// Online anomaly-detector layer; `None` (the default) is fully inert.
    detector: Option<DetectorState>,
    /// The repair half of the loop; a control run (the paper's, and every
    /// sweep cell's baseline) has none.
    repairs: Option<RepairLoop>,
}

impl AdaptationFramework {
    /// Builds the framework around a freshly deployed grid application.
    pub fn new(grid: GridConfig, config: FrameworkConfig) -> Result<Self, AppError> {
        let app = GridApp::build(grid)?;
        let profile = PerformanceProfile {
            max_latency_secs: grid.max_latency_secs,
            max_server_load: grid.max_server_load,
            min_bandwidth_bps: grid.min_bandwidth_bps,
        };
        let (model, server_map) =
            build_model(&app, &profile).map_err(|e| AppError::Invalid(e.to_string()))?;
        let mut monitor = Monitor::new(&app, &config);
        let mut observer = Observer::new();
        observer.record(SimTime::ZERO, Occurrence::Deployed);
        monitor.deploy(SimTime::ZERO, &app, &server_map);
        Ok(AdaptationFramework {
            app,
            model,
            monitor,
            observer,
            detector: config.detectors.map(DetectorState::new),
            repairs: config
                .adaptation_enabled
                .then(|| RepairLoop::new(&config, profile, server_map)),
        })
    }

    /// Attaches a trace sink to the framework *and* the application it
    /// drives: framework-layer observations (gauge readings, violations,
    /// repair lifecycle, reconfigurations, fault actions) and runtime
    /// transfer completions all land in the same stream.
    pub fn set_trace_sink(&mut self, sink: tracestore::SharedSink) {
        self.app.set_trace_sink(sink.clone());
        self.observer.set_sink(sink);
    }

    /// Attaches a self-observability metrics sink. Span timings, framework
    /// counters, and periodic component-counter snapshots are recorded into
    /// it; the default is a disabled `NullRegistry` that records nothing.
    pub fn set_metrics(&mut self, metrics: obs::SharedMetrics) {
        self.observer.set_metrics(metrics);
    }

    /// Publishes the components' always-on deterministic counters (probe
    /// solves, allocation epochs, path-table and due-queue ops, flow-memo
    /// hits, class census) into the metrics sink as absolute values. Called
    /// automatically at the metric-snapshot cadence and by the experiment
    /// driver at end of run; a no-op when metrics are disabled.
    pub fn publish_metrics(&self) {
        let detector_points = self.detector.as_ref().map(DetectorState::points);
        self.observer
            .publish_components(&self.app, detector_points, self.monitor.index());
    }

    /// End-of-run summary of the online-detector layer (`None` unless
    /// [`FrameworkConfig::detectors`] was set).
    pub fn detect_summary(&self) -> Option<DetectSummary> {
        let detector = self.detector.as_ref()?;
        Some(detector.summary(self.observer.log()))
    }

    /// The architectural model as currently maintained.
    pub fn model(&self) -> &System {
        &self.model
    }

    /// The running application.
    pub fn app(&self) -> &GridApp {
        &self.app
    }

    /// The run log recorded so far.
    pub fn trace(&self) -> &RunLog {
        self.observer.log()
    }

    /// The run log, for a caller done with the framework.
    pub fn into_trace(self) -> RunLog {
        self.observer.into_log()
    }

    /// The metrics recorded by the application so far.
    pub fn metrics(&self) -> &Metrics {
        self.app.metrics()
    }

    /// Repair statistics for the run so far.
    pub fn repair_stats(&self) -> RepairStats {
        RepairStats {
            servers_activated: self.observer.servers_activated,
            client_moves: self.observer.client_moves,
            ..self.observer.log().repair_stats()
        }
    }

    /// **Advance**: the runtime layer moves to `t`; the one network snapshot
    /// taken there serves the figure metrics now and every flow-derived
    /// gauge of the Monitor phase.
    fn advance(&mut self, t: SimTime) -> FlowSnapshot {
        let _span = self.observer.span("phase.advance");
        self.app.advance(t);
        let flows = {
            let _span = self.observer.span("phase.flow_snapshot");
            self.monitor.flow_snapshot(&self.app)
        };
        self.app.sample_metrics_with_flows(t, &flows);
        flows
    }

    /// Runs one control period ending at time `t`.
    pub fn tick(&mut self, t: SimTime) {
        let _tick_span = self.observer.span("phase.tick");
        let flows = self.advance(t);
        // Monitor: probes observe the system, gauges interpret what they
        // publish, and the readings update the model in one batch.
        let readings = {
            let _span = self.observer.span("phase.gauge_dispatch");
            let readings = self.monitor.observe(&mut self.app, &flows, t);
            self.observer.gauge_batch(readings);
            let mut updater = ModelUpdater::new(&mut self.model);
            updater.apply_batch(readings);
            self.observer.noop_suppressed += updater.suppressed;
            readings
        };
        // Detect: the online detectors score the same readings (control runs
        // included — an advisory stream with no adaptation is exactly the
        // baseline the lead-time reports compare against).
        if let Some(detector) = self.detector.as_mut() {
            let _span = self.observer.span("phase.detect");
            detector.observe(&mut self.observer, readings);
        }
        if self.observer.metric_snapshot_due(t) {
            self.publish_metrics();
            self.observer.copy_metrics_to_sink(t);
        }
        let Some(repairs) = self.repairs.as_mut() else {
            return;
        };
        let (app, monitor) = (&mut self.app, &mut self.monitor);
        let (model, observer) = (&mut self.model, &mut self.observer);
        // Commit → Execute once the executing repair's effects are due;
        // until then no new repair is planned.
        if repairs.executing() {
            if let Some(due) = repairs.take_due(t) {
                due.commit(model, observer, t);
                repairs.execute(due, app, monitor, observer, t);
            }
            return;
        }
        // Check → Plan → Begin.
        let Some(report) = repairs.check(model, observer, t) else {
            return;
        };
        if let Some(planned) = repairs.plan(app, model, monitor.index(), &report, observer, t) {
            repairs.begin(planned, observer, t);
        }
    }

    /// Runs the framework for `duration_secs` of simulated time under an
    /// optional scripted workload and an optional compiled fault timeline.
    /// The workload's values at 0 s apply before the first tick; after that
    /// its change points in (0, `duration_secs`] and the fault actions form
    /// one timeline, sorted by time. At one instant a workload change goes
    /// before a fault, and simultaneous faults keep their schedule order.
    /// Each tick first applies every step due by its end, so a step at
    /// exactly `duration_secs` applies and a later one never does, and a
    /// `(schedule, faults, seed)` triple replays bit-identically.
    pub fn run_with_faults(
        &mut self,
        duration_secs: f64,
        schedule: Option<&ExperimentSchedule>,
        faults: Option<&CompiledFaultSchedule>,
    ) {
        let changes = schedule.into_iter().flat_map(|schedule| {
            let points = schedule.change_points().into_iter();
            points.map(move |at| (at, Step::Workload(schedule)))
        });
        let actions = faults.into_iter().flat_map(|f| &f.actions);
        let mut timeline: Vec<(f64, Step<'_>)> = changes
            .filter(|&(at, _)| at > 0.0 && at <= duration_secs)
            .chain(actions.map(|action| (action.at_secs, Step::Fault(action))))
            .collect();
        // The tie rule is the sort key: a workload change (`false`) before a
        // fault (`true`); the sort is stable, so faults keep their order.
        let is_fault = |step: &Step<'_>| matches!(step, Step::Fault(_));
        timeline.sort_by(|(a, x), (b, y)| a.total_cmp(b).then(is_fault(x).cmp(&is_fault(y))));
        let mut timeline = timeline.into_iter().peekable();
        if let Some(schedule) = schedule {
            schedule.apply(&mut self.app, 0.0);
        }
        let mut t = 0.0;
        while t < duration_secs {
            t = (t + CONTROL_PERIOD_SECS).min(duration_secs);
            while let Some((at, step)) = timeline.next_if(|&(at, _)| at <= t) {
                let now = SimTime::from_secs(at);
                match step {
                    Step::Workload(schedule) => {
                        schedule.apply(&mut self.app, at);
                        self.observer.record(now, Occurrence::PhaseChange);
                    }
                    // `apply_timed` also records the action to the
                    // application's trace sink (fault onsets become `Fault`
                    // events, lifts become `Info`).
                    Step::Fault(timed) => {
                        let label = timed.label.clone();
                        let fault = match faultsim::apply_timed(&mut self.app, timed) {
                            Ok(()) => Occurrence::Fault(label),
                            Err(e) => Occurrence::FaultFailed(Box::new((label, e))),
                        };
                        self.observer.record(now, fault);
                    }
                }
            }
            self.tick(SimTime::from_secs(t));
        }
    }
}

/// One step of a run's timeline.
enum Step<'a> {
    /// A workload change point: the schedule's values at that instant apply.
    Workload(&'a ExperimentSchedule),
    /// A compiled fault action.
    Fault(&'a TimedAction),
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::{props, ClientServerStyle};
    use tracestore::EventKind;

    /// Whether a repair start's legacy line mentions `text`.
    fn started_with(fw: &AdaptationFramework, text: &str) -> bool {
        fw.trace()
            .legacy_lines()
            .any(|l| l.kind == EventKind::RepairStart && l.to_string().contains(text))
    }

    #[test]
    fn every_strategy_name_resolves_and_unknown_names_do_not() {
        assert_eq!(
            strategy_names(),
            &[
                "adaptive",
                "bandwidth-first",
                "no-damping",
                "qos-monitoring",
                "plannedRepair"
            ]
        );
        for &name in strategy_names() {
            let config = FrameworkConfig::by_name(name)
                .unwrap_or_else(|| panic!("strategy {name} resolves"));
            assert!(config.adaptation_enabled, "{name} presets are adaptive");
        }
        assert!(FrameworkConfig::by_name("wishful").is_none());
        assert!(
            FrameworkConfig::by_name("bandwidth-first")
                .unwrap()
                .bandwidth_first
        );
        assert!(FrameworkConfig::by_name("no-damping")
            .unwrap()
            .damping_secs
            .is_none());
        assert!(
            FrameworkConfig::by_name("qos-monitoring")
                .unwrap()
                .monitoring_qos
        );
    }

    #[test]
    fn planned_repair_preset_enables_planner_and_cost_reduction() {
        let config = FrameworkConfig::by_name("plannedRepair").unwrap();
        assert!(config.group_planner);
        assert!(config.cost_reduction);
        assert!(config.cost_model.cache_gauges);
        assert!(!FrameworkConfig::adaptive().group_planner);
        assert!(!FrameworkConfig::adaptive().cost_reduction);
    }

    #[test]
    fn planned_repair_moves_squeezed_clients_in_one_batch() {
        let config = FrameworkConfig::by_name("plannedRepair").unwrap();
        let mut fw = AdaptationFramework::new(GridConfig::default(), config).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        fw.run_with_faults(420.0, Some(&schedule), None);
        let stats = fw.repair_stats();
        assert!(stats.completed >= 1, "{stats:?}");
        // Both squeezed clients travel in one planner batch (the per-element
        // engine would need one damped repair per client).
        assert!(
            started_with(&fw, "moveClientGroup"),
            "a batched group move was planned"
        );
        for client in ["User3", "User4"] {
            assert_eq!(
                fw.app().client_group(client).unwrap(),
                gridapp::SERVER_GROUP_2,
                "{client} was re-homed"
            );
        }
        // The model agrees with the runtime for the moved clients.
        let model = fw.model();
        let user = model.component_by_name("User3").unwrap();
        let group = ClientServerStyle::group_of_client(model, user).unwrap();
        assert_eq!(
            model.component(group).unwrap().name,
            fw.app().client_group("User3").unwrap()
        );
    }

    /// The restart-aware cost-reduction regression (ROADMAP): two replicas
    /// crash mid-run, failover replaces them with spares and load repairs
    /// recruit on top while the backlog drains; after the crashed servers
    /// return (as spares), the `underutilised` trigger retires the surplus
    /// down to the provisioned baseline.
    #[test]
    fn crash_restart_timeline_retires_recruited_replicas() {
        let config = FrameworkConfig {
            cost_reduction: true,
            ..FrameworkConfig::adaptive()
        };
        let mut fw = AdaptationFramework::new(GridConfig::default(), config).unwrap();
        let faults = faultsim::fault_profile_by_name("server-crash-midrun", 400.0).unwrap();
        let compiled = faults.compile(fw.app().testbed(), 42).unwrap();
        fw.run_with_faults(600.0, None, Some(&compiled));
        // The cost-reduction pass fired at least once…
        assert!(
            started_with(&fw, "underutilised"),
            "an underutilised repair was started"
        );
        // …and the group is back at its provisioned three replicas, with the
        // restarted servers available as spares again.
        assert_eq!(fw.app().active_servers(gridapp::SERVER_GROUP_1).len(), 3);
        assert_eq!(fw.app().group_liveness(gridapp::SERVER_GROUP_1).1, 0);
        let spares = fw.app().spare_servers();
        assert!(
            spares.contains(&gridapp::Key::new("S2")) && spares.contains(&gridapp::Key::new("S3")),
            "restarted servers returned to the spare pool: {spares:?}"
        );
    }

    #[test]
    fn control_framework_never_repairs() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::control()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        fw.run_with_faults(400.0, Some(&schedule), None);
        let stats = fw.repair_stats();
        assert_eq!(stats.started, 0);
        assert_eq!(stats.completed, 0);
        // But the model is still being maintained from gauges.
        let user1 = fw.model().component_by_name("User1").unwrap();
        assert!(fw
            .model()
            .component(user1)
            .unwrap()
            .properties
            .get_f64(props::AVERAGE_LATENCY)
            .is_some());
    }

    #[test]
    fn gauge_readings_flow_into_the_model() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
        fw.run_with_faults(120.0, None, None);
        let grp = fw.model().component_by_name("ServerGrp1").unwrap();
        assert!(fw
            .model()
            .component(grp)
            .unwrap()
            .properties
            .get_f64(props::LOAD)
            .is_some());
        let role = fw
            .model()
            .roles()
            .find(|(_, r)| r.name == "User3.role")
            .map(|(id, _)| id)
            .unwrap();
        assert!(fw
            .model()
            .role(role)
            .unwrap()
            .properties
            .get_f64(props::BANDWIDTH)
            .is_some());
    }

    #[test]
    fn bandwidth_squeeze_triggers_a_client_move_repair() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        // Run through the quiescent phase and well into the squeeze phase.
        fw.run_with_faults(420.0, Some(&schedule), None);
        let stats = fw.repair_stats();
        assert!(stats.started >= 1, "at least one repair starts: {stats:?}");
        assert!(
            stats.completed >= 1,
            "at least one repair completes: {stats:?}"
        );
        assert!(
            stats.client_moves >= 1,
            "the squeeze phase is repaired by moving a client: {stats:?}"
        );
        // The moved client's runtime group changed.
        let moved = ["User3", "User4"]
            .iter()
            .filter(|c| fw.app().client_group(c).unwrap() == gridapp::SERVER_GROUP_2)
            .count();
        assert!(moved >= 1, "User3 or User4 now uses ServerGrp2");
        // And the architectural model agrees with the runtime.
        let model = fw.model();
        let user = model.component_by_name("User3").unwrap();
        let group = ClientServerStyle::group_of_client(model, user).unwrap();
        let group_name = model.component(group).unwrap().name;
        assert_eq!(group_name, fw.app().client_group("User3").unwrap());
    }

    #[test]
    fn server_crash_triggers_a_failover_repair() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
        let faults = faultsim::fault_profile_by_name("server-crash-midrun", 400.0).unwrap();
        let compiled = faults.compile(fw.app().testbed(), 42).unwrap();
        fw.run_with_faults(400.0, None, Some(&compiled));
        // Two crashes (t=140) and two restarts (t=340) were injected and
        // traced.
        assert_eq!(fw.trace().count(EventKind::Fault), 4, "four faults traced");
        let stats = fw.repair_stats();
        assert!(stats.completed >= 1, "failover repair completed: {stats:?}");
        // The failover retired the dead replicas and recruited the spares:
        // Server Group 1 has no corpse left and at least its provisioned
        // capacity back (later load repairs may have added more on top while
        // the backlog drained).
        let (live, dead) = fw.app().group_liveness(gridapp::SERVER_GROUP_1);
        assert!(live >= 3, "capacity restored: {live} live");
        assert_eq!(dead, 0, "no dead replica left assigned");
        let active = fw.app().active_servers(gridapp::SERVER_GROUP_1);
        assert!(active.contains(&"S4".to_string()), "{active:?}");
        assert!(active.contains(&"S7".to_string()), "{active:?}");
        // The repair went through the failoverServerGroup tactic.
        assert!(
            started_with(&fw, "liveness"),
            "a liveness repair was started"
        );
        // The model census agrees with the runtime again.
        let grp = fw.model().component_by_name("ServerGrp1").unwrap();
        let dead = fw
            .model()
            .component(grp)
            .unwrap()
            .properties
            .get_f64(archmodel::style::props::DEAD_SERVERS);
        assert_eq!(dead, Some(0.0));
    }

    #[test]
    fn control_framework_observes_faults_but_never_recovers() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::control()).unwrap();
        // A 600 s profile run for only 300 s: the crash (t=210) lands, the
        // restart (t=510) never happens.
        let faults = faultsim::fault_profile_by_name("server-crash-midrun", 600.0).unwrap();
        let compiled = faults.compile(fw.app().testbed(), 42).unwrap();
        fw.run_with_faults(300.0, None, Some(&compiled));
        assert_eq!(fw.repair_stats().completed, 0);
        // The dead replicas stay assigned-but-dead for the whole run.
        assert_eq!(fw.app().group_liveness(gridapp::SERVER_GROUP_1), (1, 2));
        // Monitoring still saw the failure: the model census records it.
        let grp = fw.model().component_by_name("ServerGrp1").unwrap();
        let dead = fw
            .model()
            .component(grp)
            .unwrap()
            .properties
            .get_f64(archmodel::style::props::DEAD_SERVERS);
        assert_eq!(dead, Some(2.0));
    }

    /// The run's one timeline: a workload change and two faults at the same
    /// instant apply the workload change first and the faults in schedule
    /// order; an action at exactly the run's end applies and one after it
    /// does not; the values in force at 0 s are not a phase change.
    #[test]
    fn the_timeline_applies_workload_first_and_stops_at_the_run_end() {
        use faultsim::{FaultEvent, FaultSchedule, LinkRef};
        let grid = GridConfig::default();
        let schedule = ExperimentSchedule::step(&grid, 200.0);
        let tie = schedule.change_points()[0];
        let server = || "S2".to_string();
        let link = || LinkRef::between("R2", "R3");
        let faults = FaultSchedule {
            events: vec![
                FaultEvent::ServerCrash {
                    server: server(),
                    at_secs: tie,
                },
                FaultEvent::LinkCut {
                    link: link(),
                    at_secs: tie,
                },
                FaultEvent::ServerRestart {
                    server: server(),
                    at_secs: 200.0,
                },
                FaultEvent::LinkRestore {
                    link: link(),
                    at_secs: 205.0,
                },
            ],
        };
        let mut fw = AdaptationFramework::new(grid, FrameworkConfig::control()).unwrap();
        let compiled = faults.compile(fw.app().testbed(), grid.seed).unwrap();
        fw.run_with_faults(200.0, Some(&schedule), Some(&compiled));
        let lines: Vec<String> = fw.trace().legacy_lines().map(|l| l.to_string()).collect();
        let at = |line: &str| {
            let found = lines.iter().position(|l| *l == line);
            found.unwrap_or_else(|| panic!("`{line}` is traced: {lines:?}"))
        };
        let phase = at(&format!("workload phase change at {tie:.0} s"));
        let crash = at("fault injected: server S2 crashed");
        let cut = at("fault injected: link R2-R3 cut");
        assert!(phase < crash && crash < cut, "{phase} < {crash} < {cut}");
        at("fault injected: server S2 restarted");
        assert!(!lines.iter().any(|l| l.contains("restored")), "{lines:?}");
        assert!(!lines.iter().any(|l| l == "workload phase change at 0 s"));
        assert_eq!(fw.trace().count(EventKind::Fault), 3);
    }

    #[test]
    fn repair_takes_about_thirty_seconds() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        fw.run_with_faults(500.0, Some(&schedule), None);
        let stats = fw.repair_stats();
        let mean = stats.mean_duration_secs.expect("some repair completed");
        assert!(
            (15.0..=60.0).contains(&mean),
            "repair duration should be tens of seconds, got {mean}"
        );
    }
}
