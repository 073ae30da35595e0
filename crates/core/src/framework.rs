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
//! Every control period the framework advances the application, routes probe
//! events through the monitoring pipeline into the model, checks the
//! constraints, and — when adaptation is enabled — plans, times, and executes
//! repairs through the translator and the Table 1 runtime operators.

use crate::model::{build_model, ModelUpdater};
use crate::monitor::Monitor;
use crate::observe::{Observer, Occurrence};
use crate::query::AppQuery;
use crate::task::PerformanceProfile;
use archmodel::constraint::ConstraintSet;
use archmodel::style::ClientServerStyle;
use archmodel::{Key, System};
use faultsim::CompiledFaultSchedule;
use gridapp::{AppError, ExperimentSchedule, GridApp, GridConfig, Metrics};
use monitoring::GaugeLifecycleConfig;
use repair::{PlanOutcome, RepairDamping, RepairEngine, RepairPlan, SelectionPolicy};
use simnet::{SimTime, Trace, TraceKind};
use translator::{translate, RepairCostModel, RuntimeOp};

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
    /// How often the control loop runs (seconds).
    pub control_period_secs: f64,
    /// Sliding window of the per-client latency gauges (seconds).
    pub latency_window_secs: f64,
    /// Gauge lifecycle costs (creation dominates repair time, §5.3).
    pub gauge_lifecycle: GaugeLifecycleConfig,
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
            control_period_secs: 5.0,
            latency_window_secs: 30.0,
            gauge_lifecycle: GaugeLifecycleConfig::default(),
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

/// The invariants the group planner plans for — and the per-element engine
/// registers its latency strategy under. Reports carrying none of them skip
/// the planner entirely.
const PLANNER_INVARIANTS: [&str; 3] = ["latency", "bandwidth", "serverLoad"];

/// Sim-time seconds between control-plane metric snapshots: when a metrics
/// registry *and* a trace sink are attached, the framework publishes its
/// deterministic counters/gauges and appends them as
/// [`EventKind::Metric`](tracestore::EventKind::Metric) events at this
/// cadence, so the trace query engine can aggregate them per run.
pub const METRIC_SNAPSHOT_PERIOD_SECS: f64 = 60.0;

/// A repair whose execution is in progress.
#[derive(Debug)]
struct PendingRepair {
    plan: RepairPlan,
    runtime_ops: Vec<RuntimeOp>,
    complete_at: SimTime,
    correlation: u64,
}

/// Statistics about the repairs performed during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairStats {
    /// Number of repairs started.
    pub started: u64,
    /// Number of repairs completed.
    pub completed: u64,
    /// Number of repairs aborted (no applicable tactic failed hard).
    pub aborted: u64,
    /// Mean repair duration in seconds.
    pub mean_duration_secs: Option<f64>,
    /// Servers activated during the run.
    pub servers_activated: u64,
    /// Client moves performed during the run.
    pub client_moves: u64,
}

/// Horizon for pairing an advisory with a subsequent violation on the same
/// subject: an advisory "anticipates" the first violation that follows it
/// within this many simulated seconds. Shared by the in-run
/// [`AdaptationFramework::detect_summary`] and the sweep reports so both
/// agree on what counts as a hit.
pub const ADVISORY_MATCH_HORIZON_SECS: f64 = 120.0;

/// Summary of the online-detector layer for one run (present only when
/// [`FrameworkConfig::detectors`] is set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectSummary {
    /// Advisories emitted (harmful-direction alarms; what the trace holds).
    pub advisories: u64,
    /// Raw detector alarms, including harmless-direction ones (e.g. a
    /// latency stream dropping) that were filtered before emission.
    pub raw_alarms: u64,
    /// Distinct (subject, property) series observed.
    pub series: u64,
    /// Total gauge readings fed to the detector bank.
    pub points: u64,
    /// Median seconds between an advisory and the first violation it
    /// anticipated on the same subject within
    /// [`ADVISORY_MATCH_HORIZON_SECS`]; `None` when nothing paired.
    pub median_lead_secs: Option<f64>,
}

/// Pre-interned gauge-property keys and the invariant each one predicts
/// when its stream drifts in the harmful direction.
#[derive(Debug, Clone, Copy)]
struct PropertyMap {
    average_latency: Key,
    load: Key,
    bandwidth: Key,
    is_alive: Key,
    live_servers: Key,
    dead_servers: Key,
    reachable: Key,
}

impl PropertyMap {
    fn new() -> Self {
        PropertyMap {
            average_latency: Key::new("averageLatency"),
            load: Key::new("load"),
            bandwidth: Key::new("bandwidth"),
            is_alive: Key::new("isAlive"),
            live_servers: Key::new("liveServers"),
            dead_servers: Key::new("deadServers"),
            reachable: Key::new("reachable"),
        }
    }

    /// The invariant a harmful drift of `property` predicts, and which
    /// drift direction is the harmful one. Latency and load hurt rising;
    /// bandwidth, liveness, and reachability hurt falling (a *rising* dead
    /// count is the falling-liveness stream seen from the other side).
    fn predicted(&self, property: Key) -> Option<(&'static str, detect::Direction)> {
        use detect::Direction::{Down, Up};
        if property == self.average_latency {
            Some(("latency", Up))
        } else if property == self.load {
            Some(("serverLoad", Up))
        } else if property == self.bandwidth {
            Some(("bandwidth", Down))
        } else if property == self.is_alive
            || property == self.live_servers
            || property == self.reachable
        {
            Some(("liveness", Down))
        } else if property == self.dead_servers {
            Some(("liveness", Up))
        } else {
            None
        }
    }
}

/// Run-scoped detector layer: the bank and the property → invariant map its
/// alarms are filtered through.
#[derive(Debug)]
struct DetectorState {
    bank: detect::DetectorBank,
    properties: PropertyMap,
    /// Scratch buffer reused across ticks to keep the hot path
    /// allocation-free.
    scratch: Vec<detect::Advisory>,
}

impl DetectorState {
    fn new(config: detect::DetectorConfig) -> Self {
        DetectorState {
            bank: detect::DetectorBank::new(config),
            properties: PropertyMap::new(),
            scratch: Vec::new(),
        }
    }
}

/// The three-layer adaptation framework driving one run.
pub struct AdaptationFramework {
    config: FrameworkConfig,
    profile: PerformanceProfile,
    app: GridApp,
    model: System,
    server_map: std::collections::HashMap<String, String>,
    constraints: ConstraintSet,
    engine: RepairEngine,
    /// The one monitoring path: who is watched, the flow snapshot, the gauge
    /// roster and the run's class index.
    monitor: Monitor,
    planner: Option<planner::GroupPlanner>,
    /// The one observation path: legacy trace, trace sink, metrics sink, and
    /// the always-on tallies.
    observer: Observer,
    /// Incremental constraint checker: caches per-(invariant, element)
    /// outcomes and re-evaluates only pairs whose property read-set
    /// intersects the model's change journal since the last check.
    checker: archmodel::IncrementalChecker,
    /// Online anomaly-detector layer; `None` (the default) is fully inert.
    detector: Option<DetectorState>,
    pending: Option<PendingRepair>,
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
        let mut engine = RepairEngine::new();
        let strategy_builder: fn() -> repair::RepairStrategy = if config.bandwidth_first {
            repair::builtin::fix_latency_bandwidth_first_strategy
        } else {
            repair::builtin::fix_latency_strategy
        };
        for invariant in PLANNER_INVARIANTS {
            engine.register(invariant, strategy_builder());
        }
        // Failure recovery: a group with dead replicas is failed over to
        // spares; a group with no live replicas has its clients rerouted.
        engine.register("liveness", repair::builtin::recover_liveness_strategy());
        let mut constraints = repair::default_constraints();
        if config.cost_reduction {
            // Restart-aware cost reduction: idle groups holding more
            // replicas than provisioned are shrunk back to their baseline.
            engine.register("underutilised", repair::builtin::reduce_servers_strategy());
            constraints = constraints.with(repair::builtin::underutilised_invariant());
        }
        engine.set_selection(config.selection);
        engine.set_damping(config.damping_secs.map(RepairDamping::new));
        let monitor = Monitor::new(&app, &config);
        let group_planner = config
            .group_planner
            .then(|| planner::GroupPlanner::new(config.damping_secs));

        let mut framework = AdaptationFramework {
            config,
            profile,
            app,
            model,
            server_map,
            constraints,
            engine,
            monitor,
            planner: group_planner,
            observer: Observer::new(config.detectors.is_some()),
            checker: archmodel::IncrementalChecker::new(),
            detector: config.detectors.map(DetectorState::new),
            pending: None,
        };
        framework
            .observer
            .record(SimTime::ZERO, Occurrence::Deployed);
        framework
            .monitor
            .deploy(SimTime::ZERO, &framework.app, &framework.server_map);
        Ok(framework)
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
        let detector_points = self.detector.as_ref().map(|state| state.bank.points());
        self.observer
            .publish_components(&self.app, detector_points, self.monitor.index());
    }

    /// End-of-run summary of the online-detector layer (`None` unless
    /// [`FrameworkConfig::detectors`] was set).
    pub fn detect_summary(&self) -> Option<DetectSummary> {
        let state = self.detector.as_ref()?;
        Some(DetectSummary {
            advisories: self.observer.advisories(),
            raw_alarms: state.bank.alarms(),
            series: state.bank.series_count() as u64,
            points: state.bank.points(),
            median_lead_secs: self.observer.median_lead_secs(ADVISORY_MATCH_HORIZON_SECS),
        })
    }

    /// Feeds one tick's gauge readings to the detector bank and records each
    /// harmful-direction alarm as an advisory. Alarms whose drift direction
    /// is harmless for the property (latency falling, bandwidth recovering)
    /// are counted by the bank but not recorded — an advisory always names
    /// the invariant it predicts.
    fn observe_gauge_stream(
        state: &mut DetectorState,
        observer: &mut Observer,
        t: SimTime,
        readings: &[monitoring::GaugeReading],
    ) {
        state.scratch.clear();
        for reading in readings {
            state.bank.observe(
                reading.time,
                reading.target,
                reading.property,
                reading.value,
                &mut state.scratch,
            );
        }
        for alarm in &state.scratch {
            let Some((predicts, harmful)) = state.properties.predicted(alarm.property) else {
                continue;
            };
            if alarm.direction != harmful {
                continue;
            }
            observer.record(t, Occurrence::Advisory(alarm, predicts));
        }
    }

    /// The architectural model as currently maintained.
    pub fn model(&self) -> &System {
        &self.model
    }

    /// The running application.
    pub fn app(&self) -> &GridApp {
        &self.app
    }

    /// The event trace recorded so far.
    pub fn trace(&self) -> &Trace {
        self.observer.trace()
    }

    /// The metrics recorded by the application so far.
    pub fn metrics(&self) -> &Metrics {
        self.app.metrics()
    }

    /// The performance profile in force.
    pub fn profile(&self) -> PerformanceProfile {
        self.profile
    }

    /// Repair statistics for the run so far.
    pub fn repair_stats(&self) -> RepairStats {
        let trace = self.observer.trace();
        RepairStats {
            started: trace.count(TraceKind::RepairStart) as u64,
            completed: trace.count(TraceKind::RepairEnd) as u64,
            aborted: trace.count(TraceKind::RepairAborted) as u64,
            mean_duration_secs: trace.mean_repair_duration_secs(),
            servers_activated: self.observer.servers_activated,
            client_moves: self.observer.client_moves,
        }
    }

    /// Runs one control period ending at time `t`.
    pub fn tick(&mut self, t: SimTime) {
        // 1. Advance the runtime layer, take the tick's shared network
        // snapshot, and record figure metrics from it.
        let _tick_span = self.observer.span("phase.tick");
        let flows = {
            let _span = self.observer.span("phase.advance");
            self.app.advance(t);
            let flows = {
                let _span = self.observer.span("phase.flow_snapshot");
                self.monitor.flow_snapshot(&self.app)
            };
            self.app.sample_metrics_with_flows(t, &flows);
            flows
        };

        // 2. Probes observe the system and gauges interpret what they
        // publish, all from that one snapshot.
        let readings = {
            let _span = self.observer.span("phase.gauge_dispatch");
            let readings = self.monitor.observe(&mut self.app, &flows, t);

            // 3. The tick's readings update the model in one batch (same
            // order, one target resolution per run of consecutive
            // same-target readings).
            self.observer.record(t, Occurrence::GaugeBatch(readings));
            let mut updater = ModelUpdater::new(&mut self.model);
            updater.apply_batch(readings);
            self.observer.noop_suppressed += updater.suppressed;
            readings
        };

        // 3b. The online detectors score the same readings (control runs
        // included — an advisory stream with no adaptation is exactly the
        // baseline the lead-time reports compare against). Advisories are
        // observe-and-report: nothing here feeds back into planning.
        if let Some(state) = self.detector.as_mut() {
            let _span = self.observer.span("phase.detect");
            Self::observe_gauge_stream(state, &mut self.observer, t, readings);
        }
        if self.observer.metric_snapshot_due(t) {
            self.publish_metrics();
            self.observer.record(t, Occurrence::MetricSnapshot);
        }

        if !self.config.adaptation_enabled {
            return;
        }

        // 4. Finish an in-flight repair whose effects are now due.
        if self.pending.is_some() {
            if let Some(due) = self.pending.take_if(|p| p.complete_at <= t) {
                self.finish_repair(t, due);
            }
            // While a repair is executing, no new repair is planned.
            return;
        }

        // 5. Check constraints and plan a repair if necessary.
        let report = {
            let _span = self.observer.span("phase.constraint_check");
            self.checker.check(&self.constraints, &mut self.model)
        };
        self.observer.pairs_skipped += report.skipped as u64;
        if self.config.verify_constraint_check {
            let full = self.constraints.check(&self.model);
            assert_eq!(
                report.violations, full.violations,
                "incremental check diverged from full sweep (violations)"
            );
            assert_eq!(
                report.errors, full.errors,
                "incremental check diverged from full sweep (errors)"
            );
            assert_eq!(
                report.evaluated + report.skipped,
                full.evaluated,
                "incremental check pair accounting diverged from full sweep"
            );
        }
        if report.is_clean() {
            return;
        }
        for violation in &report.violations {
            self.observer.record(t, Occurrence::Violation(violation));
        }
        // The group planner, when active, gets first claim on the violation
        // report: it plans whole equivalence classes in one batched repair.
        // Whatever it abstains from falls through to the per-element engine.
        // Reports carrying only violations the planner ignores (liveness,
        // underutilised) skip the planner entirely — gathering its input
        // costs one class-level probe table, which is not worth paying for a
        // guaranteed abstention.
        let planner_relevant = report
            .violations
            .iter()
            .any(|v| PLANNER_INVARIANTS.contains(&v.invariant.as_str()));
        let group_planner = self.planner.as_mut().filter(|_| planner_relevant);
        if let Some((group_planner, index)) = group_planner.zip(self.monitor.index()) {
            let thresholds = planner::PlannerThresholds {
                min_bandwidth_bps: self.profile.min_bandwidth_bps,
                max_server_load: self.profile.max_server_load,
                max_latency_secs: self.profile.max_latency_secs,
            };
            let plan = {
                let _span = self.observer.span("phase.plan");
                let input = planner::PlannerInput::gather(
                    &self.app,
                    index,
                    &self.model,
                    &report,
                    thresholds,
                    t.as_secs(),
                );
                group_planner.plan(index, &self.model, &input)
            };
            if let Some(plan) = plan {
                self.start_group_repair(t, plan);
                return;
            }
        }
        let outcome = {
            let _span = self.observer.span("phase.plan");
            let query = AppQuery::new(&self.app);
            self.engine.plan(&self.model, &report, &query, t.as_secs())
        };
        match outcome {
            PlanOutcome::Plan(plan) => self.start_repair(t, plan),
            PlanOutcome::Aborted { invariant, reason } => self
                .observer
                .record(t, Occurrence::RepairAborted(&invariant, &reason)),
            PlanOutcome::Skipped { reason } => {
                self.observer.record(t, Occurrence::RepairSkipped(&reason))
            }
            PlanOutcome::Nothing => {}
        }
    }

    fn start_repair(&mut self, t: SimTime, plan: RepairPlan) {
        let translated = {
            let _span = self.observer.span("phase.translate");
            translate(&self.model, &plan.ops, self.profile.min_bandwidth_bps)
        };
        match translated {
            Ok(runtime_ops) => self.begin_repair(t, plan, runtime_ops, None),
            Err(e) => self
                .observer
                .record(t, Occurrence::Untranslatable(&plan.subject, &e)),
        }
    }

    /// Starts a batched group-level repair produced by the planner. The
    /// plan's runtime ops already carry their batched cost structure (one
    /// gauge-churn pair per batch, one routing update per class), so the
    /// ordinary cost model prices the whole batch.
    fn start_group_repair(&mut self, t: SimTime, plan: planner::GroupPlan) {
        let tactic_label = plan.tactics.join("+");
        let repair = RepairPlan {
            invariant: plan.invariant,
            subject: plan.subject,
            ops: plan.model_ops,
            tactics: plan.tactics,
            description: plan.description,
        };
        self.begin_repair(t, repair, plan.runtime_ops, Some(&tactic_label));
    }

    /// Prices the repair, announces it under the next correlation id, and
    /// leaves it pending until its effects fall due.
    fn begin_repair(
        &mut self,
        t: SimTime,
        plan: RepairPlan,
        runtime_ops: Vec<RuntimeOp>,
        tactic_label: Option<&str>,
    ) {
        let duration_secs = self.config.cost_model.total_duration(&runtime_ops);
        let correlation = self.observer.next_correlation();
        self.observer.record(
            t,
            Occurrence::RepairStarted {
                correlation,
                plan: &plan,
                tactic_label,
                runtime_ops: runtime_ops.len(),
                duration_secs,
            },
        );
        self.pending = Some(PendingRepair {
            plan,
            runtime_ops,
            complete_at: t + simnet::SimDuration::from_secs(duration_secs),
            correlation,
        });
    }

    fn finish_repair(&mut self, t: SimTime, pending: PendingRepair) {
        // Commit the repair to the architectural model.
        {
            let _span = self.observer.span("phase.commit_replay");
            for op in &pending.plan.ops {
                if let Err(e) = archmodel::apply_op(&mut self.model, op) {
                    self.observer.record(
                        t,
                        Occurrence::Note(format_args!("model op could not be committed: {e}")),
                    );
                }
            }
            let style_violations = ClientServerStyle::validate(&self.model);
            if !style_violations.is_empty() {
                self.observer.record(
                    t,
                    Occurrence::Note(format_args!(
                        "model has {} style violations after commit",
                        style_violations.len()
                    )),
                );
            }
        }
        // Propagate the repair to the runtime layer.
        {
            let _span = self.observer.span("phase.execute");
            for op in &pending.runtime_ops {
                self.execute_runtime_op(t, op);
            }
        }
        self.observer.record(
            t,
            Occurrence::RepairCompleted(pending.correlation, &pending.plan),
        );
    }

    fn execute_runtime_op(&mut self, t: SimTime, op: &RuntimeOp) {
        let result: Result<(), AppError> = match op {
            RuntimeOp::CreateReqQueue { group } => {
                self.app.create_req_queue(group);
                Ok(())
            }
            RuntimeOp::FindServer { .. } => Ok(()),
            RuntimeOp::ConnectServer { server, group } => {
                let runtime = self.resolve_server(server, group);
                match runtime {
                    Some(runtime) => {
                        self.server_map.insert(server.clone(), runtime.clone());
                        self.app.connect_server(&runtime, group)
                    }
                    None => Err(AppError::Invalid(format!(
                        "no spare server available for {server}"
                    ))),
                }
            }
            RuntimeOp::ActivateServer { server } => match self.server_map.get(server).cloned() {
                Some(runtime) => {
                    self.observer.servers_activated += 1;
                    self.app.activate_server(&runtime)
                }
                None => Err(AppError::UnknownServer(server.clone())),
            },
            RuntimeOp::DeactivateServer { server } => match self.server_map.get(server).cloned() {
                Some(runtime) => {
                    let result = self.app.deactivate_server(&runtime);
                    let _ = self.app.disconnect_server(&runtime);
                    self.server_map.remove(server);
                    result
                }
                None => Err(AppError::UnknownServer(server.clone())),
            },
            RuntimeOp::MoveClient { client, to_group } => {
                let result = self.app.move_client(client, to_group);
                if result.is_ok() {
                    self.observer.client_moves += 1;
                    self.monitor
                        .rehome(t, &self.app, std::slice::from_ref(client));
                }
                result
            }
            RuntimeOp::MoveClientGroup { clients, to_group } => {
                match self.app.move_clients(clients, to_group) {
                    Ok(moved) => {
                        self.observer.client_moves += moved as u64;
                        self.monitor.rehome(t, &self.app, clients);
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            RuntimeOp::DrainStuckServers {
                group,
                min_age_secs,
            } => {
                let stuck = self.app.stuck_sending_servers(group, *min_age_secs);
                let mut result = Ok(());
                for server in &stuck {
                    if let Err(e) = self.app.drain_server(t, server) {
                        result = Err(e);
                    }
                }
                if result.is_ok() && !stuck.is_empty() {
                    self.observer.record(
                        t,
                        Occurrence::Note(format_args!(
                            "drained {} wedged replicas of {group}",
                            stuck.len()
                        )),
                    );
                }
                result
            }
            RuntimeOp::RemosGetFlow { .. } => Ok(()),
            RuntimeOp::DeleteGauge { .. } => Ok(()),
            RuntimeOp::CreateGauge { gauge } => {
                self.monitor.recreate(t, gauge);
                Ok(())
            }
        };
        // Gauge churn for failover repairs: a recruited replica gets a health
        // gauge watching its runtime server, a retired one loses its gauge.
        if result.is_ok() {
            match op {
                RuntimeOp::ConnectServer { server, .. } => {
                    if let Some(runtime) = self.server_map.get(server) {
                        self.monitor.watch_server(t, server, runtime);
                    }
                }
                RuntimeOp::DeactivateServer { server } => {
                    self.monitor.unwatch_server(t, server);
                }
                _ => {}
            }
        }
        let outcome = match &result {
            Ok(()) => Occurrence::Reconfigured(op),
            Err(error) => Occurrence::OpFailed(op, error),
        };
        self.observer.record(t, outcome);
    }

    /// Maps a model-level server name to a runtime server, recruiting a spare
    /// if the mapping does not exist yet. Recruitment is group-aware: a
    /// spare attached to the same router as the group's current replicas is
    /// preferred, so a repair does not pull a spare from another group's
    /// rack merely because its name sorts first.
    fn resolve_server(&self, model_name: &str, group: &str) -> Option<String> {
        if let Some(existing) = self.server_map.get(model_name) {
            return Some(existing.clone());
        }
        self.app.find_server_for_group(group, None, 0.0)
    }

    /// Runs the framework for `duration` seconds of simulated time under an
    /// optional scripted workload.
    pub fn run(&mut self, duration_secs: f64, schedule: Option<&ExperimentSchedule>) {
        self.run_with_faults(duration_secs, schedule, None);
    }

    /// Runs the framework under an optional scripted workload while
    /// injecting a compiled fault timeline. Workload changes and fault
    /// actions are interleaved in time order, each applied at its nominal
    /// instant, so a `(schedule, faults, seed)` triple replays
    /// bit-identically.
    pub fn run_with_faults(
        &mut self,
        duration_secs: f64,
        schedule: Option<&ExperimentSchedule>,
        faults: Option<&CompiledFaultSchedule>,
    ) {
        let mut change_points: Vec<f64> = schedule.map(|s| s.change_points()).unwrap_or_default();
        change_points.retain(|&p| p > 0.0 && p <= duration_secs);
        if let Some(schedule) = schedule {
            schedule
                .apply(&mut self.app, 0.0)
                .expect("initial schedule applies");
        }
        let actions = faults.map(|f| f.actions.as_slice()).unwrap_or_default();
        let period = self.config.control_period_secs.max(0.5);
        let mut t = 0.0;
        let mut next_change = 0usize;
        let mut next_action = 0usize;
        while t < duration_secs {
            t = (t + period).min(duration_secs);
            // Apply workload phase changes and fault actions due by this
            // tick in time order (ties: the workload change first, matching
            // the fault-free code path exactly when no faults are given).
            loop {
                let change_at = change_points.get(next_change).copied().filter(|&p| p <= t);
                let action_at = actions
                    .get(next_action)
                    .map(|a| a.at_secs)
                    .filter(|&p| p <= t);
                match (change_at, action_at) {
                    (Some(point), action) if action.is_none_or(|a| point <= a) => {
                        let schedule = schedule.expect("change points imply a schedule");
                        schedule
                            .apply(&mut self.app, point)
                            .expect("schedule change applies");
                        self.observer
                            .record(SimTime::from_secs(point), Occurrence::PhaseChange);
                        next_change += 1;
                    }
                    (_, Some(at)) => {
                        let timed = &actions[next_action];
                        // `apply_timed` also records the action to the
                        // application's trace sink (fault onsets become
                        // `Fault` events, lifts become `Info`).
                        let result = faultsim::apply_timed(&mut self.app, timed);
                        self.observer.record(
                            SimTime::from_secs(at),
                            Occurrence::Fault(&timed.label, &result),
                        );
                        next_action += 1;
                    }
                    (None, None) => break,
                    _ => unreachable!("one of the arms above consumes the earliest item"),
                }
            }
            self.tick(SimTime::from_secs(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::props;

    fn short_config() -> FrameworkConfig {
        FrameworkConfig {
            control_period_secs: 5.0,
            ..FrameworkConfig::adaptive()
        }
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
        let config = FrameworkConfig {
            control_period_secs: 5.0,
            ..FrameworkConfig::by_name("plannedRepair").unwrap()
        };
        let mut fw = AdaptationFramework::new(GridConfig::default(), config).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        fw.run(420.0, Some(&schedule));
        let stats = fw.repair_stats();
        assert!(stats.completed >= 1, "{stats:?}");
        // Both squeezed clients travel in one planner batch (the per-element
        // engine would need one damped repair per client).
        assert!(
            fw.trace()
                .of_kind(TraceKind::RepairStart)
                .any(|e| e.message.contains("moveClientGroup")),
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
            ..short_config()
        };
        let mut fw = AdaptationFramework::new(GridConfig::default(), config).unwrap();
        let faults = faultsim::fault_profile_by_name("server-crash-midrun", 400.0).unwrap();
        let compiled = faults.compile(fw.app().testbed(), 42).unwrap();
        fw.run_with_faults(600.0, None, Some(&compiled));
        // The cost-reduction pass fired at least once…
        assert!(
            fw.trace()
                .of_kind(TraceKind::RepairStart)
                .any(|e| e.message.contains("underutilised")),
            "an underutilised repair was started"
        );
        // …and the group is back at its provisioned three replicas, with the
        // restarted servers available as spares again.
        assert_eq!(fw.app().active_servers(gridapp::SERVER_GROUP_1).len(), 3);
        assert_eq!(fw.app().group_liveness(gridapp::SERVER_GROUP_1).1, 0);
        let spares = fw.app().spare_servers();
        assert!(
            spares.contains(&"S2".to_string()) && spares.contains(&"S3".to_string()),
            "restarted servers returned to the spare pool: {spares:?}"
        );
    }

    #[test]
    fn control_framework_never_repairs() {
        let mut fw =
            AdaptationFramework::new(GridConfig::default(), FrameworkConfig::control()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        fw.run(400.0, Some(&schedule));
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
        let mut fw = AdaptationFramework::new(GridConfig::default(), short_config()).unwrap();
        fw.run(120.0, None);
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
        let mut fw = AdaptationFramework::new(GridConfig::default(), short_config()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        // Run through the quiescent phase and well into the squeeze phase.
        fw.run(420.0, Some(&schedule));
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
        let group_name = model.component(group).unwrap().name.clone();
        assert_eq!(group_name, fw.app().client_group("User3").unwrap());
    }

    #[test]
    fn server_crash_triggers_a_failover_repair() {
        let mut fw = AdaptationFramework::new(GridConfig::default(), short_config()).unwrap();
        let faults = faultsim::fault_profile_by_name("server-crash-midrun", 400.0).unwrap();
        let compiled = faults.compile(fw.app().testbed(), 42).unwrap();
        fw.run_with_faults(400.0, None, Some(&compiled));
        // Two crashes (t=140) and two restarts (t=340) were injected and
        // traced.
        assert_eq!(fw.trace().count(TraceKind::Fault), 4, "four faults traced");
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
            fw.trace()
                .of_kind(TraceKind::RepairStart)
                .any(|e| e.message.contains("liveness")),
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

    #[test]
    fn repair_takes_about_thirty_seconds() {
        let mut fw = AdaptationFramework::new(GridConfig::default(), short_config()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        fw.run(500.0, Some(&schedule));
        let stats = fw.repair_stats();
        let mean = stats.mean_duration_secs.expect("some repair completed");
        assert!(
            (15.0..=60.0).contains(&mean),
            "repair duration should be tens of seconds, got {mean}"
        );
    }
}
