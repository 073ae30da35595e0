//! The control loop's one observation path.
//!
//! Every noteworthy thing the framework does or sees is named once, as an
//! [`Occurrence`], and handed to [`Observer::record`]. That function is the
//! only place that knows the three output formats — the legacy
//! [`simnet::Trace`] line, the [`tracestore::EventRef`]
//! subject/detail/value/correlation convention, and which `framework.*`
//! counter an occurrence bumps — and the only place that asks a sink whether
//! it is enabled. With the default `NullSink` / `NullRegistry` a `record`
//! call builds the legacy line and nothing else.

use crate::framework::METRIC_SNAPSHOT_PERIOD_SECS;
use archmodel::constraint::Violation;
use archmodel::Key;
use gridapp::{AppError, GridApp};
use monitoring::GaugeReading;
use repair::RepairPlan;
use simnet::{SimTime, Trace, TraceKind};
use std::fmt;
use tracestore::{EventKind, EventRef};
use translator::RuntimeOp;

/// Something the control loop did or saw. Variants borrow: naming an
/// occurrence allocates nothing.
pub(crate) enum Occurrence<'a> {
    /// Probes and gauges are being deployed.
    Deployed,
    /// One tick's gauge readings were delivered to the model. Each reading is
    /// stamped with its own report time, not the tick's.
    GaugeBatch(&'a [GaugeReading]),
    /// A detector flagged a gauge stream drifting towards the named
    /// invariant (stamped with the alarm's own time).
    Advisory(&'a detect::Advisory, &'a str),
    /// The metrics registry was refreshed at the snapshot cadence and is due
    /// to be copied into the trace sink.
    MetricSnapshot,
    /// A constraint was found violated.
    Violation(&'a Violation),
    /// A repair began executing. `batched` marks the group planner's plans,
    /// which name their tactics in the trace and count as `planner.plans`.
    RepairStarted {
        correlation: u64,
        plan: &'a RepairPlan,
        batched: bool,
        runtime_ops: usize,
        duration_secs: f64,
    },
    /// The repair with this correlation id was committed and executed.
    RepairCompleted(u64, &'a RepairPlan),
    /// The engine abandoned the named invariant, for the given reason (no
    /// applicable tactic, or one failed hard).
    RepairAborted(&'a str, &'a str),
    /// The plan for the named subject was abandoned: it has no runtime
    /// translation, for the given reason.
    Untranslatable(&'a str, &'a dyn fmt::Display),
    /// The engine declined to plan, for the given reason (damping, nothing
    /// applicable).
    RepairSkipped(&'a str),
    /// A runtime operation was applied.
    Reconfigured(&'a RuntimeOp),
    /// A runtime operation was attempted and failed.
    OpFailed(&'a RuntimeOp, &'a AppError),
    /// The labelled scripted fault action was applied (or could not be).
    Fault(&'a str, &'a Result<(), AppError>),
    /// The scripted workload changed phase.
    PhaseChange,
    /// Free-form progress note.
    Note(fmt::Arguments<'a>),
}

/// The (sim time, subject) logs the end-of-run lead-time summary joins; kept
/// only when the detector layer is on.
#[derive(Default)]
struct LeadLog {
    /// Every emitted advisory, in emission order.
    advisories: Vec<(f64, Key)>,
    /// Every constraint violation observed.
    violations: Vec<(f64, Key)>,
}

/// Owns every observation output of one run: the legacy trace, the trace
/// sink, the metrics sink, and the always-on tallies behind
/// [`RepairStats`](crate::framework::RepairStats) and the pulled counters.
pub(crate) struct Observer {
    trace: Trace,
    /// Unified observation sink (the application shares the handle for
    /// transfer completions). The default `NullSink` is disabled.
    sink: tracestore::SharedSink,
    /// Where a sink event's formatted detail is written, reused so the
    /// event borrows it instead of owning a fresh `String`.
    detail: String,
    /// Self-observability sink for span timings and control-plane counters.
    /// The default `NullRegistry` is disabled.
    metrics: obs::SharedMetrics,
    /// Sim time at/after which the next metric snapshot is emitted.
    next_metric_snapshot_secs: f64,
    repair_seq: u64,
    leads: Option<LeadLog>,
    /// (invariant, element) pairs the incremental checker replayed from its
    /// cache instead of evaluating.
    pub(crate) pairs_skipped: u64,
    /// Gauge readings equal to the stored model value, suppressed before
    /// touching the model or its change journal.
    pub(crate) noop_suppressed: u64,
    /// `activateServer` operations attempted on a mapped server.
    pub(crate) servers_activated: u64,
    /// Clients re-homed by `moveClient` / `moveClientGroup`.
    pub(crate) client_moves: u64,
}

impl Observer {
    /// An observer with both sinks disabled. `track_leads` keeps the
    /// advisory/violation logs the detector layer's lead-time join needs.
    pub(crate) fn new(track_leads: bool) -> Self {
        Observer {
            trace: Trace::new(),
            sink: tracestore::null_sink(),
            detail: String::new(),
            metrics: obs::null_metrics(),
            next_metric_snapshot_secs: 0.0,
            repair_seq: 0,
            leads: track_leads.then(LeadLog::default),
            pairs_skipped: 0,
            noop_suppressed: 0,
            servers_activated: 0,
            client_moves: 0,
        }
    }

    pub(crate) fn set_sink(&mut self, sink: tracestore::SharedSink) {
        self.sink = sink;
    }

    pub(crate) fn set_metrics(&mut self, metrics: obs::SharedMetrics) {
        self.metrics = metrics;
    }

    /// The legacy event trace recorded so far.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Starts a wall-clock span feeding the histogram `phase`; `None` (no
    /// clock read, no name interned) when metrics are disabled.
    pub(crate) fn span(&self, phase: &str) -> Option<obs::Span> {
        self.metrics
            .enabled()
            .then(|| obs::Span::start(&self.metrics, Key::new(phase)))
    }

    /// The correlation id of the repair about to start.
    pub(crate) fn next_correlation(&mut self) -> u64 {
        self.repair_seq += 1;
        self.repair_seq
    }

    /// Advisories emitted so far.
    pub(crate) fn advisories(&self) -> u64 {
        self.leads.as_ref().map_or(0, |l| l.advisories.len() as u64)
    }

    /// Renders one occurrence into every output that wants it. `t` stamps
    /// the occurrence unless the variant says it carries its own time.
    pub(crate) fn record(&mut self, t: SimTime, occurrence: Occurrence<'_>) {
        let secs = t.as_secs();
        match occurrence {
            Occurrence::Deployed => self.note(t, "deploying probes and gauges".into()),
            Occurrence::GaugeBatch(readings) => {
                if self.sink.enabled() {
                    for reading in readings {
                        self.sink.append(
                            EventRef::new(
                                reading.time,
                                EventKind::Gauge,
                                reading.target.as_str(),
                                reading.property.as_str(),
                            )
                            .with_value(reading.value),
                        );
                    }
                }
                self.count("framework.ticks", 1);
                self.count("framework.gauge_readings", readings.len() as u64);
            }
            Occurrence::Advisory(alarm, predicts) => {
                if let Some(leads) = self.leads.as_mut() {
                    leads.advisories.push((alarm.time, alarm.subject));
                }
                self.emit_formatted(
                    EventRef::new(alarm.time, EventKind::Advisory, alarm.subject.as_str(), "")
                        .with_value(alarm.score),
                    format_args!(
                        "{}/{} predict={predicts}",
                        alarm.property.as_str(),
                        alarm.detector.name()
                    ),
                );
            }
            Occurrence::MetricSnapshot => self.copy_metrics_to_sink(secs),
            Occurrence::Violation(violation) => {
                self.trace.record(
                    t,
                    TraceKind::Violation,
                    format!(
                        "{} violated for {} ({})",
                        violation.invariant, violation.subject_name, violation.detail
                    ),
                );
                self.emit(EventRef::new(
                    secs,
                    EventKind::Violation,
                    &violation.subject_name,
                    &violation.invariant,
                ));
                self.count("framework.violations", 1);
                if let Some(leads) = self.leads.as_mut() {
                    leads
                        .violations
                        .push((secs, Key::new(&violation.subject_name)));
                }
            }
            Occurrence::RepairStarted {
                correlation,
                plan,
                batched,
                runtime_ops,
                duration_secs,
            } => {
                let label = if batched {
                    format!("[{}] ", plan.tactics.join("+"))
                } else {
                    String::new()
                };
                self.trace.record_correlated(
                    t,
                    TraceKind::RepairStart,
                    correlation,
                    format!(
                        "repair #{correlation} for {} ({}): {label}{} \
                         [{runtime_ops} runtime ops, ≈{duration_secs:.0} s]",
                        plan.subject, plan.invariant, plan.description
                    ),
                );
                self.emit_formatted(
                    EventRef::new(secs, EventKind::RepairStart, &plan.subject, "")
                        .with_correlation(correlation),
                    format_args!("{}: {label}{}", plan.invariant, plan.description),
                );
                self.count("framework.repairs.started", 1);
                if batched {
                    self.count("planner.plans", 1);
                }
                self.count("framework.plan_ops", runtime_ops as u64);
            }
            Occurrence::RepairCompleted(correlation, plan) => {
                self.trace.record_correlated(
                    t,
                    TraceKind::RepairEnd,
                    correlation,
                    format!(
                        "repair #{correlation} for {} complete: {}",
                        plan.subject, plan.description
                    ),
                );
                self.emit(
                    EventRef::new(secs, EventKind::RepairEnd, &plan.subject, &plan.description)
                        .with_correlation(correlation),
                );
                self.count("framework.repairs.completed", 1);
            }
            Occurrence::RepairAborted(invariant, reason) => {
                let line = format!("repair of {invariant} aborted: {reason}");
                self.trace.record(t, TraceKind::RepairAborted, line);
                self.emit(EventRef::new(
                    secs,
                    EventKind::RepairAborted,
                    invariant,
                    reason,
                ));
                self.count("framework.repairs.aborted", 1);
            }
            Occurrence::Untranslatable(subject, error) => {
                let reason = format!("translation failed: {error}");
                self.emit(EventRef::new(
                    secs,
                    EventKind::RepairAborted,
                    subject,
                    &reason,
                ));
                self.trace.record(t, TraceKind::RepairAborted, reason);
                self.count("framework.repairs.aborted", 1);
            }
            Occurrence::RepairSkipped(reason) => {
                self.note(t, format!("repair skipped: {reason}"));
            }
            Occurrence::Reconfigured(op) => {
                let described = op.describe();
                self.emit(EventRef::new(
                    secs,
                    EventKind::Reconfiguration,
                    runtime_op_subject(op),
                    &described,
                ));
                self.trace.record(t, TraceKind::Reconfiguration, described);
            }
            Occurrence::OpFailed(op, error) => {
                self.note(
                    t,
                    format!("runtime operation {} failed: {error}", op.describe()),
                );
            }
            Occurrence::Fault(label, Ok(())) => {
                self.trace
                    .record(t, TraceKind::Fault, format!("fault injected: {label}"));
            }
            Occurrence::Fault(label, Err(e)) => {
                self.note(t, format!("fault action {label} failed: {e}"));
            }
            Occurrence::PhaseChange => {
                self.note(t, format!("workload phase change at {secs:.0} s"));
            }
            Occurrence::Note(text) => self.note(t, text.to_string()),
        }
    }

    fn note(&mut self, t: SimTime, line: String) {
        self.trace.record(t, TraceKind::Info, line);
    }

    /// Appends to the trace sink if it is enabled. The view borrows what the
    /// occurrence already holds.
    fn emit(&self, event: EventRef<'_>) {
        if self.sink.enabled() {
            self.sink.append(event);
        }
    }

    /// [`emit`](Self::emit) with the detail formatted — only for an enabled
    /// sink, and into the reused `detail` buffer.
    fn emit_formatted(&mut self, event: EventRef<'_>, detail: fmt::Arguments<'_>) {
        if self.sink.enabled() {
            self.detail.clear();
            fmt::Write::write_fmt(&mut self.detail, detail).expect("a String takes any write");
            self.sink.append(EventRef {
                detail: &self.detail,
                ..event
            });
        }
    }

    /// Bumps a deterministic counter, interning its name only for a registry
    /// that wants it.
    fn count(&self, name: &str, delta: u64) {
        if self.metrics.enabled() {
            self.metrics.add(Key::new(name), delta);
        }
    }

    /// Whether a metric snapshot falls due at `t` (never, without a metrics
    /// registry). Answering yes schedules the next one
    /// [`METRIC_SNAPSHOT_PERIOD_SECS`] later; the caller then refreshes the
    /// pulled counters and records [`Occurrence::MetricSnapshot`].
    pub(crate) fn metric_snapshot_due(&mut self, t: SimTime) -> bool {
        let due = self.metrics.enabled() && t.as_secs() >= self.next_metric_snapshot_secs;
        if due {
            self.next_metric_snapshot_secs = t.as_secs() + METRIC_SNAPSHOT_PERIOD_SECS;
        }
        due
    }

    /// Appends every deterministic counter/gauge to the trace sink as an
    /// [`EventKind::Metric`] event. The values are simulation-deterministic,
    /// so the store they land in stays byte-identical across worker counts.
    fn copy_metrics_to_sink(&self, secs: f64) {
        if !self.sink.enabled() {
            return;
        }
        let Some((counters, gauges)) = self.metrics.deterministic_values() else {
            return;
        };
        for (name, value) in counters {
            self.sink.append(
                EventRef::new(secs, EventKind::Metric, name.as_str(), "counter")
                    .with_value(value as f64),
            );
        }
        for (name, value) in gauges {
            self.sink.append(
                EventRef::new(secs, EventKind::Metric, name.as_str(), "gauge").with_value(value),
            );
        }
    }

    /// Publishes the components' always-on deterministic counters (probe
    /// solves, allocation epochs, path-table and due-queue ops, flow-memo
    /// hits, class census) and this observer's own tallies into the metrics
    /// sink as absolute values; a no-op when metrics are disabled.
    pub(crate) fn publish_components(
        &self,
        app: &GridApp,
        detector_points: Option<u64>,
        census: Option<&planner::ClassIndex>,
    ) {
        if !self.metrics.enabled() {
            return;
        }
        let set = |name: &str, value: u64| self.metrics.set_counter(Key::new(name), value);
        let queries = app.probe_query_count();
        let solves = app.probe_solve_count();
        set("simnet.rate_epochs", app.rate_epoch_count());
        set("simnet.probe.queries", queries);
        set("simnet.probe.solves", solves);
        set("simnet.probe.memo_hits", queries.saturating_sub(solves));
        // Always 0: the digested report, store and observation fixture hold the names.
        set("simnet.agg.rows", 0);
        set("simnet.agg.aggregated_flows", 0);
        set("simnet.agg.total_flows", 0);
        set("simnet.agg.permanent_splits", 0);
        let paths = app.path_table_stats();
        set("simnet.paths.trees_built", paths.trees_built);
        set("simnet.paths.lookups", paths.lookups);
        let due = app.due_queue_stats();
        set("gridapp.due.inserts", due.inserts);
        set("gridapp.due.removes", due.removes);
        set("gridapp.due.collected", due.collected);
        let (hits, misses) = app.flow_memo_stats();
        set("gridapp.flows.memo_hits", hits);
        set("gridapp.flows.memo_misses", misses);
        set("constraint.pairs_skipped", self.pairs_skipped);
        set("monitoring.gauge_noop_suppressed", self.noop_suppressed);
        if let Some(points) = detector_points {
            set("detect.advisories", self.advisories());
            set("detect.series_points", points);
        }
        if let Some(index) = census {
            let gauge = |name: &str, value: usize| {
                self.metrics.set_gauge(Key::new(name), value as f64);
            };
            gauge("planner.client_classes", index.client_classes().len());
            gauge("planner.server_classes", index.server_classes().len());
        }
    }

    /// Median lead time over all (advisory → first subsequent same-subject
    /// violation within `horizon_secs`) pairs. Quadratic in log sizes, run
    /// once at end of run over short, rare-event logs.
    pub(crate) fn median_lead_secs(&self, horizon_secs: f64) -> Option<f64> {
        let log = self.leads.as_ref()?;
        let mut leads: Vec<f64> = log
            .advisories
            .iter()
            .filter_map(|&(a_time, subject)| {
                log.violations
                    .iter()
                    .filter(|&&(v_time, v_subject)| {
                        v_subject == subject && v_time >= a_time && v_time - a_time <= horizon_secs
                    })
                    .map(|&(v_time, _)| v_time - a_time)
                    .fold(None, |best: Option<f64>, lead| {
                        Some(best.map_or(lead, |b| b.min(lead)))
                    })
            })
            .collect();
        tracestore::aggregate::median_of(&mut leads)
    }
}

/// The primary element a runtime operation acts on, for the trace sink's
/// `subject` field.
fn runtime_op_subject(op: &RuntimeOp) -> &str {
    match op {
        RuntimeOp::CreateReqQueue { group } | RuntimeOp::DrainStuckServers { group, .. } => group,
        RuntimeOp::FindServer { client, .. }
        | RuntimeOp::MoveClient { client, .. }
        | RuntimeOp::RemosGetFlow { client, .. } => client,
        RuntimeOp::MoveClientGroup { to_group, .. } => to_group,
        RuntimeOp::ConnectServer { server, .. }
        | RuntimeOp::ActivateServer { server }
        | RuntimeOp::DeactivateServer { server } => server,
        RuntimeOp::DeleteGauge { gauge } | RuntimeOp::CreateGauge { gauge } => gauge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink / registry pair that reports itself disabled and panics if
    /// anything is written to it anyway.
    struct Off;

    impl tracestore::TraceSink for Off {
        fn enabled(&self) -> bool {
            false
        }
        fn append(&self, event: EventRef<'_>) {
            panic!("disabled sink was handed {event:?}");
        }
    }

    impl obs::MetricsSink for Off {
        fn enabled(&self) -> bool {
            false
        }
        fn add(&self, key: Key, _delta: u64) {
            panic!("disabled registry was asked to add to {}", key.as_str());
        }
        fn set_counter(&self, key: Key, _value: u64) {
            panic!("disabled registry was asked to set {}", key.as_str());
        }
        fn set_gauge(&self, key: Key, _value: f64) {
            panic!("disabled registry was asked to set {}", key.as_str());
        }
        fn observe_nanos(&self, key: Key, _nanos: u64) {
            panic!("disabled registry was handed a {} span", key.as_str());
        }
    }

    fn plan_by(tactics: &[&str]) -> RepairPlan {
        RepairPlan {
            invariant: "bandwidth".into(),
            subject: "User3".into(),
            ops: Vec::new(),
            tactics: tactics.iter().map(|t| t.to_string()).collect(),
            description: "move User3 to ServerGrp2".into(),
        }
    }

    /// Records one of every occurrence, in declaration order.
    fn record_one_of_each(observer: &mut Observer) {
        let t = SimTime::from_secs(10.0);
        let reading = GaugeReading {
            time: 9.5,
            target: Key::new("ServerGrp1"),
            property: Key::new("load"),
            value: 7.0,
        };
        let alarm = detect::Advisory {
            time: 9.5,
            subject: Key::new("ServerGrp1"),
            property: Key::new("load"),
            detector: detect::Detector::Cusum,
            score: 8.5,
            direction: detect::Direction::Up,
        };
        let violation = Violation {
            invariant: "bandwidth".into(),
            subject: None,
            subject_name: "User3.role".into(),
            detail: "self.bandwidth >= minBandwidth".into(),
        };
        let plan = plan_by(&["fixBandwidth"]);
        let group_plan = plan_by(&["moveClientGroup", "drainServer"]);
        let op = RuntimeOp::MoveClient {
            client: "User3".into(),
            to_group: "ServerGrp2".into(),
        };
        let error = AppError::UnknownClient("User3".into());
        observer.record(t, Occurrence::Deployed);
        observer.record(t, Occurrence::GaugeBatch(&[reading]));
        observer.record(t, Occurrence::Advisory(&alarm, "serverLoad"));
        observer.record(t, Occurrence::MetricSnapshot);
        observer.record(t, Occurrence::Violation(&violation));
        for (correlation, plan, batched) in [(1, &plan, false), (2, &group_plan, true)] {
            observer.record(
                t,
                Occurrence::RepairStarted {
                    correlation,
                    plan,
                    batched,
                    runtime_ops: 4,
                    duration_secs: 29.6,
                },
            );
        }
        observer.record(t, Occurrence::RepairCompleted(1, &plan));
        observer.record(t, Occurrence::RepairAborted("latency", "no spare server"));
        observer.record(t, Occurrence::Untranslatable("User3", &"no role"));
        observer.record(t, Occurrence::RepairSkipped("settling"));
        observer.record(t, Occurrence::Reconfigured(&op));
        observer.record(t, Occurrence::OpFailed(&op, &error));
        for result in [Ok(()), Err(AppError::Invalid("no such link".into()))] {
            observer.record(t, Occurrence::Fault("link R2-R3 cut", &result));
        }
        observer.record(SimTime::from_secs(45.0), Occurrence::PhaseChange);
        observer.record(t, Occurrence::Note(format_args!("drained {} replicas", 3)));
    }

    #[test]
    fn disabled_sinks_see_nothing_and_the_legacy_trace_is_unchanged() {
        let mut observer = Observer::new(false);
        observer.set_sink(Arc::new(Off));
        observer.set_metrics(Arc::new(Off));
        assert!(!observer.metric_snapshot_due(SimTime::from_secs(60.0)));
        assert!(observer.span("phase.tick").is_none());
        record_one_of_each(&mut observer);

        let lines: Vec<String> = observer
            .trace()
            .entries()
            .iter()
            .map(|e| {
                format!(
                    "{} {:?} {:?} {}",
                    e.time.as_secs(),
                    e.kind,
                    e.correlation,
                    e.message
                )
            })
            .collect();
        // The exact text, kind, and correlation the pre-`Observer` call sites
        // produced (gauge batches, advisories, and metric snapshots never had
        // a legacy line).
        assert_eq!(
            lines,
            [
                "10 Info None deploying probes and gauges",
                "10 Violation None bandwidth violated for User3.role \
                 (self.bandwidth >= minBandwidth)",
                "10 RepairStart Some(1) repair #1 for User3 (bandwidth): \
                 move User3 to ServerGrp2 [4 runtime ops, ≈30 s]",
                "10 RepairStart Some(2) repair #2 for User3 (bandwidth): \
                 [moveClientGroup+drainServer] move User3 to ServerGrp2 [4 runtime ops, ≈30 s]",
                "10 RepairEnd Some(1) repair #1 for User3 complete: move User3 to ServerGrp2",
                "10 RepairAborted None repair of latency aborted: no spare server",
                "10 RepairAborted None translation failed: no role",
                "10 Info None repair skipped: settling",
                "10 Reconfiguration None moveClient(User3 -> ServerGrp2)",
                "10 Info None runtime operation moveClient(User3 -> ServerGrp2) failed: \
                 unknown client: User3",
                "10 Fault None fault injected: link R2-R3 cut",
                "10 Info None fault action link R2-R3 cut failed: \
                 invalid operation: no such link",
                "45 Info None workload phase change at 45 s",
                "10 Info None drained 3 replicas",
            ]
        );
        assert_eq!(observer.advisories(), 0, "no lead log without detectors");
    }

    /// The golden fixture's runs never abort a repair; pin the two abort
    /// renderings (and the counters every lifecycle occurrence bumps) here.
    #[test]
    fn enabled_sinks_receive_the_store_convention_and_counters() {
        let mut observer = Observer::new(true);
        let (buffer, sink) = tracestore::shared_buffer();
        let (registry, metrics) = obs::shared_registry();
        observer.set_sink(sink);
        observer.set_metrics(metrics);
        record_one_of_each(&mut observer);

        let events = buffer.take();
        let aborted: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| e.kind == EventKind::RepairAborted)
            .map(|e| (&*e.subject, &*e.detail))
            .collect();
        assert_eq!(
            aborted,
            [
                ("latency", "no spare server"),
                ("User3", "translation failed: no role")
            ]
        );
        let starts: Vec<(&str, Option<u64>)> = events
            .iter()
            .filter(|e| e.kind == EventKind::RepairStart)
            .map(|e| (&*e.detail, e.correlation))
            .collect();
        assert_eq!(
            starts,
            [
                ("bandwidth: move User3 to ServerGrp2", Some(1)),
                (
                    "bandwidth: [moveClientGroup+drainServer] move User3 to ServerGrp2",
                    Some(2)
                ),
            ]
        );
        let gauge = &events[0];
        assert_eq!(
            (gauge.kind, gauge.time_secs, gauge.value),
            (EventKind::Gauge, 9.5, Some(7.0))
        );
        let counters = registry.snapshot().counters;
        let expect = [
            ("framework.gauge_readings", 1),
            ("framework.plan_ops", 8),
            ("framework.repairs.aborted", 2),
            ("framework.repairs.completed", 1),
            ("framework.repairs.started", 2),
            ("framework.ticks", 1),
            ("framework.violations", 1),
            ("planner.plans", 1),
        ];
        assert_eq!(
            counters
                .iter()
                .map(|(name, value)| (name.as_str(), *value))
                .collect::<Vec<_>>(),
            expect
        );
        assert_eq!(observer.advisories(), 1);
        assert_eq!(observer.median_lead_secs(120.0), None, "subjects differ");
    }
}
