//! The control loop's one observation path.
//!
//! Every noteworthy thing the framework does or sees is named once, as an
//! [`Occurrence`], and handed to [`Observer::record`]. That function pushes
//! it onto the run's [`RunLog`] — the one record of the run — renders that
//! same entry into a [`tracestore::EventRef`] when the trace sink is
//! enabled, and bumps the `framework.*` counters it drives; it is the only
//! place that asks a sink whether it is enabled. The text of the legacy
//! event trace is a renderer over the log (`RunLog::legacy_lines`), so with
//! the default `NullSink` / `NullRegistry` a `record` call formats nothing.
//! Gauge batches and metric snapshots go straight to the sinks and are not
//! logged.

use crate::framework::METRIC_SNAPSHOT_PERIOD_SECS;
use crate::log::{Occurrence, RunLog};
use archmodel::Key;
use gridapp::GridApp;
use monitoring::GaugeReading;
use simnet::SimTime;
use tracestore::{EventKind, EventRef};

/// Owns every observation output of one run: the run log, the trace sink,
/// the metrics sink, and the always-on tallies the log does not hold.
pub(crate) struct Observer {
    log: RunLog,
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
    /// An observer with both sinks disabled and an empty log.
    pub(crate) fn new() -> Self {
        Observer {
            log: RunLog::default(),
            sink: tracestore::null_sink(),
            detail: String::new(),
            metrics: obs::null_metrics(),
            next_metric_snapshot_secs: 0.0,
            repair_seq: 0,
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

    /// The run log recorded so far.
    pub(crate) fn log(&self) -> &RunLog {
        &self.log
    }

    /// The run log, for a caller done with the observer.
    pub(crate) fn into_log(self) -> RunLog {
        self.log
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

    /// Delivers one tick's gauge readings to the sink, each stamped with its
    /// own report time, and counts the tick.
    pub(crate) fn gauge_batch(&self, readings: &[GaugeReading]) {
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

    /// Logs one occurrence stamped `t`, emits the same entry to an enabled
    /// sink, and bumps the counters it drives.
    pub(crate) fn record(&mut self, t: SimTime, occurrence: Occurrence) {
        match &occurrence {
            Occurrence::Violation { .. } => self.count("framework.violations", 1),
            Occurrence::RepairStarted(start) => {
                self.count("framework.repairs.started", 1);
                if start.batched {
                    self.count("planner.plans", 1);
                }
                self.count("framework.plan_ops", start.runtime_ops as u64);
            }
            Occurrence::RepairCompleted { .. } => self.count("framework.repairs.completed", 1),
            Occurrence::RepairAborted { .. } | Occurrence::Untranslatable(_) => {
                self.count("framework.repairs.aborted", 1);
            }
            _ => {}
        }
        let entry = self.log.push(t, occurrence);
        if self.sink.enabled() {
            if let Some(event) = entry.sink_event(&mut self.detail) {
                self.sink.append(event);
            }
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
    /// pulled counters and calls [`copy_metrics_to_sink`](Self::copy_metrics_to_sink).
    pub(crate) fn metric_snapshot_due(&mut self, t: SimTime) -> bool {
        let due = self.metrics.enabled() && t.as_secs() >= self.next_metric_snapshot_secs;
        if due {
            self.next_metric_snapshot_secs = t.as_secs() + METRIC_SNAPSHOT_PERIOD_SECS;
        }
        due
    }

    /// Appends every deterministic counter/gauge to the trace sink as an
    /// [`EventKind::Metric`] event stamped `t`. The values are
    /// simulation-deterministic, so the store they land in stays
    /// byte-identical across worker counts.
    pub(crate) fn copy_metrics_to_sink(&self, t: SimTime) {
        if !self.sink.enabled() {
            return;
        }
        let Some((counters, gauges)) = self.metrics.deterministic_values() else {
            return;
        };
        let secs = t.as_secs();
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
        // The name predates shared trees: it counts each source's first route.
        set("simnet.paths.trees_built", paths.sources_routed);
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
            set("detect.advisories", self.log.advisory_count());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::RepairStart;
    use archmodel::constraint::Violation;
    use gridapp::AppError;
    use repair::RepairPlan;
    use std::sync::Arc;
    use translator::{RuntimeOp, TranslationError};

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

    fn plan_by(tactics: &[&str]) -> Arc<RepairPlan> {
        Arc::new(RepairPlan {
            invariant: "bandwidth".into(),
            subject: "User3".into(),
            ops: Vec::new(),
            tactics: tactics.iter().map(|t| t.to_string()).collect(),
            description: "move User3 to ServerGrp2".into(),
        })
    }

    /// What the engine records when its one candidate is still settling.
    fn settling_skip() -> Box<repair::Skip> {
        let mut engine = repair::RepairEngine::new();
        engine.register("latency", repair::fix_latency_strategy());
        let mut damping = repair::RepairDamping::new(60.0);
        damping.record("User3", 0.0);
        engine.set_damping(Some(damping));
        let violation = Violation {
            invariant: "latency".into(),
            subject: None,
            subject_name: "User3".into(),
            detail: "self.averageLatency <= maxLatency".into(),
        };
        let report = archmodel::CheckReport {
            violations: vec![violation],
            ..Default::default()
        };
        let model = archmodel::System::new("storage");
        let query = repair::StaticQuery::new();
        match engine.plan(&model, &report, &query, 10.0) {
            repair::PlanOutcome::Skipped(skip) => Box::new(skip),
            other => panic!("the candidate is settling: {other:?}"),
        }
    }

    /// Records one of every occurrence, in declaration order, with the
    /// gauge batch and the metric snapshot where they fall in a tick.
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
        let op = || RuntimeOp::MoveClient {
            client: "User3".into(),
            to_group: "ServerGrp2".into(),
        };
        let error = AppError::UnknownClient("User3".into());
        observer.record(t, Occurrence::Deployed);
        observer.gauge_batch(&[reading]);
        observer.record(
            SimTime::from_secs(alarm.time),
            Occurrence::Advisory(Box::new((alarm, "serverLoad"))),
        );
        observer.copy_metrics_to_sink(t);
        observer.record(t, Occurrence::violation(&violation));
        for (correlation, plan, batched) in [(1, &plan, false), (2, &group_plan, true)] {
            let start = RepairStart {
                correlation,
                plan: Arc::clone(plan),
                batched,
                runtime_ops: 4,
                duration_secs: 29.6,
            };
            observer.record(t, Occurrence::RepairStarted(Box::new(start)));
        }
        observer.record(
            t,
            Occurrence::RepairCompleted {
                correlation: 1,
                plan,
            },
        );
        observer.record(
            t,
            Occurrence::RepairAborted {
                invariant: "latency".into(),
                reason: "no spare server".into(),
            },
        );
        observer.record(
            t,
            Occurrence::Untranslatable(Box::new((
                "User3".into(),
                TranslationError::NotTranslatable("no role".into()),
            ))),
        );
        observer.record(t, Occurrence::RepairSkipped(settling_skip()));
        observer.record(t, Occurrence::Reconfigured(Box::new(op())));
        observer.record(t, Occurrence::OpFailed(Box::new((op(), error))));
        let label = || "link R2-R3 cut".to_string();
        observer.record(t, Occurrence::Fault(label()));
        let failed = AppError::Invalid("no such link".into());
        observer.record(t, Occurrence::FaultFailed(Box::new((label(), failed))));
        observer.record(SimTime::from_secs(45.0), Occurrence::PhaseChange);
        let group = "ServerGrp1".into();
        observer.record(t, Occurrence::Drained { group, count: 3 });
        let unknown = archmodel::ModelError::NameNotFound("S9".into());
        observer.record(t, Occurrence::CommitFailed(unknown));
        observer.record(t, Occurrence::StyleViolations(2));
    }

    #[test]
    fn disabled_sinks_see_nothing_and_the_legacy_trace_is_unchanged() {
        let mut observer = Observer::new();
        observer.set_sink(Arc::new(Off));
        observer.set_metrics(Arc::new(Off));
        assert!(!observer.metric_snapshot_due(SimTime::from_secs(60.0)));
        assert!(observer.span("phase.tick").is_none());
        record_one_of_each(&mut observer);

        let lines: Vec<String> = observer
            .log()
            .legacy_lines()
            .map(|line| {
                format!(
                    "{} {:?} {:?} {line}",
                    line.time.as_secs(),
                    line.kind,
                    line.correlation
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
                "10 RepairAborted None translation failed: no runtime mapping for: no role",
                "10 Info None repair skipped: repair for User3 suppressed for another 50.0 s \
                 (settle window)",
                "10 Reconfiguration None moveClient(User3 -> ServerGrp2)",
                "10 Info None runtime operation moveClient(User3 -> ServerGrp2) failed: \
                 unknown client: User3",
                "10 Fault None fault injected: link R2-R3 cut",
                "10 Info None fault action link R2-R3 cut failed: \
                 invalid operation: no such link",
                "45 Info None workload phase change at 45 s",
                "10 Info None drained 3 wedged replicas of ServerGrp1",
                "10 Info None model op could not be committed: no element named S9",
                "10 Info None model has 2 style violations after commit",
            ]
        );
        assert_eq!(observer.log().advisory_count(), 1);
    }

    /// The golden fixture's runs never abort a repair; pin the two abort
    /// renderings (and the counters every lifecycle occurrence bumps) here.
    #[test]
    fn enabled_sinks_receive_the_store_convention_and_counters() {
        let mut observer = Observer::new();
        let (buffer, sink) = tracestore::shared_buffer();
        let (registry, metrics) = obs::shared_registry();
        observer.set_sink(sink);
        observer.set_metrics(metrics);
        record_one_of_each(&mut observer);

        let events = buffer.take();
        let aborted: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| e.kind == EventKind::RepairAborted)
            .map(|e| (e.subject.as_str(), e.detail.as_str()))
            .collect();
        assert_eq!(
            aborted,
            [
                ("latency", "no spare server"),
                (
                    "User3",
                    "translation failed: no runtime mapping for: no role"
                )
            ]
        );
        let starts: Vec<(&str, Option<u64>)> = events
            .iter()
            .filter(|e| e.kind == EventKind::RepairStart)
            .map(|e| (e.detail.as_str(), e.correlation))
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
        let advisory = &events[1];
        assert_eq!(
            (advisory.kind, advisory.time_secs, advisory.detail.as_str()),
            (EventKind::Advisory, 9.5, "load/cusum predict=serverLoad")
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
        assert_eq!(observer.log().advisory_count(), 1);
        assert_eq!(
            observer.log().median_lead_secs(120.0),
            None,
            "subjects differ"
        );
    }
}
