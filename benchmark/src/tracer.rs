//! The traced pass's accumulator. Each arm runs with one of the program's own
//! `obs::shared_registry()` attached; afterwards its `phase.*` totals and
//! deterministic counters are folded in here beside the bench-side spans, and
//! `finish` turns the lot into one value per per-layer metric.

use crate::arm::{self, Arm, Observers};
use crate::metrics::PER_LAYER;
use crate::span::{Role, SpanLog};
use crate::stats;
use obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Default, Clone, Copy)]
struct Phase {
    count: u64,
    total_s: f64,
    /// Largest single observation over all arms.
    max_ms: f64,
    /// Largest per-arm p95 (the registry's power-of-two bucket bound).
    p95_ms: f64,
}

/// `phase.*` histograms nested inside `phase.tick`, with the layer metric
/// each one feeds.
const TICK_PHASES: &[(&str, &str)] = &[
    ("phase.advance", "gridapp.advance_s"),
    ("phase.gauge_dispatch", "monitoring.gauge_dispatch_s"),
    ("phase.detect", "detect.phase_s"),
    ("phase.constraint_check", "archmodel.constraint_check_s"),
    ("phase.plan", "repair.plan_s"),
    ("phase.translate", "translator.translate_s"),
    ("phase.execute", "core.execute_s"),
    ("phase.commit_replay", "core.commit_replay_s"),
];

/// Registry counter → per-layer metric, summed over arms.
const COUNTERS: &[(&str, &str)] = &[
    ("simnet.rate_epochs", "simnet.rate_epochs"),
    ("simnet.probe.solves", "simnet.probe_solves"),
    ("simnet.paths.trees_built", "simnet.paths_trees_built"),
    ("simnet.agg.rows", "simnet.agg_rows"),
    ("simnet.agg.permanent_splits", "simnet.agg_permanent_splits"),
    ("gridapp.due.inserts", "gridapp.due_inserts"),
    ("framework.gauge_readings", "monitoring.gauge_readings"),
    (
        "monitoring.gauge_noop_suppressed",
        "monitoring.gauge_noop_suppressed",
    ),
    ("constraint.pairs_skipped", "archmodel.pairs_skipped"),
    ("framework.plan_ops", "repair.plan_ops"),
    ("planner.plans", "planner.plans"),
    ("framework.repairs.completed", "repair.repairs_completed"),
    ("framework.ticks", "core.ticks"),
    ("detect.advisories", "detect.advisories"),
    ("detect.series_points", "detect.series_points"),
];

#[derive(Default)]
pub struct Tracer {
    pub spans: SpanLog,
    /// The span covering the whole workload, once `begin` has opened it.
    root: Option<usize>,
    phases: BTreeMap<String, Phase>,
    counters: BTreeMap<String, u64>,
    client_classes: f64,
    arms: u64,
    client_moves: u64,
    fault_actions: u64,
    full_check_pairs: u64,
    unit_ms: Vec<f64>,
    /// `AdaptationFramework::new` of the first arm: the first construction
    /// in this process, as the stand-alone probes are in theirs.
    first_new_s: Option<f64>,
    /// The part of one `new` the stand-alone probes account for.
    pub probed_new_s: Option<f64>,
    /// Values measured directly by probes and query spans.
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Tracer {
    /// Opens the span that covers the whole workload.
    pub fn begin(&mut self) {
        self.root = Some(self.spans.open("workload", None, Role::Glue));
    }

    /// Closes the workload span.
    pub fn end(&mut self) {
        self.spans.close(self.root());
    }

    fn root(&self) -> usize {
        self.root.expect("`begin` opens the workload span first")
    }

    /// Opens a span directly under the workload span.
    pub fn open(&mut self, name: &str, role: Role) -> usize {
        self.spans.open(name, Some(self.root()), role)
    }

    /// Records a timed call into a layer, directly under the workload span.
    pub fn layer_span(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans
            .record(name, start, end, Some(self.root()), Role::Layer);
    }

    /// The observers of one arm: in a traced pass the given sink, one of the
    /// program's own registries (returned to be read afterwards) and the
    /// full-check probe; otherwise nothing at all.
    pub fn observers(
        traced: bool,
        sink: tracestore::SharedSink,
    ) -> (Observers, Option<MetricsRegistry>) {
        if !traced {
            return (Observers::quiet(), None);
        }
        let (registry, metrics) = obs::shared_registry();
        let observers = Observers {
            sink,
            metrics,
            full_check: true,
        };
        (observers, Some(registry))
    }

    /// Records one finished arm: a span per step under an `arm.<label>` span
    /// (itself under `parent`, or the workload span), the registry's `phase.*`
    /// totals under the run step, and its counters.
    pub fn absorb_arm(
        &mut self,
        parent: Option<usize>,
        generated: (Instant, Instant),
        arm: &Arm,
        registry: &MetricsRegistry,
    ) {
        let last = arm.steps.last().expect("an arm has steps").end;
        let arm_span = self.spans.record(
            &format!("arm.{}", arm.summary.label),
            generated.0,
            last,
            Some(parent.unwrap_or(self.root())),
            Role::Glue,
        );
        self.spans.record(
            "input.generate",
            generated.0,
            generated.1,
            Some(arm_span),
            Role::Layer,
        );
        let report = registry.perf_report();
        let phase_s = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.name == name)
                .map_or(0.0, |r| r.total_ms / 1e3)
        };
        for step in &arm.steps {
            let role = match step.name {
                // The run step is not itself a layer: the phases inside it are.
                arm::STEP_RUN => Role::Glue,
                arm::STEP_FULL_CHECK => Role::Probe,
                _ => Role::Layer,
            };
            let id = self
                .spans
                .record(step.name, step.start, step.end, Some(arm_span), role);
            if step.name == arm::STEP_RUN {
                let tick =
                    self.spans
                        .record_total("phase.tick", phase_s("phase.tick"), id, Role::Glue);
                for (phase, _) in TICK_PHASES {
                    self.spans
                        .record_total(phase, phase_s(phase), tick, Role::Layer);
                }
            }
        }
        for row in &report.rows {
            let phase = self.phases.entry(row.name.clone()).or_default();
            phase.count += row.count;
            phase.total_s += row.total_ms / 1e3;
            phase.max_ms = phase.max_ms.max(row.max_us / 1e3);
            phase.p95_ms = phase.p95_ms.max(row.p95_us / 1e3);
        }
        let snapshot = registry.snapshot();
        for (name, value) in snapshot.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in snapshot.gauges {
            if name == "planner.client_classes" {
                self.client_classes = self.client_classes.max(value);
            }
        }
        self.first_new_s.get_or_insert(arm.step_secs(arm::STEP_NEW));
        self.arms += 1;
        self.client_moves += arm.summary.client_moves;
        self.fault_actions += arm.fault_actions as u64;
        self.full_check_pairs += arm.full_check_pairs as u64;
    }

    /// Notes how long one sweep unit (both arms) took.
    pub fn unit_done(&mut self, unit_span: usize) {
        self.spans.close(unit_span);
        self.unit_ms.push(self.spans.spans[unit_span].secs() * 1e3);
    }

    /// Wall of the traced workload that is comparable with the tracing-off
    /// pass: the root span minus the probes run inside it.
    pub fn comparable_wall_s(&self) -> f64 {
        self.spans.spans[self.root()].secs() - self.spans.probe_secs(self.root())
    }

    /// The share of the traced workload's wall that is comparable with the
    /// tracing-off pass; 1 for a workload that failed in set-up.
    pub fn comparable_share(&self) -> f64 {
        match self.spans.spans[self.root()].secs() {
            root if root > 0.0 => self.comparable_wall_s() / root,
            _ => 1.0,
        }
    }

    /// One value per per-layer metric. Metrics of layers the workload never
    /// enters read 0.
    pub fn finish(&mut self) -> BTreeMap<&'static str, f64> {
        let mut out = Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect());
        let phase = |name: &str| self.phases.get(name).copied().unwrap_or_default();
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0) as f64;
        let arms = self.arms.max(1) as f64;

        for (name, metric) in TICK_PHASES {
            out.set(metric, phase(name).total_s);
        }
        for (name, metric) in COUNTERS {
            out.set(metric, counter(name));
        }
        let new_s = self.spans.total_secs(arm::STEP_NEW) / arms;
        out.set("core.framework_new_s", new_s);
        out.set("gridapp.advance_calls", phase("phase.advance").count as f64);
        if counter("simnet.rate_epochs") > 0.0 {
            out.set(
                "simnet.us_per_rate_epoch",
                phase("phase.advance").total_s * 1e6 / counter("simnet.rate_epochs"),
            );
        }
        out.set(
            "archmodel.constraint_checks",
            phase("phase.constraint_check").count as f64,
        );
        out.set(
            "archmodel.full_check_ms",
            self.spans.total_secs(arm::STEP_FULL_CHECK) * 1e3,
        );
        out.set("archmodel.full_check_pairs", self.full_check_pairs as f64);
        out.set("repair.plan_calls", phase("phase.plan").count as f64);
        out.set("repair.plan_max_ms", phase("phase.plan").max_ms);
        out.set("planner.client_classes", self.client_classes);
        out.set("repair.client_moves", self.client_moves as f64);
        let tick = phase("phase.tick");
        if tick.count > 0 {
            out.set("core.tick_mean_ms", tick.total_s * 1e3 / tick.count as f64);
        }
        out.set("core.tick_p95_ms", tick.p95_ms);
        out.set("core.tick_max_ms", tick.max_ms);
        self.notes.push(format!(
            "core.tick_* summarise {} ticks over {} arms; tick_p95_ms is the worst arm's \
             bucketed p95 and is informational",
            tick.count, self.arms
        ));
        out.set(
            "core.summarise_s",
            self.spans.total_secs(arm::STEP_SUMMARISE),
        );
        out.set(
            "core.framework_drop_s",
            self.spans.total_secs(arm::STEP_DROP),
        );
        out.set(
            "faultsim.compile_ms",
            self.spans.total_secs(arm::STEP_COMPILE) * 1e3,
        );
        out.set("faultsim.actions", self.fault_actions as f64);
        out.set("core.sweep_units", self.unit_ms.len() as f64);
        if let Some(p50) = stats::median(&self.unit_ms) {
            // Below eleven units no percentile has ten samples beyond it.
            let (pct, tail) = stats::tail(&self.unit_ms).unwrap_or((50.0, p50));
            out.set("core.sweep_unit_p50_ms", p50);
            out.set("core.sweep_unit_tail_ms", tail);
            self.notes.push(format!(
                "core.sweep_unit_tail_ms is p{pct:.1} of {} units",
                self.unit_ms.len()
            ));
        }
        let unattributed = self.spans.unattributed_secs(self.root());
        out.set("core.unattributed_s", unattributed);
        // A workload that failed in set-up leaves a root of no length.
        let wall = self.comparable_wall_s();
        if wall > 0.0 {
            out.set("core.unattributed_share", unattributed / wall);
        }
        for (name, value) in &self.values {
            out.set(name, *value);
        }
        let append_s = self.spans.total_secs("tracestore.append");
        out.set("tracestore.append_s", append_s);
        if append_s > 0.0 {
            out.set(
                "tracestore.append_mev_per_s",
                out.get("tracestore.events") / 1e6 / append_s,
            );
        }
        // What is left of construction once the stand-alone probes of its
        // parts are taken out: gauge deployment and engine wiring.
        if let (Some(first_new_s), Some(probed_new_s)) = (self.first_new_s, self.probed_new_s) {
            out.set("core.new_remainder_s", first_new_s - probed_new_s);
        }
        out.0
    }
}

/// The per-layer values under construction; a name outside `PER_LAYER` is a
/// bug in this file.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("{name} is not a per-layer metric"),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}
