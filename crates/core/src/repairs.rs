//! The repair half of the control loop — the model layer's violation →
//! repair strategy → `commit repair` / `abort` → translator path (Figures 1
//! and 5) — as five steps over one plan value:
//!
//! | step | in | out |
//! | --- | --- | --- |
//! | **Check** | the constraints, the model's change journal | a [`CheckReport`] with violations, or nothing |
//! | **Plan** | the report, the borrowed model, runtime queries | a [`PlannedRepair`]: one [`RepairPlan`] and its runtime operations; the group planner writes its ops against the live model, a per-element tactic in a style-checked copy |
//! | **Begin** | the planned repair, the cost model | a [`PendingRepair`] due when its priced duration has passed |
//! | **Commit** | the due repair's model operations | the model, changed and checked against the style |
//! | **Execute** | the due repair's runtime operations | the application and the gauge roster, changed |
//!
//! One repair executes at a time; while one is pending nothing is checked or
//! planned. Everything here is state only a repairing run needs: a control
//! run has no [`RepairLoop`].

use crate::framework::FrameworkConfig;
use crate::log::{Occurrence, RepairStart};
use crate::monitor::Monitor;
use crate::observe::Observer;
use crate::query::AppQuery;
use crate::task::PerformanceProfile;
use archmodel::constraint::{CheckReport, ConstraintSet};
use archmodel::style::ClientServerStyle;
use archmodel::System;
use gridapp::{AppError, GridApp, Key};
use planner::{ClassIndex, GroupPlanner, PlannerInput, PlannerThresholds};
use repair::{PlanOutcome, RepairDamping, RepairEngine, RepairPlan};
use rustc_hash::FxHashMap;
use simnet::{SimDuration, SimTime};
use std::sync::Arc;
use translator::{translate, RepairCostModel, RuntimeOp};

/// What Plan produced: the one plan value, from either planner, shared
/// with the run log's start and end entries.
pub(crate) struct PlannedRepair {
    plan: Arc<RepairPlan>,
    runtime_ops: Vec<RuntimeOp>,
    /// A group-planner batch: its runtime operations already carry their
    /// batched cost structure (one gauge-churn pair per batch, one routing
    /// update per class), and its trace line names its tactics.
    batched: bool,
}

/// A repair whose execution is in progress.
pub(crate) struct PendingRepair {
    repair: PlannedRepair,
    complete_at: SimTime,
    correlation: u64,
}

/// The repair-side state of an adaptive run.
pub(crate) struct RepairLoop {
    /// The task layer's profile, as the planners read it.
    thresholds: PlannerThresholds,
    constraints: ConstraintSet,
    /// Incremental constraint checker: caches per-(invariant, element)
    /// outcomes and re-evaluates only pairs whose property read-set
    /// intersects the model's change journal since the last check.
    checker: archmodel::IncrementalChecker,
    /// [`FrameworkConfig::verify_constraint_check`].
    verify_check: bool,
    planner: Option<GroupPlanner>,
    engine: RepairEngine,
    cost_model: RepairCostModel,
    /// Model replica name → the runtime server backing it.
    server_map: FxHashMap<String, String>,
    pending: Option<PendingRepair>,
}

impl RepairLoop {
    /// The repair half `config` describes, over the replica → server map the
    /// model was built with.
    pub(crate) fn new(
        config: &FrameworkConfig,
        profile: PerformanceProfile,
        server_map: FxHashMap<String, String>,
    ) -> Self {
        let mut engine = RepairEngine::new();
        let fix_latency: fn() -> repair::RepairStrategy = if config.bandwidth_first {
            repair::builtin::fix_latency_bandwidth_first_strategy
        } else {
            repair::builtin::fix_latency_strategy
        };
        for invariant in ["latency", "bandwidth", "serverLoad"] {
            engine.register(invariant, fix_latency());
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
        RepairLoop {
            thresholds: PlannerThresholds {
                min_bandwidth_bps: profile.min_bandwidth_bps,
                max_server_load: profile.max_server_load,
                max_latency_secs: profile.max_latency_secs,
            },
            constraints,
            checker: archmodel::IncrementalChecker::new(),
            verify_check: config.verify_constraint_check,
            planner: config
                .group_planner
                .then(|| GroupPlanner::new(config.damping_secs)),
            engine,
            cost_model: config.cost_model,
            server_map,
            pending: None,
        }
    }

    /// Whether a repair is executing.
    pub(crate) fn executing(&self) -> bool {
        self.pending.is_some()
    }

    /// The executing repair, once its effects are due.
    pub(crate) fn take_due(&mut self, t: SimTime) -> Option<PendingRepair> {
        self.pending.take_if(|pending| pending.complete_at <= t)
    }

    /// **Check**: the constraints against what changed in `model` since the
    /// last check. Records each violation; `None` when there is none.
    pub(crate) fn check(
        &mut self,
        model: &mut System,
        observer: &mut Observer,
        t: SimTime,
    ) -> Option<CheckReport> {
        let report = {
            let _span = observer.span("phase.constraint_check");
            self.checker.check(&self.constraints, model)
        };
        observer.pairs_skipped += report.skipped as u64;
        if self.verify_check {
            let full = self.constraints.check(model);
            assert_eq!(
                report.violations, full.violations,
                "incremental check diverged from full sweep (violations)"
            );
            assert_eq!(
                (report.error_count, self.checker.errors()),
                (full.error_count, self.constraints.check_errors(model)),
                "incremental check diverged from full sweep (errors)"
            );
            assert_eq!(
                report.evaluated + report.skipped,
                full.evaluated,
                "incremental check pair accounting diverged from full sweep"
            );
        }
        if report.is_clean() {
            return None;
        }
        for violation in &report.violations {
            observer.record(t, Occurrence::violation(violation));
        }
        Some(report)
    }

    /// **Plan**: one repair for `report`, or a recorded reason why not. The
    /// group planner, when the run has one (and so a class `index`), has
    /// first claim on the reports it says it plans for: it plans whole
    /// equivalence classes in one batched repair. Whatever it abstains from
    /// falls through, in the same tick, to the per-element engine, whose plan
    /// the translator turns into runtime operations.
    pub(crate) fn plan(
        &mut self,
        app: &GridApp,
        model: &System,
        index: Option<&ClassIndex>,
        report: &CheckReport,
        observer: &mut Observer,
        t: SimTime,
    ) -> Option<PlannedRepair> {
        let claimed = self.planner.as_mut().zip(index);
        if let Some((planner, index)) = claimed.filter(|_| GroupPlanner::claims(report)) {
            let _span = observer.span("phase.plan");
            let input =
                PlannerInput::gather(app, index, model, report, self.thresholds, t.as_secs());
            if let Some((plan, runtime_ops)) = planner.plan(index, model, &input) {
                return Some(PlannedRepair {
                    plan: Arc::new(plan),
                    runtime_ops,
                    batched: true,
                });
            }
        }
        let outcome = {
            let _span = observer.span("phase.plan");
            let query = AppQuery::new(app);
            self.engine.plan(model, report, &query, t.as_secs())
        };
        let plan = match outcome {
            PlanOutcome::Plan(plan) => plan,
            PlanOutcome::Aborted { invariant, reason } => {
                let reason = reason.into_boxed_str();
                observer.record(t, Occurrence::RepairAborted { invariant, reason });
                return None;
            }
            PlanOutcome::Skipped(skip) => {
                observer.record(t, Occurrence::RepairSkipped(Box::new(skip)));
                return None;
            }
            PlanOutcome::Nothing => return None,
        };
        let translated = {
            let _span = observer.span("phase.translate");
            translate(model, &plan.ops, self.thresholds.min_bandwidth_bps)
        };
        match translated {
            Ok(runtime_ops) => Some(PlannedRepair {
                plan: Arc::new(plan),
                runtime_ops,
                batched: false,
            }),
            Err(error) => {
                let untranslatable = Box::new((plan.subject, error));
                observer.record(t, Occurrence::Untranslatable(untranslatable));
                None
            }
        }
    }

    /// **Begin**: prices the repair, announces it under the next correlation
    /// id, and leaves it pending until its effects fall due.
    pub(crate) fn begin(&mut self, repair: PlannedRepair, observer: &mut Observer, t: SimTime) {
        let duration_secs = self.cost_model.total_duration(&repair.runtime_ops);
        let correlation = observer.next_correlation();
        let start = RepairStart {
            correlation,
            plan: Arc::clone(&repair.plan),
            batched: repair.batched,
            runtime_ops: repair.runtime_ops.len(),
            duration_secs,
        };
        observer.record(t, Occurrence::RepairStarted(Box::new(start)));
        self.pending = Some(PendingRepair {
            repair,
            complete_at: t + SimDuration::from_secs(duration_secs),
            correlation,
        });
    }

    /// **Execute**: propagates the due repair to the runtime layer, one
    /// recorded runtime operation at a time, and records it complete. The
    /// log keeps the operations and the plan.
    pub(crate) fn execute(
        &mut self,
        due: PendingRepair,
        app: &mut GridApp,
        monitor: &mut Monitor,
        observer: &mut Observer,
        t: SimTime,
    ) {
        {
            let _span = observer.span("phase.execute");
            for op in due.repair.runtime_ops {
                let outcome = match self.apply(&op, app, monitor, observer, t) {
                    Ok(()) => Occurrence::Reconfigured(Box::new(op)),
                    Err(error) => Occurrence::OpFailed(Box::new((op, error))),
                };
                observer.record(t, outcome);
            }
        }
        let (correlation, plan) = (due.correlation, due.repair.plan);
        observer.record(t, Occurrence::RepairCompleted { correlation, plan });
    }

    /// Applies one runtime operation, with the gauge churn it implies.
    fn apply(
        &mut self,
        op: &RuntimeOp,
        app: &mut GridApp,
        monitor: &mut Monitor,
        observer: &mut Observer,
        t: SimTime,
    ) -> Result<(), AppError> {
        let unknown = |server: &String| AppError::UnknownServer(server.clone());
        match op {
            RuntimeOp::CreateReqQueue { group } => app.create_req_queue(group),
            RuntimeOp::ConnectServer { server, group } => {
                // Recruit a spare if the replica maps to no runtime server
                // yet. Recruitment is group-aware: a spare attached to the
                // same router as the group's current replicas is preferred,
                // so a repair does not pull a spare from another group's
                // rack merely because its name sorts first.
                let runtime = match self.server_map.get(server) {
                    Some(existing) => existing.clone(),
                    None => app.find_server_for_group(group, None, 0.0).ok_or_else(|| {
                        AppError::Invalid(format!("no spare server available for {server}"))
                    })?,
                };
                self.server_map.insert(server.clone(), runtime.clone());
                app.connect_server(&runtime, group)?;
                // The recruited replica gets a health gauge watching its
                // runtime server.
                monitor.watch_server(t, server, &runtime);
            }
            RuntimeOp::ActivateServer { server } => {
                let runtime = self.server_map.get(server).ok_or_else(|| unknown(server))?;
                observer.servers_activated += 1;
                app.activate_server(runtime)?;
            }
            RuntimeOp::DeactivateServer { server } => {
                let runtime = self
                    .server_map
                    .remove(server)
                    .ok_or_else(|| unknown(server))?;
                let deactivated = app.deactivate_server(&runtime);
                let _ = app.disconnect_server(&runtime);
                deactivated?;
                monitor.unwatch_server(server);
            }
            RuntimeOp::MoveClient { client, to_group } => {
                app.move_client(client, to_group)?;
                observer.client_moves += 1;
                monitor.rehome(t, app, &[Key::new(client)]);
            }
            RuntimeOp::MoveClientGroup { clients, to_group } => {
                observer.client_moves += app.move_clients(clients, to_group)? as u64;
                monitor.rehome(t, app, clients);
            }
            RuntimeOp::DrainStuckServers {
                group,
                min_age_secs,
            } => {
                let stuck = app.stuck_sending_servers(group, *min_age_secs);
                let mut drained = Ok(());
                for server in &stuck {
                    if let Err(e) = app.drain_server(t, server.as_str()) {
                        drained = Err(e);
                    }
                }
                drained?;
                if !stuck.is_empty() {
                    let (group, count) = (group.as_str().into(), stuck.len());
                    observer.record(t, Occurrence::Drained { group, count });
                }
            }
            RuntimeOp::CreateGauge { gauge } => monitor.recreate(t, gauge),
            // Costed by the repair, nothing to do at run time.
            RuntimeOp::FindServer { .. }
            | RuntimeOp::RemosGetFlow { .. }
            | RuntimeOp::DeleteGauge { .. } => {}
        }
        Ok(())
    }
}

impl PendingRepair {
    /// **Commit**: applies the repair's model operations to `model`, then
    /// checks it against the style — the one runtime style check a repair
    /// gets, recorded when it fires.
    pub(crate) fn commit(&self, model: &mut System, observer: &mut Observer, t: SimTime) {
        let _span = observer.span("phase.commit_replay");
        for op in &self.repair.plan.ops {
            if let Err(e) = archmodel::apply_op(model, op) {
                observer.record(t, Occurrence::CommitFailed(e));
            }
        }
        let style_violations = ClientServerStyle::validate(model).len();
        if style_violations > 0 {
            observer.record(t, Occurrence::StyleViolations(style_violations));
        }
    }
}
