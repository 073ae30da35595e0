//! The repair engine: from constraint violations to committed repair plans.
//!
//! The engine owns the mapping from invariants to repair strategies, the
//! policy for choosing which outstanding violation to repair, and the
//! (optional) damping that suppresses repairs whose predecessor has not yet
//! taken effect. It produces a [`RepairPlan`] — the list of model operations
//! to commit and propagate to the runtime layer — without mutating the model
//! itself, so the caller controls when the plan is applied.

use crate::damping::RepairDamping;
use crate::query::RuntimeQuery;
use crate::selection::{repair_order, SelectionPolicy};
use crate::skip::Skip;
use crate::strategy::{RepairStrategy, StrategyOutcome};
use crate::tactic::client_of_violation;
use archmodel::constraint::CheckReport;
use archmodel::{Key, ModelOp, System};
use rustc_hash::FxHashMap;

/// A validated repair ready to be committed and translated to runtime
/// operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPlan {
    /// The invariant whose violation triggered the repair.
    pub invariant: String,
    /// The subject (usually the client) being repaired.
    pub subject: String,
    /// The model operations making up the repair script.
    pub ops: Vec<ModelOp>,
    /// Names of the tactics that produced the script.
    pub tactics: Vec<String>,
    /// Human-readable description of the repair.
    pub description: String,
}

/// The outcome of asking the engine for a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutcome {
    /// There was nothing to repair (no violations with a registered
    /// strategy).
    Nothing,
    /// Violations exist but every one was passed over (damping window, or
    /// no strategy could produce a repair): the typed record of each,
    /// which displays as the trace's note.
    Skipped(Skip),
    /// A repair plan was produced.
    Plan(RepairPlan),
    /// The strategy aborted (e.g. `NoServerGroupFound`); human attention may
    /// be needed.
    Aborted {
        /// The invariant whose repair aborted.
        invariant: Key,
        /// Why.
        reason: String,
    },
}

/// The repair engine.
pub struct RepairEngine {
    strategies: FxHashMap<Key, RepairStrategy>,
    selection: SelectionPolicy,
    damping: Option<RepairDamping>,
}

impl Default for RepairEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RepairEngine {
    /// Creates an engine with no strategies, first-reported selection, and no
    /// damping.
    pub fn new() -> Self {
        RepairEngine {
            strategies: FxHashMap::default(),
            selection: SelectionPolicy::FirstReported,
            damping: None,
        }
    }

    /// Registers `strategy` for violations of `invariant`.
    pub fn register(&mut self, invariant: &str, strategy: RepairStrategy) {
        self.strategies.insert(Key::new(invariant), strategy);
    }

    /// Sets the violation-selection policy.
    pub fn set_selection(&mut self, policy: SelectionPolicy) {
        self.selection = policy;
    }

    /// Enables repair damping with the given settle time (seconds).
    pub fn set_damping(&mut self, damping: Option<RepairDamping>) {
        self.damping = damping;
    }

    /// The report's violations with a registered strategy, as indices in
    /// the order the engine takes them (see [`repair_order`]).
    fn candidates(&self, model: &System, report: &CheckReport) -> Vec<u32> {
        let violations = &report.violations;
        let registered = |i: &u32| {
            self.strategies
                .contains_key(&violations[*i as usize].invariant)
        };
        let all = 0..u32::try_from(violations.len()).expect("fewer than 2^32 violations");
        let mut candidates = Vec::with_capacity(all.clone().filter(registered).count());
        candidates.extend(all.filter(registered));
        repair_order(self.selection, violations, model, &mut candidates);
        candidates
    }

    /// Produces a repair plan for the most urgent violation in `report`, if
    /// any. `now` is used for damping decisions.
    ///
    /// The violations are borrowed and ordered once. When the most urgent
    /// one cannot be repaired right now (damping window, no applicable
    /// tactic) the engine falls through to the next, so an unrepairable
    /// client does not starve the others; each one passed over is noted in
    /// the [`Skip`] as names and a shared list of typed reasons, so a
    /// fall-through allocates nothing per candidate.
    pub fn plan(
        &mut self,
        model: &System,
        report: &CheckReport,
        query: &dyn RuntimeQuery,
        now: f64,
    ) -> PlanOutcome {
        let candidates = self.candidates(model, report);
        if candidates.is_empty() {
            return PlanOutcome::Nothing;
        }
        let (mut skip, mut reasons) = (Skip::default(), Vec::new());
        for (taken, &index) in candidates.iter().enumerate() {
            let violation = &report.violations[index as usize];
            let (subject, left) = (violation.subject_name, candidates.len() - taken);
            if let Some(damping) = &self.damping {
                if !damping.allows(subject.as_str(), now) {
                    let remaining = damping.remaining(subject.as_str(), now);
                    skip.settling(left, subject, remaining);
                    continue;
                }
            }
            let strategy = &self.strategies[&violation.invariant];
            reasons.clear();
            match strategy.attempt(model, violation, query, &mut reasons) {
                Some(StrategyOutcome::Repaired {
                    ops,
                    applied_tactics,
                    description,
                }) => {
                    if let Some(damping) = &mut self.damping {
                        damping.record(subject.as_str(), now);
                    }
                    return PlanOutcome::Plan(RepairPlan {
                        invariant: violation.invariant.to_string(),
                        subject: subject.to_string(),
                        ops,
                        tactics: applied_tactics,
                        description,
                    });
                }
                Some(StrategyOutcome::Aborted { reason }) => {
                    let invariant = violation.invariant;
                    return PlanOutcome::Aborted { invariant, reason };
                }
                _ => {
                    let client = client_of_violation(model, violation).unwrap_or(subject);
                    skip.no_tactic(left, subject, client, &reasons);
                }
            }
        }
        PlanOutcome::Skipped(skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::{
        default_constraints, fix_latency_strategy, recover_liveness_strategy,
        reduce_servers_strategy, underutilised_invariant,
    };
    use crate::query::StaticQuery;
    use archmodel::constraint::Violation;
    use archmodel::style::{props, ClientServerStyle};

    /// The paper's engine: `fixLatency` handles latency, bandwidth and
    /// server-load violations.
    fn paper_engine() -> RepairEngine {
        let mut engine = RepairEngine::new();
        for invariant in ["latency", "bandwidth", "serverLoad"] {
            engine.register(invariant, fix_latency_strategy());
        }
        engine
    }

    /// Model with User3 violating latency because ServerGrp1 is overloaded.
    fn overloaded_model() -> System {
        let mut model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        model
            .component_mut(g1)
            .unwrap()
            .properties
            .set(props::LOAD, 20i64);
        let g2 = model.component_by_name("ServerGrp2").unwrap();
        model
            .component_mut(g2)
            .unwrap()
            .properties
            .set(props::LOAD, 0i64);
        for name in ["User1", "User2", "User4", "User5", "User6"] {
            let id = model.component_by_name(name).unwrap();
            model
                .component_mut(id)
                .unwrap()
                .properties
                .set(props::AVERAGE_LATENCY, 0.5);
        }
        let user3 = model.component_by_name("User3").unwrap();
        model
            .component_mut(user3)
            .unwrap()
            .properties
            .set(props::AVERAGE_LATENCY, 6.0);
        for role in model.roles().map(|(id, _)| id).collect::<Vec<_>>() {
            model
                .role_mut(role)
                .unwrap()
                .properties
                .set(props::BANDWIDTH, 5e6);
        }
        model
    }

    #[test]
    fn engine_produces_plan_for_latency_violation() {
        let model = overloaded_model();
        let report = default_constraints().check(&model);
        assert!(!report.is_clean());
        let mut engine = paper_engine();
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4"]);
        match engine.plan(&model, &report, &query, 100.0) {
            PlanOutcome::Plan(plan) => {
                // The first reported violation is User3's latency; the
                // fixServerLoad tactic repairs it by adding a server.
                assert_eq!(plan.invariant, "latency");
                assert_eq!(plan.tactics, vec!["fixServerLoad".to_string()]);
                assert!(!plan.ops.is_empty());
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn clean_report_yields_nothing() {
        let model = ClientServerStyle::example_system("storage", 1, 3, 2).unwrap();
        let report = CheckReport::default();
        let mut engine = paper_engine();
        assert_eq!(
            engine.plan(&model, &report, &StaticQuery::new(), 0.0),
            PlanOutcome::Nothing
        );
    }

    #[test]
    fn unregistered_invariants_are_ignored() {
        let model = overloaded_model();
        let report = default_constraints().check(&model);
        let mut engine = RepairEngine::new(); // nothing registered
        assert_eq!(
            engine.plan(&model, &report, &StaticQuery::new(), 0.0),
            PlanOutcome::Nothing
        );
        assert!(engine.strategies.is_empty());
    }

    #[test]
    fn damping_suppresses_repeated_repairs() {
        let model = overloaded_model();
        let report = default_constraints().check(&model);
        let mut engine = paper_engine();
        engine.set_damping(Some(RepairDamping::new(120.0)));
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4", "S7"]);
        assert!(matches!(
            engine.plan(&model, &report, &query, 100.0),
            PlanOutcome::Plan(_)
        ));
        // Immediately after, the same subject is suppressed, and so is the
        // (unrepairable) server-load violation the engine falls through to.
        match engine.plan(&model, &report, &query, 110.0) {
            PlanOutcome::Skipped(skip) => {
                let reason = skip.to_string();
                assert!(reason.contains("settle"), "{reason}");
                assert!(reason.contains(" | no applicable tactic"), "{reason}");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // After the settle window it is allowed again.
        assert!(matches!(
            engine.plan(&model, &report, &query, 300.0),
            PlanOutcome::Plan(_)
        ));
    }

    #[test]
    fn abort_is_reported_when_no_group_qualifies() {
        let mut model = overloaded_model();
        // Make it a pure bandwidth problem with no overload.
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        model
            .component_mut(g1)
            .unwrap()
            .properties
            .set(props::LOAD, 0i64);
        let user3 = model.component_by_name("User3").unwrap();
        for role in model.roles_of_component(user3).collect::<Vec<_>>() {
            model
                .role_mut(role)
                .unwrap()
                .properties
                .set(props::BANDWIDTH, 500.0);
        }
        let report = default_constraints().check(&model);
        let mut engine = paper_engine();
        // No bandwidth data ⇒ findGoodSGrp fails ⇒ abort.
        match engine.plan(&model, &report, &StaticQuery::new(), 0.0) {
            PlanOutcome::Aborted { reason, .. } => assert!(reason.contains("NoServerGroupFound")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    /// [`RepairEngine::plan`] as it was before it ordered its candidates
    /// once, with every strategy run through the eager-clone reference loop
    /// (`RepairStrategy::run_eager`) instead of the borrowing one: it clones
    /// the candidates, picks the most urgent, drops every candidate of its
    /// (invariant, subject) pair and picks again. Everything else is the
    /// same engine state.
    fn plan_eager(
        engine: &mut RepairEngine,
        model: &System,
        report: &CheckReport,
        query: &dyn RuntimeQuery,
        now: f64,
    ) -> PlanOutcome {
        let mut candidates: Vec<_> = report
            .violations
            .iter()
            .filter(|v| engine.strategies.contains_key(&v.invariant))
            .cloned()
            .collect();
        if candidates.is_empty() {
            return PlanOutcome::Nothing;
        }
        let mut skip = Skip::default();
        while !candidates.is_empty() {
            let violation = match engine.selection {
                SelectionPolicy::FirstReported => candidates[0],
                SelectionPolicy::WorstLatency => {
                    let latency = |v: &Violation| {
                        let Some(archmodel::ElementRef::Component(id)) = v.subject else {
                            return f64::NEG_INFINITY;
                        };
                        let properties = &model.component(id).unwrap().properties;
                        properties
                            .get_f64(props::AVERAGE_LATENCY)
                            .unwrap_or(f64::NEG_INFINITY)
                    };
                    let worst = candidates.iter().max_by(|a, b| {
                        latency(a)
                            .partial_cmp(&latency(b))
                            .expect("latencies are not NaN")
                    });
                    *worst.unwrap()
                }
            };
            let left = candidates.len();
            candidates.retain(|v| {
                !(v.invariant == violation.invariant && v.subject_name == violation.subject_name)
            });
            let subject = violation.subject_name;
            if let Some(damping) = &engine.damping {
                if !damping.allows(subject.as_str(), now) {
                    skip.settling(left, subject, damping.remaining(subject.as_str(), now));
                    continue;
                }
            }
            match engine.strategies[&violation.invariant].run_eager(model, &violation, query) {
                StrategyOutcome::Repaired {
                    ops,
                    applied_tactics,
                    description,
                } => {
                    if let Some(damping) = &mut engine.damping {
                        damping.record(subject.as_str(), now);
                    }
                    return PlanOutcome::Plan(RepairPlan {
                        invariant: violation.invariant.to_string(),
                        subject: subject.to_string(),
                        ops,
                        tactics: applied_tactics,
                        description,
                    });
                }
                StrategyOutcome::NoApplicableTactic { reasons } => {
                    let client = client_of_violation(model, &violation).unwrap_or(subject);
                    skip.no_tactic(left, subject, client, &reasons);
                }
                StrategyOutcome::Aborted { reason } => {
                    return PlanOutcome::Aborted {
                        invariant: violation.invariant,
                        reason,
                    };
                }
            }
        }
        PlanOutcome::Skipped(skip)
    }

    /// A 2,000-client model in which the 600 even-numbered clients
    /// `User2`..`User1200` (served by the idle ServerGrp2, bandwidth fine)
    /// violate the latency bound with no tactic able to help, followed by
    /// `User1201`, whose group (ServerGrp1) is overloaded and whose link has
    /// collapsed: what happens to it is up to the runtime query. `dead` of
    /// ServerGrp2's three replicas have crashed, and with `surplus` the group
    /// idles one replica above the three it was provisioned with.
    fn fleet_model(dead: usize, surplus: bool) -> System {
        fn set(model: &mut System, component: &str, property: &str, value: f64) {
            let id = model.component_by_name(component).unwrap();
            let properties = &mut model.component_mut(id).unwrap().properties;
            properties.set(property, value);
        }
        fn set_bandwidth(model: &mut System, roles: Vec<archmodel::RoleId>, bps: f64) {
            for role in roles {
                let properties = &mut model.role_mut(role).unwrap().properties;
                properties.set(props::BANDWIDTH, bps);
            }
        }
        let mut model = ClientServerStyle::example_system("fleet", 2, 3, 2000).unwrap();
        model.properties.set(props::MAX_DEAD_SERVERS, 0.0);
        model.properties.set(props::UNDERUTILISED_LOAD, 1.0);
        set(&mut model, "ServerGrp1", props::LOAD, 20.0);
        set(&mut model, "ServerGrp2", props::LOAD, 0.0);
        let all_roles = model.roles().map(|(id, _)| id).collect();
        set_bandwidth(&mut model, all_roles, 5e6);
        for c in 1..=2000usize {
            let slow = (c % 2 == 0 && c <= 1200) || c == 1201;
            let latency = if slow { 6.0 } else { 0.5 };
            set(
                &mut model,
                &format!("User{c}"),
                props::AVERAGE_LATENCY,
                latency,
            );
        }
        let user1201 = model.component_by_name("User1201").unwrap();
        let its_roles = model.roles_of_component(user1201).collect();
        set_bandwidth(&mut model, its_roles, 500.0);
        for (group, dead) in [("ServerGrp1", 0), ("ServerGrp2", dead)] {
            set(&mut model, group, props::BASE_REPLICAS, 3.0);
            set(&mut model, group, props::LIVE_SERVERS, (3 - dead) as f64);
            set(&mut model, group, props::DEAD_SERVERS, dead as f64);
        }
        for replica in 1..=dead {
            let name = format!("ServerGrp2.Server{replica}");
            set(&mut model, &name, props::IS_ALIVE, 0.0);
        }
        if surplus {
            let mut ops = Vec::new();
            crate::operators::add_server(&model, &mut ops, "ServerGrp2").unwrap();
            archmodel::apply_op(&mut model, &ops[0]).unwrap();
        }
        model
    }

    #[test]
    fn plan_matches_the_eager_clone_oracle_at_fleet_size() {
        let constraints = default_constraints().with(underutilised_invariant());
        // The engine as the framework registers it under `plannedRepair`,
        // with (damped) five in six hopeless clients still settling.
        let engine = |damped: bool| {
            let mut engine = paper_engine();
            engine.register("liveness", recover_liveness_strategy());
            engine.register("underutilised", reduce_servers_strategy());
            if damped {
                let mut damping = RepairDamping::new(120.0);
                for c in (2..=1200).step_by(2).filter(|c| c % 12 != 0) {
                    damping.record(&format!("User{c}"), 90.0);
                }
                engine.set_damping(Some(damping));
            }
            engine
        };
        // Plans at each of `times` through both loops and holds them equal.
        let compare = |model: &System, query: &StaticQuery, damped: bool, times: &[f64]| {
            let report = constraints.check(model);
            assert!(report.violations.len() >= 500);
            let (mut lazy, mut eager) = (engine(damped), engine(damped));
            let outcomes = times.iter().map(|&now| {
                let got = lazy.plan(model, &report, query, now);
                let want = plan_eager(&mut eager, model, &report, query, now);
                assert_eq!(got, want, "damped {damped}, t = {now}");
                got
            });
            outcomes.collect::<Vec<_>>()
        };

        // `fixLatency`: one query per way a call can end once the 600
        // hopeless clients have been passed over.
        let stuck = || StaticQuery::new().with_bandwidth("User1201", "ServerGrp1", 5e6);
        let query = |ending: &str| match ending {
            "plan" => StaticQuery::new()
                .with_spares("ServerGrp1", &["S4"])
                .with_bandwidth("User1201", "ServerGrp2", 5e6),
            "skipped" => stuck(),
            _ => StaticQuery::new(),
        };
        let model = fleet_model(0, false);
        // The oracle copies the model once per client it examines, so the
        // undamped cases (600 copies each) are the slow ones; damped, a case
        // is cheap, and a second call sees the first call's plan settling.
        for damped in [false, true] {
            let times: &[f64] = if damped { &[100.0, 110.0] } else { &[100.0] };
            for ending in ["plan", "skipped", "aborted"] {
                for got in compare(&model, &query(ending), damped, times) {
                    match (ending, &got) {
                        ("plan", PlanOutcome::Plan(plan)) => {
                            // The second call finds User1201 settling and
                            // falls through to its role's bandwidth violation.
                            assert!(plan.subject.starts_with("User1201"));
                            assert_eq!(plan.tactics, ["fixServerLoad"]);
                        }
                        ("skipped", PlanOutcome::Skipped(skip)) => {
                            let reason = skip.to_string();
                            assert!(reason.matches(" | ").count() >= 500);
                            assert_eq!(reason.contains("settle window"), damped);
                        }
                        ("aborted", PlanOutcome::Aborted { reason, .. }) => {
                            assert!(reason.contains("NoServerGroupFound"));
                        }
                        other => panic!("unexpected ending: {other:?}"),
                    }
                }
            }
        }

        // `recoverLiveness` and `reduceServers`, reached once every client
        // ahead of them in the report has been passed over.
        let failover = stuck().with_spares("ServerGrp2", &["S9"]);
        match &compare(&fleet_model(1, false), &failover, true, &[100.0])[0] {
            PlanOutcome::Plan(plan) => {
                assert_eq!(plan.subject, "ServerGrp2");
                assert_eq!(plan.tactics, ["failoverServerGroup"]);
            }
            other => panic!("unexpected ending: {other:?}"),
        }
        match &compare(&fleet_model(3, false), &stuck(), true, &[100.0])[0] {
            PlanOutcome::Aborted { invariant, reason } => {
                assert_eq!(invariant, "liveness");
                assert!(reason.starts_with("rerouteClientsOffDeadLink"), "{reason}");
            }
            other => panic!("unexpected ending: {other:?}"),
        }
        match &compare(&fleet_model(0, true), &stuck(), true, &[100.0])[0] {
            PlanOutcome::Plan(plan) => {
                assert_eq!(plan.invariant, "underutilised");
                assert_eq!(plan.tactics, ["reduceServers"]);
            }
            other => panic!("unexpected ending: {other:?}"),
        }
    }

    #[test]
    fn worst_latency_selection_changes_choice() {
        let mut model = overloaded_model();
        // Two violating clients; User5 is worse than User3.
        let user5 = model.component_by_name("User5").unwrap();
        model
            .component_mut(user5)
            .unwrap()
            .properties
            .set(props::AVERAGE_LATENCY, 50.0);
        let report = default_constraints().check(&model);
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4"]);

        let mut first = paper_engine();
        first.set_selection(SelectionPolicy::FirstReported);
        let mut worst = paper_engine();
        worst.set_selection(SelectionPolicy::WorstLatency);

        // Restrict both engines to the per-client latency invariant so the
        // selection policy (not the invariant order) decides.
        let latency_only: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.invariant == "latency")
            .cloned()
            .collect();
        let latency_report = CheckReport {
            violations: latency_only,
            error_count: 0,
            evaluated: report.evaluated,
            skipped: 0,
        };
        let plan_first = match first.plan(&model, &latency_report, &query, 0.0) {
            PlanOutcome::Plan(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        let plan_worst = match worst.plan(&model, &latency_report, &query, 0.0) {
            PlanOutcome::Plan(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(plan_first.subject, "User3");
        assert_eq!(plan_worst.subject, "User5");
    }
}
