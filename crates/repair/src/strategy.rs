//! Repair strategies: guarded tactics tried in order, first success wins.
//!
//! When an architectural constraint violation is detected, the associated
//! repair strategy is triggered. The strategy tries its tactics in order and
//! takes the first one whose precondition holds — Figure 5's `fixLatency`,
//! the one strategy the paper evaluates, reads `if (fixServerLoad(...))
//! commit repair; else if (fixBandwidth(...)) commit repair; else abort` —
//! checks that tactic's script against the architectural style, and either
//! commits the repair or aborts (§3.2). The script is written against the
//! borrowed model and checked without applying it: its operators keep the
//! style except where a removal empties a group, which
//! `ClientServerStyle::script_violations` finds in O(ops).

use crate::query::RuntimeQuery;
use crate::skip::Declined;
use crate::tactic::{RepairError, Tactic, TacticContext, TacticResult};
use archmodel::constraint::Violation;
use archmodel::style::ClientServerStyle;
use archmodel::{Key, ModelOp, System};

/// The outcome of running a strategy for one violation.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyOutcome {
    /// A repair script was produced and checked against the style.
    Repaired {
        /// The model operations of the script.
        ops: Vec<ModelOp>,
        /// Name of the tactic that produced it.
        applied_tactics: Vec<String>,
        /// Human-readable description.
        description: String,
    },
    /// No tactic was applicable — the paper's `abort ModelError`.
    NoApplicableTactic {
        /// Each tactic's typed reason, in the order they were tried.
        reasons: Vec<Declined>,
    },
    /// A tactic failed outright (e.g. `NoServerGroupFound`) or the repaired
    /// model would violate the style.
    Aborted {
        /// Why the repair was abandoned.
        reason: String,
    },
}

/// A named repair strategy.
pub struct RepairStrategy {
    name: String,
    /// Each tactic under its name, interned once when it is added.
    tactics: Vec<(Key, Box<dyn Tactic>)>,
}

/// The abort reason for a script whose result breaks the style.
fn style_abort(tactic: &str, violations: &[archmodel::style::StyleViolation]) -> StrategyOutcome {
    let listed: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    StrategyOutcome::Aborted {
        reason: format!(
            "{tactic}: repair would violate the style: {}",
            listed.join("; ")
        ),
    }
}

impl RepairStrategy {
    /// Creates a strategy with no tactics.
    pub fn new(name: impl Into<String>) -> Self {
        RepairStrategy {
            name: name.into(),
            tactics: Vec::new(),
        }
    }

    /// Adds a tactic (tactics run in insertion order).
    pub fn with_tactic(mut self, tactic: Box<dyn Tactic>) -> Self {
        self.tactics.push((Key::new(tactic.name()), tactic));
        self
    }

    /// The strategy's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the strategy for `violation` against `model`, which is only
    /// borrowed: the applicable tactic writes its script against it, and
    /// the style check reads the script and the model, so a repair copies
    /// nothing.
    pub fn run(
        &self,
        model: &System,
        violation: &Violation,
        query: &dyn RuntimeQuery,
    ) -> StrategyOutcome {
        let mut reasons = Vec::new();
        let outcome = self.attempt(model, violation, query, &mut reasons);
        outcome.unwrap_or(StrategyOutcome::NoApplicableTactic { reasons })
    }

    /// [`run`](Self::run), with each inapplicable tactic's reason pushed
    /// onto `declined` instead: `None` when no tactic applied. The engine
    /// passes one buffer for all its candidates, so a candidate no tactic
    /// repairs costs no allocation.
    pub(crate) fn attempt(
        &self,
        model: &System,
        violation: &Violation,
        query: &dyn RuntimeQuery,
        declined: &mut Vec<Declined>,
    ) -> Option<StrategyOutcome> {
        let ctx = TacticContext {
            model,
            violation,
            query,
        };
        for (name, tactic) in &self.tactics {
            let outcome = match tactic.attempt(&ctx) {
                Ok(TacticResult::NotApplicable(reason)) => {
                    declined.push(Declined {
                        tactic: *name,
                        reason,
                    });
                    continue;
                }
                Ok(TacticResult::Applied { ops, description }) => {
                    let style_violations = ClientServerStyle::script_violations(model, &ops);
                    if !style_violations.is_empty() {
                        return Some(style_abort(name.as_str(), &style_violations));
                    }
                    StrategyOutcome::Repaired {
                        ops,
                        applied_tactics: vec![name.to_string()],
                        description,
                    }
                }
                Err(RepairError::NoServerGroupFound) => StrategyOutcome::Aborted {
                    reason: format!("{name}: NoServerGroupFound"),
                },
                Err(e) => StrategyOutcome::Aborted {
                    reason: format!("{name}: {e}"),
                },
            };
            return Some(outcome);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{add_server, move_client, remove_server};
    use crate::query::StaticQuery;
    use crate::tactic::NotApplicable;
    use archmodel::{apply_op, ElementRef};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One operator call of a scripted repair.
    #[derive(Clone)]
    enum Call {
        /// `addServer()` on a group.
        Add(&'static str),
        /// `remove()` of a server.
        Remove(&'static str),
        /// `move(to)` of a client onto a group.
        Move(&'static str, &'static str),
    }

    /// What a [`ScriptedTactic`] answers: its precondition fails, or it
    /// writes the given calls against the model it is shown.
    #[derive(Clone)]
    enum Script {
        NotApplicable,
        Apply(Vec<Call>),
    }

    /// A tactic whose applicability and effect are scripted, for testing the
    /// strategy machinery in isolation.
    struct ScriptedTactic {
        name: String,
        result: Result<Script, RepairError>,
    }

    impl Tactic for ScriptedTactic {
        fn name(&self) -> &str {
            &self.name
        }
        fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
            match self.result.clone()? {
                Script::NotApplicable => Ok(TacticResult::NotApplicable(NotApplicable::Other(
                    "precondition failed".into(),
                ))),
                Script::Apply(calls) => {
                    let mut ops = Vec::new();
                    for call in calls {
                        match call {
                            Call::Add(group) => {
                                add_server(ctx.model, &mut ops, group)?;
                            }
                            Call::Remove(server) => {
                                remove_server(ctx.model, &mut ops, server)?;
                            }
                            Call::Move(client, to) => {
                                move_client(ctx.model, &mut ops, client, to)?;
                            }
                        }
                    }
                    Ok(TacticResult::Applied {
                        ops,
                        description: "scripted".into(),
                    })
                }
            }
        }
    }

    /// The run loop as it was before scripts were written against the
    /// borrowed model: one `model.clone()` up front for every violation
    /// examined, and a second copy on which the applied script is replayed op
    /// by op before the whole model is validated against the style. Kept as
    /// the reference [`RepairStrategy::run`] is compared against (here, in
    /// the built-in strategies' oracle proptest and in the engine's
    /// fleet-sized equivalence test).
    impl RepairStrategy {
        pub(crate) fn run_eager(
            &self,
            model: &System,
            violation: &Violation,
            query: &dyn RuntimeQuery,
        ) -> StrategyOutcome {
            let mut reasons = Vec::new();
            let working = model.clone();
            for (name, tactic) in &self.tactics {
                let ctx = TacticContext {
                    model: &working,
                    violation,
                    query,
                };
                match tactic.attempt(&ctx) {
                    Ok(TacticResult::NotApplicable(reason)) => {
                        reasons.push(Declined {
                            tactic: *name,
                            reason,
                        });
                    }
                    Ok(TacticResult::Applied { ops, description }) => {
                        let mut candidate = working.clone();
                        for op in &ops {
                            if let Err(e) = apply_op(&mut candidate, op) {
                                return StrategyOutcome::Aborted {
                                    reason: format!(
                                        "{}: repair script failed to apply: {e}",
                                        tactic.name()
                                    ),
                                };
                            }
                        }
                        let style_violations = ClientServerStyle::validate(&candidate);
                        if !style_violations.is_empty() {
                            return style_abort(tactic.name(), &style_violations);
                        }
                        return StrategyOutcome::Repaired {
                            ops,
                            applied_tactics: vec![tactic.name().to_string()],
                            description,
                        };
                    }
                    Err(RepairError::NoServerGroupFound) => {
                        return StrategyOutcome::Aborted {
                            reason: format!("{}: NoServerGroupFound", tactic.name()),
                        };
                    }
                    Err(e) => {
                        return StrategyOutcome::Aborted {
                            reason: format!("{}: {e}", tactic.name()),
                        };
                    }
                }
            }
            StrategyOutcome::NoApplicableTactic { reasons }
        }
    }

    /// The addresses of the models a [`ProbeTactic`] was handed.
    type Sightings = Rc<RefCell<Vec<*const System>>>;

    /// A scripted tactic that also records which model it was shown.
    struct ProbeTactic {
        inner: ScriptedTactic,
        seen: Sightings,
    }

    impl ProbeTactic {
        fn boxed(
            name: &str,
            result: Result<Script, RepairError>,
            seen: &Sightings,
        ) -> Box<dyn Tactic> {
            Box::new(ProbeTactic {
                inner: ScriptedTactic {
                    name: name.into(),
                    result,
                },
                seen: Rc::clone(seen),
            })
        }
    }

    impl Tactic for ProbeTactic {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
            self.seen.borrow_mut().push(ctx.model as *const System);
            self.inner.attempt(ctx)
        }
    }

    fn model() -> System {
        ClientServerStyle::example_system("s", 2, 2, 2).unwrap()
    }

    fn violation(model: &System) -> Violation {
        let id = model.component_by_name("User1").unwrap();
        Violation {
            invariant: "latency".into(),
            subject: Some(ElementRef::Component(id)),
            subject_name: Key::new("User1"),
            detail: Key::new("averageLatency <= maxLatency"),
        }
    }

    fn applied(calls: Vec<Call>) -> Result<Script, RepairError> {
        Ok(Script::Apply(calls))
    }

    fn not_applicable() -> Result<Script, RepairError> {
        Ok(Script::NotApplicable)
    }

    fn scripted(name: &str, result: Result<Script, RepairError>) -> Box<dyn Tactic> {
        Box::new(ScriptedTactic {
            name: name.into(),
            result,
        })
    }

    fn add_server_call() -> Vec<Call> {
        vec![Call::Add("ServerGrp1")]
    }

    /// The op `add_server_call` records.
    fn add_server_op() -> Vec<ModelOp> {
        vec![ModelOp::AddServer {
            group: "ServerGrp1".into(),
            server: "ServerGrp1.Server3".into(),
        }]
    }

    /// Retiring both replicas of a group leaves it with no active server.
    fn break_style() -> Result<Script, RepairError> {
        applied(vec![
            Call::Remove("ServerGrp1.Server1"),
            Call::Remove("ServerGrp1.Server2"),
        ])
    }

    #[test]
    fn first_success_stops_after_one_applied_tactic() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixLatency")
            .with_tactic(scripted("skip", not_applicable()))
            .with_tactic(scripted("first", applied(add_server_call())))
            .with_tactic(scripted("never-reached", applied(add_server_call())));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Repaired {
                ops,
                applied_tactics,
                ..
            } => {
                assert_eq!(applied_tactics, vec!["first".to_string()]);
                assert_eq!(ops, add_server_op());
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // The caller's model is untouched.
        assert!(m.component_by_name("ServerGrp1.Server3").is_none());
    }

    #[test]
    fn no_applicable_tactic_reports_reasons() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixLatency")
            .with_tactic(scripted("a", not_applicable()))
            .with_tactic(scripted("b", not_applicable()));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::NoApplicableTactic { reasons } => assert_eq!(reasons.len(), 2),
            other => panic!("unexpected outcome: {other:?}"),
        }
        let tactic_names: Vec<&str> = strategy.tactics.iter().map(|t| t.1.name()).collect();
        assert_eq!(tactic_names, ["a", "b"]);
    }

    #[test]
    fn style_breaking_repair_is_aborted() {
        let m = model();
        let v = violation(&m);
        let strategy =
            RepairStrategy::new("bad").with_tactic(scripted("break-style", break_style()));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Aborted { reason } => assert_eq!(
                reason,
                "break-style: repair would violate the style: \
                 ServerGrp1: server group must contain at least one active server"
            ),
            other => panic!("unexpected outcome: {other:?}"),
        }
        // A recruit after the removals keeps the group served.
        let refilled = applied(vec![
            Call::Remove("ServerGrp1.Server1"),
            Call::Remove("ServerGrp1.Server2"),
            Call::Add("ServerGrp1"),
        ]);
        let strategy = RepairStrategy::new("ok").with_tactic(scripted("refill", refilled));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Repaired { ops, .. } => assert_eq!(ops.len(), 3),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn tactic_error_aborts_strategy() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixBandwidth")
            .with_tactic(scripted("move", Err(RepairError::NoServerGroupFound)));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Aborted { reason } => assert!(reason.contains("NoServerGroupFound")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn invalid_ops_abort_with_explanation() {
        let m = model();
        let v = violation(&m);
        // An operator that would not apply fails as the tactic writes the
        // script, so the tactic — not a later replay — reports it.
        let strategy = RepairStrategy::new("broken").with_tactic(scripted(
            "bad-op",
            applied(vec![Call::Remove("DoesNotExist")]),
        ));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Aborted { reason } => assert_eq!(
                reason,
                "bad-op: operator failed: bad operator target: server DoesNotExist not found"
            ),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn tactics_borrow_the_callers_model_until_one_applies() {
        let m = model();
        let v = violation(&m);
        let seen = Sightings::default();
        let strategy = RepairStrategy::new("probe")
            .with_tactic(ProbeTactic::boxed("a", not_applicable(), &seen))
            .with_tactic(ProbeTactic::boxed("b", not_applicable(), &seen))
            .with_tactic(ProbeTactic::boxed("c", not_applicable(), &seen));
        assert!(matches!(
            strategy.run(&m, &v, &StaticQuery::new()),
            StrategyOutcome::NoApplicableTactic { .. }
        ));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        for &shown in seen.iter() {
            assert!(std::ptr::eq(shown, &m), "no copy before anything applies");
        }
    }

    #[test]
    fn every_outcome_matches_the_eager_clone_oracle() {
        let m = model();
        let v = violation(&m);
        let bad_op = || applied(vec![Call::Remove("DoesNotExist")]);
        let second = || applied(vec![Call::Remove("ServerGrp2.Server2")]);
        let strategies = [
            RepairStrategy::new("none")
                .with_tactic(scripted("a", not_applicable()))
                .with_tactic(scripted("b", not_applicable())),
            RepairStrategy::new("both")
                .with_tactic(scripted("skip", not_applicable()))
                .with_tactic(scripted("a", applied(add_server_call())))
                .with_tactic(scripted("b", second())),
            RepairStrategy::new("no-group")
                .with_tactic(scripted("move", Err(RepairError::NoServerGroupFound))),
            RepairStrategy::new("operator")
                .with_tactic(scripted("op", Err(RepairError::Operator("boom".into())))),
            RepairStrategy::new("bad-op").with_tactic(scripted("bad-op", bad_op())),
            RepairStrategy::new("move").with_tactic(scripted(
                "move",
                applied(vec![Call::Move("User1", "ServerGrp2")]),
            )),
            RepairStrategy::new("style").with_tactic(scripted("break-style", break_style())),
        ];
        // A tactic behind the first success is never asked, whatever it
        // would have answered.
        let never_reached = [
            RepairStrategy::new("late-bad-op")
                .with_tactic(scripted("a", applied(add_server_call())))
                .with_tactic(scripted("again", applied(add_server_call()))),
            RepairStrategy::new("late-style")
                .with_tactic(scripted("a", applied(add_server_call())))
                .with_tactic(scripted("break-style", break_style())),
            RepairStrategy::new("late-no-group")
                .with_tactic(scripted("a", applied(add_server_call())))
                .with_tactic(scripted("move", Err(RepairError::NoServerGroupFound))),
        ];
        for strategy in strategies.iter().chain(&never_reached) {
            assert_eq!(
                strategy.run(&m, &v, &StaticQuery::new()),
                strategy.run_eager(&m, &v, &StaticQuery::new()),
                "{}",
                strategy.name()
            );
        }
        for strategy in &never_reached {
            assert!(
                matches!(
                    strategy.run(&m, &v, &StaticQuery::new()),
                    StrategyOutcome::Repaired { .. }
                ),
                "{}",
                strategy.name()
            );
        }
    }
}
