//! Repair strategies: policies over sequences of tactics.
//!
//! When an architectural constraint violation is detected, the associated
//! repair strategy is triggered. The strategy decides the policy for running
//! its tactics — apply the first that succeeds, or sequence through all of
//! them — validates the resulting model against the architectural style, and
//! either commits the repair or aborts (§3.2, Figure 5).

use crate::query::RuntimeQuery;
use crate::tactic::{RepairError, Tactic, TacticContext, TacticResult};
use archmodel::constraint::Violation;
use archmodel::style::ClientServerStyle;
use archmodel::{apply_op, ModelOp, System};
use std::borrow::Cow;

/// How a strategy runs its tactics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TacticPolicy {
    /// Apply the first applicable tactic that produces a valid repair (the
    /// paper's `fixLatency` behaviour).
    FirstSuccess,
    /// Sequence through every tactic, accumulating all applicable repairs.
    All,
}

/// The outcome of running a strategy for one violation.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyOutcome {
    /// A repair script was produced and validated against the style.
    Repaired {
        /// The accumulated model operations.
        ops: Vec<ModelOp>,
        /// Names of the tactics that contributed.
        applied_tactics: Vec<String>,
        /// Human-readable description.
        description: String,
    },
    /// No tactic was applicable — the paper's `abort ModelError`.
    NoApplicableTactic {
        /// The reasons each tactic reported.
        reasons: Vec<String>,
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
    policy: TacticPolicy,
    tactics: Vec<Box<dyn Tactic>>,
}

impl RepairStrategy {
    /// Creates a strategy with the given tactic policy.
    pub fn new(name: impl Into<String>, policy: TacticPolicy) -> Self {
        RepairStrategy {
            name: name.into(),
            policy,
            tactics: Vec::new(),
        }
    }

    /// Adds a tactic (tactics run in insertion order).
    pub fn with_tactic(mut self, tactic: Box<dyn Tactic>) -> Self {
        self.tactics.push(tactic);
        self
    }

    /// The strategy's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the strategy for `violation` against `model`.
    pub fn run(
        &self,
        model: &System,
        violation: &Violation,
        query: &dyn RuntimeQuery,
    ) -> StrategyOutcome {
        let mut accumulated_ops: Vec<ModelOp> = Vec::new();
        let mut applied: Vec<String> = Vec::new();
        let mut descriptions: Vec<String> = Vec::new();
        let mut reasons: Vec<String> = Vec::new();
        // The model later tactics see: the caller's until a tactic applies,
        // then a copy carrying the ops applied so far. Most violations end
        // with every tactic `NotApplicable`, and a fleet-scale model is too
        // big to copy just to find that out.
        let mut working = Cow::Borrowed(model);

        for tactic in &self.tactics {
            let ctx = TacticContext {
                model: &working,
                violation,
                query,
            };
            match tactic.attempt(&ctx) {
                Ok(TacticResult::NotApplicable { reason }) => {
                    reasons.push(format!("{}: {reason}", tactic.name()));
                }
                Ok(TacticResult::Applied { ops, description }) => {
                    // Validate: the ops must apply cleanly and the result must
                    // satisfy the style.
                    let mut candidate = working.as_ref().clone();
                    let mut apply_failed = None;
                    for op in &ops {
                        if let Err(e) = apply_op(&mut candidate, op) {
                            apply_failed = Some(e);
                            break;
                        }
                    }
                    if let Some(e) = apply_failed {
                        return StrategyOutcome::Aborted {
                            reason: format!(
                                "{}: repair script failed to apply: {e}",
                                tactic.name()
                            ),
                        };
                    }
                    let style_violations = ClientServerStyle::validate(&candidate);
                    if !style_violations.is_empty() {
                        return StrategyOutcome::Aborted {
                            reason: format!(
                                "{}: repair would violate the style: {}",
                                tactic.name(),
                                style_violations
                                    .iter()
                                    .map(|v| v.to_string())
                                    .collect::<Vec<_>>()
                                    .join("; ")
                            ),
                        };
                    }
                    working = Cow::Owned(candidate);
                    accumulated_ops.extend(ops);
                    applied.push(tactic.name().to_string());
                    descriptions.push(description);
                    if self.policy == TacticPolicy::FirstSuccess {
                        break;
                    }
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

        if applied.is_empty() {
            StrategyOutcome::NoApplicableTactic { reasons }
        } else {
            StrategyOutcome::Repaired {
                ops: accumulated_ops,
                applied_tactics: applied,
                description: descriptions.join("; "),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StaticQuery;
    use archmodel::ElementRef;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A tactic whose applicability and effect are scripted, for testing the
    /// strategy machinery in isolation.
    struct ScriptedTactic {
        name: String,
        result: Result<TacticResult, RepairError>,
    }

    impl Tactic for ScriptedTactic {
        fn name(&self) -> &str {
            &self.name
        }
        fn attempt(&self, _ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
            self.result.clone()
        }
    }

    /// The run loop as it was before the working copy became lazy: one
    /// `model.clone()` up front for every violation examined. Kept as the
    /// reference the copy-on-write [`RepairStrategy::run`] is compared
    /// against (here and in the engine's fleet-sized equivalence test).
    impl RepairStrategy {
        pub(crate) fn run_eager(
            &self,
            model: &System,
            violation: &Violation,
            query: &dyn RuntimeQuery,
        ) -> StrategyOutcome {
            let mut accumulated_ops: Vec<ModelOp> = Vec::new();
            let mut applied: Vec<String> = Vec::new();
            let mut descriptions: Vec<String> = Vec::new();
            let mut reasons: Vec<String> = Vec::new();
            let mut working = model.clone();

            for tactic in &self.tactics {
                let ctx = TacticContext {
                    model: &working,
                    violation,
                    query,
                };
                match tactic.attempt(&ctx) {
                    Ok(TacticResult::NotApplicable { reason }) => {
                        reasons.push(format!("{}: {reason}", tactic.name()));
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
                            return StrategyOutcome::Aborted {
                                reason: format!(
                                    "{}: repair would violate the style: {}",
                                    tactic.name(),
                                    style_violations
                                        .iter()
                                        .map(|v| v.to_string())
                                        .collect::<Vec<_>>()
                                        .join("; ")
                                ),
                            };
                        }
                        working = candidate;
                        accumulated_ops.extend(ops);
                        applied.push(tactic.name().to_string());
                        descriptions.push(description);
                        if self.policy == TacticPolicy::FirstSuccess {
                            break;
                        }
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

            if applied.is_empty() {
                StrategyOutcome::NoApplicableTactic { reasons }
            } else {
                StrategyOutcome::Repaired {
                    ops: accumulated_ops,
                    applied_tactics: applied,
                    description: descriptions.join("; "),
                }
            }
        }
    }

    /// What a [`ProbeTactic`] saw: the address of the model it was handed and
    /// whether that model already holds `add_server_op`'s new server.
    type Sightings = Rc<RefCell<Vec<(*const System, bool)>>>;

    /// A scripted tactic that also records which model it was shown.
    struct ProbeTactic {
        inner: ScriptedTactic,
        seen: Sightings,
    }

    impl ProbeTactic {
        fn boxed(
            name: &str,
            result: Result<TacticResult, RepairError>,
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
            self.seen.borrow_mut().push((
                ctx.model as *const System,
                ctx.model.component_by_name("ServerGrp1.Server9").is_some(),
            ));
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
            subject_name: "User1".into(),
            detail: "averageLatency <= maxLatency".into(),
        }
    }

    fn applied(ops: Vec<ModelOp>) -> Result<TacticResult, RepairError> {
        Ok(TacticResult::Applied {
            ops,
            description: "scripted".into(),
        })
    }

    fn not_applicable() -> Result<TacticResult, RepairError> {
        Ok(TacticResult::NotApplicable {
            reason: "precondition failed".into(),
        })
    }

    fn add_server_op() -> Vec<ModelOp> {
        vec![
            ModelOp::AddComponent {
                name: "ServerGrp1.Server9".into(),
                ctype: archmodel::style::SERVER_T.into(),
                parent: Some("ServerGrp1".into()),
            },
            ModelOp::SetComponentProperty {
                component: "ServerGrp1".into(),
                property: archmodel::style::props::REPLICATION_COUNT.into(),
                value: archmodel::Value::Int(3),
            },
        ]
    }

    #[test]
    fn first_success_stops_after_one_applied_tactic() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixLatency", TacticPolicy::FirstSuccess)
            .with_tactic(Box::new(ScriptedTactic {
                name: "skip".into(),
                result: not_applicable(),
            }))
            .with_tactic(Box::new(ScriptedTactic {
                name: "first".into(),
                result: applied(add_server_op()),
            }))
            .with_tactic(Box::new(ScriptedTactic {
                name: "never-reached".into(),
                result: applied(add_server_op()),
            }));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Repaired {
                applied_tactics, ..
            } => assert_eq!(applied_tactics, vec!["first".to_string()]),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn all_policy_accumulates_every_applicable_tactic() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixAll", TacticPolicy::All)
            .with_tactic(Box::new(ScriptedTactic {
                name: "a".into(),
                result: applied(add_server_op()),
            }))
            .with_tactic(Box::new(ScriptedTactic {
                name: "b".into(),
                result: applied(vec![ModelOp::SetSystemProperty {
                    property: "note".into(),
                    value: archmodel::Value::Str("second".into()),
                }]),
            }));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Repaired {
                ops,
                applied_tactics,
                ..
            } => {
                assert_eq!(applied_tactics.len(), 2);
                assert_eq!(ops.len(), 3);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn no_applicable_tactic_reports_reasons() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixLatency", TacticPolicy::FirstSuccess)
            .with_tactic(Box::new(ScriptedTactic {
                name: "a".into(),
                result: not_applicable(),
            }))
            .with_tactic(Box::new(ScriptedTactic {
                name: "b".into(),
                result: not_applicable(),
            }));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::NoApplicableTactic { reasons } => assert_eq!(reasons.len(), 2),
            other => panic!("unexpected outcome: {other:?}"),
        }
        let tactic_names: Vec<&str> = strategy.tactics.iter().map(|t| t.name()).collect();
        assert_eq!(tactic_names, ["a", "b"]);
    }

    #[test]
    fn style_breaking_repair_is_aborted() {
        let m = model();
        let v = violation(&m);
        // Removing the whole server group leaves its clients dangling.
        let strategy = RepairStrategy::new("bad", TacticPolicy::FirstSuccess).with_tactic(
            Box::new(ScriptedTactic {
                name: "break-style".into(),
                result: applied(vec![ModelOp::RemoveComponent {
                    name: "ServerGrp1".into(),
                }]),
            }),
        );
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Aborted { reason } => assert!(reason.contains("style")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn tactic_error_aborts_strategy() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("fixBandwidth", TacticPolicy::FirstSuccess).with_tactic(
            Box::new(ScriptedTactic {
                name: "move".into(),
                result: Err(RepairError::NoServerGroupFound),
            }),
        );
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Aborted { reason } => assert!(reason.contains("NoServerGroupFound")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn invalid_ops_abort_with_explanation() {
        let m = model();
        let v = violation(&m);
        let strategy = RepairStrategy::new("broken", TacticPolicy::FirstSuccess).with_tactic(
            Box::new(ScriptedTactic {
                name: "bad-op".into(),
                result: applied(vec![ModelOp::RemoveComponent {
                    name: "DoesNotExist".into(),
                }]),
            }),
        );
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Aborted { reason } => assert!(reason.contains("failed to apply")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn tactics_borrow_the_callers_model_until_one_applies() {
        let m = model();
        let v = violation(&m);
        let seen = Sightings::default();
        let strategy = RepairStrategy::new("probe", TacticPolicy::All)
            .with_tactic(ProbeTactic::boxed("a", not_applicable(), &seen))
            .with_tactic(ProbeTactic::boxed("b", not_applicable(), &seen))
            .with_tactic(ProbeTactic::boxed("c", not_applicable(), &seen));
        assert!(matches!(
            strategy.run(&m, &v, &StaticQuery::new()),
            StrategyOutcome::NoApplicableTactic { .. }
        ));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        for &(shown, has_new_server) in seen.iter() {
            assert!(std::ptr::eq(shown, &m), "no copy before anything applies");
            assert!(!has_new_server);
        }
    }

    #[test]
    fn later_tactics_see_a_copy_holding_the_earlier_ops() {
        let m = model();
        let v = violation(&m);
        let seen = Sightings::default();
        let strategy = RepairStrategy::new("probe", TacticPolicy::All)
            .with_tactic(ProbeTactic::boxed("before", not_applicable(), &seen))
            .with_tactic(ProbeTactic::boxed("add", applied(add_server_op()), &seen))
            .with_tactic(ProbeTactic::boxed("after", not_applicable(), &seen));
        match strategy.run(&m, &v, &StaticQuery::new()) {
            StrategyOutcome::Repaired {
                applied_tactics, ..
            } => assert_eq!(applied_tactics, vec!["add".to_string()]),
            other => panic!("unexpected outcome: {other:?}"),
        }
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        // Up to and including the tactic that applies: the caller's model.
        assert!(std::ptr::eq(seen[0].0, &m) && !seen[0].1);
        assert!(std::ptr::eq(seen[1].0, &m) && !seen[1].1);
        // After it: a different model, carrying the new server.
        assert!(!std::ptr::eq(seen[2].0, &m));
        assert!(seen[2].1);
        // The caller's model is untouched.
        assert!(m.component_by_name("ServerGrp1.Server9").is_none());
    }

    #[test]
    fn every_outcome_matches_the_eager_clone_oracle() {
        let m = model();
        let v = violation(&m);
        let scripted = |name: &str, result| -> Box<dyn Tactic> {
            Box::new(ScriptedTactic {
                name: name.into(),
                result,
            })
        };
        let bad_op = || {
            applied(vec![ModelOp::RemoveComponent {
                name: "DoesNotExist".into(),
            }])
        };
        let break_style = || {
            applied(vec![ModelOp::RemoveComponent {
                name: "ServerGrp1".into(),
            }])
        };
        let note = || {
            applied(vec![ModelOp::SetSystemProperty {
                property: "note".into(),
                value: archmodel::Value::Str("second".into()),
            }])
        };
        for policy in [TacticPolicy::FirstSuccess, TacticPolicy::All] {
            let strategies = [
                RepairStrategy::new("none", policy)
                    .with_tactic(scripted("a", not_applicable()))
                    .with_tactic(scripted("b", not_applicable())),
                RepairStrategy::new("both", policy)
                    .with_tactic(scripted("skip", not_applicable()))
                    .with_tactic(scripted("a", applied(add_server_op())))
                    .with_tactic(scripted("b", note())),
                RepairStrategy::new("no-group", policy)
                    .with_tactic(scripted("move", Err(RepairError::NoServerGroupFound))),
                RepairStrategy::new("operator", policy)
                    .with_tactic(scripted("op", Err(RepairError::Operator("boom".into())))),
                RepairStrategy::new("bad-op", policy).with_tactic(scripted("bad-op", bad_op())),
                RepairStrategy::new("style", policy)
                    .with_tactic(scripted("break-style", break_style())),
            ];
            // The abort paths again, reached on the working copy under `All`:
            // the second `add` collides with the server the first one added.
            let late_aborts = [
                RepairStrategy::new("late-bad-op", policy)
                    .with_tactic(scripted("a", applied(add_server_op())))
                    .with_tactic(scripted("again", applied(add_server_op()))),
                RepairStrategy::new("late-style", policy)
                    .with_tactic(scripted("a", applied(add_server_op())))
                    .with_tactic(scripted("break-style", break_style())),
                RepairStrategy::new("late-no-group", policy)
                    .with_tactic(scripted("a", applied(add_server_op())))
                    .with_tactic(scripted("move", Err(RepairError::NoServerGroupFound))),
            ];
            for strategy in strategies.iter().chain(&late_aborts) {
                assert_eq!(
                    strategy.run(&m, &v, &StaticQuery::new()),
                    strategy.run_eager(&m, &v, &StaticQuery::new()),
                    "{} under {policy:?}",
                    strategy.name()
                );
            }
            for strategy in &late_aborts {
                assert_eq!(
                    matches!(
                        strategy.run(&m, &v, &StaticQuery::new()),
                        StrategyOutcome::Aborted { .. }
                    ),
                    policy == TacticPolicy::All
                );
            }
        }
    }
}
