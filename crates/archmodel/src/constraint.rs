//! Invariants and constraint checking.
//!
//! The task layer expresses performance requirements as threshold constraints
//! over the architectural model (e.g. `averageLatency <= maxLatency`). The
//! architecture manager checks these constraints whenever gauge updates change
//! model properties; a violated constraint triggers the associated repair
//! strategy (§3.2).

use crate::element::ElementRef;
use crate::expr::{parse, EvalError, Expr, Operand, ParseError, Program, PropertyReadSet};
use crate::key::Key;
use crate::system::{ModelDelta, System};
use std::fmt;

/// What an invariant ranges over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintScope {
    /// Evaluated once against the whole system (no `self` binding).
    System,
    /// Evaluated once per component of the given type, with `self` bound to
    /// that component.
    EachComponent(String),
    /// Evaluated once per connector of the given type, with `self` bound.
    EachConnector(String),
    /// Evaluated once per role of the given type, with `self` bound.
    EachRole(String),
}

/// A named invariant over the architectural model.
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    /// Short identifier, e.g. `"latency"`, interned once at parse time.
    pub name: Key,
    /// The elements the invariant ranges over.
    pub scope: ConstraintScope,
    /// The parsed constraint expression.
    pub expression: Expr,
    /// The original constraint text (for reporting), interned once at parse
    /// time: every violation of the invariant names it without a copy.
    pub source: Key,
    /// `expression` compiled with `self` in slot 0.
    program: Program,
}

impl Invariant {
    /// Parses an invariant from its textual form.
    pub fn parse(
        name: impl Into<Key>,
        scope: ConstraintScope,
        text: &str,
    ) -> Result<Self, ParseError> {
        let expression = parse(text)?;
        Ok(Invariant {
            name: name.into(),
            scope,
            program: Program::compile(&expression, &["self"]),
            expression,
            source: Key::new(text),
        })
    }

    /// Evaluates the invariant with `self` bound to `subject` (left unbound
    /// for a system-scope invariant's `None`).
    pub fn evaluate(
        &self,
        system: &System,
        subject: Option<ElementRef>,
    ) -> Result<bool, EvalError> {
        self.program
            .eval_bool(system, &[subject.map(Operand::Element)])
    }
}

/// A detected constraint violation: four words of interned names and an
/// element id, so a report, a replay and the repair engine copy one without
/// touching the heap or the interner. Each name displays, and compares with
/// a `&str`, as the text it interns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: Key,
    /// The element the violation concerns (`None` for system-scope
    /// invariants).
    pub subject: Option<ElementRef>,
    /// Human-readable name of the subject.
    pub subject_name: Key,
    /// The constraint text that failed.
    pub detail: Key,
}

/// Result of checking a constraint set against the model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Constraints that evaluated to false.
    pub violations: Vec<Violation>,
    /// How many pairs could not be evaluated (e.g. a gauge has not yet
    /// reported the property). These are *not* treated as violations, and
    /// nothing in the control loop reads which ones they were, so a check
    /// only counts them: [`ConstraintSet::check_errors`] and
    /// [`IncrementalChecker::errors`] list them, in sweep order, on request.
    pub error_count: usize,
    /// How many (invariant, element) pairs were actually evaluated.
    pub evaluated: usize,
    /// How many (invariant, element) pairs were pruned by the dirty set and
    /// replayed from cache instead of re-evaluated. Always zero for a full
    /// sweep; `evaluated + skipped` equals the full sweep's `evaluated`.
    pub skipped: usize,
}

impl CheckReport {
    /// True when no constraint was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An (invariant, subject) pair that could not be evaluated: a three-word
/// value of interned names, rendered to its report line only by `Display`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckError {
    /// Name of the invariant.
    pub invariant: Key,
    /// Why it could not be evaluated.
    pub cause: ErrorCause,
}

/// Why a pair could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorCause {
    /// A gauge has not yet reported the property: the element's name and
    /// the property's.
    Missing(Key, Key),
    /// Any other evaluation error, boxed: it is rare, and a cause stays two
    /// words.
    Other(Box<EvalError>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {}: ", self.invariant)?;
        match &self.cause {
            ErrorCause::Missing(el, prop) => write!(f, "property {prop} not yet observed on {el}"),
            ErrorCause::Other(e) => write!(f, "{e}"),
        }
    }
}

/// A collection of invariants checked together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    invariants: Vec<Invariant>,
}

impl ConstraintSet {
    /// Creates an empty constraint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an invariant.
    pub fn add(&mut self, invariant: Invariant) {
        self.invariants.push(invariant);
    }

    /// Builder-style addition.
    pub fn with(mut self, invariant: Invariant) -> Self {
        self.add(invariant);
        self
    }

    /// The invariants in this set.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Number of invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// True if the set has no invariants.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Checks every invariant against the system.
    pub fn check(&self, system: &System) -> CheckReport {
        let mut report = CheckReport::default();
        self.sweep(system, |_, outcome| {
            report.evaluated += 1;
            outcome.append_to(&mut report);
        });
        report
    }

    /// The pairs a full check counts in
    /// [`error_count`](CheckReport::error_count), in sweep order.
    pub fn check_errors(&self, system: &System) -> Vec<CheckError> {
        let mut errors = Vec::new();
        self.sweep(system, |invariant, outcome| {
            errors.extend(outcome.error(invariant));
        });
        errors
    }

    /// Evaluates every (invariant, subject) pair in sweep order, handing
    /// each outcome to `visit` with the invariant's interned name.
    fn sweep(&self, system: &System, mut visit: impl FnMut(Key, PairOutcome)) {
        for invariant in &self.invariants {
            for subject in subjects_of(invariant, system) {
                visit(invariant.name, evaluate_pair(invariant, system, subject));
            }
        }
    }
}

/// The subjects an invariant ranges over, in the order a full sweep visits
/// them (system, then elements in id order).
fn subjects_of(invariant: &Invariant, system: &System) -> Vec<Option<ElementRef>> {
    match &invariant.scope {
        ConstraintScope::System => vec![None],
        ConstraintScope::EachComponent(ctype) => system
            .components_of_type(ctype)
            .map(|(id, _)| Some(ElementRef::Component(id)))
            .collect(),
        ConstraintScope::EachConnector(ctype) => system
            .connectors()
            .filter(|(_, c)| &c.ctype == ctype)
            .map(|(id, _)| Some(ElementRef::Connector(id)))
            .collect(),
        ConstraintScope::EachRole(rtype) => system
            .roles()
            .filter(|(_, r)| &r.rtype == rtype)
            .map(|(id, _)| Some(ElementRef::Role(id)))
            .collect(),
    }
}

/// The cached outcome of evaluating one (invariant, subject) pair. The
/// incremental checker replays these for pairs the dirty set did not touch,
/// reproducing the full sweep's report — a persisting violation (or a
/// still-missing gauge property) is re-emitted on every check, exactly as a
/// full sweep re-detects it. Nearly every cached pair holds or fails, so
/// the rare violation is boxed and a pair stays four words; a replay copies
/// it out.
#[derive(Debug, Clone, PartialEq)]
enum PairOutcome {
    /// The constraint held.
    Holds,
    /// The constraint evaluated to false.
    Violated(Box<Violation>),
    /// Evaluation failed: the cause, without the invariant each replay
    /// pairs it with.
    Error(ErrorCause),
}

impl PairOutcome {
    fn append_to(&self, report: &mut CheckReport) {
        match self {
            PairOutcome::Holds => {}
            PairOutcome::Violated(v) => report.violations.push(**v),
            PairOutcome::Error(_) => report.error_count += 1,
        }
    }

    /// The error this outcome is, paired with its invariant.
    fn error(&self, invariant: Key) -> Option<CheckError> {
        match self {
            PairOutcome::Error(cause) => Some(CheckError {
                invariant,
                cause: cause.clone(),
            }),
            _ => None,
        }
    }
}

/// Evaluates one (invariant, subject) pair — the single source of truth for
/// both the full sweep and the incremental checker. The subject's name is
/// read from the model only for a violation, the one outcome that carries
/// it; only a system-scope violation interns it.
fn evaluate_pair(
    invariant: &Invariant,
    system: &System,
    subject: Option<ElementRef>,
) -> PairOutcome {
    match invariant.evaluate(system, subject) {
        Ok(true) => PairOutcome::Holds,
        Ok(false) => {
            let subject_name = match subject {
                None => Key::new(&system.name),
                Some(el) => system.element_name(el),
            };
            PairOutcome::Violated(Box::new(Violation {
                invariant: invariant.name,
                subject,
                subject_name,
                detail: invariant.source,
            }))
        }
        Err(EvalError::MissingProperty(el, p)) => PairOutcome::Error(ErrorCause::Missing(el, p)),
        Err(e) => PairOutcome::Error(ErrorCause::Other(Box::new(e))),
    }
}

/// One cached (invariant, subject) pair.
#[derive(Debug, Clone)]
struct PairState {
    subject: Option<ElementRef>,
    outcome: PairOutcome,
}

/// Cached per-invariant state: the read-set (computed once per rebuild) and
/// the subject list with each pair's last outcome, in sweep order.
#[derive(Debug, Clone)]
struct InvariantState {
    /// The invariant's name.
    name: Key,
    reads: PropertyReadSet,
    /// `reads.self_props` interned for O(1) dirty-set intersection.
    self_keys: Vec<Key>,
    /// `reads.idents` interned for dirty-system-property intersection.
    ident_keys: Vec<Key>,
    pairs: Vec<PairState>,
}

/// Delta-driven constraint checker.
///
/// Drains the system's change journal on each check and re-evaluates only
/// the (invariant, element) pairs whose read-set intersects the dirty set;
/// every other pair replays its cached outcome in the original sweep order,
/// so the produced [`CheckReport`] — its violations, in order, and its error
/// count — equals `ConstraintSet::check`'s on the same model, and
/// [`errors`](Self::errors) lists what `ConstraintSet::check_errors` would.
/// Structural model changes (or a constraint-set change) conservatively
/// invalidate the cache and trigger a full re-scan.
///
/// Soundness rests on every model mutation between checks going through the
/// journaled paths (`System::set_property` and friends, the change-op
/// machinery); raw `component_mut`-style access bypasses the journal and is
/// reserved for model construction.
#[derive(Debug, Clone, Default)]
pub struct IncrementalChecker {
    /// The set the cache was built for; `None` until the first check.
    constraints: Option<ConstraintSet>,
    invariants: Vec<InvariantState>,
}

impl IncrementalChecker {
    /// Creates a checker with an empty cache; the first check is a full
    /// sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks `constraints` against `system`, draining its change journal.
    ///
    /// Equivalent to `constraints.check(system)` except that untouched pairs
    /// are counted in `skipped` rather than `evaluated`.
    pub fn check(&mut self, constraints: &ConstraintSet, system: &mut System) -> CheckReport {
        let delta = system.drain_changes();
        if self.constraints.as_ref() != Some(constraints) {
            self.constraints = Some(constraints.clone());
        } else if !delta.structural {
            return self.replay(constraints, system, &delta);
        }
        self.rebuild(constraints, system)
    }

    /// Full sweep that (re)builds the cached subject lists and outcomes.
    fn rebuild(&mut self, constraints: &ConstraintSet, system: &System) -> CheckReport {
        self.invariants.clear();
        let mut report = CheckReport::default();
        for invariant in constraints.invariants() {
            let reads = invariant.expression.referenced_properties();
            let self_keys = reads.self_props.iter().map(|p| Key::new(p)).collect();
            let ident_keys = reads.idents.iter().map(|p| Key::new(p)).collect();
            let name = invariant.name;
            let subjects = subjects_of(invariant, system);
            let mut pairs = Vec::with_capacity(subjects.len());
            for subject in subjects {
                report.evaluated += 1;
                let outcome = evaluate_pair(invariant, system, subject);
                outcome.append_to(&mut report);
                pairs.push(PairState { subject, outcome });
            }
            self.invariants.push(InvariantState {
                name,
                reads,
                self_keys,
                ident_keys,
                pairs,
            });
        }
        report
    }

    /// Delta check: re-evaluate dirty pairs, replay the rest from cache.
    fn replay(
        &mut self,
        constraints: &ConstraintSet,
        system: &System,
        delta: &ModelDelta,
    ) -> CheckReport {
        let mut report = CheckReport::default();
        for (invariant, state) in constraints.invariants().iter().zip(&mut self.invariants) {
            // An opaque read-set can observe anything, so any change at all
            // re-evaluates the whole invariant; a dirty system property in
            // the ident set likewise affects every pair (thresholds such as
            // `maxLatency` are compared by each subject).
            let eval_all = (state.reads.opaque && !delta.is_empty())
                || state
                    .ident_keys
                    .iter()
                    .any(|k| delta.dirty_system.contains(k));
            for pair in &mut state.pairs {
                let dirty = eval_all
                    || match pair.subject {
                        Some(el) => state
                            .self_keys
                            .iter()
                            .any(|k| delta.dirty.contains(&(el, *k))),
                        None => false,
                    };
                if dirty {
                    report.evaluated += 1;
                    pair.outcome = evaluate_pair(invariant, system, pair.subject);
                } else {
                    report.skipped += 1;
                }
                pair.outcome.append_to(&mut report);
            }
        }
        report
    }

    /// The errors the last check counted, in sweep order, from the cache:
    /// the list [`ConstraintSet::check_errors`] gives on the same model.
    pub fn errors(&self) -> Vec<CheckError> {
        let errors = self.invariants.iter().flat_map(|state| {
            let pairs = state.pairs.iter();
            pairs.filter_map(|pair| pair.outcome.error(state.name))
        });
        errors.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system_with_clients() -> System {
        let mut sys = System::new("storage");
        sys.properties.set("maxLatency", 2.0);
        sys.properties.set("maxServerLoad", 6i64);
        for i in 1..=3 {
            let c = sys.add_component(format!("User{i}"), "ClientT").unwrap();
            sys.component_mut(c)
                .unwrap()
                .properties
                .set("averageLatency", 0.5 * i as f64);
        }
        let g = sys.add_component("ServerGrp1", "ServerGroupT").unwrap();
        sys.component_mut(g).unwrap().properties.set("load", 2i64);
        sys
    }

    fn latency_invariant() -> Invariant {
        Invariant::parse(
            "latency",
            ConstraintScope::EachComponent("ClientT".into()),
            "self.averageLatency <= maxLatency",
        )
        .unwrap()
    }

    #[test]
    fn clean_system_has_no_violations() {
        let sys = system_with_clients();
        let set = ConstraintSet::new().with(latency_invariant());
        let report = set.check(&sys);
        assert!(report.is_clean());
        assert_eq!(report.evaluated, 3);
        assert_eq!(report.error_count, 0);
        assert!(set.check_errors(&sys).is_empty());
    }

    #[test]
    fn violation_identifies_the_offending_client() {
        let mut sys = system_with_clients();
        let c3 = sys.component_by_name("User3").unwrap();
        sys.component_mut(c3)
            .unwrap()
            .properties
            .set("averageLatency", 4.2);
        let set = ConstraintSet::new().with(latency_invariant());
        let report = set.check(&sys);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].subject_name, "User3");
        assert_eq!(report.violations[0].invariant, "latency");
    }

    #[test]
    fn system_scope_invariant() {
        let sys = system_with_clients();
        let inv = Invariant::parse(
            "has-groups",
            ConstraintScope::System,
            "size(select g : ServerGroupT in components | g.load >= 0) >= 1",
        )
        .unwrap();
        let report = ConstraintSet::new().with(inv).check(&sys);
        assert!(report.is_clean());
        assert_eq!(report.evaluated, 1);
    }

    #[test]
    fn missing_property_reported_as_error_not_violation() {
        let mut sys = system_with_clients();
        let extra = sys.add_component("User9", "ClientT").unwrap();
        // No averageLatency property yet (gauge has not reported).
        let _ = extra;
        let set = ConstraintSet::new().with(latency_invariant());
        let report = set.check(&sys);
        assert!(report.violations.is_empty());
        assert_eq!(report.error_count, 1);
        let errors = set.check_errors(&sys);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].to_string().contains("averageLatency"));
    }

    #[test]
    fn role_scope_invariant() {
        let mut sys = system_with_clients();
        let conn = sys.add_connector("Conn1", "ServiceConnT").unwrap();
        let role = sys.add_role(conn, "clientSide", "ClientRoleT").unwrap();
        sys.role_mut(role)
            .unwrap()
            .properties
            .set("bandwidth", 4_000.0);
        sys.properties.set("minBandwidth", 10_000.0);
        let inv = Invariant::parse(
            "bandwidth",
            ConstraintScope::EachRole("ClientRoleT".into()),
            "self.bandwidth >= minBandwidth",
        )
        .unwrap();
        let report = ConstraintSet::new().with(inv).check(&sys);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].subject_name, "clientSide");
    }

    #[test]
    fn parse_error_surfaces() {
        assert!(Invariant::parse("bad", ConstraintScope::System, "a ==").is_err());
    }

    #[test]
    fn incremental_check_skips_clean_pairs_and_matches_full_sweep() {
        let mut sys = system_with_clients();
        let set = ConstraintSet::new().with(latency_invariant());
        let mut checker = IncrementalChecker::new();

        // First check primes the cache with a full sweep.
        let first = checker.check(&set, &mut sys);
        assert_eq!(first.evaluated, 3);
        assert_eq!(first.skipped, 0);
        assert_eq!(
            CheckReport {
                skipped: 0,
                ..first.clone()
            },
            set.check(&sys)
        );

        // Nothing changed: everything replays from cache.
        let steady = checker.check(&set, &mut sys);
        assert_eq!(steady.evaluated, 0);
        assert_eq!(steady.skipped, 3);
        assert_eq!(steady.violations, first.violations);
        assert_eq!(steady.error_count, first.error_count);
        assert_eq!(checker.errors(), set.check_errors(&sys));

        // One client's latency changes: only its pair re-evaluates, and the
        // report still matches a full sweep exactly.
        let c3 = sys.component_by_name("User3").unwrap();
        sys.set_property(
            ElementRef::Component(c3),
            "averageLatency",
            crate::Value::Float(4.2),
        )
        .unwrap();
        let incremental = checker.check(&set, &mut sys);
        assert_eq!(incremental.evaluated, 1);
        assert_eq!(incremental.skipped, 2);
        let full = set.check(&sys);
        assert_eq!(incremental.violations, full.violations);
        assert_eq!(incremental.error_count, full.error_count);
        assert_eq!(checker.errors(), set.check_errors(&sys));
        assert_eq!(incremental.evaluated + incremental.skipped, full.evaluated);
        assert_eq!(incremental.violations[0].subject_name, "User3");
    }

    #[test]
    fn incremental_check_replays_persisting_violations_and_errors() {
        let mut sys = system_with_clients();
        let c3 = sys.component_by_name("User3").unwrap();
        sys.set_property(
            ElementRef::Component(c3),
            "averageLatency",
            crate::Value::Float(9.9),
        )
        .unwrap();
        // User9 has no averageLatency at all: a persisting eval error.
        sys.add_component("User9", "ClientT").unwrap();
        let set = ConstraintSet::new().with(latency_invariant());
        let mut checker = IncrementalChecker::new();
        let first = checker.check(&set, &mut sys);
        assert_eq!(first.violations.len(), 1);
        assert_eq!(first.error_count, 1);
        let errors = checker.errors();
        assert_eq!(errors, set.check_errors(&sys));
        // Steady state: the violation and the error are replayed from cache
        // in their original order, byte for byte.
        let steady = checker.check(&set, &mut sys);
        assert_eq!(steady.evaluated, 0);
        assert_eq!(steady.violations, first.violations);
        assert_eq!(steady.error_count, 1);
        assert_eq!(checker.errors(), errors);
    }

    #[test]
    fn structural_change_rebuilds_the_cache() {
        let mut sys = system_with_clients();
        let set = ConstraintSet::new().with(latency_invariant());
        let mut checker = IncrementalChecker::new();
        checker.check(&set, &mut sys);
        let c4 = sys.add_component("User4", "ClientT").unwrap();
        sys.component_mut(c4)
            .unwrap()
            .properties
            .set("averageLatency", 0.1);
        let report = checker.check(&set, &mut sys);
        // The structural change forces a full re-scan over the new subjects.
        assert_eq!(report.evaluated, 4);
        assert_eq!(report.skipped, 0);
        assert_eq!(
            CheckReport {
                skipped: 0,
                ..report
            },
            set.check(&sys)
        );
    }

    #[test]
    fn dirty_system_property_reevaluates_the_whole_invariant() {
        let mut sys = system_with_clients();
        let set = ConstraintSet::new().with(latency_invariant());
        let mut checker = IncrementalChecker::new();
        assert!(checker.check(&set, &mut sys).is_clean());
        // Tightening the system-level threshold must re-evaluate every pair
        // even though no per-client property changed.
        sys.set_system_property("maxLatency", 1.0);
        let report = checker.check(&set, &mut sys);
        assert_eq!(report.evaluated, 3);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].subject_name, "User3");
    }

    #[test]
    fn a_different_set_of_the_same_length_is_checked_afresh() {
        let mut sys = system_with_clients();
        let latency = ConstraintSet::new().with(latency_invariant());
        let tight = ConstraintSet::new().with(
            Invariant::parse(
                "latency",
                ConstraintScope::EachComponent("ClientT".into()),
                "self.averageLatency <= 1.0",
            )
            .unwrap(),
        );
        let mut checker = IncrementalChecker::new();
        assert!(checker.check(&latency, &mut sys).is_clean());
        // No model change in between: only the set differs, and its report
        // is its own full sweep, not the first set's replay.
        let report = checker.check(&tight, &mut sys);
        assert_eq!(report.evaluated, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(report, tight.check(&sys));
        assert_eq!(report.violations[0].subject_name, "User3");
        // Back to the first set: checked afresh again.
        let back = checker.check(&latency, &mut sys);
        assert_eq!(back.evaluated, 3);
        assert!(back.is_clean());
        // The same set again replays.
        assert_eq!(checker.check(&latency, &mut sys).skipped, 3);
    }

    #[test]
    fn opaque_invariants_reevaluate_on_any_change() {
        let mut sys = system_with_clients();
        let inv = Invariant::parse(
            "has-groups",
            ConstraintScope::System,
            "size(select g : ServerGroupT in components | g.load >= 0) >= 1",
        )
        .unwrap();
        let set = ConstraintSet::new().with(inv);
        let mut checker = IncrementalChecker::new();
        assert_eq!(checker.check(&set, &mut sys).evaluated, 1);
        // No change: even an opaque invariant replays from cache.
        assert_eq!(checker.check(&set, &mut sys).skipped, 1);
        // Any dirty entry re-evaluates it: the read-set is unknowable.
        let g = sys.component_by_name("ServerGrp1").unwrap();
        sys.set_property(ElementRef::Component(g), "load", crate::Value::Int(5))
            .unwrap();
        let report = checker.check(&set, &mut sys);
        assert_eq!(report.evaluated, 1);
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn layout_a_check_error_is_three_words() {
        assert!(std::mem::size_of::<CheckError>() <= 24);
    }

    #[test]
    fn layout_a_violation_is_a_four_word_copy() {
        // 80 bytes of three owned `String`s and an id while a violation
        // carried its text.
        fn is_copy<T: Copy>() {}
        is_copy::<Violation>();
        assert!(std::mem::size_of::<Violation>() <= 32);
    }

    #[test]
    fn layout_a_cached_pair_is_four_words() {
        // 88 bytes while an outcome held its `Violation` inline.
        assert!(std::mem::size_of::<PairState>() <= 32);
    }

    /// Each cause renders the line the checker formatted for it when a
    /// report held text: the literals are the ones that text read.
    #[test]
    fn a_check_error_renders_the_line_a_report_carried() {
        let mut sys = system_with_clients();
        let user9 = ElementRef::Component(sys.add_component("User9", "ClientT").unwrap());
        sys.add_component("ServerGrp2", "ServerGroupT").unwrap();
        let user1 = ElementRef::Component(sys.component_by_name("User1").unwrap());
        let dangling = ElementRef::Component(crate::element::ComponentId(999));
        let clients = || ConstraintScope::EachComponent("ClientT".into());
        let parse = |name, scope, text| Invariant::parse(name, scope, text).unwrap();
        let cases = [
            (
                latency_invariant(),
                Some(user9),
                "invariant latency: property averageLatency not yet observed on User9",
            ),
            (
                parse(
                    "groupLoad",
                    ConstraintScope::System,
                    "forall g : ServerGroupT in components | g.load >= 0",
                ),
                None,
                "invariant groupLoad: property load not yet observed on ServerGrp2",
            ),
            (
                latency_invariant(),
                Some(dangling),
                "invariant latency: property averageLatency not yet observed on component#999",
            ),
            (
                parse("dtype", clients(), "self.type == \"x\""),
                Some(dangling),
                "invariant dtype: property type not yet observed on component#999",
            ),
            (
                parse("typed", clients(), "self.name <= 3"),
                Some(user1),
                "invariant typed: type mismatch: operator Le requires numeric operands, \
                 got Val(Str(\"User1\")) and Val(Int(3))",
            ),
            (
                parse(
                    "unknown",
                    clients(),
                    "self.averageLatency <= noSuchThreshold",
                ),
                Some(user1),
                "invariant unknown: unknown identifier: noSuchThreshold",
            ),
        ];
        for (invariant, subject, line) in cases {
            let mut report = CheckReport::default();
            let name = invariant.name;
            let outcome = evaluate_pair(&invariant, &sys, subject);
            outcome.append_to(&mut report);
            assert_eq!(report.error_count, 1, "{line}");
            assert_eq!(outcome.error(name).expect(line).to_string(), line);
        }
    }
}
