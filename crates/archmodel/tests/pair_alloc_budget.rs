//! The constraint checker's allocation budget: a passing (invariant, subject)
//! pair evaluation makes no heap allocation. The invariants are the ones
//! `repair::default_constraints` and `repair::underutilised_invariant` parse,
//! over the paper's example deployment; each pair is evaluated once to warm
//! up, then counted. Like gridapp's `monitor_alloc_budget.rs`, whose counting
//! allocator it shares, the count is a deterministic work counter.
//!
//! Measured with this file, adapted to the tree-walker's API, on the commit
//! before invariants were compiled (1c2bf25): 2 per pair on every one of
//! the 14 pairs — the `"self"` key and the map node binding it.
//!
//! A failure is a value, not text, and a report counts failures without
//! listing them: over 10,000 pairs that cannot be evaluated (no client has
//! reported its latency yet), the incremental checker's first check, a
//! rebuild, makes at most 64 allocations (32: the constraint set's copy, the
//! subject list grown by doubling, and the exactly reserved pair cache; 34
//! while an invariant's name and text were `String`s), and
//! a replay with no dirty pair makes none. While each report listed its
//! errors, the rebuild made 49 and the replay 13, the list's growth by
//! doubling; while each error was formatted text, the rebuild made 40,059
//! (four per pair: the evaluator's two `String`s, the report line and its
//! `Arc<str>`); while each replay cloned each cached error `String`, it made
//! 10,013. The list, built on request from the checker's cache, is the full
//! sweep's.
//!
//! A violation is a copy of interned names, so replaying 10,000 cached
//! violations (every client over its latency bound) allocates only the
//! report's violation vector, grown by doubling: 13 allocations, gated at
//! ⌈log2 10,000⌉ = 14. While a violation held three `String`s, each replay
//! cloned all three: 30,013.

use archmodel::style::{ClientServerStyle, CLIENT_ROLE_T, CLIENT_T, SERVER_GROUP_T};
use archmodel::{
    ConstraintScope, ConstraintSet, ElementRef, IncrementalChecker, Invariant, System, Value,
};

/// Allocations a rebuild over 10,000 unevaluable pairs may make.
const CHECK_CEILING: u64 = 64;

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

#[test]
fn a_passing_pair_evaluation_allocates_nothing() {
    let mut model =
        ClientServerStyle::example_system("alloc", 2, 2, 4).expect("example system builds");
    for (name, value) in [
        ("maxDeadServers", Value::Int(1)),
        ("underutilisedLoad", Value::Float(5.0)),
    ] {
        model.properties.set(name, value);
    }
    let groups: Vec<_> = model
        .components_of_type(SERVER_GROUP_T)
        .map(|(id, _)| ElementRef::Component(id))
        .collect();
    let clients: Vec<_> = model
        .components_of_type(CLIENT_T)
        .map(|(id, _)| ElementRef::Component(id))
        .collect();
    let roles: Vec<_> = model
        .roles()
        .filter(|(_, r)| r.rtype == CLIENT_ROLE_T)
        .map(|(id, _)| ElementRef::Role(id))
        .collect();
    for (el, name, value) in groups
        .iter()
        .flat_map(|&g| {
            [
                (g, "load", Value::Int(2)),
                (g, "deadServers", Value::Int(0)),
                (g, "baseReplicas", Value::Int(2)),
            ]
        })
        .chain(
            clients
                .iter()
                .map(|&c| (c, "averageLatency", Value::Float(0.5))),
        )
        .chain(roles.iter().map(|&r| (r, "bandwidth", Value::Float(5.0e6))))
    {
        model.set_property(el, name, value).unwrap();
    }

    let each_group = || ConstraintScope::EachComponent(SERVER_GROUP_T.into());
    let cases = [
        (
            ConstraintScope::EachComponent(CLIENT_T.into()),
            "self.averageLatency <= maxLatency",
            &clients,
        ),
        (each_group(), "self.load <= maxServerLoad", &groups),
        (
            ConstraintScope::EachRole(CLIENT_ROLE_T.into()),
            "self.bandwidth >= minBandwidth",
            &roles,
        ),
        (each_group(), "self.deadServers <= maxDeadServers", &groups),
        (
            each_group(),
            "self.load > underutilisedLoad or self.replicationCount <= self.baseReplicas",
            &groups,
        ),
    ];
    let mut pairs = 0;
    for (scope, text, subjects) in cases {
        let invariant = Invariant::parse(text, scope, text).unwrap();
        for &subject in subjects.iter() {
            assert_eq!(
                invariant.evaluate(&model, Some(subject)),
                Ok(true),
                "{text}"
            );
            let mut verdict = Ok(false);
            let allocations = counted(|| verdict = invariant.evaluate(&model, Some(subject)));
            assert_eq!(verdict, Ok(true));
            assert_eq!(allocations, 0, "{text} allocated {allocations} times");
            pairs += 1;
        }
    }
    assert_eq!(pairs, 4 + 2 + 4 + 2 + 2);
}

/// A 10,000-client model none of whose clients has reported its latency,
/// and the latency invariant alone.
fn unevaluable_pairs() -> (System, ConstraintSet) {
    let model =
        ClientServerStyle::example_system("replay", 2, 2, 10_000).expect("example system builds");
    let latency = Invariant::parse(
        "latency",
        ConstraintScope::EachComponent(CLIENT_T.into()),
        "self.averageLatency <= maxLatency",
    )
    .unwrap();
    (model, ConstraintSet::new().with(latency))
}

#[test]
fn a_rebuild_over_unevaluable_pairs_allocates_per_report_not_per_pair() {
    let (mut model, constraints) = unevaluable_pairs();
    let mut checker = IncrementalChecker::new();
    let mut first = None;
    let rebuild = counted(|| first = Some(checker.check(&constraints, &mut model)));
    let first = first.unwrap();
    assert_eq!((first.evaluated, first.error_count), (10_000, 10_000));
    assert_eq!(checker.errors(), constraints.check_errors(&model));
    println!("{rebuild} allocations rebuilding over 10,000 unevaluable pairs");
    assert!(
        rebuild <= CHECK_CEILING,
        "a rebuild over 10,000 unevaluable pairs made {rebuild} allocations"
    );
}

#[test]
fn a_clean_replay_of_unevaluable_pairs_allocates_per_report_not_per_pair() {
    let (mut model, constraints) = unevaluable_pairs();
    let mut checker = IncrementalChecker::new();
    let first = checker.check(&constraints, &mut model);
    assert_eq!((first.evaluated, first.error_count), (10_000, 10_000));
    let errors = checker.errors();

    let mut replay = None;
    let allocations = counted(|| replay = Some(checker.check(&constraints, &mut model)));
    let replay = replay.unwrap();
    assert_eq!((replay.skipped, replay.evaluated), (10_000, 0));
    assert_eq!(replay.error_count, first.error_count);
    assert_eq!(checker.errors(), errors);
    assert_eq!(errors, constraints.check_errors(&model));
    println!("{allocations} allocations replaying 10,000 unevaluable pairs");
    assert_eq!(
        allocations, 0,
        "a clean replay of 10,000 cached errors made {allocations} allocations"
    );
}

/// Allocations a clean replay of 10,000 cached violations may make: the
/// report's vector grown by doubling, at most once per bit of its length.
const VIOLATION_REPLAY_CEILING: u64 = 14;

#[test]
fn a_clean_replay_of_violations_allocates_only_the_report() {
    let (mut model, constraints) = unevaluable_pairs();
    let clients: Vec<_> = model
        .components_of_type(CLIENT_T)
        .map(|(id, _)| id)
        .collect();
    for id in clients {
        let properties = &mut model.component_mut(id).unwrap().properties;
        properties.set("averageLatency", 1.0e9);
    }
    let mut checker = IncrementalChecker::new();
    let first = checker.check(&constraints, &mut model);
    assert_eq!(first.violations.len(), 10_000);

    let mut replay = None;
    let allocations = counted(|| replay = Some(checker.check(&constraints, &mut model)));
    let replay = replay.unwrap();
    assert_eq!((replay.skipped, replay.evaluated), (10_000, 0));
    assert_eq!(replay.violations, first.violations);
    assert_eq!(replay.violations, constraints.check(&model).violations);
    println!("{allocations} allocations replaying 10,000 cached violations");
    assert!(
        allocations <= VIOLATION_REPLAY_CEILING,
        "a clean replay of 10,000 cached violations made {allocations} allocations"
    );
}
