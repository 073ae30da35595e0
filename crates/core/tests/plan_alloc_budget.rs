//! A repair the engine cannot make costs a copy per candidate, not prose.
//! On the freshly built 2,000-client `large-scale` model, where no server
//! group reports a load and no client role a bandwidth, `n` clients report
//! a latency past the bound: neither `fixServerLoad` (no overloaded group
//! connected) nor `fixBandwidth` (no bandwidth observation) applies to any
//! of them, so one `RepairEngine::plan`, registered as the framework
//! registers it, falls through every candidate and returns a skip. The plan
//! is counted warm with the counting allocator gridapp's
//! `monitor_alloc_budget.rs` shares, at 500 and at 1,000 candidates; the
//! counts are deterministic work counters, the same on every host and in
//! both profiles.
//!
//! Measured with this file, adapted to the text skip, on the commit before
//! violations and skips were typed (0221368): 11,017 allocations at 500
//! candidates and 22,019 at 1,000, 22 per candidate (each candidate's
//! cloned `Violation` of three `String`s, the preconditions' scans of every
//! component and their connector lists, and the formatted reasons and
//! note), requesting 639,781 and 1,281,289 bytes, about 1,280 per
//! candidate. With typed, key-named records it makes 5 allocations at
//! either count: the candidate order, the skip's note vector (reserved once,
//! exactly), its one list of reasons, shared by every candidate, with the
//! vector that holds it, and the reason buffer the candidates share. It
//! requests 28 bytes per candidate (a 4-byte index and a 24-byte note) plus
//! 256.
//!
//! The second case is the fall-through that asks the runtime: every server
//! group reports a load past the bound and every spare server has crashed,
//! so `fixServerLoad` finds its candidate's group overloaded, asks the live
//! application (`AppQuery`) how many spares it could recruit, and is told
//! none. The answer is a count and allocates nothing: the plan costs what
//! the same plan against a table that knows no spares (`StaticQuery`) costs,
//! 2 allocations per candidate (its list of overloaded groups, and that list
//! boxed into its reason, which the skip drops as a repeat) plus 7, and 68
//! bytes per candidate plus 384. The same case, adapted to the old
//! `find_spare_server`, measured the same on the commit before the question
//! became a count (f536cbe), since a search that finds no spare built no
//! name; what it cost was time, a second scan of every server through the
//! group-aware pick.

use arch_adapt::{build_model, AppQuery, PerformanceProfile};
use archmodel::style::{props, SERVER_GROUP_T};
use archmodel::{ElementRef, System, Value};
use gridapp::{GridApp, GridConfig, TestbedSpec};
use repair::{PlanOutcome, RepairDamping, RepairEngine, RuntimeQuery, Skip, StaticQuery};
use simnet::SimTime;

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted_with_bytes;

/// Bytes one plan may request per candidate it passes over.
const BYTES_PER_CANDIDATE: u64 = 32;
/// Bytes one plan may request whatever its candidate count.
const BYTES_CONSTANT: u64 = 1_024;

/// The engine as a `plannedRepair` run registers it, damping included.
fn engine() -> RepairEngine {
    let mut engine = RepairEngine::new();
    for invariant in ["latency", "bandwidth", "serverLoad"] {
        engine.register(invariant, repair::fix_latency_strategy());
    }
    engine.register("liveness", repair::recover_liveness_strategy());
    engine.set_damping(Some(RepairDamping::new(60.0)));
    engine
}

/// Allocations and bytes of one warm plan over the first `n` clients, each
/// reporting a latency past the bound, asking `query`; and the skip it ends
/// in.
fn plan_over(model: &mut System, query: &dyn RuntimeQuery, n: usize) -> ((u64, u64), Skip) {
    for i in 1..=n {
        let id = model
            .component_by_name(&format!("User{i}"))
            .expect("a client");
        let latency = Value::Float(1.0e9);
        let element = ElementRef::Component(id);
        model
            .set_property(element, props::AVERAGE_LATENCY, latency)
            .expect("set");
    }
    let report = repair::default_constraints().check(model);
    let latency = report
        .violations
        .iter()
        .filter(|v| v.invariant == "latency");
    assert_eq!(latency.count(), n);
    let mut engine = engine();
    engine.plan(model, &report, query, 10.0);
    let mut outcome = None;
    let counts = counted_with_bytes(|| outcome = Some(engine.plan(model, &report, query, 10.0)));
    let Some(PlanOutcome::Skipped(skip)) = outcome else {
        panic!("no tactic applies: {outcome:?}");
    };
    let candidates = report.violations.len();
    assert_eq!(skip.to_string().matches(" | ").count(), candidates - 1);
    (counts, skip)
}

/// [`plan_over`] candidates no tactic applies to and nothing is asked about.
fn hopeless(model: &mut System, n: usize) -> (u64, u64) {
    let (counts, skip) = plan_over(model, &StaticQuery::new(), n);
    assert!(skip.to_string().starts_with(
        "no applicable tactic for User1: fixServerLoad: no overloaded server group connected \
         to User1; fixBandwidth: no bandwidth observation for User1 yet | "
    ));
    counts
}

#[test]
fn a_fall_through_allocates_per_plan_not_per_candidate() {
    let app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale()))
        .expect("the deployment builds");
    let (mut model, _) = build_model(&app, &PerformanceProfile::default()).expect("model builds");
    let (fewer, more) = (500, 1_000);
    let (few_allocations, few_bytes) = hopeless(&mut model, fewer);
    let (allocations, bytes) = hopeless(&mut model, more);
    println!(
        "{fewer} candidates: {few_allocations} allocations, {few_bytes} bytes; \
         {more} candidates: {allocations} allocations, {bytes} bytes"
    );
    assert_eq!(
        allocations, few_allocations,
        "a plan's allocations grew with its candidates"
    );
    for (n, bytes) in [(fewer, few_bytes), (more, bytes)] {
        let ceiling = BYTES_PER_CANDIDATE * n as u64 + BYTES_CONSTANT;
        assert!(
            bytes <= ceiling,
            "a plan over {n} candidates requested {bytes} bytes, above {ceiling}"
        );
    }
}

/// Allocations a plan may make per candidate whose overloaded group cannot
/// grow, and per plan.
const ALLOCATIONS_PER_OVERLOADED: u64 = 2;
const ALLOCATIONS_CONSTANT: u64 = 7;
/// Bytes such a plan may request per candidate, and per plan.
const BYTES_PER_OVERLOADED: u64 = 68;

/// Allocations and bytes of one warm plan asking the live application, and
/// of one asking a table with no spares, over `n` candidates whose
/// overloaded group cannot grow.
fn without_spares(n: usize) -> [(u64, u64); 2] {
    let mut app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale()))
        .expect("the deployment builds");
    let (mut model, _) = build_model(&app, &PerformanceProfile::default()).expect("model builds");
    while let Some(spare) = app.find_server() {
        app.crash_server(SimTime::from_secs(1.0), spare)
            .expect("a spare");
    }
    let groups: Vec<_> = model
        .components_of_type(SERVER_GROUP_T)
        .map(|(id, _)| id)
        .collect();
    for group in groups {
        let load = Value::Float(100.0);
        let element = ElementRef::Component(group);
        model.set_property(element, props::LOAD, load).expect("set");
    }
    let (live, table) = (AppQuery::new(&app), StaticQuery::new());
    [&live as &dyn RuntimeQuery, &table].map(|query| {
        let (counts, skip) = plan_over(&mut model, query, n);
        let note = skip.to_string();
        assert!(
            note.starts_with(
                "no applicable tactic for User1: fixServerLoad: server groups [\"ServerGrp1\"] \
                 are overloaded but no spare server is available; fixBandwidth: no bandwidth \
                 observation for User1 yet | "
            ),
            "{}",
            &note[..200]
        );
        counts
    })
}

#[test]
fn asking_the_runtime_for_a_spare_allocates_nothing() {
    for n in [500, 1_000] {
        let [(allocations, bytes), table] = without_spares(n);
        println!("{n} candidates without spares: {allocations} allocations, {bytes} bytes");
        assert_eq!(
            (allocations, bytes),
            table,
            "the runtime's answer allocated"
        );
        let n = n as u64;
        assert_eq!(
            allocations,
            ALLOCATIONS_PER_OVERLOADED * n + ALLOCATIONS_CONSTANT
        );
        let ceiling = BYTES_PER_OVERLOADED * n + BYTES_CONSTANT;
        assert!(
            bytes <= ceiling,
            "a plan over {n} candidates requested {bytes} bytes, above {ceiling}"
        );
    }
}
