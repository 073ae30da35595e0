//! The group planner's gather at fleet scale allocates per group and class,
//! not per client. On the freshly built 50,000-client `large-scale-50k`
//! deployment, every 25th client reports a latency past the bound (2,000
//! `latency` violations) and `ServerGrp1` a load past its own (one
//! `serverLoad` violation); one `PlannerInput::gather` over that report is
//! counted with the counting allocator gridapp's `monitor_alloc_budget.rs`
//! shares. The count is a deterministic work counter, the same on every
//! host and in both profiles. The gather is counted warm: the first one
//! builds the routing trees its class probes walk, which the run's earlier
//! snapshots have built by the time a repair plans.
//!
//! Measured with this file on the commit before the planner's input held
//! interned keys (5d58f37): 112,617 allocations — two `String`s per client
//! (its name and its group, into a `BTreeMap<String, String>`, whose nodes
//! come on top) and one per violating client and per `(class, group)`
//! probe entry. Holding the application's own keys, it makes 27: the group
//! names and snapshots, the violation list grown by doubling, the spare
//! list, and one table each for the class flows and the clients' groups.
//! The ceiling is that count plus 5 %.

use arch_adapt::{build_model, PerformanceProfile};
use archmodel::style::props;
use archmodel::{ElementRef, Value};
use gridapp::{GridApp, GridConfig, TestbedSpec};
use planner::{ClassIndex, PlannerInput, PlannerThresholds};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

/// Allocations one warm gather may make: the 27 measured, plus 5 %.
const GATHER_CEILING: u64 = 28;

#[test]
fn a_fleet_gather_allocates_per_group_and_class_not_per_client() {
    let app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale_50k()))
        .expect("the deployment builds");
    let (mut model, _) = build_model(&app, &PerformanceProfile::default()).expect("model builds");
    let mut set = |name: &str, property: &str, value: f64| {
        let id = model.component_by_name(name).expect("the element exists");
        let element = ElementRef::Component(id);
        model.set_property(element, property, Value::Float(value))
    };
    for i in (25..=50_000).step_by(25) {
        set(&format!("User{i}"), props::AVERAGE_LATENCY, 1.0e9).expect("latency is set");
    }
    set("ServerGrp1", props::LOAD, 1.0e9).expect("load is set");
    let report = repair::default_constraints().check(&model);
    let named = |invariant: &str| {
        let violations = report.violations.iter();
        violations.filter(|v| v.invariant == invariant).count()
    };
    assert_eq!((named("latency"), named("serverLoad")), (2_000, 1));

    let index = ClassIndex::build(app.testbed());
    let thresholds = PlannerThresholds {
        min_bandwidth_bps: 10_000.0,
        max_server_load: 6.0,
        max_latency_secs: 2.0,
    };
    let gather = || PlannerInput::gather(&app, &index, &model, &report, thresholds, 10.0);
    let first = gather();
    let mut input = None;
    let allocations = counted(|| input = Some(gather()));
    let input = input.expect("gathered above");
    assert_eq!(input, first, "a gather reads, and changes nothing");
    assert_eq!(input.violating_clients.len(), 2_000);
    assert_eq!(input.overloaded_groups.len(), 1);
    assert_eq!(input.client_groups.len(), 50_000);
    assert_eq!(
        input.class_bandwidth.len(),
        index.client_classes().len() * input.groups.len()
    );

    println!("one warm gather: {allocations} allocations");
    assert!(
        allocations <= GATHER_CEILING,
        "one gather over the 50k deployment made {allocations} allocations: the ceiling is \
         {GATHER_CEILING}"
    );
}
