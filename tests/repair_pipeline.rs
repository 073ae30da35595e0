//! Integration of the model-layer repair machinery with the translator,
//! without the full simulation: violations → strategy → change-set → runtime
//! operations.

use archmodel::style::{props, ClientServerStyle};
use repair::{default_constraints, fix_latency_strategy, StaticQuery, StrategyOutcome};
use translator::{translate, RepairCostModel, RuntimeOp};

fn overloaded_model() -> archmodel::System {
    let mut model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
    model.properties.set(props::MAX_LATENCY, 2.0);
    let g1 = model.component_by_name("ServerGrp1").unwrap();
    model
        .component_mut(g1)
        .unwrap()
        .properties
        .set(props::LOAD, 12i64);
    let g2 = model.component_by_name("ServerGrp2").unwrap();
    model
        .component_mut(g2)
        .unwrap()
        .properties
        .set(props::LOAD, 1i64);
    let user3 = model.component_by_name("User3").unwrap();
    model
        .component_mut(user3)
        .unwrap()
        .properties
        .set(props::AVERAGE_LATENCY, 7.5);
    for role in model.roles().map(|(id, _)| id).collect::<Vec<_>>() {
        model
            .role_mut(role)
            .unwrap()
            .properties
            .set(props::BANDWIDTH, 2.0e6);
    }
    model
}

#[test]
fn violation_to_runtime_ops_for_an_overload() {
    let model = overloaded_model();
    let report = default_constraints().check(&model);
    assert!(!report.is_clean());
    let violation = report
        .violations
        .iter()
        .find(|v| v.invariant == "latency")
        .expect("latency violation for User3");

    let query = StaticQuery::new().with_spares("ServerGrp1", 1);
    let outcome = fix_latency_strategy().run(&model, violation, &query);
    let StrategyOutcome::Repaired { ops, .. } = outcome else {
        panic!("expected a repair, got {outcome:?}");
    };

    // The model ops keep the style valid when committed.
    let mut committed = model.clone();
    for op in &ops {
        archmodel::apply_op(&mut committed, op).unwrap();
    }
    assert!(ClientServerStyle::validate(&committed).is_empty());

    // Translation yields the Table 1 sequence for recruiting a server.
    let runtime = translate(&model, &ops, 10_000.0).unwrap();
    assert!(runtime
        .iter()
        .any(|op| matches!(op, RuntimeOp::ActivateServer { .. })));
    assert!(runtime
        .iter()
        .any(|op| matches!(op, RuntimeOp::ConnectServer { .. })));

    // The cost model prices it in the tens of seconds, dominated by gauges.
    let cost = RepairCostModel::paper_defaults();
    let duration = cost.total_duration(&runtime);
    assert!((20.0..=60.0).contains(&duration), "duration {duration}");
    assert!(cost.gauge_share(&runtime) > 0.4);
}

#[test]
fn violation_to_runtime_ops_for_a_bandwidth_problem() {
    let mut model = overloaded_model();
    // Make it purely a bandwidth problem for User3.
    let g1 = model.component_by_name("ServerGrp1").unwrap();
    model
        .component_mut(g1)
        .unwrap()
        .properties
        .set(props::LOAD, 1i64);
    let user3 = model.component_by_name("User3").unwrap();
    for role in model.roles_of_component(user3).collect::<Vec<_>>() {
        model
            .role_mut(role)
            .unwrap()
            .properties
            .set(props::BANDWIDTH, 4_000.0);
    }
    let report = default_constraints().check(&model);
    let violation = report
        .violations
        .iter()
        .find(|v| v.invariant == "latency")
        .unwrap();
    let query = StaticQuery::new()
        .with_bandwidth("User3", "ServerGrp1", 4_000.0)
        .with_bandwidth("User3", "ServerGrp2", 3.0e6);
    let outcome = fix_latency_strategy().run(&model, violation, &query);
    let StrategyOutcome::Repaired {
        ops, description, ..
    } = outcome
    else {
        panic!("expected a repair");
    };
    assert!(description.contains("ServerGrp2"));
    let runtime = translate(&model, &ops, 10_000.0).unwrap();
    assert!(runtime.iter().any(|op| matches!(
        op,
        RuntimeOp::MoveClient { client, to_group } if client == "User3" && to_group == "ServerGrp2"
    )));
    // Gauge caching ablation: the same repair is much cheaper with caching.
    let slow = RepairCostModel::paper_defaults().total_duration(&runtime);
    let fast = RepairCostModel::with_gauge_caching().total_duration(&runtime);
    assert!(fast < slow / 2.0);
}

#[test]
fn clean_model_produces_no_repairs() {
    let mut model = ClientServerStyle::example_system("storage", 1, 3, 3).unwrap();
    for (id, _) in model
        .components_of_type("ClientT")
        .map(|(id, c)| (id, c.name.to_string()))
        .collect::<Vec<_>>()
    {
        model
            .component_mut(id)
            .unwrap()
            .properties
            .set(props::AVERAGE_LATENCY, 0.4);
    }
    let g = model.component_by_name("ServerGrp1").unwrap();
    model
        .component_mut(g)
        .unwrap()
        .properties
        .set(props::LOAD, 2i64);
    for role in model.roles().map(|(id, _)| id).collect::<Vec<_>>() {
        model
            .role_mut(role)
            .unwrap()
            .properties
            .set(props::BANDWIDTH, 5e6);
    }
    let report = default_constraints().check(&model);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}
