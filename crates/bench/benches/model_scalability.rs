//! Model-layer overhead: constraint checking and repair planning as the
//! architectural model grows.
//!
//! The paper argues that externalised, model-based adaptation is practical;
//! this bench quantifies the cost of the model-layer operations (constraint
//! evaluation over all clients, repair planning, style validation) for
//! deployments much larger than the six-client testbed.

use archmodel::style::{props, ClientServerStyle};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use repair::{default_constraints, RepairEngine, StaticQuery};

fn sized_model(clients: usize) -> archmodel::System {
    let groups = (clients / 8).max(2);
    let mut model = ClientServerStyle::example_system("scaled", groups, 3, clients).unwrap();
    // Populate observations so constraints are evaluable; one client violates.
    let names: Vec<(archmodel::ComponentId, String)> = model
        .components_of_type(archmodel::style::CLIENT_T)
        .map(|(id, c)| (id, c.name.to_string()))
        .collect();
    for (id, _) in &names {
        model
            .component_mut(*id)
            .unwrap()
            .properties
            .set(props::AVERAGE_LATENCY, 0.8);
    }
    model
        .component_mut(names[0].0)
        .unwrap()
        .properties
        .set(props::AVERAGE_LATENCY, 5.0);
    let group_ids: Vec<archmodel::ComponentId> = model
        .components_of_type(archmodel::style::SERVER_GROUP_T)
        .map(|(id, _)| id)
        .collect();
    for id in group_ids {
        model
            .component_mut(id)
            .unwrap()
            .properties
            .set(props::LOAD, 8i64);
    }
    let role_ids: Vec<archmodel::RoleId> = model.roles().map(|(id, _)| id).collect();
    for id in role_ids {
        model
            .role_mut(id)
            .unwrap()
            .properties
            .set(props::BANDWIDTH, 2.0e6);
    }
    model
}

fn print_scalability() {
    println!("[model-scalability] model-layer cost vs. deployment size");
    println!(
        "  {:>10} {:>12} {:>12} {:>14}",
        "clients", "components", "invariants", "violations"
    );
    for clients in [6usize, 24, 96, 384] {
        let model = sized_model(clients);
        let report = default_constraints().check(&model);
        println!(
            "  {:>10} {:>12} {:>12} {:>14}",
            clients,
            model.components().count(),
            report.evaluated,
            report.violations.len()
        );
    }
}

fn bench_scalability(c: &mut Criterion) {
    print_scalability();
    let constraints = default_constraints();
    let mut check_group = c.benchmark_group("model_scalability/constraint_check");
    for clients in [6usize, 24, 96, 384] {
        let model = sized_model(clients);
        check_group.bench_with_input(BenchmarkId::from_parameter(clients), &model, |b, model| {
            b.iter(|| constraints.check(model).violations.len())
        });
    }
    check_group.finish();

    let mut plan_group = c.benchmark_group("model_scalability/repair_plan");
    for clients in [6usize, 96] {
        let model = sized_model(clients);
        let report = constraints.check(&model);
        let query = StaticQuery::new()
            .with_spares("ServerGrp1", &["spare"])
            .with_bandwidth(
                report.violations[0].subject_name.as_str(),
                "ServerGrp2",
                5.0e6,
            );
        plan_group.bench_with_input(BenchmarkId::from_parameter(clients), &clients, |b, _| {
            b.iter(|| {
                let mut engine = RepairEngine::new();
                for invariant in ["latency", "bandwidth", "serverLoad"] {
                    engine.register(invariant, repair::fix_latency_strategy());
                }
                matches!(
                    engine.plan(&model, &report, &query, 0.0),
                    repair::PlanOutcome::Plan(_)
                )
            })
        });
    }
    plan_group.finish();

    let mut validate_group = c.benchmark_group("model_scalability/style_validation");
    for clients in [6usize, 96, 384] {
        let model = sized_model(clients);
        validate_group.bench_with_input(
            BenchmarkId::from_parameter(clients),
            &model,
            |b, model| b.iter(|| ClientServerStyle::validate(model).len()),
        );
    }
    validate_group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
