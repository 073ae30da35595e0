//! Model-layer scale: constraint checking as the architectural model grows.
//!
//! The paper argues that externalised, model-based adaptation is practical;
//! this bench prints the size of the model-layer work (components and the
//! invariants constraint evaluation checks over all clients) for deployments
//! much larger than the six-client testbed.

use archmodel::style::{props, ClientServerStyle};
use repair::default_constraints;

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

fn main() {
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
