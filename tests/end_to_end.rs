//! Cross-crate integration tests: the full pipeline from the simulated
//! runtime layer through monitoring, the architectural model, constraint
//! checking, repair planning, translation, and back down to runtime
//! reconfiguration.

use arch_adapt::{AdaptationFramework, FrameworkConfig};
use archmodel::style::{props, ClientServerStyle};
use gridapp::{ExperimentSchedule, GridConfig, SERVER_GROUP_1, SERVER_GROUP_2};
use tracestore::EventKind;

/// The framework's model stays structurally valid through an entire adaptive
/// run with repairs.
#[test]
fn model_stays_style_valid_through_repairs() {
    let mut fw =
        AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
    let schedule = ExperimentSchedule::figure7(&GridConfig::default());
    fw.run_with_faults(500.0, Some(&schedule), None);
    assert!(fw.repair_stats().completed >= 1, "a repair completed");
    assert!(
        ClientServerStyle::validate(fw.model()).is_empty(),
        "style violations after repairs: {:?}",
        ClientServerStyle::validate(fw.model())
    );
    assert!(fw.model().integrity_errors().is_empty());
}

/// The architectural model's view of client attachment tracks the runtime
/// system after a repair moves a client.
#[test]
fn model_and_runtime_agree_after_a_move() {
    let mut fw =
        AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
    let schedule = ExperimentSchedule::figure7(&GridConfig::default());
    fw.run_with_faults(480.0, Some(&schedule), None);
    for client in fw.app().client_names() {
        let runtime_group = fw.app().client_group(&client).unwrap();
        let model = fw.model();
        let id = model.component_by_name(&client).unwrap();
        let model_group = ClientServerStyle::group_of_client(model, id)
            .and_then(|g| model.component(g).ok())
            .map(|g| g.name.to_string())
            .unwrap();
        assert_eq!(
            runtime_group, model_group,
            "model/runtime divergence for {client}"
        );
    }
}

/// The control configuration never reconfigures the application.
#[test]
fn control_configuration_only_observes() {
    let mut fw =
        AdaptationFramework::new(GridConfig::default(), FrameworkConfig::control()).unwrap();
    let schedule = ExperimentSchedule::figure7(&GridConfig::default());
    fw.run_with_faults(400.0, Some(&schedule), None);
    assert_eq!(fw.trace().count(EventKind::Reconfiguration), 0);
    assert_eq!(fw.trace().count(EventKind::RepairStart), 0);
    // Violations are still detected and the model still tracks observations.
    for client in fw.app().client_names() {
        assert_eq!(fw.app().client_group(&client).unwrap(), SERVER_GROUP_1);
    }
}

/// The gauge readings that reach the model reflect what the probes observed:
/// an overloaded queue shows up as the group's `load` property.
#[test]
fn monitoring_reflects_runtime_state_into_the_model() {
    let grid = GridConfig::default();
    let mut fw = AdaptationFramework::new(grid, FrameworkConfig::control()).unwrap();
    let schedule = ExperimentSchedule::figure7(&grid);
    // Run into the stress phase so the queue builds up.
    fw.run_with_faults(780.0, Some(&schedule), None);
    let model = fw.model();
    let grp1 = model.component_by_name(SERVER_GROUP_1).unwrap();
    let load = model
        .component(grp1)
        .unwrap()
        .properties
        .get_f64(props::LOAD)
        .expect("load gauge reported");
    let actual = fw.app().queue_length(SERVER_GROUP_1).unwrap() as f64;
    assert!(
        load > 6.0,
        "stress phase should overload ServerGrp1 in the model (load={load}, actual={actual})"
    );
}

/// Repairs in the adaptive run actually reconfigure the runtime: either a
/// client ends up on Server Group 2 or a spare server is activated.
#[test]
fn repairs_change_the_running_system() {
    let mut fw =
        AdaptationFramework::new(GridConfig::default(), FrameworkConfig::adaptive()).unwrap();
    let schedule = ExperimentSchedule::figure7(&GridConfig::default());
    fw.run_with_faults(900.0, Some(&schedule), None);
    let stats = fw.repair_stats();
    let moved = fw
        .app()
        .client_names()
        .iter()
        .filter(|c| fw.app().client_group(c).unwrap() == SERVER_GROUP_2)
        .count();
    let extra_servers = fw.app().active_servers(SERVER_GROUP_1).len() > 3
        || fw.app().active_servers(SERVER_GROUP_2).len() > 2;
    assert!(
        moved > 0 || extra_servers,
        "repairs must reconfigure the runtime: {stats:?}"
    );
    // Every reconfiguration is recorded in the trace.
    assert!(fw.trace().count(EventKind::Reconfiguration) as u64 >= stats.completed);
}
