//! Building and maintaining the runtime architectural model.
//!
//! The model layer keeps an Acme-style model of the running application and
//! updates its properties from gauge readings (Figure 1, items 2–3). This
//! module builds the initial model mirroring the grid application's
//! deployment and applies gauge readings to it.

use crate::task::PerformanceProfile;
use archmodel::style::{props, ClientServerStyle};
use archmodel::{ElementRef, Key, ModelError, System, Value};
use gridapp::GridApp;
use monitoring::GaugeReading;
use rustc_hash::FxHashMap;

/// Builds the architectural model describing the application's current
/// deployment, and the mapping from model server names
/// (`"ServerGrp1.Server1"`) to runtime server names (`"S1"`).
pub fn build_model(
    app: &GridApp,
    profile: &PerformanceProfile,
) -> Result<(System, FxHashMap<Key, Key>), ModelError> {
    let mut model = System::new("storage-infrastructure");
    profile.apply_to(&mut model);
    // The liveness invariant tolerates no dead replicas.
    model.properties.set(props::MAX_DEAD_SERVERS, 0.0);
    // Threshold of the (opt-in) `underutilised` invariant: a group idling at
    // a queue of at most one request counts as underutilised.
    model.properties.set(props::UNDERUTILISED_LOAD, 1.0);

    let mut server_map = FxHashMap::default();
    for group_name in app.group_names() {
        let runtime_servers = app.active_servers(group_name);
        let group = ClientServerStyle::add_server_group(
            &mut model,
            group_name.as_str(),
            runtime_servers.len(),
        )?;
        // Record which runtime server each model replica corresponds to:
        // the group's children are its replicas, in the order they were
        // added (`{group}.Server1`, `{group}.Server2`, …).
        let replicas: Vec<_> = model.children(group).collect();
        for (replica, runtime) in replicas.into_iter().zip(runtime_servers.iter().copied()) {
            let replica = model.component_mut(replica)?;
            // Seed replica liveness so the failover tactic's precondition
            // is evaluable before the health gauges warm up.
            replica.properties.set(props::IS_ALIVE, 1.0);
            server_map.insert(replica.name, runtime);
        }
        // Seed the group's load and liveness census so constraints are
        // evaluable immediately.
        let properties = &mut model.component_mut(group)?.properties;
        properties.set(props::LOAD, 0i64);
        properties.set(props::LIVE_SERVERS, runtime_servers.len() as f64);
        properties.set(props::DEAD_SERVERS, 0.0);
        // The provisioning baseline cost reduction never shrinks below.
        properties.set(props::BASE_REPLICAS, runtime_servers.len() as f64);
    }
    ClientServerStyle::add_clients(&mut model, app.assignments())?;
    Ok((model, server_map))
}

/// A gauge consumer that reflects readings into the architectural model:
/// `averageLatency` onto clients, `load` onto server groups, `bandwidth`
/// onto client roles.
///
/// Targets and properties arrive as interned [`archmodel::Key`]s, so one
/// reading costs two pointer-hash lookups and an in-place property write —
/// no string hashing, no cloning. [`apply_batch`](Self::apply_batch) applies
/// a whole tick's readings with a one-entry resolution memo (readings from
/// one gauge arrive back-to-back for the same target).
///
/// Writes go through the model's journaled compare-and-set path: a reading
/// strictly equal to the stored value neither touches the model nor dirties
/// the incremental checker's change journal — it is only counted in
/// [`suppressed`](Self::suppressed). At fleet scale most per-class
/// representatives are in steady state, so this shrinks the dirty set to
/// genuinely changed properties.
///
/// A reading whose target the model no longer has — say, an in-flight health
/// reading for a replica a failover just retired — is ignored.
pub struct ModelUpdater<'a> {
    /// The model being maintained.
    pub model: &'a mut System,
    /// No-op writes suppressed (reading equal to the stored model value).
    pub suppressed: u64,
}

impl<'a> ModelUpdater<'a> {
    /// Wraps a model for updating.
    pub fn new(model: &'a mut System) -> Self {
        ModelUpdater {
            model,
            suppressed: 0,
        }
    }

    fn resolve(&self, target: archmodel::Key) -> Option<ElementRef> {
        // Component target (clients, server groups) first, then role target
        // (bandwidth readings address "<client>.role") — the historic order.
        let component = self.model.component_by_key(target);
        component
            .map(ElementRef::Component)
            .or_else(|| self.model.role_by_key(target).map(ElementRef::Role))
    }

    fn apply_resolved(&mut self, resolved: Option<ElementRef>, reading: &GaugeReading) {
        let Some(element) = resolved else {
            return;
        };
        let value = Value::Float(reading.value);
        let written = self.model.update_property(element, reading.property, value);
        if matches!(written, Ok(false)) {
            self.suppressed += 1;
        }
    }

    /// Applies a tick's readings in order, resolving each distinct target
    /// once per run of consecutive readings.
    pub fn apply_batch(&mut self, readings: &[GaugeReading]) {
        let mut memo: Option<(archmodel::Key, Option<ElementRef>)> = None;
        for reading in readings {
            let resolved = match memo {
                Some((target, resolved)) if target == reading.target => resolved,
                _ => {
                    let resolved = self.resolve(reading.target);
                    memo = Some((reading.target, resolved));
                    resolved
                }
            };
            self.apply_resolved(resolved, reading);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridapp::GridConfig;

    fn setup() -> (System, FxHashMap<Key, Key>) {
        let app = GridApp::build(GridConfig::default()).unwrap();
        build_model(&app, &PerformanceProfile::default()).unwrap()
    }

    #[test]
    fn model_mirrors_the_initial_deployment() {
        let (model, server_map) = setup();
        assert_eq!(model.components_of_type("ClientT").count(), 6);
        assert_eq!(model.components_of_type("ServerGroupT").count(), 2);
        assert_eq!(model.components_of_type("ServerT").count(), 5);
        assert!(ClientServerStyle::validate(&model).is_empty());
        // All clients start on ServerGrp1.
        let grp1 = model.component_by_name("ServerGrp1").unwrap();
        assert_eq!(ClientServerStyle::clients_of_group(&model, grp1).len(), 6);
        // Server mapping covers every replica and points at runtime names.
        assert_eq!(server_map.len(), 5);
        let runtime = |replica: &str| server_map.get(&Key::new(replica)).copied();
        assert_eq!(runtime("ServerGrp1.Server1"), Some("S1".into()));
        assert_eq!(runtime("ServerGrp1.Server3"), Some("S3".into()));
        assert_eq!(runtime("ServerGrp2.Server1"), Some("S5".into()));
    }

    #[test]
    fn thresholds_come_from_the_profile() {
        let (model, _) = setup();
        assert_eq!(model.properties.get_f64(props::MAX_LATENCY), Some(2.0));
        assert_eq!(
            model.properties.get_f64(props::MIN_BANDWIDTH),
            Some(10_000.0)
        );
        assert_eq!(model.properties.get_f64(props::MAX_DEAD_SERVERS), Some(0.0));
    }

    #[test]
    fn liveness_census_is_seeded_healthy() {
        let (model, server_map) = setup();
        let grp1 = model.component_by_name("ServerGrp1").unwrap();
        let props1 = &model.component(grp1).unwrap().properties;
        assert_eq!(props1.get_f64(props::LIVE_SERVERS), Some(3.0));
        assert_eq!(props1.get_f64(props::DEAD_SERVERS), Some(0.0));
        for &model_name in server_map.keys() {
            let id = model.component_by_key(model_name).unwrap();
            assert_eq!(
                model
                    .component(id)
                    .unwrap()
                    .properties
                    .get_f64(props::IS_ALIVE),
                Some(1.0),
                "{model_name} seeded alive"
            );
        }
    }

    #[test]
    fn updater_routes_readings_to_components_and_roles() {
        let (mut model, _) = setup();
        let readings = vec![
            GaugeReading {
                time: 10.0,
                target: "User3".into(),
                property: "averageLatency".into(),
                value: 4.5,
            },
            GaugeReading {
                time: 10.0,
                target: "ServerGrp1".into(),
                property: "load".into(),
                value: 9.0,
            },
            GaugeReading {
                time: 10.0,
                target: "User3.role".into(),
                property: "bandwidth".into(),
                value: 5_000.0,
            },
        ];
        let mut updater = ModelUpdater::new(&mut model);
        updater.apply_batch(&readings);
        assert_eq!(updater.suppressed, 0);
        let user3 = model.component_by_name("User3").unwrap();
        assert_eq!(
            model
                .component(user3)
                .unwrap()
                .properties
                .get_f64("averageLatency"),
            Some(4.5)
        );
        let grp1 = model.component_by_name("ServerGrp1").unwrap();
        assert_eq!(
            model.component(grp1).unwrap().properties.get_f64("load"),
            Some(9.0)
        );
        let role = model
            .roles()
            .find(|(_, r)| r.name == "User3.role")
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(
            model.role(role).unwrap().properties.get_f64("bandwidth"),
            Some(5_000.0)
        );
    }

    #[test]
    fn unknown_targets_leave_the_model_untouched() {
        let (mut model, _) = setup();
        let before = model.clone();
        let mut updater = ModelUpdater::new(&mut model);
        updater.apply_batch(&[GaugeReading {
            time: 1.0,
            target: "Nobody".into(),
            property: "averageLatency".into(),
            value: 1.0,
        }]);
        assert_eq!(updater.suppressed, 0);
        assert_eq!(model, before);
    }
}
