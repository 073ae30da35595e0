//! Mapping model-layer repair scripts to runtime-layer operations.
//!
//! The paper's framework has *hand-tailored support for translating APIs in
//! the Model Layer to ones in the Runtime Layer* (§4); this module implements
//! that translation for the client/server style: each style operator of a
//! script maps onto its Table 1 sequence. The mapping consults the
//! architectural model as it was before the repair to learn which server
//! groups have no request queue yet.

use crate::runtime_ops::{GaugeRef, RuntimeOp, TranslationError};
use archmodel::style::ClientServerStyle;
use archmodel::{Key, ModelOp, System};

/// Translates a committed repair script into the runtime operations that
/// realise it, in execution order.
///
/// `model_before` is the architectural model as it was when the repair was
/// planned (i.e. before the script was committed): a group whose service
/// connector it lacks gets its request queue created ahead of the first
/// client the script moves there.
pub fn translate(
    model_before: &System,
    ops: &[ModelOp],
    min_bandwidth_bps: f64,
) -> Result<Vec<RuntimeOp>, TranslationError> {
    let mut out = Vec::new();
    let mut queues_created: Vec<Key> = Vec::new();
    for op in ops {
        match *op {
            ModelOp::AddServer { group, server } => {
                // Recruit a spare server, point it at the group's queue,
                // and activate it.
                out.push(RuntimeOp::FindServer {
                    group,
                    bandwidth_threshold_bps: min_bandwidth_bps,
                });
                out.push(RuntimeOp::ConnectServer { server, group });
                out.push(RuntimeOp::ActivateServer { server });
                // The group's load gauge must be refreshed to include the
                // new replica.
                let gauge = GaugeRef::Load(group);
                out.push(RuntimeOp::DeleteGauge { gauge });
                out.push(RuntimeOp::CreateGauge { gauge });
            }
            ModelOp::RemoveServer { server } => out.push(RuntimeOp::DeactivateServer { server }),
            ModelOp::MoveClient { client, to_group } => {
                let connector = ClientServerStyle::connector_name(to_group.as_str());
                if model_before.connector_by_name(&connector).is_none()
                    && !queues_created.contains(&to_group)
                {
                    queues_created.push(to_group);
                    out.push(RuntimeOp::CreateReqQueue { group: to_group });
                }
                out.push(RuntimeOp::RemosGetFlow {
                    client,
                    server: to_group,
                });
                out.push(RuntimeOp::MoveClient { client, to_group });
                // The bandwidth gauge watching the old pair must be
                // destroyed and a new one created for the new pair.
                let gauge = GaugeRef::Bandwidth(client);
                out.push(RuntimeOp::DeleteGauge { gauge });
                out.push(RuntimeOp::CreateGauge { gauge });
            }
            ModelOp::MoveClientGroup { to_group, .. } => {
                return Err(TranslationError::NotTranslatable(format!(
                    "a class move onto {to_group} is realised by the group planner, \
                     which writes its own runtime batch"
                )));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::ClientServerStyle;
    use repair::operators::{add_server, move_client, remove_server};

    fn model() -> System {
        ClientServerStyle::example_system("storage", 2, 3, 6).unwrap()
    }

    /// The runtime operations a script built by `build` translates to, in
    /// their trace form.
    fn table1(m: &System, build: impl FnOnce(&mut Vec<ModelOp>)) -> Vec<String> {
        let mut ops = Vec::new();
        build(&mut ops);
        let runtime = translate(m, &ops, 10_000.0).unwrap();
        runtime.iter().map(RuntimeOp::describe).collect()
    }

    fn recruit(group: &str, server: &str) -> Vec<String> {
        vec![
            format!("findServer({group}, 10000bps)"),
            format!("connectServer({server}, {group})"),
            format!("activateServer({server})"),
            format!("deleteGauge(load-gauge/{group})"),
            format!("createGauge(load-gauge/{group})"),
        ]
    }

    fn relocate(client: &str, group: &str) -> Vec<String> {
        vec![
            format!("remos_get_flow({client}, {group})"),
            format!("moveClient({client} -> {group})"),
            format!("deleteGauge(bandwidth-gauge/{client})"),
            format!("createGauge(bandwidth-gauge/{client})"),
        ]
    }

    /// The Table 1 mapping, operator by operator, as exact sequences.
    #[test]
    fn each_operator_maps_to_its_table1_sequence() {
        let mut m = model();
        // A group no client is connected to yet: it has no connector.
        ClientServerStyle::add_server_group(&mut m, "ServerGrp3", 1).unwrap();
        assert!(m.connector_by_name("ServerGrp3.Conn").is_none());

        let add = table1(&m, |ops| {
            assert_eq!(
                add_server(&m, ops, "ServerGrp1").unwrap(),
                "ServerGrp1.Server4"
            );
        });
        assert_eq!(add, recruit("ServerGrp1", "ServerGrp1.Server4"));

        let remove = table1(&m, |ops| {
            remove_server(&m, ops, "ServerGrp2.Server3").unwrap();
        });
        assert_eq!(remove, ["deactivateServer(ServerGrp2.Server3)"]);

        let moved = table1(&m, |ops| {
            move_client(&m, ops, "User1", "ServerGrp2").unwrap();
        });
        assert_eq!(moved, relocate("User1", "ServerGrp2"));

        // Two moves onto a group with no connector yet: one request queue,
        // created ahead of the first flow query.
        let onto_fresh = table1(&m, |ops| {
            move_client(&m, ops, "User1", "ServerGrp3").unwrap();
            move_client(&m, ops, "User2", "ServerGrp3").unwrap();
        });
        let mut expected = vec!["createReqQueue(ServerGrp3)".to_string()];
        expected.extend(relocate("User1", "ServerGrp3"));
        expected.extend(relocate("User2", "ServerGrp3"));
        assert_eq!(onto_fresh, expected);

        // Failover: the corpses go first, and their names are reused.
        let failover = table1(&m, |ops| {
            remove_server(&m, ops, "ServerGrp1.Server1").unwrap();
            remove_server(&m, ops, "ServerGrp1.Server2").unwrap();
            assert_eq!(
                add_server(&m, ops, "ServerGrp1").unwrap(),
                "ServerGrp1.Server1"
            );
            assert_eq!(
                add_server(&m, ops, "ServerGrp1").unwrap(),
                "ServerGrp1.Server2"
            );
        });
        let mut expected = vec![
            "deactivateServer(ServerGrp1.Server1)".to_string(),
            "deactivateServer(ServerGrp1.Server2)".to_string(),
        ];
        expected.extend(recruit("ServerGrp1", "ServerGrp1.Server1"));
        expected.extend(recruit("ServerGrp1", "ServerGrp1.Server2"));
        assert_eq!(failover, expected);

        // A mixed script keeps script order.
        let mixed = table1(&m, |ops| {
            add_server(&m, ops, "ServerGrp2").unwrap();
            move_client(&m, ops, "User3", "ServerGrp2").unwrap();
        });
        let mut expected = recruit("ServerGrp2", "ServerGrp2.Server4");
        expected.extend(relocate("User3", "ServerGrp2"));
        assert_eq!(mixed, expected);
    }

    #[test]
    fn add_server_translates_to_recruit_connect_activate() {
        let m = model();
        let mut ops = Vec::new();
        add_server(&m, &mut ops, "ServerGrp1").unwrap();
        let runtime = translate(&m, &ops, 10_000.0).unwrap();
        let kinds: Vec<&str> = runtime
            .iter()
            .map(|op| match op {
                RuntimeOp::FindServer { .. } => "find",
                RuntimeOp::ConnectServer { .. } => "connect",
                RuntimeOp::ActivateServer { .. } => "activate",
                RuntimeOp::DeleteGauge { .. } => "delete-gauge",
                RuntimeOp::CreateGauge { .. } => "create-gauge",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "find",
                "connect",
                "activate",
                "delete-gauge",
                "create-gauge"
            ]
        );
    }

    #[test]
    fn move_client_translates_to_move_with_gauge_churn() {
        let m = model();
        let mut ops = Vec::new();
        move_client(&m, &mut ops, "User1", "ServerGrp2").unwrap();
        let runtime = translate(&m, &ops, 10_000.0).unwrap();
        assert!(runtime.iter().any(|op| matches!(
            op,
            RuntimeOp::MoveClient { client, to_group }
                if client == "User1" && to_group == "ServerGrp2"
        )));
        assert!(runtime
            .iter()
            .any(|op| matches!(op, RuntimeOp::RemosGetFlow { .. })));
        assert!(runtime
            .iter()
            .any(|op| matches!(op, RuntimeOp::DeleteGauge { .. })));
        assert!(runtime
            .iter()
            .any(|op| matches!(op, RuntimeOp::CreateGauge { .. })));
    }

    #[test]
    fn move_client_group_is_the_planners_to_realise() {
        let m = model();
        let ops = [ModelOp::MoveClientGroup {
            clients: vec![Key::new("User1")],
            to_group: Key::new("ServerGrp2"),
        }];
        match translate(&m, &ops, 10_000.0) {
            Err(TranslationError::NotTranslatable(reason)) => {
                assert!(reason.contains("group planner"), "{reason}")
            }
            other => panic!("unexpected translation: {other:?}"),
        }
    }

    #[test]
    fn remove_server_translates_to_deactivate() {
        let m = model();
        let mut ops = Vec::new();
        remove_server(&m, &mut ops, "ServerGrp1.Server3").unwrap();
        let runtime = translate(&m, &ops, 10_000.0).unwrap();
        assert_eq!(
            runtime,
            vec![RuntimeOp::DeactivateServer {
                server: "ServerGrp1.Server3".into()
            }]
        );
    }

    #[test]
    fn creating_a_connector_creates_a_queue() {
        let mut m = model();
        ClientServerStyle::add_server_group(&mut m, "ServerGrp3", 1).unwrap();
        let mut ops = Vec::new();
        move_client(&m, &mut ops, "User1", "ServerGrp3").unwrap();
        // Applying the first move creates ServerGrp3.Conn, but the model the
        // script is translated against does not have it.
        move_client(&m, &mut ops, "User1", "ServerGrp1").unwrap();
        move_client(&m, &mut ops, "User1", "ServerGrp3").unwrap();
        let runtime = translate(&m, &ops, 10_000.0).unwrap();
        assert_eq!(
            runtime[0],
            RuntimeOp::CreateReqQueue {
                group: "ServerGrp3".into()
            }
        );
        let queues = runtime
            .iter()
            .filter(|op| matches!(op, RuntimeOp::CreateReqQueue { .. }))
            .count();
        assert_eq!(queues, 1);
    }
}
