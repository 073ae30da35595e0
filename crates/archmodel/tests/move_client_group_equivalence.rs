//! The batch is the loop: one [`ModelOp::MoveClientGroup`] must leave a model
//! exactly where the per-client `Detach` / `RemoveRole` / `AddRole` / `Attach`
//! sequence leaves it — element ids, list orders, the derived indices (which
//! `System == System` does not look at) and the journal's structural flag.

use archmodel::style::{ClientServerStyle, CLIENT_ROLE_T, SERVER_ROLE_T, SERVICE_CONN_T};
use archmodel::{apply_op, Key, ModelOp, System};
use proptest::prelude::*;

/// `groups` server groups and one client per entry of `homes`: entry 0 leaves
/// the client unattached, any other connects it to group `(entry - 1) %
/// groups`. A group no client is connected to has no connector unless
/// `spare_connector` asks for one on the target.
fn fleet(groups: usize, homes: &[usize], target: usize, spare_connector: bool) -> System {
    let mut sys = System::new("fleet");
    let group_ids: Vec<_> = (1..=groups)
        .map(|g| {
            ClientServerStyle::add_server_group(&mut sys, &format!("ServerGrp{g}"), 1).unwrap()
        })
        .collect();
    for (i, home) in homes.iter().enumerate() {
        let client = ClientServerStyle::add_client(&mut sys, &format!("User{}", i + 1)).unwrap();
        if *home > 0 {
            let group = group_ids[(home - 1) % groups];
            ClientServerStyle::connect_client(&mut sys, client, group).unwrap();
        }
    }
    if spare_connector {
        ClientServerStyle::service_connector(&mut sys, group_ids[target]).unwrap();
    }
    sys
}

/// The per-client sequence `repair::operators::move_client` records, member
/// by member, for the members the model has.
fn per_client_ops(sys: &System, clients: &[String], to_group: &str) -> Vec<ModelOp> {
    let conn = format!("{to_group}.Conn");
    let mut ops = Vec::new();
    if sys.connector_by_name(&conn).is_none() {
        ops.push(ModelOp::AddConnector {
            name: conn.clone(),
            ctype: SERVICE_CONN_T.into(),
        });
        ops.push(ModelOp::AddRole {
            connector: conn.clone(),
            role: "serverSide".into(),
            rtype: SERVER_ROLE_T.into(),
        });
        ops.push(ModelOp::Attach {
            component: to_group.into(),
            port: ClientServerStyle::GROUP_PORT.into(),
            connector: conn.clone(),
            role: "serverSide".into(),
        });
    }
    for client in clients {
        let Some(id) = sys.component_by_name(client) else {
            continue;
        };
        let port = ClientServerStyle::CLIENT_PORT.to_string();
        if let Some(old) = sys.roles_of_component(id).first() {
            let old = sys.role(*old).unwrap();
            let old_conn = sys.connector(old.owner).unwrap().name.clone();
            ops.push(ModelOp::Detach {
                component: client.clone(),
                port: port.clone(),
                connector: old_conn.clone(),
                role: old.name.clone(),
            });
            ops.push(ModelOp::RemoveRole {
                connector: old_conn,
                role: old.name.clone(),
            });
        }
        ops.push(ModelOp::AddRole {
            connector: conn.clone(),
            role: format!("{client}.role"),
            rtype: CLIENT_ROLE_T.into(),
        });
        ops.push(ModelOp::Attach {
            component: client.clone(),
            port,
            connector: conn.clone(),
            role: format!("{client}.role"),
        });
    }
    ops
}

/// Everything the four derived indices answer, for every element of `sys`.
fn index_answers(sys: &System) -> Vec<String> {
    let mut out = Vec::new();
    for (id, role) in sys.roles() {
        out.push(format!(
            "{id:?}: in connector {:?}, by key {:?}, component {:?}",
            sys.role_in_connector(role.owner, &role.name),
            sys.role_by_key(Key::new(&role.name)),
            sys.component_attached_to_role(id),
        ));
    }
    for (id, _) in sys.ports() {
        out.push(format!(
            "{id:?}: roles {:?}",
            sys.roles_attached_to_port(id)
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_move_client_group_is_the_per_client_sequence(
        groups in 1usize..5,
        homes in proptest::collection::vec(0usize..6, 0..41),
        target in 0usize..4,
        spare_connector in 0usize..2,
        picks in proptest::collection::vec(0usize..60, 0..50),
    ) {
        let target = target % groups;
        let mut base = fleet(groups, &homes, target, spare_connector == 1);
        base.drain_changes();
        // Duplicate-free, in pick order; a pick past the fleet names nobody.
        let mut clients: Vec<String> = Vec::new();
        for pick in picks {
            let name = if pick < homes.len() {
                format!("User{}", pick + 1)
            } else {
                format!("Ghost{pick}")
            };
            if !clients.contains(&name) {
                clients.push(name);
            }
        }
        let to_group = format!("ServerGrp{}", target + 1);

        let mut looped = base.clone();
        for op in per_client_ops(&base, &clients, &to_group) {
            apply_op(&mut looped, &op).unwrap();
        }
        let mut batched = base.clone();
        let op = ModelOp::MoveClientGroup { clients, to_group };
        apply_op(&mut batched, &op).unwrap();

        prop_assert_eq!(&batched, &looped);
        prop_assert_eq!(index_answers(&batched), index_answers(&looped));
        prop_assert!(batched.integrity_errors().is_empty());
        prop_assert_eq!(
            batched.drain_changes().structural,
            looped.drain_changes().structural
        );
    }
}
