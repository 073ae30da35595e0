//! The batch is the loop: one [`ModelOp::MoveClientGroup`] must leave a model
//! exactly where per-client `detach` / `remove_role` / `add_role` / `attach`
//! calls leave it — element ids, list orders, the derived indices (which
//! `System == System` does not look at) and the journal's structural flag.
//! [`ModelOp::MoveClient`] is the same body with one member: a generated list
//! of one present member is applied through it.

use archmodel::style::{ClientServerStyle, CLIENT_ROLE_T};
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

/// The reference: each member the model has, in list order, loses the first
/// role its `request` port is attached to and gets a fresh `{client}.role` on
/// the target's connector — written over the model's own single-element
/// mutators, which no operator body calls.
fn move_one_by_one(sys: &mut System, clients: &[String], to_group: &str) {
    let group = sys.component_by_name(to_group).unwrap();
    let conn = ClientServerStyle::service_connector(sys, group).unwrap();
    for client in clients {
        let Some(id) = sys.component_by_name(client) else {
            continue;
        };
        let port = sys.component(id).unwrap().ports[0];
        if let Some(old) = sys.roles_attached_to_port(port).first().copied() {
            sys.detach(port, old).unwrap();
            sys.remove_role(old).unwrap();
        }
        let role = sys
            .add_role(conn, format!("{client}.role"), CLIENT_ROLE_T)
            .unwrap();
        sys.attach(port, role).unwrap();
    }
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
        move_one_by_one(&mut looped, &clients, &to_group);
        let mut batched = base.clone();
        // A list of one present member goes through the single-client op.
        let op = match clients.as_slice() {
            [client] if base.component_by_name(client).is_some() => ModelOp::MoveClient {
                client: client.clone(),
                to_group,
            },
            _ => ModelOp::MoveClientGroup { clients, to_group },
        };
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
