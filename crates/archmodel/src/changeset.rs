//! Repair scripts as recorded model changes.
//!
//! Repair scripts do not mutate the architectural model directly: they are
//! lists of [`ModelOp`]s — the style's adaptation operators (§3.3) — that a
//! commit applies to the live model before the change is propagated to the
//! running system. This mirrors the paper's `commit repair` / `abort`
//! semantics (Figure 5) and its requirement that operators keep the
//! architecture *structurally valid*. Every planner writes its script
//! against the borrowed live model, with no copy: an operator records an op
//! exactly when applying it after the ones before it would succeed, and
//! [`ClientServerStyle::script_violations`] finds the one way such a script
//! can break the style (a `RemoveServer` that empties a group) without
//! applying it.

use crate::key::Key;
use crate::style::ClientServerStyle;
use crate::system::{ModelError, System};

/// One call of a style operator, as a repair script records it.
///
/// Operators address elements by name, so a recorded script can be applied
/// to any copy of the model: planned against the live one, committed to it,
/// or replayed on a copy. Each applies whole or not at all — every name is resolved before
/// anything changes, so an `Err` leaves the system as it was. The bodies live
/// with the style, next to the deployment code they share
/// ([`ClientServerStyle`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelOp {
    /// `addServer()`: adds the active replica `server` to `group`'s
    /// representation and updates the group's `replicationCount`.
    AddServer {
        /// The server group that grows.
        group: String,
        /// Name of the new server (unique in the model).
        server: String,
    },
    /// `remove()`: deletes `server` from its containing group and updates the
    /// group's `replicationCount`.
    RemoveServer {
        /// Name of the server to remove.
        server: String,
    },
    /// `move(to)`: deletes the role connecting `client` to its current group
    /// — and the attachment through it — and attaches a fresh `{client}.role`
    /// on `{to_group}.Conn` (created with its server-side attachment if
    /// missing). A [`MoveClientGroup`](ModelOp::MoveClientGroup) of one member
    /// that must exist.
    MoveClient {
        /// The client to move.
        client: String,
        /// Target server group name.
        to_group: String,
    },
    /// Moves a whole client class onto a target server group's connector in
    /// one operation: the model ends exactly where one `MoveClient` per
    /// member, in list order, would leave it, but a recorded script holds one
    /// op per class, and applying it costs one pass over each connector that
    /// loses a role and one over the attachment list, not one of each per
    /// member.
    MoveClientGroup {
        /// Client component names, in class order, as the interned keys the
        /// group planner reads off its class index: a member is resolved by
        /// key, with no copy of its name and no lookup by text. Members
        /// missing from the model are skipped (a symmetric class can outlive
        /// individual members), and so is a name after its first occurrence
        /// (the planner never emits one twice).
        clients: Vec<Key>,
        /// Target server group name.
        to_group: String,
    },
}

/// Applies a single operation to a system.
pub fn apply_op(system: &mut System, op: &ModelOp) -> Result<(), ModelError> {
    match op {
        ModelOp::AddServer { group, server } => {
            ClientServerStyle::add_server(system, group, server)
        }
        ModelOp::RemoveServer { server } => ClientServerStyle::remove_server(system, server),
        ModelOp::MoveClient { client, to_group } => {
            ClientServerStyle::move_client(system, client, to_group)
        }
        ModelOp::MoveClientGroup { clients, to_group } => {
            ClientServerStyle::move_clients(system, clients, to_group)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::style::{props, ClientServerStyle as Style, CLIENT_ROLE_T};
    use crate::system::tests::index_errors;
    use proptest::prelude::*;

    /// Two groups of two servers; `User1` and `User2` on `ServerGrp1`;
    /// `ServerGrp2` serves nobody, so it has no connector yet.
    fn base_system() -> System {
        let mut sys = System::new("storage");
        Style::add_server_group(&mut sys, "ServerGrp1", 2).unwrap();
        Style::add_server_group(&mut sys, "ServerGrp2", 2).unwrap();
        let clients = [("User1", "ServerGrp1"), ("User2", "ServerGrp1")];
        Style::add_clients(&mut sys, clients).unwrap();
        sys
    }

    fn move_group(clients: &[&str], to_group: &str) -> ModelOp {
        ModelOp::MoveClientGroup {
            clients: clients.iter().map(|&c| Key::new(c)).collect(),
            to_group: to_group.into(),
        }
    }

    fn move_one(client: &str, to_group: &str) -> ModelOp {
        ModelOp::MoveClient {
            client: client.into(),
            to_group: to_group.into(),
        }
    }

    fn replication_count(sys: &System, group: &str) -> Option<i64> {
        let id = sys.component_by_name(group).unwrap();
        let properties = &sys.component(id).unwrap().properties;
        properties.get_i64(props::REPLICATION_COUNT)
    }

    #[test]
    fn add_server_op_adds_an_active_replica() {
        let mut live = base_system();
        let op = ModelOp::AddServer {
            group: "ServerGrp1".into(),
            server: "ServerGrp1.Server3".into(),
        };
        apply_op(&mut live, &op).unwrap();
        let grp = live.component_by_name("ServerGrp1").unwrap();
        assert_eq!(live.children(grp).count(), 3);
        assert_eq!(replication_count(&live, "ServerGrp1"), Some(3));
        let server = live.component_by_name("ServerGrp1.Server3").unwrap();
        let server = live.component(server).unwrap();
        assert_eq!(server.properties.get_bool(props::IS_ACTIVE), Some(true));
        assert!(Style::validate(&live).is_empty());
    }

    #[test]
    fn remove_server_op_updates_the_group() {
        let mut live = base_system();
        let op = ModelOp::RemoveServer {
            server: "ServerGrp1.Server1".into(),
        };
        apply_op(&mut live, &op).unwrap();
        assert!(live.component_by_name("ServerGrp1.Server1").is_none());
        assert_eq!(replication_count(&live, "ServerGrp1"), Some(1));
        assert!(Style::validate(&live).is_empty());
        assert_eq!(index_errors(&live), Vec::<String>::new());
    }

    #[test]
    fn move_client_between_connectors() {
        let mut live = base_system();
        apply_op(&mut live, &move_one("User1", "ServerGrp2")).unwrap();
        let user = live.component_by_name("User1").unwrap();
        let conn2 = live.connector_by_name("ServerGrp2.Conn").unwrap();
        assert_eq!(live.connectors_of_component(user), vec![conn2]);
        // The stale role went with the move.
        let conn1 = live.connector_by_name("ServerGrp1.Conn").unwrap();
        assert_eq!(live.role_in_connector(conn1, "User1.role"), None);
        assert!(Style::validate(&live).is_empty());
        assert_eq!(index_errors(&live), Vec::<String>::new());
    }

    #[test]
    fn move_client_group_matches_per_client_sequence() {
        let live = base_system();
        let mut per_client = live.clone();
        for client in ["User1", "User2"] {
            apply_op(&mut per_client, &move_one(client, "ServerGrp2")).unwrap();
        }

        // The bulk op: one recorded operation, same final state. A member
        // missing from the model is skipped, not an error.
        let mut bulk = live.clone();
        let op = move_group(&["User1", "User2", "Ghost"], "ServerGrp2");
        apply_op(&mut bulk, &op).unwrap();
        assert_eq!(bulk, per_client);
        assert!(Style::validate(&bulk).is_empty());
        assert_eq!(index_errors(&bulk), Vec::<String>::new());
        assert_eq!(index_errors(&per_client), Vec::<String>::new());

        // A member named twice is skipped after its first occurrence.
        let mut twice = live.clone();
        let op = move_group(&["User1", "User2", "User1"], "ServerGrp2");
        apply_op(&mut twice, &op).unwrap();
        assert_eq!(twice, bulk);
        assert_eq!(index_errors(&twice), Vec::<String>::new());
        let conn2 = bulk.connector_by_name("ServerGrp2.Conn").unwrap();
        for client in ["User1", "User2"] {
            let id = bulk.component_by_name(client).unwrap();
            assert_eq!(bulk.connectors_of_component(id), vec![conn2]);
        }
    }

    #[test]
    fn move_client_group_is_its_members_moved_one_by_one() {
        // Off-style on purpose: User1 and User2 share User1's role, and
        // User2 holds its own behind it. Moving User1 alone takes the shared
        // role away, so User2's stale role is the second one.
        let mut live = base_system();
        let conn1 = live.connector_by_name("ServerGrp1.Conn").unwrap();
        let shared = live.role_in_connector(conn1, "User1.role").unwrap();
        let second = live.role_in_connector(conn1, "User2.role").unwrap();
        let user2 = live.component_by_name("User2").unwrap();
        let port2 = live.ports_of(user2).next().unwrap();
        live.detach(port2, second).unwrap();
        live.attach(port2, shared).unwrap();
        live.attach(port2, second).unwrap();

        let mut one_by_one = live.clone();
        apply_op(&mut one_by_one, &move_one("User1", "ServerGrp2")).unwrap();
        apply_op(&mut one_by_one, &move_one("User2", "ServerGrp2")).unwrap();
        let mut bulk = live.clone();
        apply_op(&mut bulk, &move_group(&["User1", "User2"], "ServerGrp2")).unwrap();

        assert_eq!(bulk, one_by_one);
        assert_eq!(index_errors(&bulk), Vec::<String>::new());
        assert!(bulk.role(shared).is_err() && bulk.role(second).is_err());
    }

    /// `groups` server groups and one client per entry of `homes`: entry 0
    /// leaves the client unattached, any other connects it to group `(entry -
    /// 1) % groups`. A group no client is connected to has no connector unless
    /// `spare_connector` asks for one on the target.
    fn fleet(groups: usize, homes: &[usize], target: usize, spare_connector: bool) -> System {
        let mut sys = System::new("fleet");
        let group_ids: Vec<_> = (1..=groups)
            .map(|g| Style::add_server_group(&mut sys, &format!("ServerGrp{g}"), 1).unwrap())
            .collect();
        for (i, home) in homes.iter().enumerate() {
            let client = format!("User{}", i + 1);
            if *home > 0 {
                let group = format!("ServerGrp{}", (home - 1) % groups + 1);
                Style::add_clients(&mut sys, [(client, group)]).unwrap();
            } else {
                let names = crate::style::ClientNames::new();
                Style::add_client(&mut sys, crate::Key::new(&client), names).unwrap();
            }
        }
        if spare_connector {
            Style::service_connector(&mut sys, group_ids[target]).unwrap();
        }
        sys
    }

    /// The reference: each member the model has, in list order, loses the
    /// first role its `request` port is attached to and gets a fresh
    /// `{client}.role` on the target's connector — written over the model's
    /// test-only single-element mutators, which no operator body calls.
    fn move_one_by_one(sys: &mut System, clients: &[String], to_group: &str) {
        let group = sys.component_by_name(to_group).unwrap();
        let conn = Style::service_connector(sys, group).unwrap();
        for client in clients {
            let Some(id) = sys.component_by_name(client) else {
                continue;
            };
            let port = sys.ports_of(id).next().unwrap();
            let old = sys.roles_attached_to_port(port).next();
            if let Some(old) = old {
                sys.detach(port, old).unwrap();
                sys.remove_role(old).unwrap();
            }
            let role = sys
                .add_role(conn, format!("{client}.role"), CLIENT_ROLE_T)
                .unwrap();
            sys.attach(port, role).unwrap();
        }
    }

    /// Everything the derived indices answer, for every element of `sys`.
    fn index_answers(sys: &System) -> Vec<String> {
        let mut out = Vec::new();
        for (id, role) in sys.roles() {
            out.push(format!(
                "{id:?}: by key {:?}, component {:?}",
                sys.role_by_key(role.name),
                sys.component_attached_to_role(id),
            ));
        }
        for (id, _) in sys.ports() {
            out.push(format!(
                "{id:?}: roles {:?}",
                sys.roles_attached_to_port(id).collect::<Vec<_>>()
            ));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The batch is the loop: one `MoveClientGroup` must leave a model
        /// exactly where per-client `detach` / `remove_role` / `add_role` /
        /// `attach` calls leave it — element ids, list orders, the derived
        /// indices (which `System == System` does not look at) and the
        /// journal's structural flag. `MoveClient` is the same body with one
        /// member: a generated list of one present member is applied through
        /// it.
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
                _ => ModelOp::MoveClientGroup {
                    clients: clients.iter().map(Key::from).collect(),
                    to_group,
                },
            };
            apply_op(&mut batched, &op).unwrap();

            prop_assert_eq!(&batched, &looped);
            prop_assert_eq!(index_answers(&batched), index_answers(&looped));
            prop_assert_eq!(index_errors(&batched), Vec::<String>::new());
            prop_assert!(batched.integrity_errors().is_empty());
            prop_assert_eq!(
                batched.drain_changes().structural,
                looped.drain_changes().structural
            );
        }
    }

    #[test]
    fn every_op_is_all_or_nothing() {
        let mut live = base_system();
        // A client with no `request` port, and a group with no `serve` port
        // to attach its new connector to.
        live.add_component("Portless", "ClientT").unwrap();
        live.add_component("Bare", "ServerGroupT").unwrap();
        live.drain_changes();
        let before = live.clone();
        let add = |group: &str, server: &str| ModelOp::AddServer {
            group: group.into(),
            server: server.into(),
        };
        let remove = |server: &str| ModelOp::RemoveServer {
            server: server.into(),
        };
        for op in [
            // addServer into a missing group, a non-group, under a taken name.
            add("Nowhere", "Nowhere.Server1"),
            add("User1", "User1.Server1"),
            add("ServerGrp1", "ServerGrp2.Server1"),
            // remove of a missing component, and of one that is no server.
            remove("ServerGrp1.Server9"),
            remove("ServerGrp1"),
            remove("User1"),
            // move of a missing client, of one with no `request` port (onto
            // an existing and a yet-to-be-created connector), onto a
            // non-group, and onto a group with no `serve` port.
            move_one("Ghost", "ServerGrp2"),
            move_one("Portless", "ServerGrp1"),
            move_one("Portless", "ServerGrp2"),
            move_one("User1", "User2"),
            move_one("User1", "Nowhere"),
            move_one("User1", "Bare"),
            // The class move: a bad member after one that could move, and
            // the same bad targets.
            move_group(&["User1", "Portless"], "ServerGrp1"),
            move_group(&["User1", "Portless"], "ServerGrp2"),
            move_group(&["User1"], "User2"),
            move_group(&["User1"], "Bare"),
        ] {
            let err = apply_op(&mut live, &op);
            assert!(
                matches!(
                    err,
                    Err(ModelError::NameNotFound(_) | ModelError::DuplicateName(_))
                ),
                "{op:?}: {err:?}"
            );
            assert_eq!(live, before, "a failed {op:?} must change nothing");
            assert_eq!(index_errors(&live), Vec::<String>::new());
            assert!(
                live.drain_changes().is_empty(),
                "{op:?} touched the journal"
            );
        }
    }

    #[test]
    fn move_client_group_rejects_non_group_target() {
        let mut live = base_system();
        let err = apply_op(&mut live, &move_group(&["User1"], "User1"));
        assert!(matches!(err, Err(ModelError::NameNotFound(_))));
    }
}
