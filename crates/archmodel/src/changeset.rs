//! Transactional model changes.
//!
//! Repair scripts do not mutate the architectural model directly: they build a
//! [`Transaction`] of [`ModelOp`]s against a working copy, the style checker
//! validates the result, and only then is the change committed to the live
//! model and propagated to the running system. This mirrors the paper's
//! `commit repair` / `abort` semantics (Figure 5) and its requirement that
//! operators keep the architecture *structurally valid*.

use crate::element::{ComponentId, PortId, RoleId};
use crate::system::{IdSet, ModelError, System};
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// A single, name-addressed change to the architectural model.
///
/// Operations address elements by name so a recorded change-set can be
/// re-applied to another copy of the model (and logged in a human-readable
/// form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelOp {
    /// Adds a component (optionally inside another component's
    /// representation).
    AddComponent {
        /// Name of the new component.
        name: String,
        /// Its type in the style.
        ctype: String,
        /// Optional parent component name.
        parent: Option<String>,
    },
    /// Removes a component (and its ports, attachments, children).
    RemoveComponent {
        /// Name of the component to remove.
        name: String,
    },
    /// Adds a connector.
    AddConnector {
        /// Name of the new connector.
        name: String,
        /// Its type in the style.
        ctype: String,
    },
    /// Removes a connector (and its roles and attachments).
    RemoveConnector {
        /// Name of the connector to remove.
        name: String,
    },
    /// Adds a port to a component.
    AddPort {
        /// Owning component name.
        component: String,
        /// Port name (unique within the component).
        port: String,
        /// Port type.
        ptype: String,
    },
    /// Adds a role to a connector.
    AddRole {
        /// Owning connector name.
        connector: String,
        /// Role name (unique within the connector).
        role: String,
        /// Role type.
        rtype: String,
    },
    /// Removes a role from a connector (and any attachment it participates
    /// in) — used when a client is moved away from a connector.
    RemoveRole {
        /// Owning connector name.
        connector: String,
        /// Role name.
        role: String,
    },
    /// Removes a port from a component (and any attachment it participates
    /// in).
    RemovePort {
        /// Owning component name.
        component: String,
        /// Port name.
        port: String,
    },
    /// Attaches a component's port to a connector's role.
    Attach {
        /// Component name.
        component: String,
        /// Port name on the component.
        port: String,
        /// Connector name.
        connector: String,
        /// Role name on the connector.
        role: String,
    },
    /// Detaches a component's port from a connector's role.
    Detach {
        /// Component name.
        component: String,
        /// Port name on the component.
        port: String,
        /// Connector name.
        connector: String,
        /// Role name on the connector.
        role: String,
    },
    /// Moves a whole client class onto a target server group's connector in
    /// one operation. Every client's stale role — and the attachment through
    /// it — is deleted, and a fresh `{client}.role` is created on and attached
    /// to `{to_group}.Conn` in list order (the connector is created with its
    /// server-side attachment if missing). The model ends exactly where the
    /// per-client Detach/RemoveRole/AddRole/Attach sequence would leave it,
    /// but a recorded change-set holds one op per class, and applying one
    /// costs one pass over each connector that loses a role and one over the
    /// attachment list, not one of each per member. All or nothing: every
    /// name is resolved before anything changes, so an `Err` leaves the
    /// system as it was.
    MoveClientGroup {
        /// Client component names, in class order. Members missing from the
        /// model are skipped (a symmetric class can outlive individual
        /// members), and so is a name after its first occurrence (the
        /// planner never emits one twice).
        clients: Vec<String>,
        /// Target server group name.
        to_group: String,
    },
    /// Sets a property on a component.
    SetComponentProperty {
        /// Component name.
        component: String,
        /// Property name.
        property: String,
        /// New value.
        value: Value,
    },
    /// Sets a property on a connector.
    SetConnectorProperty {
        /// Connector name.
        connector: String,
        /// Property name.
        property: String,
        /// New value.
        value: Value,
    },
    /// Sets a property on a role.
    SetRoleProperty {
        /// Owning connector name.
        connector: String,
        /// Role name.
        role: String,
        /// Property name.
        property: String,
        /// New value.
        value: Value,
    },
    /// Sets a system-level property.
    SetSystemProperty {
        /// Property name.
        property: String,
        /// New value.
        value: Value,
    },
}

/// Errors raised while applying change operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeError {
    /// The named element does not exist.
    NotFound(String),
    /// The underlying model rejected the operation.
    Model(ModelError),
}

impl From<ModelError> for ChangeError {
    fn from(e: ModelError) -> Self {
        ChangeError::Model(e)
    }
}

impl std::fmt::Display for ChangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangeError::NotFound(n) => write!(f, "element not found: {n}"),
            ChangeError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for ChangeError {}

fn find_component(system: &System, name: &str) -> Result<ComponentId, ChangeError> {
    system
        .component_by_name(name)
        .ok_or_else(|| ChangeError::NotFound(format!("component {name}")))
}

fn find_port(system: &System, component: &str, port: &str) -> Result<PortId, ChangeError> {
    let cid = find_component(system, component)?;
    let comp = system.component(cid)?;
    comp.ports
        .iter()
        .copied()
        .find(|p| system.port(*p).map(|p| p.name == port).unwrap_or(false))
        .ok_or_else(|| ChangeError::NotFound(format!("port {component}.{port}")))
}

fn find_role(system: &System, connector: &str, role: &str) -> Result<RoleId, ChangeError> {
    let cid = system
        .connector_by_name(connector)
        .ok_or_else(|| ChangeError::NotFound(format!("connector {connector}")))?;
    // O(1) via the per-connector name index — a bulk repair resolves a role
    // on the shared service connector for every one of thousands of moved
    // clients, and a `Connector::roles` scan here turns that quadratic.
    system
        .role_in_connector(cid, role)
        .ok_or_else(|| ChangeError::NotFound(format!("role {connector}.{role}")))
}

/// The body of [`ModelOp::MoveClientGroup`]: resolve every member (component
/// → `request` port → stale role) without touching the model, remove the
/// stale roles in one batch, then add and attach the fresh roles in list
/// order — so role ids, `attachments` order and `Connector::roles` order
/// match the per-client operation sequence exactly.
fn move_client_group_op(
    system: &mut System,
    clients: &[String],
    to_group: &str,
) -> Result<(), ChangeError> {
    use crate::style::{
        ClientServerStyle, CLIENT_ROLE_T, SERVER_GROUP_T, SERVER_ROLE_T, SERVICE_CONN_T,
    };
    let group_id = find_component(system, to_group)?;
    if system.component(group_id)?.ctype != SERVER_GROUP_T {
        return Err(ChangeError::NotFound(format!("server group {to_group}")));
    }
    let mut members = Vec::new();
    let mut stale = Vec::new();
    let (mut seen, mut doomed) = (IdSet::default(), IdSet::default());
    for client in clients {
        if system.component_by_name(client).is_none() {
            continue;
        }
        let port_id = find_port(system, client, ClientServerStyle::CLIENT_PORT)?;
        if !seen.insert(port_id.0) {
            continue;
        }
        // The stale role is the first one a per-client sequence would still
        // find attached: earlier members have taken theirs away by then.
        let attached = system.roles_attached_to_port(port_id);
        if let Some(old_role) = attached.iter().find(|r| !doomed.contains(r.0)) {
            doomed.insert(old_role.0);
            stale.push(*old_role);
        }
        members.push((client, port_id));
    }
    // Ensure the target connector exists, with its server-side attachment.
    // The group port is the last lookup that can fail.
    let conn_name = format!("{to_group}.Conn");
    let conn_id = match system.connector_by_name(&conn_name) {
        Some(id) => id,
        None => {
            let group_port = find_port(system, to_group, ClientServerStyle::GROUP_PORT)?;
            let conn_id = system.add_connector(conn_name, SERVICE_CONN_T.to_string())?;
            let role_id =
                system.add_role(conn_id, "serverSide".to_string(), SERVER_ROLE_T.to_string())?;
            system.attach(group_port, role_id)?;
            conn_id
        }
    };
    // Removing the stale roles also removes the attachments through them.
    system.remove_roles(&stale)?;
    for (client, port_id) in members {
        let role_id =
            system.add_role(conn_id, format!("{client}.role"), CLIENT_ROLE_T.to_string())?;
        system.attach(port_id, role_id)?;
    }
    Ok(())
}

/// Applies a single operation to a system.
pub fn apply_op(system: &mut System, op: &ModelOp) -> Result<(), ChangeError> {
    match op {
        ModelOp::AddComponent {
            name,
            ctype,
            parent,
        } => {
            match parent {
                Some(parent_name) => {
                    let parent_id = find_component(system, parent_name)?;
                    system.add_child_component(parent_id, name.clone(), ctype.clone())?;
                }
                None => {
                    system.add_component(name.clone(), ctype.clone())?;
                }
            }
            Ok(())
        }
        ModelOp::RemoveComponent { name } => {
            let id = find_component(system, name)?;
            system.remove_component(id)?;
            Ok(())
        }
        ModelOp::AddConnector { name, ctype } => {
            system.add_connector(name.clone(), ctype.clone())?;
            Ok(())
        }
        ModelOp::RemoveConnector { name } => {
            let id = system
                .connector_by_name(name)
                .ok_or_else(|| ChangeError::NotFound(format!("connector {name}")))?;
            system.remove_connector(id)?;
            Ok(())
        }
        ModelOp::AddPort {
            component,
            port,
            ptype,
        } => {
            let cid = find_component(system, component)?;
            system.add_port(cid, port.clone(), ptype.clone())?;
            Ok(())
        }
        ModelOp::AddRole {
            connector,
            role,
            rtype,
        } => {
            let cid = system
                .connector_by_name(connector)
                .ok_or_else(|| ChangeError::NotFound(format!("connector {connector}")))?;
            system.add_role(cid, role.clone(), rtype.clone())?;
            Ok(())
        }
        ModelOp::RemoveRole { connector, role } => {
            let rid = find_role(system, connector, role)?;
            system.remove_role(rid)?;
            Ok(())
        }
        ModelOp::RemovePort { component, port } => {
            let pid = find_port(system, component, port)?;
            system.remove_port(pid)?;
            Ok(())
        }
        ModelOp::Attach {
            component,
            port,
            connector,
            role,
        } => {
            let pid = find_port(system, component, port)?;
            let rid = find_role(system, connector, role)?;
            system.attach(pid, rid)?;
            Ok(())
        }
        ModelOp::Detach {
            component,
            port,
            connector,
            role,
        } => {
            let pid = find_port(system, component, port)?;
            let rid = find_role(system, connector, role)?;
            system.detach(pid, rid)?;
            Ok(())
        }
        ModelOp::MoveClientGroup { clients, to_group } => {
            move_client_group_op(system, clients, to_group)
        }
        // Property ops go through the journaled setters so committed repairs
        // feed the incremental constraint checker's dirty set.
        ModelOp::SetComponentProperty {
            component,
            property,
            value,
        } => {
            let cid = find_component(system, component)?;
            system.set_property(
                crate::element::ElementRef::Component(cid),
                property,
                value.clone(),
            )?;
            Ok(())
        }
        ModelOp::SetConnectorProperty {
            connector,
            property,
            value,
        } => {
            let cid = system
                .connector_by_name(connector)
                .ok_or_else(|| ChangeError::NotFound(format!("connector {connector}")))?;
            system.set_property(
                crate::element::ElementRef::Connector(cid),
                property,
                value.clone(),
            )?;
            Ok(())
        }
        ModelOp::SetRoleProperty {
            connector,
            role,
            property,
            value,
        } => {
            let rid = find_role(system, connector, role)?;
            system.set_property(
                crate::element::ElementRef::Role(rid),
                property,
                value.clone(),
            )?;
            Ok(())
        }
        ModelOp::SetSystemProperty { property, value } => {
            system.set_system_property(property.as_str(), value.clone());
            Ok(())
        }
    }
}

/// A transaction of model operations built against a working copy.
#[derive(Debug, Clone)]
pub struct Transaction {
    working: System,
    ops: Vec<ModelOp>,
}

impl Transaction {
    /// Starts a transaction from a snapshot of `base`.
    pub fn new(base: &System) -> Self {
        Transaction {
            working: base.clone(),
            ops: Vec::new(),
        }
    }

    /// The working copy reflecting all operations applied so far.
    pub fn working(&self) -> &System {
        &self.working
    }

    /// Applies an operation to the working copy and records it.
    pub fn apply(&mut self, op: ModelOp) -> Result<(), ChangeError> {
        apply_op(&mut self.working, &op)?;
        self.ops.push(op);
        Ok(())
    }

    /// The operations recorded so far.
    pub fn ops(&self) -> &[ModelOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::index_errors;

    /// Replays a transaction's ops onto `target`, as a committed repair does.
    fn commit(tx: Transaction, target: &mut System) {
        for op in tx.ops() {
            apply_op(target, op).unwrap();
        }
    }

    fn base_system() -> System {
        let mut sys = System::new("storage");
        let grp = sys.add_component("ServerGrp1", "ServerGroupT").unwrap();
        sys.add_child_component(grp, "Server1", "ServerT").unwrap();
        let client = sys.add_component("User1", "ClientT").unwrap();
        let conn = sys.add_connector("Conn1", "ServiceConnT").unwrap();
        let cport = sys.add_port(client, "request", "RequestT").unwrap();
        let gport = sys.add_port(grp, "serve", "ServeT").unwrap();
        let crole = sys.add_role(conn, "clientSide", "ClientRoleT").unwrap();
        let grole = sys.add_role(conn, "serverSide", "ServerRoleT").unwrap();
        sys.attach(cport, crole).unwrap();
        sys.attach(gport, grole).unwrap();
        sys
    }

    #[test]
    fn add_server_via_transaction() {
        let mut live = base_system();
        let mut tx = Transaction::new(&live);
        tx.apply(ModelOp::AddComponent {
            name: "Server2".into(),
            ctype: "ServerT".into(),
            parent: Some("ServerGrp1".into()),
        })
        .unwrap();
        tx.apply(ModelOp::SetComponentProperty {
            component: "ServerGrp1".into(),
            property: "replicationCount".into(),
            value: Value::Int(2),
        })
        .unwrap();
        // The live model is untouched until commit.
        assert_eq!(
            live.children_of(live.component_by_name("ServerGrp1").unwrap())
                .unwrap()
                .len(),
            1
        );
        assert_eq!(tx.len(), 2);
        commit(tx, &mut live);
        let grp = live.component_by_name("ServerGrp1").unwrap();
        assert_eq!(live.children_of(grp).unwrap().len(), 2);
        assert_eq!(
            live.component(grp)
                .unwrap()
                .properties
                .get_i64("replicationCount"),
            Some(2)
        );
    }

    #[test]
    fn move_client_between_connectors() {
        let mut live = base_system();
        // Add a second server group + connector to move to.
        live.add_component("ServerGrp2", "ServerGroupT").unwrap();
        live.add_connector("Conn2", "ServiceConnT").unwrap();
        let mut tx = Transaction::new(&live);
        tx.apply(ModelOp::AddRole {
            connector: "Conn2".into(),
            role: "clientSide".into(),
            rtype: "ClientRoleT".into(),
        })
        .unwrap();
        tx.apply(ModelOp::Detach {
            component: "User1".into(),
            port: "request".into(),
            connector: "Conn1".into(),
            role: "clientSide".into(),
        })
        .unwrap();
        tx.apply(ModelOp::Attach {
            component: "User1".into(),
            port: "request".into(),
            connector: "Conn2".into(),
            role: "clientSide".into(),
        })
        .unwrap();
        commit(tx, &mut live);
        let user = live.component_by_name("User1").unwrap();
        let conn2 = live.connector_by_name("Conn2").unwrap();
        assert_eq!(live.connectors_of_component(user), vec![conn2]);
    }

    #[test]
    fn move_client_group_matches_per_client_sequence() {
        let mut live = base_system();
        let user2 = live.add_component("User2", "ClientT").unwrap();
        let port2 = live.add_port(user2, "request", "RequestT").unwrap();
        let conn1 = live.connector_by_name("Conn1").unwrap();
        let role2 = live.add_role(conn1, "User2.role", "ClientRoleT").unwrap();
        live.attach(port2, role2).unwrap();
        let grp2 = live.add_component("ServerGrp2", "ServerGroupT").unwrap();
        live.add_port(grp2, "serve", "ServeT").unwrap();

        // The per-client sequence the style's `move` operator records for
        // each member: ensure the target connector, drop the stale role,
        // attach a fresh one.
        let mut per_client = live.clone();
        let seq = [
            ModelOp::AddConnector {
                name: "ServerGrp2.Conn".into(),
                ctype: "ServiceConnT".into(),
            },
            ModelOp::AddRole {
                connector: "ServerGrp2.Conn".into(),
                role: "serverSide".into(),
                rtype: "ServerRoleT".into(),
            },
            ModelOp::Attach {
                component: "ServerGrp2".into(),
                port: "serve".into(),
                connector: "ServerGrp2.Conn".into(),
                role: "serverSide".into(),
            },
            ModelOp::Detach {
                component: "User1".into(),
                port: "request".into(),
                connector: "Conn1".into(),
                role: "clientSide".into(),
            },
            ModelOp::RemoveRole {
                connector: "Conn1".into(),
                role: "clientSide".into(),
            },
            ModelOp::AddRole {
                connector: "ServerGrp2.Conn".into(),
                role: "User1.role".into(),
                rtype: "ClientRoleT".into(),
            },
            ModelOp::Attach {
                component: "User1".into(),
                port: "request".into(),
                connector: "ServerGrp2.Conn".into(),
                role: "User1.role".into(),
            },
            ModelOp::Detach {
                component: "User2".into(),
                port: "request".into(),
                connector: "Conn1".into(),
                role: "User2.role".into(),
            },
            ModelOp::RemoveRole {
                connector: "Conn1".into(),
                role: "User2.role".into(),
            },
            ModelOp::AddRole {
                connector: "ServerGrp2.Conn".into(),
                role: "User2.role".into(),
                rtype: "ClientRoleT".into(),
            },
            ModelOp::Attach {
                component: "User2".into(),
                port: "request".into(),
                connector: "ServerGrp2.Conn".into(),
                role: "User2.role".into(),
            },
        ];
        for op in &seq {
            apply_op(&mut per_client, op).unwrap();
        }

        // The bulk op: one recorded operation, same final state. A member
        // missing from the model is skipped, not an error.
        let mut bulk = live.clone();
        apply_op(
            &mut bulk,
            &ModelOp::MoveClientGroup {
                clients: vec!["User1".into(), "User2".into(), "Ghost".into()],
                to_group: "ServerGrp2".into(),
            },
        )
        .unwrap();

        assert_eq!(bulk, per_client);
        assert!(bulk.integrity_errors().is_empty());
        assert_eq!(index_errors(&bulk), Vec::<String>::new());
        assert_eq!(index_errors(&per_client), Vec::<String>::new());

        // A member named twice is skipped after its first occurrence.
        let mut twice = live.clone();
        apply_op(
            &mut twice,
            &ModelOp::MoveClientGroup {
                clients: vec!["User1".into(), "User2".into(), "User1".into()],
                to_group: "ServerGrp2".into(),
            },
        )
        .unwrap();
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
        // Off-style on purpose: User1 and User2 share `clientSide`, and
        // User2 holds a second role behind it. Moving User1 alone takes the
        // shared role away, so User2's stale role is the second one.
        let mut live = base_system();
        let user2 = live.add_component("User2", "ClientT").unwrap();
        let port2 = live.add_port(user2, "request", "RequestT").unwrap();
        let conn1 = live.connector_by_name("Conn1").unwrap();
        let shared = live.role_in_connector(conn1, "clientSide").unwrap();
        let second = live.add_role(conn1, "User2.role", "ClientRoleT").unwrap();
        live.attach(port2, shared).unwrap();
        live.attach(port2, second).unwrap();
        let grp2 = live.add_component("ServerGrp2", "ServerGroupT").unwrap();
        live.add_port(grp2, "serve", "ServeT").unwrap();

        let move_to_grp2 = |clients: &[&str]| ModelOp::MoveClientGroup {
            clients: clients.iter().map(|c| c.to_string()).collect(),
            to_group: "ServerGrp2".into(),
        };
        let mut one_by_one = live.clone();
        apply_op(&mut one_by_one, &move_to_grp2(&["User1"])).unwrap();
        apply_op(&mut one_by_one, &move_to_grp2(&["User2"])).unwrap();
        let mut bulk = live.clone();
        apply_op(&mut bulk, &move_to_grp2(&["User1", "User2"])).unwrap();

        assert_eq!(bulk, one_by_one);
        assert_eq!(index_errors(&bulk), Vec::<String>::new());
        assert!(bulk.role(shared).is_err() && bulk.role(second).is_err());
    }

    #[test]
    fn move_client_group_is_all_or_nothing() {
        let mut live = base_system();
        live.add_component("Portless", "ClientT").unwrap();
        live.add_component("ServerGrp2", "ServerGroupT").unwrap();
        let grp3 = live.add_component("ServerGrp3", "ServerGroupT").unwrap();
        live.add_port(grp3, "serve", "ServeT").unwrap();
        live.drain_changes();
        let before = live.clone();
        for (clients, to_group) in [
            // A member with no `request` port, after one that could move —
            // onto a connector that exists, and onto one yet to be created.
            (vec!["User1", "Portless"], "ServerGrp1"),
            (vec!["User1", "Portless"], "ServerGrp3"),
            // A target with no `serve` port to attach its new connector to.
            (vec!["User1"], "ServerGrp2"),
        ] {
            let op = ModelOp::MoveClientGroup {
                clients: clients.into_iter().map(String::from).collect(),
                to_group: to_group.into(),
            };
            let err = apply_op(&mut live, &op);
            assert!(matches!(err, Err(ChangeError::NotFound(_))), "{err:?}");
            assert_eq!(live, before, "a failed {op:?} must change nothing");
            assert_eq!(index_errors(&live), Vec::<String>::new());
            assert!(live.drain_changes().is_empty());
        }
    }

    #[test]
    fn move_client_group_rejects_non_group_target() {
        let mut live = base_system();
        let err = apply_op(
            &mut live,
            &ModelOp::MoveClientGroup {
                clients: vec!["User1".into()],
                to_group: "User1".into(),
            },
        );
        assert!(matches!(err, Err(ChangeError::NotFound(_))));
    }

    #[test]
    fn failed_op_in_transaction_reports_error() {
        let live = base_system();
        let mut tx = Transaction::new(&live);
        let err = tx.apply(ModelOp::RemoveComponent {
            name: "DoesNotExist".into(),
        });
        assert!(matches!(err, Err(ChangeError::NotFound(_))));
        assert!(tx.is_empty());
    }

    #[test]
    fn remove_component_and_connector_ops() {
        let mut live = base_system();
        let mut tx = Transaction::new(&live);
        tx.apply(ModelOp::RemoveComponent {
            name: "Server1".into(),
        })
        .unwrap();
        tx.apply(ModelOp::RemoveConnector {
            name: "Conn1".into(),
        })
        .unwrap();
        commit(tx, &mut live);
        assert!(live.component_by_name("Server1").is_none());
        assert!(live.connector_by_name("Conn1").is_none());
        assert!(live.integrity_errors().is_empty());
    }

    #[test]
    fn set_properties_on_roles_and_system() {
        let mut live = base_system();
        let mut tx = Transaction::new(&live);
        tx.apply(ModelOp::SetRoleProperty {
            connector: "Conn1".into(),
            role: "clientSide".into(),
            property: "bandwidth".into(),
            value: Value::Float(5e6),
        })
        .unwrap();
        tx.apply(ModelOp::SetSystemProperty {
            property: "maxLatency".into(),
            value: Value::Float(2.0),
        })
        .unwrap();
        tx.apply(ModelOp::SetConnectorProperty {
            connector: "Conn1".into(),
            property: "protocol".into(),
            value: Value::Str("fifo-queue".into()),
        })
        .unwrap();
        commit(tx, &mut live);
        assert_eq!(live.properties.get_f64("maxLatency"), Some(2.0));
        let conn = live.connector_by_name("Conn1").unwrap();
        assert_eq!(
            live.connector(conn).unwrap().properties.get_str("protocol"),
            Some("fifo-queue")
        );
    }

    #[test]
    fn remove_role_and_port_ops() {
        let mut live = base_system();
        let mut tx = Transaction::new(&live);
        tx.apply(ModelOp::RemoveRole {
            connector: "Conn1".into(),
            role: "clientSide".into(),
        })
        .unwrap();
        tx.apply(ModelOp::RemovePort {
            component: "ServerGrp1".into(),
            port: "serve".into(),
        })
        .unwrap();
        commit(tx, &mut live);
        let conn = live.connector_by_name("Conn1").unwrap();
        assert_eq!(live.connector(conn).unwrap().roles.len(), 1);
        let grp = live.component_by_name("ServerGrp1").unwrap();
        assert!(live.component(grp).unwrap().ports.is_empty());
        assert!(live.integrity_errors().is_empty());
    }

    #[test]
    fn add_port_op() {
        let mut live = base_system();
        let mut tx = Transaction::new(&live);
        tx.apply(ModelOp::AddPort {
            component: "User1".into(),
            port: "admin".into(),
            ptype: "AdminT".into(),
        })
        .unwrap();
        commit(tx, &mut live);
        let user = live.component_by_name("User1").unwrap();
        assert_eq!(live.component(user).unwrap().ports.len(), 2);
    }
}
