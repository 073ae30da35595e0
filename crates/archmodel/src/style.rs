//! The client/server architectural style used by the paper's example.
//!
//! The evaluated system is *a storage infrastructure consisting of a set of
//! server groups that provide information to a set of users*: each server
//! group holds replicated servers and a FIFO request queue; users (clients)
//! are connected to exactly one server group through a service connector. The
//! style defines the vocabulary (component / connector / port / role types),
//! construction helpers, and structural-validity rules that adaptation
//! operators must preserve.

use crate::changeset::ModelOp;
use crate::element::{Component, ComponentId, ConnectorId, ElementRef, PortId, RoleId};
use crate::key::Key;
use crate::system::{IdSet, ModelError, System};
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Component type for users/clients.
pub const CLIENT_T: &str = "ClientT";
/// Component type for server groups.
pub const SERVER_GROUP_T: &str = "ServerGroupT";
/// Component type for replicated servers inside a group.
pub const SERVER_T: &str = "ServerT";
/// Connector type for the client ↔ server-group service connection (the
/// request queue plus network links).
pub const SERVICE_CONN_T: &str = "ServiceConnT";
/// Port type on clients for issuing requests.
pub const REQUEST_PORT_T: &str = "RequestT";
/// Port type on server groups for serving requests.
pub const SERVE_PORT_T: &str = "ServeT";
/// Role type on the client side of a service connector.
pub const CLIENT_ROLE_T: &str = "ClientRoleT";
/// Role type on the server-group side of a service connector.
pub const SERVER_ROLE_T: &str = "ServerRoleT";

/// The style's client, server-group and client-role types, interned once
/// per process: a repair precondition that checks an element's type
/// compares one pointer and takes no interner lock.
#[derive(Debug, Clone, Copy)]
pub struct StyleTypes {
    /// [`CLIENT_T`].
    pub client: Key,
    /// [`SERVER_GROUP_T`].
    pub server_group: Key,
    /// [`CLIENT_ROLE_T`].
    pub client_role: Key,
}

impl StyleTypes {
    /// The interned types.
    pub fn get() -> StyleTypes {
        static TYPES: OnceLock<StyleTypes> = OnceLock::new();
        *TYPES.get_or_init(|| StyleTypes {
            client: Key::new(CLIENT_T),
            server_group: Key::new(SERVER_GROUP_T),
            client_role: Key::new(CLIENT_ROLE_T),
        })
    }
}

/// Well-known property names used by the style.
pub mod props {
    /// Average request-response latency observed by a client (seconds).
    pub const AVERAGE_LATENCY: &str = "averageLatency";
    /// Server-group load, measured as pending-request queue length.
    pub const LOAD: &str = "load";
    /// Bandwidth available on a client role (bits per second).
    pub const BANDWIDTH: &str = "bandwidth";
    /// Number of replicated servers a group is configured with.
    pub const REPLICATION_COUNT: &str = "replicationCount";
    /// Whether a server is currently activated.
    pub const IS_ACTIVE: &str = "isActive";
    /// Task-layer bound on average latency (seconds).
    pub const MAX_LATENCY: &str = "maxLatency";
    /// Task-layer bound on server-group load (queue length).
    pub const MAX_SERVER_LOAD: &str = "maxServerLoad";
    /// Task-layer minimum acceptable client bandwidth (bits per second).
    pub const MIN_BANDWIDTH: &str = "minBandwidth";
    /// Number of a server group's assigned replicas currently alive.
    pub const LIVE_SERVERS: &str = "liveServers";
    /// Number of a server group's assigned replicas that have crashed and
    /// not yet been failed over.
    pub const DEAD_SERVERS: &str = "deadServers";
    /// Whether a server replica's runtime process is alive (0 or 1).
    pub const IS_ALIVE: &str = "isAlive";
    /// Task-layer bound on dead replicas tolerated per group (normally 0).
    pub const MAX_DEAD_SERVERS: &str = "maxDeadServers";
    /// Number of replicas a group was provisioned with at deployment — the
    /// floor the cost-reduction (`reduceServers`) repair never shrinks below.
    pub const BASE_REPLICAS: &str = "baseReplicas";
    /// Load at or below which a group counts as underutilised (system-level
    /// threshold of the `underutilised` invariant).
    pub const UNDERUTILISED_LOAD: &str = "underutilisedLoad";
}

/// Rule 2 of the style's `validate`, the one rule a script of the style's
/// operators can break.
const ACTIVE_SERVER_RULE: &str = "server group must contain at least one active server";

/// Whether `component` counts towards rule 2: an active server.
fn is_active_server(component: &Component) -> bool {
    let active = component.properties.get_bool(props::IS_ACTIVE);
    component.ctype == SERVER_T && active.unwrap_or(false)
}

/// A structural-validity problem found by [`ClientServerStyle::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StyleViolation {
    /// The rule that was broken.
    pub rule: String,
    /// The offending element, by name.
    pub subject: String,
}

impl std::fmt::Display for StyleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.subject, self.rule)
    }
}

/// A client move resolved by [`ClientServerStyle::resolve_move`] and not
/// yet applied.
#[derive(Debug)]
pub struct ResolvedMove {
    group: ComponentId,
    /// Each member the model has, once, with its `request` port, in list
    /// order.
    members: Vec<(Key, PortId)>,
    /// The roles the move deletes.
    stale: Vec<RoleId>,
}

/// The style's names that every client deployment writes: the client's
/// type, its request port's name and type, and its role's type, interned
/// once by whoever deploys many clients.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientNames {
    client_t: Key,
    port: Key,
    port_t: Key,
    role_t: Key,
}

impl ClientNames {
    pub(crate) fn new() -> ClientNames {
        let types = StyleTypes::get();
        ClientNames {
            client_t: types.client,
            port: Key::new(ClientServerStyle::CLIENT_PORT),
            port_t: Key::new(REQUEST_PORT_T),
            role_t: types.client_role,
        }
    }
}

/// The client/server-with-replicated-server-groups style.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientServerStyle;

impl ClientServerStyle {
    /// The standard name of the request port created on clients.
    pub const CLIENT_PORT: &'static str = "request";
    /// The standard name of the serve port created on server groups.
    pub const GROUP_PORT: &'static str = "serve";

    /// Adds the client `name` with its request port, both typed and named
    /// by the pre-interned `names`.
    pub(crate) fn add_client(
        system: &mut System,
        name: Key,
        names: ClientNames,
    ) -> Result<(ComponentId, PortId), ModelError> {
        let id = system.add_component(name, names.client_t)?;
        let port = system.add_port(id, names.port, names.port_t)?;
        Ok((id, port))
    }

    /// The name of a server group's service connector.
    pub fn connector_name(group: &str) -> String {
        format!("{group}.Conn")
    }

    /// The component called `name`, which must be of type `ctype`.
    fn typed_component(
        system: &System,
        name: &str,
        ctype: &str,
    ) -> Result<ComponentId, ModelError> {
        system
            .component_by_name(name)
            .filter(|id| system.component(*id).is_ok_and(|c| c.ctype == ctype))
            .ok_or_else(|| ModelError::NameNotFound(format!("{ctype} {name}")))
    }

    /// The port of `component` called `port`.
    fn port_named(
        system: &System,
        component: ComponentId,
        port: &str,
    ) -> Result<PortId, ModelError> {
        let comp = system.component(component)?;
        system
            .ports_of(component)
            .find(|p| system.port(*p).is_ok_and(|p| p.name == port))
            .ok_or_else(|| ModelError::NameNotFound(format!("{}.{port}", comp.name)))
    }

    /// Sets a group's `replicationCount` to the size of its representation.
    fn sync_replication_count(system: &mut System, group: ComponentId) -> Result<(), ModelError> {
        let count = system.children(group).count() as i64;
        system.set_property(
            ElementRef::Component(group),
            props::REPLICATION_COUNT,
            Value::Int(count),
        )
    }

    /// Adds a server group with `servers` replicated servers and the standard
    /// serve port. The group's `replicationCount` property is kept in sync.
    pub fn add_server_group(
        system: &mut System,
        name: &str,
        servers: usize,
    ) -> Result<ComponentId, ModelError> {
        let id = system.add_component(name, SERVER_GROUP_T)?;
        system.add_port(id, Self::GROUP_PORT, SERVE_PORT_T)?;
        Self::sync_replication_count(system, id)?;
        for i in 1..=servers {
            Self::add_replica(system, id, &format!("{name}.Server{i}"))?;
        }
        Ok(id)
    }

    /// Adds the active server `name` to `group`'s representation and brings
    /// the group's `replicationCount` up to date: one server of a deployment,
    /// and the whole of `addServer()`. A taken name fails before anything
    /// changes.
    fn add_replica(
        system: &mut System,
        group: ComponentId,
        name: &str,
    ) -> Result<ComponentId, ModelError> {
        let server = system.add_child_component(group, name, SERVER_T)?;
        system.set_property(
            ElementRef::Component(server),
            props::IS_ACTIVE,
            Value::Bool(true),
        )?;
        Self::sync_replication_count(system, group)?;
        Ok(server)
    }

    /// `addServer()` (§3.3), the body of
    /// [`ModelOp::AddServer`](crate::ModelOp::AddServer): adds the active
    /// replica `server` to the server group `group`. All or nothing.
    pub fn add_server(system: &mut System, group: &str, server: &str) -> Result<(), ModelError> {
        let group = Self::typed_component(system, group, SERVER_GROUP_T)?;
        Self::add_replica(system, group, server).map(|_| ())
    }

    /// `remove()` (§3.3), the body of
    /// [`ModelOp::RemoveServer`](crate::ModelOp::RemoveServer): deletes
    /// `server` from its containing group and updates the group's
    /// `replicationCount`. All or nothing.
    pub fn remove_server(system: &mut System, server: &str) -> Result<(), ModelError> {
        let (id, group) = Self::resolve_remove(system, server)?;
        system.remove_component(id)?;
        Self::sync_replication_count(system, group)
    }

    /// The read-only half of [`remove_server`](Self::remove_server): the
    /// server `server` and its containing group, resolved without touching
    /// the model. Fails exactly when removing the server would.
    pub fn resolve_remove(
        system: &System,
        server: &str,
    ) -> Result<(ComponentId, ComponentId), ModelError> {
        let id = Self::typed_component(system, server, SERVER_T)?;
        let group = system
            .component(id)?
            .parent
            .filter(|g| system.component(*g).is_ok())
            .ok_or_else(|| ModelError::NameNotFound(format!("group of {server}")))?;
        Ok((id, group))
    }

    /// Creates (or finds) the service connector for a server group. The
    /// connector is named [`connector_name`](Self::connector_name) and has one
    /// server-side role attached to the group's serve port; a group without
    /// that port fails before anything is created.
    pub fn service_connector(
        system: &mut System,
        group: ComponentId,
    ) -> Result<ConnectorId, ModelError> {
        let conn_name = Self::connector_name(system.component(group)?.name.as_str());
        if let Some(existing) = system.connector_by_name(&conn_name) {
            return Ok(existing);
        }
        let serve_port = Self::port_named(system, group, Self::GROUP_PORT)?;
        let conn = system.add_connector(conn_name, SERVICE_CONN_T)?;
        let server_role = system.add_role(conn, "serverSide", SERVER_ROLE_T)?;
        system.attach(serve_port, server_role)?;
        Ok(conn)
    }

    /// Gives `client` its `{client}.role` on `conn`, attached to `port`. The
    /// role name is formatted in `name`, so a caller connecting many clients
    /// reuses one buffer, and its type is the pre-interned `role_t`.
    fn attach_client(
        system: &mut System,
        conn: ConnectorId,
        (client, port): (Key, PortId),
        role_t: Key,
        name: &mut String,
    ) -> Result<(), ModelError> {
        name.clear();
        name.push_str(client.as_str());
        name.push_str(".role");
        let role = system.add_role(conn, name.as_str(), role_t)?;
        system.attach(port, role)
    }

    /// Adds each `(client, group)` client with its request port and connects
    /// it, in order, to its server group through the group's service
    /// connector, with a client role named after the client. A group's
    /// connector is resolved (or created) at its first client only, every
    /// role name is formatted in one buffer, and the style's own names are
    /// interned once per call: a client costs the interning of its role's
    /// name, and of its own when the caller passes text rather than a `Key`.
    pub fn add_clients<C: Into<Key>, G: Into<Key>>(
        system: &mut System,
        clients: impl IntoIterator<Item = (C, G)>,
    ) -> Result<(), ModelError> {
        let (mut connectors, mut role_name) = (FxHashMap::default(), String::new());
        let names = ClientNames::new();
        for (client, group) in clients {
            let (client, group): (Key, Key) = (client.into(), group.into());
            let (_, port) = Self::add_client(system, client, names)?;
            let conn = match connectors.get(&group) {
                Some(conn) => *conn,
                None => {
                    let id = Self::typed_component(system, group.as_str(), SERVER_GROUP_T)?;
                    let conn = Self::service_connector(system, id)?;
                    *connectors.entry(group).or_insert(conn)
                }
            };
            Self::attach_client(system, conn, (client, port), names.role_t, &mut role_name)?;
        }
        Ok(())
    }

    /// `move(to)` (§3.3), the body of
    /// [`ModelOp::MoveClient`](crate::ModelOp::MoveClient): a class move of
    /// one member, which must exist.
    pub fn move_client(
        system: &mut System,
        client: &str,
        to_group: &str,
    ) -> Result<(), ModelError> {
        let key = Key::find(client).filter(|&key| system.component_by_key(key).is_some());
        let Some(key) = key else {
            return Err(ModelError::NameNotFound(client.to_string()));
        };
        Self::move_clients(system, &[key], to_group)
    }

    /// The read-only half of [`move_clients`](Self::move_clients): resolves
    /// the target group and every member (component → `request` port → stale
    /// role) without touching the model, and fails exactly when applying the
    /// move would. A planner that writes the move for a later commit calls it
    /// to keep the checks applying the move makes.
    pub fn resolve_move(
        system: &System,
        clients: &[Key],
        to_group: &str,
    ) -> Result<ResolvedMove, ModelError> {
        let group = Self::typed_component(system, to_group, SERVER_GROUP_T)?;
        let mut members = Vec::with_capacity(clients.len());
        let mut stale = Vec::with_capacity(clients.len());
        // Members' ports and their stale roles, in one set: ports and roles
        // draw their ids from one counter.
        let mut taken = IdSet::default();
        for &client in clients {
            let Some(id) = system.component_by_key(client) else {
                continue;
            };
            let port = Self::port_named(system, id, Self::CLIENT_PORT)?;
            if !taken.insert(port.0) {
                continue;
            }
            // The stale role is the first one a one-at-a-time move would
            // still find attached: earlier members have taken theirs away.
            let mut attached = system.roles_attached_to_port(port);
            if let Some(old_role) = attached.find(|r| !taken.contains(r.0)) {
                taken.insert(old_role.0);
                stale.push(old_role);
            }
            members.push((system.component(id)?.name, port));
        }
        // The group's serve port is the last lookup that can fail, and only
        // when its connector does not exist yet.
        let conn_name = Self::connector_name(to_group);
        if system.connector_by_name(&conn_name).is_none() {
            Self::port_named(system, group, Self::GROUP_PORT)?;
        }
        Ok(ResolvedMove {
            group,
            members,
            stale,
        })
    }

    /// The body of [`ModelOp::MoveClientGroup`](crate::ModelOp::MoveClientGroup):
    /// [`resolve_move`](Self::resolve_move), ensure the target connector,
    /// remove the stale roles in one batch, then add and attach the fresh
    /// roles in list order — so role ids, `attachments` order and
    /// `Connector::roles` order are those of moving the members one at a time.
    pub fn move_clients(
        system: &mut System,
        clients: &[Key],
        to_group: &str,
    ) -> Result<(), ModelError> {
        let ResolvedMove {
            group,
            members,
            stale,
        } = Self::resolve_move(system, clients, to_group)?;
        let conn = Self::service_connector(system, group)?;
        // Removing the stale roles also removes the attachments through them.
        system.remove_roles(&stale)?;
        let (mut name, role_t) = (String::new(), Key::new(CLIENT_ROLE_T));
        for member in members {
            Self::attach_client(system, conn, member, role_t, &mut name)?;
        }
        Ok(())
    }

    /// The server group a client is currently connected to, if any.
    pub fn group_of_client(system: &System, client: ComponentId) -> Option<ComponentId> {
        let conns = system.connectors_of_component(client).into_iter();
        let mut attached = conns.flat_map(|c| system.components_attached_to_connector(c));
        attached.find(|c| {
            system
                .component(*c)
                .is_ok_and(|c| c.ctype == SERVER_GROUP_T)
        })
    }

    /// The clients currently connected to a server group.
    pub fn clients_of_group(system: &System, group: ComponentId) -> Vec<ComponentId> {
        let conns = system.connectors_of_component(group).into_iter();
        let attached = conns.flat_map(|c| system.components_attached_to_connector(c));
        let clients = attached.filter(|c| system.component(*c).is_ok_and(|c| c.ctype == CLIENT_T));
        let mut out: Vec<ComponentId> = clients.collect();
        out.sort();
        out.dedup();
        out
    }

    /// Checks the structural rules of the style. A valid model costs a
    /// handful of allocations per connector, none per client or server.
    pub fn validate(system: &System) -> Vec<StyleViolation> {
        let mut violations = Vec::new();
        let mut violation = |rule: String, subject: Key| {
            let subject = subject.to_string();
            violations.push(StyleViolation { rule, subject })
        };
        let is = |id, ctype: &str| system.component(id).is_ok_and(|c| c.ctype == ctype);

        // Server groups attached to each connector, counted once. Rules 1 and
        // 5 both need this per connector; resolving it per *client*
        // (thousands of which share one service connector) would rescan the
        // shared connector's role list every time.
        let groups_of_conn: FxHashMap<ConnectorId, usize> = system
            .connectors()
            .map(|(id, _)| {
                let attached = system.components_attached_to_connector(id).into_iter();
                (id, attached.filter(|c| is(*c, SERVER_GROUP_T)).count())
            })
            .collect();

        // Rule 1: every client is connected to exactly one server group.
        for (id, comp) in system.components_of_type(CLIENT_T) {
            let conns = || {
                let roles = system
                    .ports_of(id)
                    .flat_map(|p| system.roles_attached_to_port(p));
                roles.filter_map(|r| Some(system.role(r).ok()?.owner))
            };
            // Each connector counts once, however many roles reach it.
            let groups: usize = conns()
                .enumerate()
                .filter(|&(i, conn)| !conns().take(i).any(|c| c == conn))
                .map(|(_, conn)| groups_of_conn.get(&conn).map_or(0, |n| *n))
                .sum();
            if groups != 1 {
                let rule = "client must be connected to exactly one server group";
                violation(format!("{rule} (found {groups})"), comp.name);
            }
        }

        // Rule 2: every server group has at least one active server.
        for (id, comp) in system.components_of_type(SERVER_GROUP_T) {
            let servers = || system.children(id).filter_map(|c| system.component(c).ok());
            if !servers().any(is_active_server) {
                violation(ACTIVE_SERVER_RULE.into(), comp.name);
            }
            let servers = || servers().filter(|s| s.ctype == SERVER_T);
            // Rule 3: replicationCount matches the number of servers.
            let servers = servers().count() as i64;
            match comp.properties.get_i64(props::REPLICATION_COUNT) {
                Some(count) if count != servers => violation(
                    format!(
                        "replicationCount ({count}) does not match number of servers ({servers})"
                    ),
                    comp.name,
                ),
                _ => {}
            }
        }

        // Rule 4: every server is inside a server group.
        for (_, comp) in system.components_of_type(SERVER_T) {
            if !comp.parent.is_some_and(|p| is(p, SERVER_GROUP_T)) {
                let rule = "server must be a member of a server group";
                violation(rule.into(), comp.name);
            }
        }

        // Rule 5: every service connector has exactly one server group.
        for (id, conn) in system.connectors() {
            let groups = groups_of_conn[&id];
            if conn.ctype == SERVICE_CONN_T && groups != 1 {
                let rule = "service connector must attach exactly one server group";
                violation(format!("{rule} (found {groups})"), conn.name);
            }
        }

        // Referential integrity of the underlying graph.
        let subject = &system.name;
        let problems = system.integrity_errors().into_iter();
        violations.extend(problems.map(|rule| StyleViolation {
            rule,
            subject: subject.clone(),
        }));
        violations
    }

    /// The violations [`validate`](Self::validate) would find after `ops`
    /// are applied to the style-valid `system`, found in O(ops) without
    /// applying them. The ops must be a script the style's operators wrote,
    /// each of which applies after the ones before it. `MoveClient`,
    /// `MoveClientGroup` and `AddServer` keep the style
    /// (`archmodel/tests/style_ops.rs`), so the one rule a script can break
    /// is rule 2: a group a `RemoveServer` touches may be left with no
    /// active server. Its active servers at the end of the script are those
    /// of the model, minus the ones removed, plus the ones added; each group
    /// left with none is reported as `validate` reports it, in its order.
    pub fn script_violations(system: &System, ops: &[ModelOp]) -> Vec<StyleViolation> {
        // The servers added and not removed again, with their groups; the
        // model's servers removed; and the groups a removal touches.
        let (mut added, mut removed) = (FxHashMap::default(), FxHashSet::default());
        let (mut touched, component) = (BTreeSet::new(), |id| system.component(id).ok());
        for op in ops {
            match op {
                ModelOp::AddServer { group, server } => {
                    added.insert(server, group);
                }
                ModelOp::RemoveServer { server } => match added.remove(server) {
                    Some(group) => touched.extend(system.component_by_name(group)),
                    None => {
                        removed.insert(server.as_str());
                        let id = system.component_by_name(server);
                        touched.extend(id.and_then(|id| component(id)?.parent));
                    }
                },
                ModelOp::MoveClient { .. } | ModelOp::MoveClientGroup { .. } => {}
            }
        }
        let mut violations = Vec::new();
        for (group, comp) in touched
            .into_iter()
            .filter_map(|id| Some((id, component(id)?)))
        {
            let mut servers = system.children(group).filter_map(component);
            let kept = servers.any(|s| is_active_server(s) && !removed.contains(s.name.as_str()));
            if !kept && !added.values().any(|g| **g == comp.name.as_str()) {
                let (rule, subject) = (ACTIVE_SERVER_RULE.into(), comp.name.to_string());
                violations.push(StyleViolation { rule, subject });
            }
        }
        violations
    }

    /// Builds the deployment architecture of the paper's example (Figure 3):
    /// `groups` server groups with `servers_per_group` servers each, and
    /// `clients` users spread round-robin across the groups.
    pub fn example_system(
        name: &str,
        groups: usize,
        servers_per_group: usize,
        clients: usize,
    ) -> Result<System, ModelError> {
        let mut sys = System::new(name);
        sys.properties.set(props::MAX_LATENCY, 2.0);
        sys.properties.set(props::MAX_SERVER_LOAD, 6i64);
        sys.properties.set(props::MIN_BANDWIDTH, 10_000.0);
        let mut group_names = Vec::new();
        for g in 1..=groups {
            let id = Self::add_server_group(&mut sys, &format!("ServerGrp{g}"), servers_per_group)?;
            group_names.push(sys.component(id)?.name);
        }
        let homes = (1..=clients).map(|c| (format!("User{c}"), group_names[(c - 1) % groups]));
        Self::add_clients(&mut sys, homes)?;
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_system_is_valid() {
        let sys = ClientServerStyle::example_system("storage", 3, 3, 6).unwrap();
        assert_eq!(sys.components_of_type(CLIENT_T).count(), 6);
        assert_eq!(sys.components_of_type(SERVER_GROUP_T).count(), 3);
        assert_eq!(sys.components_of_type(SERVER_T).count(), 9);
        assert!(ClientServerStyle::validate(&sys).is_empty());
    }

    #[test]
    fn clients_are_spread_round_robin() {
        let sys = ClientServerStyle::example_system("storage", 2, 1, 4).unwrap();
        let g1 = sys.component_by_name("ServerGrp1").unwrap();
        let g2 = sys.component_by_name("ServerGrp2").unwrap();
        assert_eq!(ClientServerStyle::clients_of_group(&sys, g1).len(), 2);
        assert_eq!(ClientServerStyle::clients_of_group(&sys, g2).len(), 2);
    }

    #[test]
    fn two_groups_on_one_server_role_are_both_counted() {
        let mut sys = ClientServerStyle::example_system("storage", 2, 1, 2).unwrap();
        let conn = sys.connector_by_name("ServerGrp1.Conn").unwrap();
        let server_side = sys.connector(conn).unwrap().roles[0];
        let g2 = sys.component_by_name("ServerGrp2").unwrap();
        let serve = sys.ports_of(g2).next().unwrap();
        sys.attach(serve, server_side).unwrap();
        let g1 = sys.component_by_name("ServerGrp1").unwrap();
        let u1 = sys.component_by_name("User1").unwrap();
        assert_eq!(sys.components_attached_to_connector(conn), [g1, g2, u1]);
        let found: Vec<_> = ClientServerStyle::validate(&sys)
            .into_iter()
            .map(|v| (v.subject, v.rule))
            .collect();
        assert_eq!(
            found,
            [
                (
                    "User1".to_string(),
                    "client must be connected to exactly one server group (found 2)".to_string()
                ),
                (
                    "ServerGrp1.Conn".to_string(),
                    "service connector must attach exactly one server group (found 2)".to_string()
                ),
            ]
        );
    }

    #[test]
    fn group_of_client_resolves() {
        let sys = ClientServerStyle::example_system("storage", 2, 1, 2).unwrap();
        let u1 = sys.component_by_name("User1").unwrap();
        let g1 = sys.component_by_name("ServerGrp1").unwrap();
        assert_eq!(ClientServerStyle::group_of_client(&sys, u1), Some(g1));
    }

    #[test]
    fn disconnected_client_is_a_style_violation() {
        let mut sys = ClientServerStyle::example_system("storage", 1, 1, 1).unwrap();
        ClientServerStyle::add_client(&mut sys, Key::new("Loner"), ClientNames::new()).unwrap();
        let violations = ClientServerStyle::validate(&sys);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].subject, "Loner");
    }

    #[test]
    fn empty_server_group_is_a_style_violation() {
        let mut sys = ClientServerStyle::example_system("storage", 1, 1, 1).unwrap();
        let grp = sys.component_by_name("ServerGrp1").unwrap();
        let server = sys.component_by_name("ServerGrp1.Server1").unwrap();
        sys.remove_component(server).unwrap();
        // replicationCount now also disagrees.
        let violations = ClientServerStyle::validate(&sys);
        assert!(violations
            .iter()
            .any(|v| v.rule.contains("at least one active server")));
        assert!(violations
            .iter()
            .any(|v| v.rule.contains("replicationCount")));
        let _ = grp;
    }

    #[test]
    fn deactivated_servers_do_not_count() {
        let mut sys = ClientServerStyle::example_system("storage", 1, 1, 1).unwrap();
        let server = sys.component_by_name("ServerGrp1.Server1").unwrap();
        sys.component_mut(server)
            .unwrap()
            .properties
            .set(props::IS_ACTIVE, false);
        let violations = ClientServerStyle::validate(&sys);
        assert!(violations
            .iter()
            .any(|v| v.rule.contains("at least one active server")));
    }

    #[test]
    fn orphan_server_is_a_style_violation() {
        let mut sys = System::new("broken");
        sys.add_component("StraySrv", SERVER_T).unwrap();
        let violations = ClientServerStyle::validate(&sys);
        assert!(violations
            .iter()
            .any(|v| v.rule.contains("member of a server group")));
    }

    #[test]
    fn service_connector_is_reused() {
        let mut sys = System::new("x");
        let grp = ClientServerStyle::add_server_group(&mut sys, "G", 1).unwrap();
        let c1 = ClientServerStyle::service_connector(&mut sys, grp).unwrap();
        let c2 = ClientServerStyle::service_connector(&mut sys, grp).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(sys.connectors().count(), 1);
    }
}
