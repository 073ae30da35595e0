//! Architecture adaptation operators for the client/server style (§3.3).
//!
//! The paper defines three style-specific operators that repair scripts use
//! to modify the architecture:
//!
//! * `addServer()` — applied to a server group, adds a replicated server to
//!   its representation while keeping the architecture structurally valid;
//! * `move(to : ServerGroupT)` — applied to a client, deletes the role
//!   currently connecting it and attaches it to the connector of the target
//!   server group;
//! * `remove()` — applied to a server, deletes it from its containing group
//!   and updates the group's replication count.
//!
//! A planner writes its script against the borrowed live model: each
//! operator reads the model and the ops written so far, and records its op
//! exactly when applying it after those ops would succeed. Nothing is
//! applied and nothing is copied. The op list is the only state: a server
//! name is taken when the model has it and no later `RemoveServer` in the
//! list removes it, or when an `AddServer` in the list adds it and nothing
//! later removes it. A move is checked with
//! `ClientServerStyle::resolve_move` and a removal with
//! `ClientServerStyle::resolve_remove`, the reads applying them would make.
//! `remove()` is the one operator that can break the style, which
//! `ClientServerStyle::script_violations` checks from the script alone.

use archmodel::style::{ClientServerStyle, SERVER_GROUP_T, SERVER_T};
use archmodel::{Key, ModelError, ModelOp, System};

/// Errors raised by adaptation operators.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorError {
    /// A named element was missing or of the wrong type.
    BadTarget(String),
    /// The underlying change could not be applied.
    Change(ModelError),
}

impl From<ModelError> for OperatorError {
    fn from(e: ModelError) -> Self {
        OperatorError::Change(e)
    }
}

impl std::fmt::Display for OperatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperatorError::BadTarget(m) => write!(f, "bad operator target: {m}"),
            OperatorError::Change(e) => write!(f, "change failed: {e}"),
        }
    }
}

impl std::error::Error for OperatorError {}

/// The component `name`, which must be a `what` (of type `ctype`).
fn target<'a>(
    model: &'a System,
    name: &str,
    ctype: &str,
    what: &str,
) -> Result<&'a archmodel::Component, OperatorError> {
    let component = model
        .component_by_name(name)
        .and_then(|id| model.component(id).ok())
        .ok_or_else(|| OperatorError::BadTarget(format!("{what} {name} not found")))?;
    if component.ctype != ctype {
        return Err(OperatorError::BadTarget(format!(
            "{name} is a {}, not a {what}",
            component.ctype
        )));
    }
    Ok(component)
}

/// The last op in `ops` that adds or removes the server `name`.
fn last_server_op<'a>(ops: &'a [ModelOp], name: &str) -> Option<&'a ModelOp> {
    ops.iter().rev().find(|op| match op {
        ModelOp::AddServer { server, .. } | ModelOp::RemoveServer { server } => server == name,
        ModelOp::MoveClient { .. } | ModelOp::MoveClientGroup { .. } => false,
    })
}

/// The first `{group_name}.Server{i}` that neither the model nor `ops`
/// holds once `ops` are applied.
fn new_server_name(model: &System, ops: &[ModelOp], group_name: &str) -> String {
    let taken = |name: &String| match last_server_op(ops, name) {
        Some(op) => matches!(op, ModelOp::AddServer { .. }),
        None => model.component_by_name(name).is_some(),
    };
    (1..)
        .map(|index| format!("{group_name}.Server{index}"))
        .find(|name| !taken(name))
        .expect("a model holds finitely many names")
}

/// `addServer()`: records adding a new replicated, active server to
/// `group_name`, named the first `{group_name}.Server{i}` that neither the
/// model nor `ops` holds — a name an earlier op removed is free again.
/// Returns the new server's name.
pub fn add_server(
    model: &System,
    ops: &mut Vec<ModelOp>,
    group_name: &str,
) -> Result<String, OperatorError> {
    target(model, group_name, SERVER_GROUP_T, "server group")?;
    let server = new_server_name(model, ops, group_name);
    ops.push(ModelOp::AddServer {
        group: group_name.to_string(),
        server: server.clone(),
    });
    Ok(server)
}

/// `move(to)`: records moving `client_name` from its current server group's
/// connector to the connector of `to_group_name`, which deletes the old
/// client role and creates a fresh one on the target connector. Returns the
/// name of the connector the client is then attached to.
pub fn move_client(
    model: &System,
    ops: &mut Vec<ModelOp>,
    client_name: &str,
    to_group_name: &str,
) -> Result<String, OperatorError> {
    target(model, to_group_name, SERVER_GROUP_T, "server group")?;
    // No op adds or removes a client, a group or a port, and a connector an
    // earlier move creates exists only if the serve port checked here does,
    // so the model answers these checks whatever ops come before this one.
    let client = Key::find(client_name).filter(|&key| model.component_by_key(key).is_some());
    let Some(client) = client else {
        return Err(ModelError::NameNotFound(client_name.to_string()).into());
    };
    ClientServerStyle::resolve_move(model, &[client], to_group_name)?;
    ops.push(ModelOp::MoveClient {
        client: client_name.to_string(),
        to_group: to_group_name.to_string(),
    });
    Ok(ClientServerStyle::connector_name(to_group_name))
}

/// `remove()`: records removing `server_name` from its containing server
/// group, which updates the group's `replicationCount`. Returns the group's
/// name.
pub fn remove_server(
    model: &System,
    ops: &mut Vec<ModelOp>,
    server_name: &str,
) -> Result<String, OperatorError> {
    let group = match last_server_op(ops, server_name) {
        Some(ModelOp::AddServer { group, .. }) => group.clone(),
        Some(_) => {
            let missing = format!("server {server_name} not found");
            return Err(OperatorError::BadTarget(missing));
        }
        None => {
            target(model, server_name, SERVER_T, "server")?;
            let (_, group) =
                ClientServerStyle::resolve_remove(model, server_name).map_err(|_| {
                    let orphan = format!("server {server_name} has no containing group");
                    OperatorError::BadTarget(orphan)
                })?;
            model.component(group)?.name.to_string()
        }
    };
    ops.push(ModelOp::RemoveServer {
        server: server_name.to_string(),
    });
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::apply_op;
    use archmodel::style::props;

    fn example() -> System {
        ClientServerStyle::example_system("storage", 2, 3, 4).unwrap()
    }

    /// `model` with `ops` applied, each of which must apply.
    fn applied(model: &System, ops: &[ModelOp]) -> System {
        let mut out = model.clone();
        for op in ops {
            apply_op(&mut out, op).unwrap();
        }
        out
    }

    fn replication_count(model: &System, group: &str) -> Option<i64> {
        let id = model.component_by_name(group).unwrap();
        let properties = &model.component(id).unwrap().properties;
        properties.get_i64(props::REPLICATION_COUNT)
    }

    #[test]
    fn add_server_keeps_style_valid() {
        let model = example();
        let mut ops = Vec::new();
        let name = add_server(&model, &mut ops, "ServerGrp1").unwrap();
        assert_eq!(name, "ServerGrp1.Server4");
        // The model itself is only read.
        assert!(model.component_by_name(&name).is_none());
        let after = applied(&model, &ops);
        assert!(ClientServerStyle::validate(&after).is_empty());
        assert_eq!(replication_count(&after, "ServerGrp1"), Some(4));
    }

    #[test]
    fn add_server_to_unknown_group_fails() {
        let model = example();
        let mut ops = Vec::new();
        assert!(matches!(
            add_server(&model, &mut ops, "Nowhere"),
            Err(OperatorError::BadTarget(_))
        ));
        assert!(ops.is_empty());
    }

    #[test]
    fn add_server_to_non_group_fails() {
        let model = example();
        let mut ops = Vec::new();
        assert!(matches!(
            add_server(&model, &mut ops, "User1"),
            Err(OperatorError::BadTarget(_))
        ));
        assert!(ops.is_empty());
    }

    #[test]
    fn new_server_name_skips_what_the_model_or_the_plan_holds() {
        let model = example();
        let mut ops = Vec::new();
        let add = |ops: &mut Vec<ModelOp>| add_server(&model, ops, "ServerGrp1").unwrap();
        assert_eq!(add(&mut ops), "ServerGrp1.Server4");
        assert_eq!(add(&mut ops), "ServerGrp1.Server5");
        // A name an earlier op removed is free again, whether the model had
        // it or an earlier op added it; the lowest free name wins.
        remove_server(&model, &mut ops, "ServerGrp1.Server5").unwrap();
        remove_server(&model, &mut ops, "ServerGrp1.Server2").unwrap();
        assert_eq!(add(&mut ops), "ServerGrp1.Server2");
        assert_eq!(add(&mut ops), "ServerGrp1.Server5");
        assert_eq!(add(&mut ops), "ServerGrp1.Server6");
        // The names are the ones applying the script one op at a time gives.
        let after = applied(&model, &ops);
        let grp = after.component_by_name("ServerGrp1").unwrap();
        let names: Vec<String> = after
            .children(grp)
            .map(|c| after.component(c).unwrap().name.to_string())
            .collect();
        let want = [
            "Server1", "Server3", "Server4", "Server2", "Server5", "Server6",
        ];
        assert_eq!(names, want.map(|s| format!("ServerGrp1.{s}")));
    }

    #[test]
    fn move_client_changes_group_and_cleans_old_role() {
        let model = example();
        // User1 starts on ServerGrp1 (round-robin).
        let mut ops = Vec::new();
        let conn = move_client(&model, &mut ops, "User1", "ServerGrp2").unwrap();
        assert_eq!(conn, "ServerGrp2.Conn");
        let after = applied(&model, &ops);
        let user = after.component_by_name("User1").unwrap();
        let grp2 = after.component_by_name("ServerGrp2").unwrap();
        assert_eq!(ClientServerStyle::group_of_client(&after, user), Some(grp2));
        // The old connector no longer carries a role for User1.
        let old_conn = after.connector_by_name("ServerGrp1.Conn").unwrap();
        let stale = after
            .connector(old_conn)
            .unwrap()
            .roles
            .iter()
            .filter(|r| after.role(**r).unwrap().name == "User1.role")
            .count();
        assert_eq!(stale, 0);
        assert!(ClientServerStyle::validate(&after).is_empty());
    }

    #[test]
    fn move_client_group_matches_sequential_moves() {
        let model = example();
        // Per-client moves: the classic realisation of a class move.
        let clients: Vec<String> = ["User1", "User3"].iter().map(|s| s.to_string()).collect();
        let mut sequential = Vec::new();
        for client in &clients {
            move_client(&model, &mut sequential, client, "ServerGrp2").unwrap();
        }
        // The bulk op the group planner writes: one recorded op, identical
        // final model state.
        let clients = clients.iter().map(Key::from).collect();
        let to_group = "ServerGrp2".to_string();
        let bulk = [ModelOp::MoveClientGroup { clients, to_group }];
        let after = applied(&model, &bulk);
        assert_eq!(after, applied(&model, &sequential));
        assert!(ClientServerStyle::validate(&after).is_empty());
    }

    #[test]
    fn move_client_group_to_non_group_fails() {
        let mut model = example();
        let before = model.clone();
        let op = ModelOp::MoveClientGroup {
            clients: vec![Key::new("User1")],
            to_group: "User2".to_string(),
        };
        assert!(ClientServerStyle::resolve_move(&model, &[Key::new("User1")], "User2").is_err());
        assert!(matches!(
            apply_op(&mut model, &op),
            Err(ModelError::NameNotFound(_))
        ));
        assert_eq!(model, before);
    }

    #[test]
    fn move_client_creates_connector_when_missing() {
        let mut model = System::new("min");
        ClientServerStyle::add_server_group(&mut model, "G1", 1).unwrap();
        ClientServerStyle::add_server_group(&mut model, "G2", 1).unwrap();
        ClientServerStyle::add_clients(&mut model, [("User1", "G1")]).unwrap();
        // G2 has no connector yet.
        assert!(model.connector_by_name("G2.Conn").is_none());
        let mut ops = Vec::new();
        move_client(&model, &mut ops, "User1", "G2").unwrap();
        let after = applied(&model, &ops);
        assert!(after.connector_by_name("G2.Conn").is_some());
        assert!(ClientServerStyle::validate(&after).is_empty());
    }

    #[test]
    fn move_to_non_group_fails() {
        let model = example();
        let mut ops = Vec::new();
        assert!(matches!(
            move_client(&model, &mut ops, "User1", "User2"),
            Err(OperatorError::BadTarget(_))
        ));
        // A missing client fails as applying the move would.
        assert_eq!(
            move_client(&model, &mut ops, "Ghost", "ServerGrp2"),
            Err(OperatorError::Change(ModelError::NameNotFound(
                "Ghost".into()
            )))
        );
        assert!(ops.is_empty());
    }

    #[test]
    fn remove_server_updates_replication_count() {
        let model = example();
        let mut ops = Vec::new();
        let group = remove_server(&model, &mut ops, "ServerGrp1.Server3").unwrap();
        assert_eq!(group, "ServerGrp1");
        let after = applied(&model, &ops);
        assert_eq!(replication_count(&after, "ServerGrp1"), Some(2));
        assert!(ClientServerStyle::validate(&after).is_empty());
        assert!(ClientServerStyle::script_violations(&model, &ops).is_empty());
    }

    #[test]
    fn remove_last_server_leaves_invalid_style_detectable() {
        let mut model = System::new("tiny");
        ClientServerStyle::add_server_group(&mut model, "G1", 1).unwrap();
        ClientServerStyle::add_clients(&mut model, [("U1", "G1")]).unwrap();
        let mut ops = Vec::new();
        remove_server(&model, &mut ops, "G1.Server1").unwrap();
        // The operator records the op, and the script check finds the empty
        // group the applied script leaves (the strategy layer uses this to
        // abort the repair).
        let found = ClientServerStyle::script_violations(&model, &ops);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].subject, "G1");
        let after = applied(&model, &ops);
        assert_eq!(ClientServerStyle::validate(&after), found);
        // A recruit after the removal keeps the group served.
        add_server(&model, &mut ops, "G1").unwrap();
        assert!(ClientServerStyle::script_violations(&model, &ops).is_empty());
    }

    #[test]
    fn remove_non_server_fails() {
        let model = example();
        let mut ops = Vec::new();
        assert!(matches!(
            remove_server(&model, &mut ops, "User1"),
            Err(OperatorError::BadTarget(_))
        ));
        // A server the script already removed is gone; one it added is not.
        remove_server(&model, &mut ops, "ServerGrp1.Server1").unwrap();
        assert!(matches!(
            remove_server(&model, &mut ops, "ServerGrp1.Server1"),
            Err(OperatorError::BadTarget(_))
        ));
        let added = add_server(&model, &mut ops, "ServerGrp2").unwrap();
        assert_eq!(
            remove_server(&model, &mut ops, &added).unwrap(),
            "ServerGrp2"
        );
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn committed_ops_replay_onto_live_model() {
        let mut model = example();
        let mut ops = Vec::new();
        add_server(&model, &mut ops, "ServerGrp2").unwrap();
        move_client(&model, &mut ops, "User1", "ServerGrp2").unwrap();
        assert_eq!(ops.len(), 2);
        for op in &ops {
            apply_op(&mut model, op).unwrap();
        }
        let user = model.component_by_name("User1").unwrap();
        let grp2 = model.component_by_name("ServerGrp2").unwrap();
        assert_eq!(ClientServerStyle::group_of_client(&model, user), Some(grp2));
        assert_eq!(model.components_of_type(SERVER_GROUP_T).count(), 2);
        assert!(ClientServerStyle::validate(&model).is_empty());
    }
}
