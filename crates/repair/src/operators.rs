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
//! A per-element tactic writes its script with these operators on a
//! [`Transaction`]: each op is applied to the transaction's working copy,
//! which the strategy validates against the style before anything reaches
//! the live model — `remove()` can empty a group. The group planner, whose
//! only ops are `moveClientGroup` and `addServer` (neither can break the
//! style), writes them against the live model without a copy: it resolves a
//! move with `ClientServerStyle::resolve_move` and names a recruit with
//! [`new_server_name`], the two reads applying them would make.

use archmodel::style::{ClientServerStyle, SERVER_GROUP_T, SERVER_T};
use archmodel::{ModelError, ModelOp, System, Transaction};

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

/// The name `addServer()` gives the replica it adds to `group_name`, which
/// must be a server group: the first `{group_name}.Server{i}` that is neither
/// in `model` nor in `taken` (the names a plan has already given out).
pub fn new_server_name(
    model: &System,
    group_name: &str,
    taken: &[String],
) -> Result<String, OperatorError> {
    target(model, group_name, SERVER_GROUP_T, "server group")?;
    let free = |name: &String| model.component_by_name(name).is_none() && !taken.contains(name);
    Ok((1..)
        .map(|index| format!("{group_name}.Server{index}"))
        .find(free)
        .expect("a model holds finitely many names"))
}

/// `addServer()`: adds a new replicated, active server to `group_name` and
/// updates the group's `replicationCount`. Returns the new server's name.
pub fn add_server(tx: &mut Transaction, group_name: &str) -> Result<String, OperatorError> {
    let server = new_server_name(tx.working(), group_name, &[])?;
    tx.apply(ModelOp::AddServer {
        group: group_name.to_string(),
        server: server.clone(),
    })?;
    Ok(server)
}

/// `move(to)`: moves `client_name` from its current server group's connector
/// to the connector of `to_group_name`, deleting the old client role and
/// creating a fresh one on the target connector. Returns the name of the
/// connector the client is now attached to.
pub fn move_client(
    tx: &mut Transaction,
    client_name: &str,
    to_group_name: &str,
) -> Result<String, OperatorError> {
    target(tx.working(), to_group_name, SERVER_GROUP_T, "server group")?;
    tx.apply(ModelOp::MoveClient {
        client: client_name.to_string(),
        to_group: to_group_name.to_string(),
    })?;
    Ok(ClientServerStyle::connector_name(to_group_name))
}

/// `remove()`: removes `server_name` from its containing server group and
/// updates the group's `replicationCount`. Returns the group's name.
pub fn remove_server(tx: &mut Transaction, server_name: &str) -> Result<String, OperatorError> {
    let model = tx.working();
    let group = target(model, server_name, SERVER_T, "server")?
        .parent
        .and_then(|group| model.component(group).ok())
        .ok_or_else(|| {
            OperatorError::BadTarget(format!("server {server_name} has no containing group"))
        })?
        .name
        .to_string();
    tx.apply(ModelOp::RemoveServer {
        server: server_name.to_string(),
    })?;
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::props;

    fn example() -> System {
        ClientServerStyle::example_system("storage", 2, 3, 4).unwrap()
    }

    #[test]
    fn add_server_keeps_style_valid() {
        let model = example();
        let mut tx = Transaction::new(&model);
        let name = add_server(&mut tx, "ServerGrp1").unwrap();
        assert_eq!(name, "ServerGrp1.Server4");
        assert!(ClientServerStyle::validate(tx.working()).is_empty());
        let grp = tx.working().component_by_name("ServerGrp1").unwrap();
        assert_eq!(
            tx.working()
                .component(grp)
                .unwrap()
                .properties
                .get_i64(props::REPLICATION_COUNT),
            Some(4)
        );
    }

    #[test]
    fn add_server_to_unknown_group_fails() {
        let model = example();
        let mut tx = Transaction::new(&model);
        assert!(matches!(
            add_server(&mut tx, "Nowhere"),
            Err(OperatorError::BadTarget(_))
        ));
        assert!(tx.is_empty());
    }

    #[test]
    fn add_server_to_non_group_fails() {
        let model = example();
        let mut tx = Transaction::new(&model);
        assert!(matches!(
            add_server(&mut tx, "User1"),
            Err(OperatorError::BadTarget(_))
        ));
    }

    #[test]
    fn new_server_name_skips_what_the_model_or_the_plan_holds() {
        let mut model = example();
        let name = |model: &System, taken: &[String]| new_server_name(model, "ServerGrp1", taken);
        assert_eq!(name(&model, &[]).unwrap(), "ServerGrp1.Server4");
        let taken = ["ServerGrp1.Server4".to_string()];
        assert_eq!(name(&model, &taken).unwrap(), "ServerGrp1.Server5");
        // A gap a removal left is the first free name.
        archmodel::apply_op(
            &mut model,
            &ModelOp::RemoveServer {
                server: "ServerGrp1.Server2".into(),
            },
        )
        .unwrap();
        assert_eq!(name(&model, &taken).unwrap(), "ServerGrp1.Server2");
        assert!(matches!(
            new_server_name(&model, "User1", &[]),
            Err(OperatorError::BadTarget(_))
        ));
    }

    #[test]
    fn move_client_changes_group_and_cleans_old_role() {
        let model = example();
        // User1 starts on ServerGrp1 (round-robin).
        let mut tx = Transaction::new(&model);
        let conn = move_client(&mut tx, "User1", "ServerGrp2").unwrap();
        assert_eq!(conn, "ServerGrp2.Conn");
        let working = tx.working();
        let user = working.component_by_name("User1").unwrap();
        let grp2 = working.component_by_name("ServerGrp2").unwrap();
        assert_eq!(
            ClientServerStyle::group_of_client(working, user),
            Some(grp2)
        );
        // The old connector no longer carries a role for User1.
        let old_conn = working.connector_by_name("ServerGrp1.Conn").unwrap();
        let stale = working
            .connector(old_conn)
            .unwrap()
            .roles
            .iter()
            .filter(|r| working.role(**r).unwrap().name == "User1.role")
            .count();
        assert_eq!(stale, 0);
        assert!(ClientServerStyle::validate(working).is_empty());
    }

    #[test]
    fn move_client_group_matches_sequential_moves() {
        let model = example();
        // Per-client moves: the classic realisation of a class move.
        let mut sequential = Transaction::new(&model);
        let clients: Vec<String> = ["User1", "User3"].iter().map(|s| s.to_string()).collect();
        for client in &clients {
            move_client(&mut sequential, client, "ServerGrp2").unwrap();
        }
        // The bulk op the group planner writes: one recorded op, identical
        // final model state.
        let mut bulk = Transaction::new(&model);
        let (clients, to_group) = (clients.clone(), "ServerGrp2".to_string());
        bulk.apply(ModelOp::MoveClientGroup { clients, to_group })
            .unwrap();
        assert_eq!(bulk.len(), 1);
        assert_eq!(bulk.working(), sequential.working());
        assert!(ClientServerStyle::validate(bulk.working()).is_empty());
        // The bulk op survives commit replay onto the live model too.
        let mut live = model.clone();
        for op in bulk.ops() {
            archmodel::apply_op(&mut live, op).unwrap();
        }
        assert!(ClientServerStyle::validate(&live).is_empty());
    }

    #[test]
    fn move_client_group_to_non_group_fails() {
        let model = example();
        let mut tx = Transaction::new(&model);
        let op = ModelOp::MoveClientGroup {
            clients: vec!["User1".to_string()],
            to_group: "User2".to_string(),
        };
        assert!(ClientServerStyle::resolve_move(&model, &["User1".to_string()], "User2").is_err());
        assert!(matches!(tx.apply(op), Err(ModelError::NameNotFound(_))));
        assert!(tx.is_empty());
        assert_eq!(tx.working(), &model);
    }

    #[test]
    fn move_client_creates_connector_when_missing() {
        let mut model = System::new("min");
        ClientServerStyle::add_server_group(&mut model, "G1", 1).unwrap();
        ClientServerStyle::add_server_group(&mut model, "G2", 1).unwrap();
        ClientServerStyle::add_clients(&mut model, [("User1", "G1")]).unwrap();
        // G2 has no connector yet.
        assert!(model.connector_by_name("G2.Conn").is_none());
        let mut tx = Transaction::new(&model);
        move_client(&mut tx, "User1", "G2").unwrap();
        assert!(tx.working().connector_by_name("G2.Conn").is_some());
        assert!(ClientServerStyle::validate(tx.working()).is_empty());
    }

    #[test]
    fn move_to_non_group_fails() {
        let model = example();
        let mut tx = Transaction::new(&model);
        assert!(matches!(
            move_client(&mut tx, "User1", "User2"),
            Err(OperatorError::BadTarget(_))
        ));
    }

    #[test]
    fn remove_server_updates_replication_count() {
        let model = example();
        let mut tx = Transaction::new(&model);
        let group = remove_server(&mut tx, "ServerGrp1.Server3").unwrap();
        assert_eq!(group, "ServerGrp1");
        let working = tx.working();
        let grp = working.component_by_name("ServerGrp1").unwrap();
        assert_eq!(
            working
                .component(grp)
                .unwrap()
                .properties
                .get_i64(props::REPLICATION_COUNT),
            Some(2)
        );
        assert!(ClientServerStyle::validate(working).is_empty());
    }

    #[test]
    fn remove_last_server_leaves_invalid_style_detectable() {
        let mut model = System::new("tiny");
        ClientServerStyle::add_server_group(&mut model, "G1", 1).unwrap();
        ClientServerStyle::add_clients(&mut model, [("U1", "G1")]).unwrap();
        let mut tx = Transaction::new(&model);
        remove_server(&mut tx, "G1.Server1").unwrap();
        // The operator applied, but the style validator flags the empty group
        // (the strategy layer uses this to abort the repair).
        assert!(!ClientServerStyle::validate(tx.working()).is_empty());
    }

    #[test]
    fn remove_non_server_fails() {
        let model = example();
        let mut tx = Transaction::new(&model);
        assert!(matches!(
            remove_server(&mut tx, "User1"),
            Err(OperatorError::BadTarget(_))
        ));
    }

    #[test]
    fn committed_ops_replay_onto_live_model() {
        let mut model = example();
        let mut tx = Transaction::new(&model);
        add_server(&mut tx, "ServerGrp2").unwrap();
        move_client(&mut tx, "User1", "ServerGrp2").unwrap();
        assert_eq!(tx.len(), 2);
        for op in tx.ops() {
            archmodel::apply_op(&mut model, op).unwrap();
        }
        let user = model.component_by_name("User1").unwrap();
        let grp2 = model.component_by_name("ServerGrp2").unwrap();
        assert_eq!(ClientServerStyle::group_of_client(&model, user), Some(grp2));
        assert_eq!(model.components_of_type(SERVER_GROUP_T).count(), 2);
        assert!(ClientServerStyle::validate(&model).is_empty());
    }
}
