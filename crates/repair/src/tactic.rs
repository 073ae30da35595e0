//! Repair tactics: guarded repair steps.
//!
//! A repair strategy is a sequence of *tactics*; each tactic is guarded by a
//! precondition that examines the architectural model to pinpoint the problem
//! and decide applicability, and — if applicable — writes a repair script
//! with the style-specific operators (§3.2). The script is written against
//! the borrowed model the context holds: a tactic reads, records ops, and
//! changes nothing.

use crate::query::RuntimeQuery;
use archmodel::constraint::Violation;
use archmodel::style::StyleTypes;
use archmodel::{ComponentId, ElementRef, Key, ModelOp, System};
use std::fmt;

/// Errors that abort a repair.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// An adaptation operator failed, or the model is inconsistent with the
    /// violation being repaired.
    Operator(String),
    /// `findGoodSGroup` found no server group with acceptable bandwidth —
    /// the paper's `abort NoServerGroupFound`.
    NoServerGroupFound,
}

impl From<crate::operators::OperatorError> for RepairError {
    fn from(e: crate::operators::OperatorError) -> Self {
        RepairError::Operator(e.to_string())
    }
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Operator(m) => write!(f, "operator failed: {m}"),
            RepairError::NoServerGroupFound => write!(f, "no server group found"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Everything a tactic may consult while deciding and acting.
pub struct TacticContext<'a> {
    /// The current architectural model.
    pub model: &'a System,
    /// The constraint violation that triggered the enclosing strategy.
    pub violation: &'a Violation,
    /// Queries answered by the runtime layer (predicted bandwidth, spare
    /// servers).
    pub query: &'a dyn RuntimeQuery,
}

/// The outcome of attempting one tactic.
#[derive(Debug, Clone)]
pub enum TacticResult {
    /// The tactic's precondition did not hold, for the typed reason given:
    /// nothing is formatted unless the trace is read.
    NotApplicable(NotApplicable),
    /// The tactic produced a repair script.
    Applied {
        /// The script, written with the [`operators`](crate::operators)
        /// against the context's model: each op applies after the ones
        /// before it, which the strategy relies on when it checks the script
        /// against the style without applying it.
        ops: Vec<ModelOp>,
        /// Human-readable description of what the repair does.
        description: String,
    },
}

/// Why a tactic's precondition did not hold: one variant per reason a
/// built-in tactic gives, holding the names and values its text needs, and
/// [`Other`](Self::Other) for a custom tactic's own text. A reason about the
/// violation's client does not name it: the client is the candidate's, and
/// [`display`](Self::display) is handed it, so the candidates of one skip
/// whose tactics failed alike share one list of reasons.
#[derive(Debug, Clone, PartialEq)]
pub enum NotApplicable {
    /// The violation does not identify a client.
    NoClient,
    /// No server group connected to the client is overloaded.
    NoOverloadedGroup,
    /// These groups connected to the client are overloaded, but no spare
    /// server can be recruited for any of them.
    NoSpareServer(Box<[Key]>),
    /// The client's role bandwidth is at or above the minimum.
    BandwidthAboveMinimum {
        /// The observed bandwidth (bps).
        bps: f64,
        /// The minimum (bps).
        min_bps: f64,
    },
    /// No gauge has reported the client's role bandwidth yet.
    NoBandwidthObservation,
    /// The best server group is the one the client already uses.
    AlreadyConnected(Key),
    /// No underutilised server group has a server above its floor.
    NoRemovableServer,
    /// The violation does not identify a server group.
    NoGroup,
    /// No replica of the group is recorded dead.
    NoDeadReplicas(Key),
    /// Every replica of the group is dead and no spare can replace one.
    FullyDead(Key),
    /// The group still has live replicas.
    StillLive {
        /// The group.
        group: Key,
        /// Its `liveServers` reading.
        live: f64,
    },
    /// The group serves no clients.
    ServesNoClients(Key),
    /// A custom tactic's reason, as it wrote it.
    Other(String),
}

impl NotApplicable {
    /// The reason as the trace reads it, naming `client` where the reason
    /// is about the violation's client.
    pub fn display(&self, client: Key) -> impl fmt::Display + '_ {
        ForClient(self, client)
    }
}

/// A reason rendered for its client.
struct ForClient<'a>(&'a NotApplicable, Key);

impl fmt::Display for ForClient<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let client = self.1;
        match self.0 {
            NotApplicable::NoClient => f.write_str("violation does not identify a client"),
            NotApplicable::NoOverloadedGroup => {
                write!(f, "no overloaded server group connected to {client}")
            }
            NotApplicable::NoSpareServer(overloaded) => write!(
                f,
                "server groups {overloaded:?} are overloaded but no spare server is available"
            ),
            NotApplicable::BandwidthAboveMinimum { bps, min_bps } => write!(
                f,
                "bandwidth {bps:.0} bps for {client} is above the {min_bps:.0} bps minimum"
            ),
            NotApplicable::NoBandwidthObservation => {
                write!(f, "no bandwidth observation for {client} yet")
            }
            NotApplicable::AlreadyConnected(group) => {
                write!(f, "{client} is already connected to {group}")
            }
            NotApplicable::NoRemovableServer => {
                f.write_str("no underutilised server group with removable servers")
            }
            NotApplicable::NoGroup => f.write_str("violation does not identify a server group"),
            NotApplicable::NoDeadReplicas(group) => {
                write!(f, "no dead replicas recorded for {group}")
            }
            NotApplicable::FullyDead(group) => {
                write!(f, "{group} is fully dead and no spare server is available")
            }
            NotApplicable::StillLive { group, live } => {
                write!(f, "{group} still has {live:.0} live replicas")
            }
            NotApplicable::ServesNoClients(group) => write!(f, "{group} serves no clients"),
            NotApplicable::Other(reason) => f.write_str(reason),
        }
    }
}

/// A guarded repair step.
pub trait Tactic {
    /// The tactic's name (e.g. `"fixServerLoad"`).
    fn name(&self) -> &str;

    /// Evaluates the precondition and, if it holds, produces the repair
    /// script.
    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError>;
}

/// Resolves the client component a violation refers to: either the violation
/// subject itself (latency constraints are scoped per client) or the client
/// attached to the violated role (bandwidth constraints are scoped per role).
/// The answer is the model's own interned name, so resolving one costs no
/// allocation.
pub fn client_of_violation(model: &System, violation: &Violation) -> Option<Key> {
    client_component(model, violation).map(|(_, name)| name)
}

/// The client a violation refers to, as [`client_of_violation`] finds it,
/// with its id.
pub(crate) fn client_component(
    model: &System,
    violation: &Violation,
) -> Option<(ComponentId, Key)> {
    let id = match violation.subject? {
        ElementRef::Component(id) => id,
        ElementRef::Role(role) => model.component_attached_to_role(role)?,
        _ => return None,
    };
    let comp = model.component(id).ok()?;
    (comp.ctype == StyleTypes::get().client).then_some((id, comp.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::ClientServerStyle;
    use archmodel::ElementRef;

    #[test]
    fn client_resolution_from_component_subject() {
        let model = ClientServerStyle::example_system("s", 1, 1, 2).unwrap();
        let id = model.component_by_name("User2").unwrap();
        let violation = Violation {
            invariant: "latency".into(),
            subject: Some(ElementRef::Component(id)),
            subject_name: "User2".into(),
            detail: Key::new(""),
        };
        assert_eq!(
            client_of_violation(&model, &violation).map(|c| c.as_str()),
            Some("User2")
        );
    }

    #[test]
    fn client_resolution_from_role_subject() {
        let model = ClientServerStyle::example_system("s", 1, 1, 1).unwrap();
        // Find User1's role.
        let client = model.component_by_name("User1").unwrap();
        let role = model.roles_of_component(client).next().unwrap();
        let violation = Violation {
            invariant: "bandwidth".into(),
            subject: Some(ElementRef::Role(role)),
            subject_name: "User1.role".into(),
            detail: Key::new(""),
        };
        assert_eq!(
            client_of_violation(&model, &violation).map(|c| c.as_str()),
            Some("User1")
        );
    }

    #[test]
    fn non_client_subject_resolves_to_none() {
        let model = ClientServerStyle::example_system("s", 1, 1, 1).unwrap();
        let grp = model.component_by_name("ServerGrp1").unwrap();
        let violation = Violation {
            invariant: "load".into(),
            subject: Some(ElementRef::Component(grp)),
            subject_name: "ServerGrp1".into(),
            detail: Key::new(""),
        };
        assert_eq!(client_of_violation(&model, &violation), None);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(RepairError::NoServerGroupFound
            .to_string()
            .contains("no server group"));
        assert!(RepairError::Operator("boom".into())
            .to_string()
            .contains("boom"));
    }
}
