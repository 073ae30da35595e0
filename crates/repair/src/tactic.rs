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
use archmodel::{Key, ModelOp, System};

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
    /// The tactic's precondition did not hold.
    NotApplicable {
        /// Why the precondition failed (for the trace).
        reason: String,
    },
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
    use archmodel::ElementRef;
    match violation.subject? {
        ElementRef::Component(id) => {
            let comp = model.component(id).ok()?;
            (comp.ctype == archmodel::style::CLIENT_T).then_some(comp.name)
        }
        ElementRef::Role(id) => {
            let client_id = model.component_attached_to_role(id)?;
            let comp = model.component(client_id).ok()?;
            (comp.ctype == archmodel::style::CLIENT_T).then_some(comp.name)
        }
        _ => None,
    }
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
            detail: String::new(),
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
        let role = model.roles_of_component(client)[0];
        let violation = Violation {
            invariant: "bandwidth".into(),
            subject: Some(ElementRef::Role(role)),
            subject_name: "User1.role".into(),
            detail: String::new(),
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
            detail: String::new(),
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
