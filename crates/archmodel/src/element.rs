//! Architectural elements: components, connectors, ports, roles, attachments.
//!
//! The model follows the core representation scheme shared by Acme, xADL and
//! SADL (§2): a system is a graph whose nodes are *components* (computational
//! elements and data stores) and whose arcs are *connectors* (pathways of
//! interaction). Components expose *ports*; connectors expose *roles*;
//! *attachments* bind ports to roles. Hierarchy (a server group's
//! representation containing its replicated servers) is expressed through
//! parent/child links between components.

use crate::key::Key;
use crate::property::PropertyMap;

/// Identifies a component within a [`crate::system::System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

/// Identifies a connector within a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectorId(pub u32);

/// Identifies a port on a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Identifies a role on a connector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleId(pub u32);

/// A reference to any kind of element, used by constraints and violations.
///
/// Ordered (components before connectors before ports before roles, ids
/// ascending within a kind) so dirty-set iteration in the change journal is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementRef {
    /// A component.
    Component(ComponentId),
    /// A connector.
    Connector(ConnectorId),
    /// A port.
    Port(PortId),
    /// A role.
    Role(RoleId),
}

/// A principal computational element or data store (client, server group,
/// server, request queue, ...).
///
/// Its ports and its representation's members are read through the model
/// ([`System::ports_of`](crate::System::ports_of),
/// [`System::children`](crate::System::children)), which threads them in
/// flat lists: no element owns a `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Unique name within the system, e.g. `"ServerGrp1"`.
    pub name: Key,
    /// The component type in the architectural style, e.g. `"ServerGroupT"`.
    pub ctype: Key,
    /// Behavioural/performance annotations.
    pub properties: PropertyMap,
    /// Enclosing component when this component is part of a representation
    /// (e.g. a server inside its server group).
    pub parent: Option<ComponentId>,
}

/// A pathway of interaction between components (e.g. the request queue plus
/// the network connections between users and servers).
#[derive(Debug, Clone, PartialEq)]
pub struct Connector {
    /// Unique name within the system.
    pub name: Key,
    /// The connector type in the architectural style, e.g. `"ServiceConnT"`.
    pub ctype: Key,
    /// Behavioural/performance annotations (delay, bandwidth, ...).
    pub properties: PropertyMap,
    /// Roles owned by this connector, in id order.
    pub roles: Vec<RoleId>,
}

/// A point of interaction on a component.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Name unique within the owning component.
    pub name: Key,
    /// The port type, e.g. `"RequestT"`.
    pub ptype: Key,
    /// Annotations.
    pub properties: PropertyMap,
    /// The component this port belongs to.
    pub owner: ComponentId,
}

/// A point of interaction on a connector.
#[derive(Debug, Clone, PartialEq)]
pub struct Role {
    /// Name unique within the owning connector.
    pub name: Key,
    /// The role type, e.g. `"ClientRoleT"`.
    pub rtype: Key,
    /// Annotations (e.g. `bandwidth` between the client and its group).
    pub properties: PropertyMap,
    /// The connector this role belongs to.
    pub owner: ConnectorId,
}

/// Binds a component's port to a connector's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attachment {
    /// The component-side port.
    pub port: PortId,
    /// The connector-side role.
    pub role: RoleId,
}

impl std::fmt::Display for ElementRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElementRef::Component(id) => write!(f, "component#{}", id.0),
            ElementRef::Connector(id) => write!(f, "connector#{}", id.0),
            ElementRef::Port(id) => write!(f, "port#{}", id.0),
            ElementRef::Role(id) => write!(f, "role#{}", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_ref_display() {
        assert_eq!(
            ElementRef::Component(ComponentId(3)).to_string(),
            "component#3"
        );
        assert_eq!(ElementRef::Role(RoleId(1)).to_string(), "role#1");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<ComponentId> = [ComponentId(2), ComponentId(1)].into_iter().collect();
        assert_eq!(set.iter().next(), Some(&ComponentId(1)));
    }
}
