//! The architectural model of a running system: a graph of components and
//! connectors with attachments, properties, and hierarchy.

use crate::element::{
    Attachment, Component, ComponentId, Connector, ConnectorId, ElementRef, Port, PortId, Role,
    RoleId,
};
use crate::key::Key;
use crate::property::PropertyMap;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

/// The property-change journal carried by a [`System`].
///
/// Every property write that goes through the model-update path (the
/// journaled setters below and the style operators built on them)
/// records a `(element, key)` dirty entry tagged with the current epoch;
/// structural mutations (add/remove of components, connectors, ports, roles,
/// attachments) set a conservative *structural* flag instead of tracking
/// fine-grained entries. Dirty entries live in ordered sets, so iteration —
/// and everything derived from it — is deterministic.
///
/// The journal is bookkeeping, not model state: it is excluded from the
/// owning system's equality.
#[derive(Debug, Clone, Default)]
struct ChangeJournal {
    /// Epoch stamp for the entries currently accumulating; bumped by each
    /// [`System::drain_changes`].
    epoch: u64,
    /// Dirty `(element, property)` pairs, in element-then-key order.
    dirty: BTreeSet<(ElementRef, Key)>,
    /// Dirty system-level properties, in name order.
    dirty_system: BTreeSet<Key>,
    /// True when a structural mutation happened since the last drain.
    structural: bool,
}

/// The batch of changes accumulated since the previous
/// [`System::drain_changes`] call, tagged with the epoch it covers.
#[derive(Debug, Clone, Default)]
pub struct ModelDelta {
    /// The journal epoch these entries were recorded under.
    pub epoch: u64,
    /// Dirty `(element, property)` pairs, in element-then-key order.
    pub dirty: BTreeSet<(ElementRef, Key)>,
    /// Dirty system-level properties, in name order.
    pub dirty_system: BTreeSet<Key>,
    /// True when any structural mutation happened: consumers must fall back
    /// to a full re-scan.
    pub structural: bool,
}

impl ModelDelta {
    /// True when nothing changed at all since the previous drain.
    pub fn is_empty(&self) -> bool {
        !self.structural && self.dirty.is_empty() && self.dirty_system.is_empty()
    }
}

/// Errors raised by model manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Component id not present in the system.
    UnknownComponent(ComponentId),
    /// Connector id not present in the system.
    UnknownConnector(ConnectorId),
    /// Port id not present in the system.
    UnknownPort(PortId),
    /// Role id not present in the system.
    UnknownRole(RoleId),
    /// A component with this name already exists.
    DuplicateName(String),
    /// The port or role is already attached.
    AlreadyAttached(PortId, RoleId),
    /// No such attachment exists.
    NotAttached(PortId, RoleId),
    /// The referenced component name was not found.
    NameNotFound(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownComponent(id) => write!(f, "unknown component #{}", id.0),
            ModelError::UnknownConnector(id) => write!(f, "unknown connector #{}", id.0),
            ModelError::UnknownPort(id) => write!(f, "unknown port #{}", id.0),
            ModelError::UnknownRole(id) => write!(f, "unknown role #{}", id.0),
            ModelError::DuplicateName(n) => write!(f, "duplicate element name: {n}"),
            ModelError::AlreadyAttached(p, r) => {
                write!(f, "port #{} / role #{} already attached", p.0, r.0)
            }
            ModelError::NotAttached(p, r) => {
                write!(f, "port #{} / role #{} not attached", p.0, r.0)
            }
            ModelError::NameNotFound(n) => write!(f, "no element named {n}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A set of element ids, as a bitset. A bulk removal asks "is this one going?"
/// once per role and per attachment it sweeps, and hashing each id there costs
/// more than the sweep.
#[derive(Default)]
pub(crate) struct IdSet(Vec<u64>);

impl IdSet {
    /// Adds `id`; false when it was already in the set.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Whether `id` is in the set.
    pub(crate) fn contains(&self, id: u32) -> bool {
        (self.0.get(id as usize / 64).copied().unwrap_or(0) >> (id % 64)) & 1 == 1
    }
}

/// Drops `value` from `index[key]`, and the entry along with its last value.
fn unlink<K: Hash + Eq, V: PartialEq>(index: &mut HashMap<K, Vec<V>>, key: K, value: V) {
    if let Some(values) = index.get_mut(&key) {
        values.retain(|v| *v != value);
        if values.is_empty() {
            index.remove(&key);
        }
    }
}

/// The architectural model: components, connectors, ports, roles, and
/// attachments, plus system-level properties (e.g. task-layer thresholds).
///
/// Name lookups (`component_by_name` and friends) are O(1) through interned
/// [`Key`] indices — the model update path resolves thousands of gauge
/// readings per control tick. Element names are immutable once added
/// (nothing in the workspace renames in place; use remove + add), which is
/// what keeps the indices trivially consistent.
///
/// Attachment adjacency (`roles_attached_to_port`, `attached`, …) is indexed
/// too, so *finding* an element never scans. *Removing* one does:
/// `attachments` and `Connector::roles` are ordered vectors, and dropping
/// entries from them is a sweep. A bulk repair pays that sweep once per
/// operation, not once per member:
/// [`ModelOp::MoveClientGroup`](crate::ModelOp::MoveClientGroup) removes all
/// its members' stale roles in one pass over each touched connector's roles
/// and one over `attachments`, whatever the class size.
/// The `attachments` vector stays the canonical (ordered) representation; the
/// indices mirror it and preserve its relative order — derived data, so
/// equality skips them.
#[derive(Debug, Clone, Default)]
pub struct System {
    /// The system's name.
    pub name: String,
    /// System-level properties (e.g. `maxLatency`, `maxServerLoad`,
    /// `minBandwidth` set by the task layer).
    pub properties: PropertyMap,
    components: BTreeMap<ComponentId, Component>,
    connectors: BTreeMap<ConnectorId, Connector>,
    ports: BTreeMap<PortId, Port>,
    roles: BTreeMap<RoleId, Role>,
    attachments: Vec<Attachment>,
    next_id: u32,
    component_names: HashMap<Key, ComponentId>,
    connector_names: HashMap<Key, ConnectorId>,
    /// First (lowest-id) role carrying each name plus how many roles carry
    /// it — role names are not enforced unique, and lookups keep the
    /// historic first-match semantics. The count makes removal O(1) for
    /// unique names (the overwhelmingly common case); a promotion scan runs
    /// only when duplicates actually exist.
    role_names: HashMap<Key, (RoleId, u32)>,
    /// Roles attached to each port, in attachment order.
    attachments_by_port: HashMap<PortId, Vec<RoleId>>,
    /// Ports attached to each role, in attachment order.
    attachments_by_role: HashMap<RoleId, Vec<PortId>>,
    /// Change journal feeding incremental constraint checking. Like the name
    /// indices this is derived bookkeeping: excluded from equality.
    journal: ChangeJournal,
}

impl PartialEq for System {
    // Semantic fields only: the name and adjacency indices are derived data
    // (and e.g. an emptied-then-removed index entry vs a never-created one
    // must not make two otherwise identical models compare unequal).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.properties == other.properties
            && self.components == other.components
            && self.connectors == other.connectors
            && self.ports == other.ports
            && self.roles == other.roles
            && self.attachments == other.attachments
            && self.next_id == other.next_id
    }
}

impl System {
    /// Creates an empty system with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        System {
            name: name.into(),
            ..Default::default()
        }
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    // ---- change journal --------------------------------------------------

    /// Takes the batch of changes accumulated since the previous drain and
    /// opens the next journal epoch. The incremental constraint checker
    /// calls this once per check.
    pub fn drain_changes(&mut self) -> ModelDelta {
        let delta = ModelDelta {
            epoch: self.journal.epoch,
            dirty: std::mem::take(&mut self.journal.dirty),
            dirty_system: std::mem::take(&mut self.journal.dirty_system),
            structural: std::mem::replace(&mut self.journal.structural, false),
        };
        self.journal.epoch += 1;
        delta
    }

    // ---- components ------------------------------------------------------

    /// Adds a top-level component of the given type.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        ctype: impl Into<String>,
    ) -> Result<ComponentId, ModelError> {
        let name = name.into();
        let key = Key::new(&name);
        if self.component_names.contains_key(&key) {
            return Err(ModelError::DuplicateName(name));
        }
        let id = ComponentId(self.fresh_id());
        self.journal.structural = true;
        self.component_names.insert(key, id);
        self.components.insert(
            id,
            Component {
                name,
                ctype: ctype.into(),
                properties: PropertyMap::new(),
                ports: Vec::new(),
                parent: None,
                children: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Adds a component inside another component's representation (e.g. a
    /// replicated server inside its server group).
    pub fn add_child_component(
        &mut self,
        parent: ComponentId,
        name: impl Into<String>,
        ctype: impl Into<String>,
    ) -> Result<ComponentId, ModelError> {
        self.check_component(parent)?;
        let id = self.add_component(name, ctype)?;
        self.components.get_mut(&id).expect("just inserted").parent = Some(parent);
        self.components
            .get_mut(&parent)
            .expect("checked above")
            .children
            .push(id);
        Ok(id)
    }

    /// Removes a component, its ports, their attachments, and (recursively)
    /// its children.
    pub fn remove_component(&mut self, id: ComponentId) -> Result<(), ModelError> {
        self.check_component(id)?;
        self.journal.structural = true;
        // Remove children first.
        let children = self.components[&id].children.clone();
        for child in children {
            // A child may already have been removed explicitly.
            if self.components.contains_key(&child) {
                self.remove_component(child)?;
            }
        }
        let comp = self.components.remove(&id).expect("checked above");
        self.component_names.remove(&Key::new(&comp.name));
        let mut any_attached = false;
        for port in &comp.ports {
            any_attached |= self.unindex_port_attachments(*port);
            self.ports.remove(port);
        }
        if any_attached {
            let ports = &self.ports;
            self.attachments.retain(|a| ports.contains_key(&a.port));
        }
        if let Some(parent) = comp.parent {
            if let Some(p) = self.components.get_mut(&parent) {
                p.children.retain(|c| *c != id);
            }
        }
        Ok(())
    }

    /// Looks up a component by id.
    pub fn component(&self, id: ComponentId) -> Result<&Component, ModelError> {
        self.components
            .get(&id)
            .ok_or(ModelError::UnknownComponent(id))
    }

    /// Mutable access to a component.
    pub fn component_mut(&mut self, id: ComponentId) -> Result<&mut Component, ModelError> {
        self.components
            .get_mut(&id)
            .ok_or(ModelError::UnknownComponent(id))
    }

    fn check_component(&self, id: ComponentId) -> Result<(), ModelError> {
        self.component(id).map(|_| ())
    }

    /// Finds a component by name.
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        self.component_by_key(Key::new(name))
    }

    /// Finds a component by pre-interned name key (the hot-path variant: no
    /// interner access, one pointer-hash lookup).
    pub fn component_by_key(&self, key: Key) -> Option<ComponentId> {
        self.component_names.get(&key).copied()
    }

    /// Iterates over all components in id order.
    pub fn components(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components.iter().map(|(id, c)| (*id, c))
    }

    /// Components whose type matches `ctype`.
    pub fn components_of_type<'a>(
        &'a self,
        ctype: &'a str,
    ) -> impl Iterator<Item = (ComponentId, &'a Component)> + 'a {
        self.components().filter(move |(_, c)| c.ctype == ctype)
    }

    /// The children (representation members) of a component.
    pub fn children_of(&self, id: ComponentId) -> Result<Vec<ComponentId>, ModelError> {
        Ok(self.component(id)?.children.clone())
    }

    // ---- connectors ------------------------------------------------------

    /// Adds a connector of the given type.
    pub fn add_connector(
        &mut self,
        name: impl Into<String>,
        ctype: impl Into<String>,
    ) -> Result<ConnectorId, ModelError> {
        let name = name.into();
        let key = Key::new(&name);
        if self.connector_names.contains_key(&key) {
            return Err(ModelError::DuplicateName(name));
        }
        let id = ConnectorId(self.fresh_id());
        self.journal.structural = true;
        self.connector_names.insert(key, id);
        self.connectors.insert(
            id,
            Connector {
                name,
                ctype: ctype.into(),
                properties: PropertyMap::new(),
                roles: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Looks up a connector by id.
    pub fn connector(&self, id: ConnectorId) -> Result<&Connector, ModelError> {
        self.connectors
            .get(&id)
            .ok_or(ModelError::UnknownConnector(id))
    }

    /// Mutable access to a connector.
    pub fn connector_mut(&mut self, id: ConnectorId) -> Result<&mut Connector, ModelError> {
        self.connectors
            .get_mut(&id)
            .ok_or(ModelError::UnknownConnector(id))
    }

    /// Finds a connector by name.
    pub fn connector_by_name(&self, name: &str) -> Option<ConnectorId> {
        self.connector_by_key(Key::new(name))
    }

    /// Finds a connector by pre-interned name key.
    pub fn connector_by_key(&self, key: Key) -> Option<ConnectorId> {
        self.connector_names.get(&key).copied()
    }

    /// Iterates over all connectors in id order.
    pub fn connectors(&self) -> impl Iterator<Item = (ConnectorId, &Connector)> {
        self.connectors.iter().map(|(id, c)| (*id, c))
    }

    // ---- ports and roles -------------------------------------------------

    /// Adds a port to a component.
    pub fn add_port(
        &mut self,
        owner: ComponentId,
        name: impl Into<String>,
        ptype: impl Into<String>,
    ) -> Result<PortId, ModelError> {
        self.check_component(owner)?;
        let id = PortId(self.fresh_id());
        self.journal.structural = true;
        self.ports.insert(
            id,
            Port {
                name: name.into(),
                ptype: ptype.into(),
                properties: PropertyMap::new(),
                owner,
            },
        );
        self.components
            .get_mut(&owner)
            .expect("checked above")
            .ports
            .push(id);
        Ok(id)
    }

    /// Adds a role to a connector.
    pub fn add_role(
        &mut self,
        owner: ConnectorId,
        name: impl Into<String>,
        rtype: impl Into<String>,
    ) -> Result<RoleId, ModelError> {
        self.connector(owner)?;
        let name = name.into();
        let key = Key::new(&name);
        let id = RoleId(self.fresh_id());
        self.journal.structural = true;
        // First-wins: lookups return the lowest-id role with a given name,
        // as the pre-index linear scan did. Ids are monotonically assigned,
        // so an existing entry always has the lower id.
        self.role_names.entry(key).or_insert((id, 0)).1 += 1;
        self.roles.insert(
            id,
            Role {
                name,
                rtype: rtype.into(),
                properties: PropertyMap::new(),
                owner,
            },
        );
        self.connectors
            .get_mut(&owner)
            .expect("checked above")
            .roles
            .push(id);
        Ok(id)
    }

    /// Drops a removed role from the global name index, promoting the next
    /// lowest-id role with the same name if one exists. The duplicate count
    /// makes the common unique-name case O(1): the promotion scan only runs
    /// when other roles genuinely carry the same name.
    fn unindex_role(&mut self, id: RoleId, name: &str) {
        let key = Key::new(name);
        let Some(entry) = self.role_names.get_mut(&key) else {
            return;
        };
        entry.1 -= 1;
        if entry.1 == 0 {
            self.role_names.remove(&key);
        } else if entry.0 == id {
            if let Some((next, _)) = self.roles.iter().find(|(_, r)| r.name == name) {
                entry.0 = *next;
            }
        }
    }

    /// Drops every attachment of `role` from the adjacency indices (not the
    /// canonical list). Returns true if the role had any attachment — the
    /// caller uses that to skip the O(attachments) canonical-list sweep for
    /// the common remove-after-detach case.
    fn unindex_role_attachments(&mut self, role: RoleId) -> bool {
        let Some(ports) = self.attachments_by_role.remove(&role) else {
            return false;
        };
        for port in &ports {
            unlink(&mut self.attachments_by_port, *port, role);
        }
        !ports.is_empty()
    }

    /// Drops every attachment of `port` from the adjacency indices (not the
    /// canonical list). Returns true if the port had any attachment.
    fn unindex_port_attachments(&mut self, port: PortId) -> bool {
        let Some(roles) = self.attachments_by_port.remove(&port) else {
            return false;
        };
        for role in &roles {
            unlink(&mut self.attachments_by_role, *role, port);
        }
        !roles.is_empty()
    }

    /// Removes every role in `ids` (one listed twice counts once), with the
    /// attachments through them: one pass over each owning connector's `roles`
    /// and one over `attachments`, whatever `ids.len()` is. All or nothing: an
    /// unknown id is an error before anything changes. The model ends where
    /// removing the roles one at a time would leave it.
    pub(crate) fn remove_roles(&mut self, ids: &[RoleId]) -> Result<(), ModelError> {
        if let Some(unknown) = ids.iter().find(|id| !self.roles.contains_key(id)) {
            return Err(ModelError::UnknownRole(*unknown));
        }
        let mut doomed = IdSet::default();
        let mut owners = BTreeSet::new();
        let mut any_attached = false;
        for &id in ids {
            if !doomed.insert(id.0) {
                continue;
            }
            let role = self.roles.remove(&id).expect("checked above");
            self.journal.structural = true;
            // The name index promotes among the roles still in `self.roles`,
            // so the entries the sweeps below drop are already invisible to it.
            self.unindex_role(id, &role.name);
            any_attached |= self.unindex_role_attachments(id);
            owners.insert(role.owner);
        }
        for owner in owners {
            if let Some(owner) = self.connectors.get_mut(&owner) {
                owner.roles.retain(|role| !doomed.contains(role.0));
            }
        }
        if any_attached {
            self.attachments.retain(|a| !doomed.contains(a.role.0));
        }
        Ok(())
    }

    /// Finds the first (lowest-id) role with the given (interned) name.
    pub fn role_by_key(&self, key: Key) -> Option<RoleId> {
        self.role_names.get(&key).map(|(id, _)| *id)
    }

    /// Looks up a port by id.
    pub fn port(&self, id: PortId) -> Result<&Port, ModelError> {
        self.ports.get(&id).ok_or(ModelError::UnknownPort(id))
    }

    /// Mutable access to a port.
    pub fn port_mut(&mut self, id: PortId) -> Result<&mut Port, ModelError> {
        self.ports.get_mut(&id).ok_or(ModelError::UnknownPort(id))
    }

    /// Looks up a role by id.
    pub fn role(&self, id: RoleId) -> Result<&Role, ModelError> {
        self.roles.get(&id).ok_or(ModelError::UnknownRole(id))
    }

    /// Mutable access to a role.
    pub fn role_mut(&mut self, id: RoleId) -> Result<&mut Role, ModelError> {
        self.roles.get_mut(&id).ok_or(ModelError::UnknownRole(id))
    }

    /// Iterates over all roles in id order.
    pub fn roles(&self) -> impl Iterator<Item = (RoleId, &Role)> {
        self.roles.iter().map(|(id, r)| (*id, r))
    }

    /// Iterates over all ports in id order.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports.iter().map(|(id, p)| (*id, p))
    }

    // ---- attachments -----------------------------------------------------

    /// Attaches a component's port to a connector's role.
    pub fn attach(&mut self, port: PortId, role: RoleId) -> Result<(), ModelError> {
        self.port(port)?;
        self.role(role)?;
        if self.attached(port, role) {
            return Err(ModelError::AlreadyAttached(port, role));
        }
        self.journal.structural = true;
        self.attachments.push(Attachment { port, role });
        self.attachments_by_port.entry(port).or_default().push(role);
        self.attachments_by_role.entry(role).or_default().push(port);
        Ok(())
    }

    /// True if the given port and role are attached.
    pub fn attached(&self, port: PortId, role: RoleId) -> bool {
        self.attachments_by_port
            .get(&port)
            .is_some_and(|v| v.contains(&role))
    }

    /// The roles attached to the given port, in attachment order.
    pub fn roles_attached_to_port(&self, port: PortId) -> &[RoleId] {
        self.attachments_by_port
            .get(&port)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The component attached to the given role, if any (the first
    /// attachment in attachment order, matching the historic scan).
    pub fn component_attached_to_role(&self, role: RoleId) -> Option<ComponentId> {
        self.attachments_by_role
            .get(&role)
            .and_then(|ports| ports.first())
            .and_then(|p| self.ports.get(p))
            .map(|p| p.owner)
    }

    /// The roles attached to ports owned by the given component, in
    /// per-port attachment order (ports in declaration order). Components in
    /// this workspace attach through a single port, so this matches the
    /// historic global attachment-order scan.
    pub fn roles_of_component(&self, id: ComponentId) -> Vec<RoleId> {
        let Ok(comp) = self.component(id) else {
            return Vec::new();
        };
        comp.ports
            .iter()
            .flat_map(|p| self.roles_attached_to_port(*p))
            .copied()
            .collect()
    }

    /// The connectors that the given component is attached to.
    pub fn connectors_of_component(&self, id: ComponentId) -> Vec<ConnectorId> {
        let mut out: Vec<ConnectorId> = self
            .roles_of_component(id)
            .into_iter()
            .filter_map(|r| self.roles.get(&r).map(|role| role.owner))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Components attached (through any role) to the given connector.
    pub fn components_attached_to_connector(&self, id: ConnectorId) -> Vec<ComponentId> {
        let Ok(conn) = self.connector(id) else {
            return Vec::new();
        };
        let mut out: Vec<ComponentId> = conn
            .roles
            .iter()
            .filter_map(|r| self.attachments_by_role.get(r))
            .flatten()
            .filter_map(|p| self.ports.get(p).map(|port| port.owner))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// True if two components share at least one connector.
    pub fn connected(&self, a: ComponentId, b: ComponentId) -> bool {
        let conns_a = self.connectors_of_component(a);
        let conns_b = self.connectors_of_component(b);
        conns_a.iter().any(|c| conns_b.contains(c))
    }

    // ---- property helpers ------------------------------------------------
    //
    // These setters are the journaled model-update path: they record a dirty
    // entry for every write (see [`ChangeJournal`]). The raw `*_mut`
    // accessors above bypass the journal and are intended for model
    // construction, before any incremental consumer attaches.

    /// Sets a property on any element, journaling the write.
    pub fn set_property(
        &mut self,
        element: ElementRef,
        name: &str,
        value: Value,
    ) -> Result<(), ModelError> {
        let key = Key::new(name);
        match element {
            ElementRef::Component(id) => self.component_mut(id)?.properties.set(key, value),
            ElementRef::Connector(id) => self.connector_mut(id)?.properties.set(key, value),
            ElementRef::Port(id) => self.port_mut(id)?.properties.set(key, value),
            ElementRef::Role(id) => self.role_mut(id)?.properties.set(key, value),
        }
        self.journal.dirty.insert((element, key));
        Ok(())
    }

    /// Compare-and-set on a component property: when the stored value is
    /// strictly equal to `value` the write is suppressed — the model is not
    /// touched and no dirty entry is recorded. Returns whether the model was
    /// written. This is the gauge no-op suppression path: at fleet scale
    /// most per-class representatives sit in steady state, and their
    /// readings repeat the stored value exactly.
    pub fn update_component_property(
        &mut self,
        id: ComponentId,
        key: Key,
        value: Value,
    ) -> Result<bool, ModelError> {
        let comp = self
            .components
            .get_mut(&id)
            .ok_or(ModelError::UnknownComponent(id))?;
        if comp.properties.get(key.as_str()) == Some(&value) {
            return Ok(false);
        }
        comp.properties.set(key, value);
        self.journal.dirty.insert((ElementRef::Component(id), key));
        Ok(true)
    }

    /// Compare-and-set on a role property; see
    /// [`update_component_property`](Self::update_component_property).
    pub fn update_role_property(
        &mut self,
        id: RoleId,
        key: Key,
        value: Value,
    ) -> Result<bool, ModelError> {
        let role = self.roles.get_mut(&id).ok_or(ModelError::UnknownRole(id))?;
        if role.properties.get(key.as_str()) == Some(&value) {
            return Ok(false);
        }
        role.properties.set(key, value);
        self.journal.dirty.insert((ElementRef::Role(id), key));
        Ok(true)
    }

    /// Gets a property from any element.
    pub fn get_property(&self, element: ElementRef, name: &str) -> Option<&Value> {
        match element {
            ElementRef::Component(id) => self.component(id).ok()?.properties.get(name),
            ElementRef::Connector(id) => self.connector(id).ok()?.properties.get(name),
            ElementRef::Port(id) => self.port(id).ok()?.properties.get(name),
            ElementRef::Role(id) => self.role(id).ok()?.properties.get(name),
        }
    }

    /// The display name of any element: borrowed from the model, or the
    /// element's id for one the model does not hold.
    pub fn element_name(&self, element: ElementRef) -> Cow<'_, str> {
        let name = match element {
            ElementRef::Component(id) => self.component(id).map(|c| &c.name),
            ElementRef::Connector(id) => self.connector(id).map(|c| &c.name),
            ElementRef::Port(id) => self.port(id).map(|p| &p.name),
            ElementRef::Role(id) => self.role(id).map(|r| &r.name),
        };
        name.map_or_else(
            |_| Cow::Owned(element.to_string()),
            |n| Cow::Borrowed(n.as_str()),
        )
    }

    /// Checks referential integrity of the whole graph (every port/role owner
    /// exists, every attachment references live elements, parent/child links
    /// are symmetric). Returns a list of human-readable problems.
    pub fn integrity_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (id, port) in &self.ports {
            if !self.components.contains_key(&port.owner) {
                errors.push(format!("port #{} owned by missing component", id.0));
            }
        }
        for (id, role) in &self.roles {
            if !self.connectors.contains_key(&role.owner) {
                errors.push(format!("role #{} owned by missing connector", id.0));
            }
        }
        for att in &self.attachments {
            if !self.ports.contains_key(&att.port) {
                errors.push(format!(
                    "attachment references missing port #{}",
                    att.port.0
                ));
            }
            if !self.roles.contains_key(&att.role) {
                errors.push(format!(
                    "attachment references missing role #{}",
                    att.role.0
                ));
            }
        }
        for (id, comp) in &self.components {
            for child in &comp.children {
                match self.components.get(child) {
                    None => errors.push(format!(
                        "component {} lists missing child #{}",
                        comp.name, child.0
                    )),
                    Some(c) if c.parent != Some(*id) => errors.push(format!(
                        "component {} child {} does not point back to parent",
                        comp.name, c.name
                    )),
                    _ => {}
                }
            }
            if let Some(parent) = comp.parent {
                if !self.components.contains_key(&parent) {
                    errors.push(format!("component {} has missing parent", comp.name));
                }
            }
        }
        errors
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The single-element mutators and lookup no operator calls: the
    /// references that bulk removal and the style operators are held to.
    impl System {
        /// Removes an attachment, with an O(attachments) sweep.
        pub(crate) fn detach(&mut self, port: PortId, role: RoleId) -> Result<(), ModelError> {
            if !self.attached(port, role) {
                return Err(ModelError::NotAttached(port, role));
            }
            self.journal.structural = true;
            self.attachments
                .retain(|a| !(a.port == port && a.role == role));
            unlink(&mut self.attachments_by_port, port, role);
            unlink(&mut self.attachments_by_role, role, port);
            Ok(())
        }

        /// Removes a role and any attachment it participates in.
        pub(crate) fn remove_role(&mut self, id: RoleId) -> Result<(), ModelError> {
            self.remove_roles(&[id])
        }

        /// The first role (in `Connector::roles` order) of the given
        /// connector carrying `name`.
        pub(crate) fn role_in_connector(
            &self,
            connector: ConnectorId,
            name: &str,
        ) -> Option<RoleId> {
            let roles = &self.connectors.get(&connector)?.roles;
            roles.iter().copied().find(|id| self.roles[id].name == name)
        }

        /// Sets a system-level property, journaling the write.
        pub(crate) fn set_system_property(&mut self, name: &str, value: impl Into<Value>) {
            let key = Key::new(name);
            self.properties.set(key, value);
            self.journal.dirty_system.insert(key);
        }
    }

    /// The companion of [`System::integrity_errors`] for the derived state:
    /// rebuilds every index from the canonical lists (`roles`,
    /// `Connector::roles`, `attachments`, …) and names each one that differs
    /// from what the mutators maintained. `PartialEq` skips the indices, so a
    /// rewrite that corrupts one still compares equal to its oracle.
    pub(crate) fn index_errors(sys: &System) -> Vec<String> {
        let mut errors = Vec::new();
        let mut check = |name: &str, same: bool| {
            if !same {
                errors.push(format!("{name} differs from its rebuild"));
            }
        };
        let component_names: HashMap<Key, ComponentId> = sys
            .components
            .iter()
            .map(|(id, c)| (Key::new(&c.name), *id))
            .collect();
        check("component_names", component_names == sys.component_names);
        let connector_names: HashMap<Key, ConnectorId> = sys
            .connectors
            .iter()
            .map(|(id, c)| (Key::new(&c.name), *id))
            .collect();
        check("connector_names", connector_names == sys.connector_names);
        // Ascending id order: the first role seen under a name is the lowest.
        let mut role_names: HashMap<Key, (RoleId, u32)> = HashMap::new();
        for (id, role) in &sys.roles {
            role_names.entry(Key::new(&role.name)).or_insert((*id, 0)).1 += 1;
        }
        check("role_names", role_names == sys.role_names);
        let mut listed = 0;
        for (conn_id, conn) in &sys.connectors {
            for id in &conn.roles {
                listed += 1;
                let owned = sys.roles.get(id).is_some_and(|role| role.owner == *conn_id);
                check("Connector::roles", owned);
            }
        }
        check("Connector::roles", listed == sys.roles.len());
        let mut by_port: HashMap<PortId, Vec<RoleId>> = HashMap::new();
        let mut by_role: HashMap<RoleId, Vec<PortId>> = HashMap::new();
        for a in &sys.attachments {
            by_port.entry(a.port).or_default().push(a.role);
            by_role.entry(a.role).or_default().push(a.port);
        }
        check("attachments_by_port", by_port == sys.attachments_by_port);
        check("attachments_by_role", by_role == sys.attachments_by_role);
        errors
    }

    fn client_server_system() -> (System, ComponentId, ComponentId, ConnectorId) {
        let mut sys = System::new("demo");
        let client = sys.add_component("User1", "ClientT").unwrap();
        let group = sys.add_component("ServerGrp1", "ServerGroupT").unwrap();
        let conn = sys.add_connector("Conn1", "ServiceConnT").unwrap();
        let cport = sys.add_port(client, "request", "RequestT").unwrap();
        let gport = sys.add_port(group, "serve", "ServeT").unwrap();
        let crole = sys.add_role(conn, "clientSide", "ClientRoleT").unwrap();
        let grole = sys.add_role(conn, "serverSide", "ServerRoleT").unwrap();
        sys.attach(cport, crole).unwrap();
        sys.attach(gport, grole).unwrap();
        (sys, client, group, conn)
    }

    #[test]
    fn build_and_query_graph() {
        let (sys, client, group, conn) = client_server_system();
        assert!(sys.connected(client, group));
        assert_eq!(sys.connectors_of_component(client), vec![conn]);
        let attached = sys.components_attached_to_connector(conn);
        assert!(attached.contains(&client) && attached.contains(&group));
        assert_eq!(sys.components().count(), 2);
        assert_eq!(sys.connectors().count(), 1);
        assert!(sys.integrity_errors().is_empty());
    }

    #[test]
    fn duplicate_component_names_rejected() {
        let mut sys = System::new("demo");
        sys.add_component("X", "ClientT").unwrap();
        assert!(matches!(
            sys.add_component("X", "ClientT"),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn children_track_representation_members() {
        let mut sys = System::new("demo");
        let group = sys.add_component("ServerGrp1", "ServerGroupT").unwrap();
        let s1 = sys
            .add_child_component(group, "Server1", "ServerT")
            .unwrap();
        let s2 = sys
            .add_child_component(group, "Server2", "ServerT")
            .unwrap();
        assert_eq!(sys.children_of(group).unwrap(), vec![s1, s2]);
        assert_eq!(sys.component(s1).unwrap().parent, Some(group));
        // Removing a child updates the parent's list.
        sys.remove_component(s1).unwrap();
        assert_eq!(sys.children_of(group).unwrap(), vec![s2]);
        assert!(sys.integrity_errors().is_empty());
    }

    #[test]
    fn removing_parent_removes_children() {
        let mut sys = System::new("demo");
        let group = sys.add_component("ServerGrp1", "ServerGroupT").unwrap();
        let s1 = sys
            .add_child_component(group, "Server1", "ServerT")
            .unwrap();
        sys.remove_component(group).unwrap();
        assert!(sys.component(s1).is_err());
        assert_eq!(sys.components().count(), 0);
    }

    #[test]
    fn removing_component_cleans_attachments() {
        let (mut sys, client, _group, conn) = client_server_system();
        sys.remove_component(client).unwrap();
        // The connector still exists but no attachment references the client.
        assert_eq!(sys.components_attached_to_connector(conn).len(), 1);
        assert!(sys.integrity_errors().is_empty());
    }

    #[test]
    fn detach_then_attach_elsewhere() {
        let (mut sys, client, _group, conn) = client_server_system();
        let port = sys.component(client).unwrap().ports[0];
        let role = sys.roles_of_component(client)[0];
        sys.detach(port, role).unwrap();
        assert!(!sys.attached(port, role));
        // A second detach fails.
        assert!(matches!(
            sys.detach(port, role),
            Err(ModelError::NotAttached(_, _))
        ));
        // Attach to a new connector.
        let conn2 = sys.add_connector("Conn2", "ServiceConnT").unwrap();
        let role2 = sys.add_role(conn2, "clientSide", "ClientRoleT").unwrap();
        sys.attach(port, role2).unwrap();
        assert_eq!(sys.connectors_of_component(client), vec![conn2]);
        assert_ne!(conn, conn2);
    }

    #[test]
    fn double_attach_rejected() {
        let (mut sys, client, ..) = client_server_system();
        let port = sys.component(client).unwrap().ports[0];
        let role = sys.roles_of_component(client)[0];
        assert!(matches!(
            sys.attach(port, role),
            Err(ModelError::AlreadyAttached(_, _))
        ));
    }

    #[test]
    fn properties_on_all_element_kinds() {
        let (mut sys, client, _group, conn) = client_server_system();
        let port = sys.component(client).unwrap().ports[0];
        let role = sys.connector(conn).unwrap().roles[0];
        sys.set_property(
            ElementRef::Component(client),
            "averageLatency",
            Value::Float(1.2),
        )
        .unwrap();
        sys.set_property(ElementRef::Connector(conn), "delay", Value::Float(0.1))
            .unwrap();
        sys.set_property(ElementRef::Port(port), "protocol", Value::Str("rmi".into()))
            .unwrap();
        sys.set_property(ElementRef::Role(role), "bandwidth", Value::Float(5e6))
            .unwrap();
        assert_eq!(
            sys.get_property(ElementRef::Component(client), "averageLatency"),
            Some(&Value::Float(1.2))
        );
        assert_eq!(
            sys.get_property(ElementRef::Role(role), "bandwidth"),
            Some(&Value::Float(5e6))
        );
        assert_eq!(
            sys.get_property(ElementRef::Component(client), "missing"),
            None
        );
    }

    #[test]
    fn components_of_type_filters() {
        let (sys, ..) = client_server_system();
        assert_eq!(sys.components_of_type("ClientT").count(), 1);
        assert_eq!(sys.components_of_type("ServerGroupT").count(), 1);
        assert_eq!(sys.components_of_type("ServerT").count(), 0);
    }

    #[test]
    fn lookup_by_name() {
        let (sys, client, ..) = client_server_system();
        assert_eq!(sys.component_by_name("User1"), Some(client));
        assert_eq!(sys.component_by_name("nope"), None);
        assert!(sys.connector_by_name("Conn1").is_some());
        assert_eq!(sys.element_name(ElementRef::Component(client)), "User1");
    }

    #[test]
    fn indices_survive_every_structural_removal() {
        let (mut sys, client, group, conn) = client_server_system();
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        // Two more roles under one name: removal has to promote the next.
        let twin_a = sys.add_role(conn, "twin", "ClientRoleT").unwrap();
        let twin_b = sys.add_role(conn, "twin", "ClientRoleT").unwrap();
        let port = sys.component(client).unwrap().ports[0];
        sys.attach(port, twin_b).unwrap();
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        sys.remove_role(twin_a).unwrap();
        assert_eq!(sys.role_in_connector(conn, "twin"), Some(twin_b));
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        sys.detach(port, twin_b).unwrap();
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        sys.remove_component(group).unwrap();
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        let roles = sys.connector(conn).unwrap().roles.clone();
        sys.remove_roles(&roles).unwrap();
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        assert!(sys.roles.is_empty() && sys.attachments.is_empty());
        assert!(sys.integrity_errors().is_empty());
    }

    #[test]
    fn remove_roles_is_one_removal_per_listed_role_or_nothing() {
        let (sys, _client, _group, conn) = client_server_system();
        let roles = sys.connector(conn).unwrap().roles.clone();
        // One at a time is the oracle; a role listed twice counts once.
        let mut one_by_one = sys.clone();
        for role in &roles {
            one_by_one.remove_role(*role).unwrap();
        }
        let mut batch = sys.clone();
        batch.remove_roles(&[roles[0], roles[1], roles[0]]).unwrap();
        assert_eq!(batch, one_by_one);
        assert_eq!(index_errors(&batch), Vec::<String>::new());
        // An unknown id fails before anything is removed.
        let mut untouched = sys.clone();
        untouched.drain_changes();
        let err = untouched.remove_roles(&[roles[0], RoleId(9_999)]);
        assert_eq!(err, Err(ModelError::UnknownRole(RoleId(9_999))));
        assert_eq!(untouched, sys);
        assert!(!untouched.journal.structural);
        // Removing nothing is not a structural change.
        untouched.remove_roles(&[]).unwrap();
        assert!(!untouched.journal.structural);
    }

    #[test]
    fn component_attached_to_role_resolves_owner() {
        let (sys, client, ..) = client_server_system();
        let role = sys.roles_of_component(client)[0];
        assert_eq!(sys.component_attached_to_role(role), Some(client));
    }

    /// Dirty entries (element-level plus system-level) pending in the journal.
    fn pending_changes(sys: &System) -> usize {
        sys.journal.dirty.len() + sys.journal.dirty_system.len()
    }

    #[test]
    fn journal_records_property_writes_and_drains() {
        let (mut sys, client, ..) = client_server_system();
        // Construction left structural changes pending; drain them first.
        assert!(sys.journal.structural);
        let construction = sys.drain_changes();
        assert!(construction.structural);
        assert!(!sys.journal.structural);

        let element = ElementRef::Component(client);
        sys.set_property(element, "averageLatency", Value::Float(1.5))
            .unwrap();
        sys.set_system_property("maxLatency", 2.0);
        assert_eq!(pending_changes(&sys), 2);
        let epoch_before = sys.journal.epoch;
        let delta = sys.drain_changes();
        assert_eq!(delta.epoch, epoch_before);
        assert!(!delta.structural);
        assert!(delta.dirty.contains(&(element, Key::new("averageLatency"))));
        assert!(delta.dirty_system.contains(&Key::new("maxLatency")));
        // Draining clears the journal and bumps the epoch.
        assert_eq!(pending_changes(&sys), 0);
        assert!(sys.drain_changes().is_empty());
        assert!(sys.journal.epoch > epoch_before);
    }

    #[test]
    fn structural_ops_mark_the_journal_structural() {
        let (mut sys, client, ..) = client_server_system();
        sys.drain_changes();
        sys.remove_component(client).unwrap();
        assert!(sys.journal.structural);
        assert!(sys.drain_changes().structural);
        assert!(!sys.journal.structural);
    }

    #[test]
    fn compare_and_set_suppresses_equal_writes() {
        let (mut sys, client, ..) = client_server_system();
        sys.drain_changes();
        let key = Key::new("load");
        assert!(sys
            .update_component_property(client, key, Value::Float(3.0))
            .unwrap());
        assert_eq!(pending_changes(&sys), 1);
        sys.drain_changes();
        // Re-writing the stored value is suppressed: no write, no dirt.
        assert!(!sys
            .update_component_property(client, key, Value::Float(3.0))
            .unwrap());
        assert_eq!(pending_changes(&sys), 0);
        // Strict equality: an Int 3 is not a Float 3.0.
        assert!(sys
            .update_component_property(client, key, Value::Int(3))
            .unwrap());
        assert_eq!(pending_changes(&sys), 1);
    }
}
