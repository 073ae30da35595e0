//! The architectural model of a running system: a graph of components and
//! connectors with attachments, properties, and hierarchy.

use crate::element::{
    Attachment, Component, ComponentId, Connector, ConnectorId, ElementRef, Port, PortId, Role,
    RoleId,
};
use crate::key::Key;
use crate::property::PropertyMap;
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

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

/// The end of a list, and a link not yet set.
const NONE: u32 = u32::MAX;

// The columns of an id's row in the id table.
/// The element's position in its kind's [`Slots`].
const SLOT: usize = 0;
/// A component's first member (port or child), by id.
const FIRST: usize = 1;
/// The next member of the component owning this port or holding this child.
const NEXT: usize = 2;
/// A port's (`EDGES`) or a role's (`EDGES + 1`) first attachment, by
/// position in `attachments`.
const EDGES: usize = 3;

/// One kind's elements in id order. A removed element leaves a tombstone
/// (`None`) that iteration skips; once tombstones outnumber live slots the
/// vector is compacted in order and the moved ids' slots rewritten.
#[derive(Debug, Clone)]
struct Slots<T> {
    items: Vec<(u32, Option<T>)>,
    dead: usize,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            items: Vec::new(),
            dead: 0,
        }
    }
}

impl<T> Slots<T> {
    /// The slot holding `id`; `None` for an id of another kind.
    fn position(&self, index: &[[u32; 5]], id: u32) -> Option<usize> {
        let slot = index.get(id as usize)?[SLOT] as usize;
        (self.items.get(slot)?.0 == id).then_some(slot)
    }

    fn get(&self, index: &[[u32; 5]], id: u32) -> Option<&T> {
        self.items[self.position(index, id)?].1.as_ref()
    }

    fn get_mut(&mut self, index: &[[u32; 5]], id: u32) -> Option<&mut T> {
        let slot = self.position(index, id)?;
        self.items[slot].1.as_mut()
    }

    fn push(&mut self, index: &mut [[u32; 5]], id: u32, item: T) {
        index[id as usize][SLOT] = self.items.len() as u32;
        self.items.push((id, Some(item)));
    }

    fn remove(&mut self, index: &mut [[u32; 5]], id: u32) -> Option<T> {
        let slot = self.position(index, id)?;
        let item = self.items[slot].1.take()?;
        self.dead += 1;
        if self.dead > self.items.len() - self.dead {
            self.items.retain(|(_, item)| item.is_some());
            self.dead = 0;
            for (slot, (id, _)) in self.items.iter().enumerate() {
                index[*id as usize][SLOT] = slot as u32;
            }
        }
        Some(item)
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let items = self.items.iter();
        items.filter_map(|(id, item)| Some((*id, item.as_ref()?)))
    }
}

/// An attachment of the canonical list, threaded onto its port's list
/// (`next[0]`) and its role's (`next[1]`); `None` once detached, until the
/// list is compacted.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    att: Option<Attachment>,
    next: [u32; 2],
}

/// A flat list the model threads through its id table and edges.
#[derive(Debug, Clone, Copy)]
enum List {
    /// A component's ports and children, in id order.
    Members(u32),
    /// A port's (side 0) or a role's (side 1) attachments, in the order
    /// they were made.
    Edges(u32, usize),
}

/// The architectural model: components, connectors, ports, roles, and
/// attachments, plus system-level properties (e.g. task-layer thresholds).
///
/// **Slots.** Ids come from one counter, so each kind's elements sit in a
/// vector appended in id order, and iterating one yields the id order the
/// determinism contract relies on. An id table gives each id its slot, so a
/// lookup is two array reads and a check that the slot holds that id (an id
/// of another kind fails it). Removing an element leaves a tombstone that
/// iteration skips; when a kind's tombstones outnumber its live slots, its
/// vector is compacted in order and the moved slots are rewritten in the
/// table. A 50,000-client model is a few dozen heap blocks, plus one
/// property list per element that has properties.
///
/// **Names** and types are interned [`Key`]s. Name lookups
/// (`component_by_name` and friends) are O(1) through `Key`-keyed maps, and a
/// name never interned misses without interning it. Element names are
/// immutable once added (remove and add to rename), which keeps the maps
/// consistent.
///
/// **Adjacency** lives in flat lists threaded through the id table: a
/// component's ports and children form one list in id order, and each port
/// and role heads a list of its attachments in the order they were made. A
/// connector's roles are a vector on the connector: one per group, not per
/// client. `attachments` is the canonical ordered list; a detached edge is a
/// tombstone until detached edges outnumber live ones, when the list is
/// compacted and every edge list rebuilt. Neither finding nor removing an
/// attachment sweeps the model:
/// [`ModelOp::MoveClientGroup`](crate::ModelOp::MoveClientGroup) costs one
/// pass over each touched connector's roles, whatever the class size.
///
/// Equality compares content: tombstones, capacity, the id table, the name
/// maps and the change journal are not part of it.
#[derive(Debug, Clone, Default)]
pub struct System {
    /// The system's name.
    pub name: String,
    /// System-level properties (e.g. `maxLatency`, `maxServerLoad`,
    /// `minBandwidth` set by the task layer).
    pub properties: PropertyMap,
    components: Slots<Component>,
    connectors: Slots<Connector>,
    ports: Slots<Port>,
    roles: Slots<Role>,
    attachments: Vec<Edge>,
    /// Detached edges still in `attachments`.
    dead_edges: usize,
    /// One row per id handed out (see [`SLOT`] and the columns after it):
    /// its length is the next id.
    index: Vec<[u32; 5]>,
    component_names: FxHashMap<Key, ComponentId>,
    connector_names: FxHashMap<Key, ConnectorId>,
    /// First (lowest-id) role carrying each name plus how many roles carry
    /// it — role names are not enforced unique, and lookups keep the
    /// historic first-match semantics. The count makes removal O(1) for
    /// unique names (the overwhelmingly common case); a promotion scan runs
    /// only when duplicates actually exist.
    role_names: FxHashMap<Key, (RoleId, u32)>,
    /// The change journal feeding incremental constraint checking: the
    /// batch [`drain_changes`](Self::drain_changes) hands out next. Every
    /// property write that goes through the model-update path (the journaled
    /// setters below and the style operators built on them) records an
    /// `(element, key)` dirty entry; structural mutations (adding or removing
    /// components, connectors, ports, roles, attachments) set a conservative
    /// *structural* flag instead of tracking fine-grained entries. Dirty
    /// entries live in ordered sets, so iteration — and everything derived
    /// from it — is deterministic. Like the name maps this is bookkeeping,
    /// not model state: excluded from equality.
    journal: ModelDelta,
}

impl PartialEq for System {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.properties == other.properties
            // Live elements only: tombstones and capacity are not content.
            && self.components.iter().eq(other.components.iter())
            && self.connectors.iter().eq(other.connectors.iter())
            && self.ports.iter().eq(other.ports.iter())
            && self.roles.iter().eq(other.roles.iter())
            && self.attachments().eq(other.attachments())
            && self.index.len() == other.index.len()
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
        self.journal.structural = true;
        self.index.push([NONE; 5]);
        self.index.len() as u32 - 1
    }

    // ---- flat lists --------------------------------------------------------

    /// The id table's row of `id`; an unset one for an id never handed out.
    fn row(&self, id: u32) -> [u32; 5] {
        self.index.get(id as usize).copied().unwrap_or([NONE; 5])
    }

    /// The link after `at` on `list`, or the list's head when `at` is `NONE`.
    fn link(&self, list: List, at: u32) -> u32 {
        match (list, at) {
            (List::Members(owner), NONE) => self.row(owner)[FIRST],
            (List::Members(_), at) => self.index[at as usize][NEXT],
            (List::Edges(end, side), NONE) => self.row(end)[EDGES + side],
            (List::Edges(_, side), at) => self.attachments[at as usize].next[side],
        }
    }

    fn link_mut(&mut self, list: List, at: u32) -> &mut u32 {
        match (list, at) {
            (List::Members(owner), NONE) => &mut self.index[owner as usize][FIRST],
            (List::Members(_), at) => &mut self.index[at as usize][NEXT],
            (List::Edges(end, side), NONE) => &mut self.index[end as usize][EDGES + side],
            (List::Edges(_, side), at) => &mut self.attachments[at as usize].next[side],
        }
    }

    /// The first item on `list`.
    fn head(&self, list: List) -> Option<u32> {
        Some(self.link(list, NONE)).filter(|&at| at != NONE)
    }

    /// The items on `list`, in order.
    fn walk(&self, list: List) -> impl Iterator<Item = u32> + '_ {
        let next = move |&at: &u32| Some(self.link(list, at)).filter(|&next| next != NONE);
        std::iter::successors(self.head(list), next)
    }

    /// Appends `item` to `list`.
    fn push_link(&mut self, list: List, item: u32) {
        let mut at = NONE;
        while self.link(list, at) != NONE {
            at = self.link(list, at);
        }
        *self.link_mut(list, at) = item;
    }

    /// Takes `item` off `list`.
    fn unlink(&mut self, list: List, item: u32) {
        let before = std::iter::once(NONE)
            .chain(self.walk(list))
            .find(|&at| self.link(list, at) == item);
        if let Some(at) = before {
            *self.link_mut(list, at) = self.link(list, item);
        }
    }

    /// The live attachments, in the order they were made.
    fn attachments(&self) -> impl Iterator<Item = Attachment> + '_ {
        self.attachments.iter().filter_map(|edge| edge.att)
    }

    /// The attachments of a port (`side` 0) or a role (`side` 1), in the
    /// order they were made.
    fn edges(&self, end: u32, side: usize) -> impl Iterator<Item = Attachment> + '_ {
        let edges = self.walk(List::Edges(end, side));
        edges.filter_map(|edge| self.attachments[edge as usize].att)
    }

    /// Detaches every attachment of a port (`side` 0) or a role (`side` 1).
    fn detach_all(&mut self, end: u32, side: usize) {
        while let Some(edge) = self.head(List::Edges(end, side)) {
            self.cut(edge);
        }
        self.compact_edges();
    }

    /// Detaches the edge at `edge`, leaving a tombstone.
    fn cut(&mut self, edge: u32) {
        let att = self.attachments[edge as usize].att.take();
        let Attachment { port, role } = att.expect("listed edges are live");
        self.unlink(List::Edges(port.0, 0), edge);
        self.unlink(List::Edges(role.0, 1), edge);
        self.dead_edges += 1;
    }

    /// Once detached edges outnumber live ones, compacts `attachments` and
    /// rebuilds every edge list, back to front.
    fn compact_edges(&mut self) {
        if self.dead_edges <= self.attachments.len() - self.dead_edges {
            return;
        }
        self.attachments.retain(|edge| edge.att.is_some());
        self.dead_edges = 0;
        let index = &mut self.index;
        for Attachment { port, role } in self.attachments.iter().filter_map(|edge| edge.att) {
            index[port.0 as usize][EDGES] = NONE;
            index[role.0 as usize][EDGES + 1] = NONE;
        }
        for (at, edge) in self.attachments.iter_mut().enumerate().rev() {
            let Attachment { port, role } = edge.att.expect("compacted");
            for (side, end) in [port.0, role.0].into_iter().enumerate() {
                let head = &mut index[end as usize][EDGES + side];
                edge.next[side] = std::mem::replace(head, at as u32);
            }
        }
    }

    // ---- change journal --------------------------------------------------

    /// Takes the batch of changes accumulated since the previous drain and
    /// opens the next journal epoch. The incremental constraint checker
    /// calls this once per check.
    pub fn drain_changes(&mut self) -> ModelDelta {
        let delta = std::mem::take(&mut self.journal);
        self.journal.epoch = delta.epoch + 1;
        delta
    }

    // ---- components ------------------------------------------------------

    /// Adds a top-level component of the given type.
    pub fn add_component(
        &mut self,
        name: impl Into<Key>,
        ctype: impl Into<Key>,
    ) -> Result<ComponentId, ModelError> {
        let name = name.into();
        if self.component_names.contains_key(&name) {
            return Err(ModelError::DuplicateName(name.to_string()));
        }
        let id = self.fresh_id();
        self.component_names.insert(name, ComponentId(id));
        let component = Component {
            name,
            ctype: ctype.into(),
            properties: PropertyMap::new(),
            parent: None,
        };
        self.components.push(&mut self.index, id, component);
        Ok(ComponentId(id))
    }

    /// Adds a component inside another component's representation (e.g. a
    /// replicated server inside its server group).
    pub fn add_child_component(
        &mut self,
        parent: ComponentId,
        name: impl Into<Key>,
        ctype: impl Into<Key>,
    ) -> Result<ComponentId, ModelError> {
        self.component(parent)?;
        let id = self.add_component(name, ctype)?;
        self.component_mut(id)?.parent = Some(parent);
        self.push_link(List::Members(parent.0), id.0);
        Ok(id)
    }

    /// Removes a component, its ports, their attachments, and (recursively)
    /// its children.
    pub fn remove_component(&mut self, id: ComponentId) -> Result<(), ModelError> {
        self.component(id)?;
        self.journal.structural = true;
        // Each removal takes its member off the list, so the head advances.
        while let Some(member) = self.head(List::Members(id.0)) {
            if self.component(ComponentId(member)).is_ok() {
                self.remove_component(ComponentId(member))?;
                continue;
            }
            self.detach_all(member, 0);
            self.unlink(List::Members(id.0), member);
            self.ports.remove(&mut self.index, member);
        }
        let comp = self.components.remove(&mut self.index, id.0);
        let comp = comp.expect("checked above");
        self.component_names.remove(&comp.name);
        if let Some(parent) = comp.parent {
            self.unlink(List::Members(parent.0), id.0);
        }
        Ok(())
    }

    /// Looks up a component by id.
    pub fn component(&self, id: ComponentId) -> Result<&Component, ModelError> {
        let found = self.components.get(&self.index, id.0);
        found.ok_or(ModelError::UnknownComponent(id))
    }

    /// Mutable access to a component.
    pub fn component_mut(&mut self, id: ComponentId) -> Result<&mut Component, ModelError> {
        let found = self.components.get_mut(&self.index, id.0);
        found.ok_or(ModelError::UnknownComponent(id))
    }

    /// Finds a component by name.
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        self.component_by_key(Key::find(name)?)
    }

    /// Finds a component by pre-interned name key (the hot-path variant: no
    /// interner access, one pointer-hash lookup).
    pub fn component_by_key(&self, key: Key) -> Option<ComponentId> {
        self.component_names.get(&key).copied()
    }

    /// Iterates over all components in id order.
    pub fn components(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components.iter().map(|(id, c)| (ComponentId(id), c))
    }

    /// Components whose type matches `ctype`.
    pub fn components_of_type<'a>(
        &'a self,
        ctype: &'a str,
    ) -> impl Iterator<Item = (ComponentId, &'a Component)> + 'a {
        let ctype = Key::find(ctype);
        self.components()
            .filter(move |(_, c)| Some(c.ctype) == ctype)
    }

    /// The children of a component in id order, read in place; none for an
    /// unknown id.
    pub fn children(&self, id: ComponentId) -> impl Iterator<Item = ComponentId> + '_ {
        let members = self.walk(List::Members(id.0)).map(ComponentId);
        members.filter(|child| self.component(*child).is_ok())
    }

    /// The ports of a component in id order; none for an unknown id.
    pub fn ports_of(&self, id: ComponentId) -> impl Iterator<Item = PortId> + '_ {
        let members = self.walk(List::Members(id.0)).map(PortId);
        members.filter(|port| self.port(*port).is_ok())
    }

    // ---- connectors ------------------------------------------------------

    /// Adds a connector of the given type.
    pub fn add_connector(
        &mut self,
        name: impl Into<Key>,
        ctype: impl Into<Key>,
    ) -> Result<ConnectorId, ModelError> {
        let name = name.into();
        if self.connector_names.contains_key(&name) {
            return Err(ModelError::DuplicateName(name.to_string()));
        }
        let id = self.fresh_id();
        self.connector_names.insert(name, ConnectorId(id));
        let connector = Connector {
            name,
            ctype: ctype.into(),
            properties: PropertyMap::new(),
            roles: Vec::new(),
        };
        self.connectors.push(&mut self.index, id, connector);
        Ok(ConnectorId(id))
    }

    /// Looks up a connector by id.
    pub fn connector(&self, id: ConnectorId) -> Result<&Connector, ModelError> {
        let found = self.connectors.get(&self.index, id.0);
        found.ok_or(ModelError::UnknownConnector(id))
    }

    /// Mutable access to a connector.
    pub fn connector_mut(&mut self, id: ConnectorId) -> Result<&mut Connector, ModelError> {
        let found = self.connectors.get_mut(&self.index, id.0);
        found.ok_or(ModelError::UnknownConnector(id))
    }

    /// Finds a connector by name.
    pub fn connector_by_name(&self, name: &str) -> Option<ConnectorId> {
        self.connector_by_key(Key::find(name)?)
    }

    /// Finds a connector by pre-interned name key.
    pub fn connector_by_key(&self, key: Key) -> Option<ConnectorId> {
        self.connector_names.get(&key).copied()
    }

    /// Iterates over all connectors in id order.
    pub fn connectors(&self) -> impl Iterator<Item = (ConnectorId, &Connector)> {
        self.connectors.iter().map(|(id, c)| (ConnectorId(id), c))
    }

    // ---- ports and roles -------------------------------------------------

    /// Adds a port to a component.
    pub fn add_port(
        &mut self,
        owner: ComponentId,
        name: impl Into<Key>,
        ptype: impl Into<Key>,
    ) -> Result<PortId, ModelError> {
        self.component(owner)?;
        let id = self.fresh_id();
        let port = Port {
            name: name.into(),
            ptype: ptype.into(),
            properties: PropertyMap::new(),
            owner,
        };
        self.ports.push(&mut self.index, id, port);
        self.push_link(List::Members(owner.0), id);
        Ok(PortId(id))
    }

    /// Adds a role to a connector.
    pub fn add_role(
        &mut self,
        owner: ConnectorId,
        name: impl Into<Key>,
        rtype: impl Into<Key>,
    ) -> Result<RoleId, ModelError> {
        self.connector(owner)?;
        let name = name.into();
        let id = RoleId(self.fresh_id());
        // First-wins: lookups return the lowest-id role with a given name,
        // as the pre-index linear scan did. Ids are monotonically assigned,
        // so an existing entry always has the lower id.
        self.role_names.entry(name).or_insert((id, 0)).1 += 1;
        let role = Role {
            name,
            rtype: rtype.into(),
            properties: PropertyMap::new(),
            owner,
        };
        self.roles.push(&mut self.index, id.0, role);
        self.connector_mut(owner)?.roles.push(id);
        Ok(id)
    }

    /// Drops a removed role from the global name index, promoting the next
    /// lowest-id role with the same name if one exists. The duplicate count
    /// makes the common unique-name case O(1): the promotion scan only runs
    /// when other roles genuinely carry the same name.
    fn unindex_role(&mut self, id: RoleId, name: Key) {
        let Some(entry) = self.role_names.get_mut(&name) else {
            return;
        };
        entry.1 -= 1;
        if entry.1 == 0 {
            self.role_names.remove(&name);
        } else if entry.0 == id {
            if let Some((next, _)) = self.roles.iter().find(|(_, r)| r.name == name) {
                entry.0 = RoleId(next);
            }
        }
    }

    /// Removes every role in `ids` (one listed twice counts once), with the
    /// attachments through them: one pass over each owning connector's
    /// `roles`, whatever `ids.len()` is. All or nothing: an unknown id is an
    /// error before anything changes. The model ends where removing the roles
    /// one at a time would leave it.
    pub(crate) fn remove_roles(&mut self, ids: &[RoleId]) -> Result<(), ModelError> {
        if let Some(unknown) = ids.iter().find(|id| self.role(**id).is_err()) {
            return Err(ModelError::UnknownRole(*unknown));
        }
        let mut doomed = IdSet::default();
        let mut owners = BTreeSet::new();
        for &id in ids {
            if !doomed.insert(id.0) {
                continue;
            }
            let role = self.roles.remove(&mut self.index, id.0);
            let role = role.expect("checked above");
            self.journal.structural = true;
            // The name index promotes among the roles still in `self.roles`.
            self.unindex_role(id, role.name);
            self.detach_all(id.0, 1);
            owners.insert(role.owner);
        }
        for owner in owners {
            if let Ok(owner) = self.connector_mut(owner) {
                owner.roles.retain(|role| !doomed.contains(role.0));
            }
        }
        Ok(())
    }

    /// Finds the first (lowest-id) role with the given (interned) name.
    pub fn role_by_key(&self, key: Key) -> Option<RoleId> {
        self.role_names.get(&key).map(|(id, _)| *id)
    }

    /// Looks up a port by id.
    pub fn port(&self, id: PortId) -> Result<&Port, ModelError> {
        let found = self.ports.get(&self.index, id.0);
        found.ok_or(ModelError::UnknownPort(id))
    }

    /// Looks up a role by id.
    pub fn role(&self, id: RoleId) -> Result<&Role, ModelError> {
        let found = self.roles.get(&self.index, id.0);
        found.ok_or(ModelError::UnknownRole(id))
    }

    /// Mutable access to a role.
    pub fn role_mut(&mut self, id: RoleId) -> Result<&mut Role, ModelError> {
        let found = self.roles.get_mut(&self.index, id.0);
        found.ok_or(ModelError::UnknownRole(id))
    }

    /// Iterates over all roles in id order.
    pub fn roles(&self) -> impl Iterator<Item = (RoleId, &Role)> {
        self.roles.iter().map(|(id, r)| (RoleId(id), r))
    }

    /// Iterates over all ports in id order.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports.iter().map(|(id, p)| (PortId(id), p))
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
        let edge = self.attachments.len() as u32;
        self.attachments.push(Edge {
            att: Some(Attachment { port, role }),
            next: [NONE; 2],
        });
        self.push_link(List::Edges(port.0, 0), edge);
        self.push_link(List::Edges(role.0, 1), edge);
        Ok(())
    }

    /// True if the given port and role are attached.
    pub fn attached(&self, port: PortId, role: RoleId) -> bool {
        self.roles_attached_to_port(port).any(|r| r == role)
    }

    /// The roles attached to the given port, in attachment order.
    pub fn roles_attached_to_port(&self, port: PortId) -> impl Iterator<Item = RoleId> + '_ {
        self.edges(port.0, 0).map(|a| a.role)
    }

    /// The component attached to the given role, if any (the first
    /// attachment in attachment order, matching the historic scan).
    pub fn component_attached_to_role(&self, role: RoleId) -> Option<ComponentId> {
        let port = self.edges(role.0, 1).next()?.port;
        self.port(port).ok().map(|p| p.owner)
    }

    /// The roles attached to ports owned by the given component, in
    /// per-port attachment order (ports in declaration order), read in
    /// place. Components in this workspace attach through a single port, so
    /// this matches the historic global attachment-order scan.
    pub fn roles_of_component(&self, id: ComponentId) -> impl Iterator<Item = RoleId> + '_ {
        self.ports_of(id)
            .flat_map(|p| self.roles_attached_to_port(p))
    }

    /// The connectors that the given component is attached to.
    pub fn connectors_of_component(&self, id: ComponentId) -> Vec<ConnectorId> {
        let mut out: Vec<ConnectorId> = self.attached_connectors(id).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The owner of every role attached to `id`'s ports, read in place: a
    /// connector once per attachment.
    fn attached_connectors(&self, id: ComponentId) -> impl Iterator<Item = ConnectorId> + '_ {
        let roles = self.roles_of_component(id);
        roles.filter_map(|r| Some(self.role(r).ok()?.owner))
    }

    /// Components attached (through any role) to the given connector.
    pub fn components_attached_to_connector(&self, id: ConnectorId) -> Vec<ComponentId> {
        let roles = self.connector(id).map_or(&[][..], |c| &c.roles);
        let edges = roles.iter().flat_map(|r| self.edges(r.0, 1));
        // Most roles hold one attachment: one allocation for the common case.
        let mut out = Vec::with_capacity(roles.len());
        out.extend(edges.filter_map(|a| Some(self.port(a.port).ok()?.owner)));
        out.sort();
        out.dedup();
        out
    }

    /// True if two components share at least one connector. Allocates
    /// nothing: it compares the connectors of `a`'s attachments with those
    /// of `b`'s, a handful each.
    pub fn connected(&self, a: ComponentId, b: ComponentId) -> bool {
        let theirs = || self.attached_connectors(b);
        self.attached_connectors(a)
            .any(|c| theirs().any(|d| d == c))
    }

    // ---- property helpers ------------------------------------------------
    //
    // These setters are the journaled model-update path: they record a dirty
    // entry for every write (see `System::journal`). The raw `*_mut`
    // accessors above bypass the journal and are intended for model
    // construction, before any incremental consumer attaches.

    fn properties_mut(&mut self, element: ElementRef) -> Result<&mut PropertyMap, ModelError> {
        Ok(match element {
            ElementRef::Component(id) => &mut self.component_mut(id)?.properties,
            ElementRef::Connector(id) => &mut self.connector_mut(id)?.properties,
            ElementRef::Port(id) => {
                let port = self.ports.get_mut(&self.index, id.0);
                &mut port.ok_or(ModelError::UnknownPort(id))?.properties
            }
            ElementRef::Role(id) => &mut self.role_mut(id)?.properties,
        })
    }

    /// Sets a property on any element, journaling the write.
    pub fn set_property(
        &mut self,
        element: ElementRef,
        name: &str,
        value: Value,
    ) -> Result<(), ModelError> {
        let key = Key::new(name);
        self.properties_mut(element)?.set(key, value);
        self.journal.dirty.insert((element, key));
        Ok(())
    }

    /// Compare-and-set on an element's property: when the stored value is
    /// strictly equal to `value` the write is suppressed — the model is not
    /// touched and no dirty entry is recorded. Returns whether the model was
    /// written. This is the gauge no-op suppression path: at fleet scale
    /// most per-class representatives sit in steady state, and their
    /// readings repeat the stored value exactly.
    pub fn update_property(
        &mut self,
        element: ElementRef,
        key: Key,
        value: Value,
    ) -> Result<bool, ModelError> {
        let properties = self.properties_mut(element)?;
        if properties.get(key.as_str()) == Some(&value) {
            return Ok(false);
        }
        properties.set(key, value);
        self.journal.dirty.insert((element, key));
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

    /// The name of any element: the model's key, or the element's id for
    /// one the model does not hold, interned (only that rare name allocates,
    /// once).
    pub fn element_name(&self, element: ElementRef) -> Key {
        let name = match element {
            ElementRef::Component(id) => self.component(id).map(|c| c.name),
            ElementRef::Connector(id) => self.connector(id).map(|c| c.name),
            ElementRef::Port(id) => self.port(id).map(|p| p.name),
            ElementRef::Role(id) => self.role(id).map(|r| r.name),
        };
        name.unwrap_or_else(|_| Key::new(&element.to_string()))
    }

    /// Checks referential integrity of the whole graph (every port/role owner
    /// and every parent exists, every child points back to its parent).
    /// Returns a list of human-readable problems. Attachments need no check:
    /// removing a port or a role detaches it.
    pub fn integrity_errors(&self) -> Vec<String> {
        let ports = self
            .ports()
            .filter(|(_, p)| self.component(p.owner).is_err());
        let mut errors: Vec<String> = ports
            .map(|(id, _)| format!("port #{} owned by missing component", id.0))
            .collect();
        let roles = self
            .roles()
            .filter(|(_, r)| self.connector(r.owner).is_err());
        errors.extend(roles.map(|(id, _)| format!("role #{} owned by missing connector", id.0)));
        for (id, comp) in self.components() {
            for child in self.children(id).filter_map(|c| self.component(c).ok()) {
                if child.parent != Some(id) {
                    let (name, child) = (comp.name, child.name);
                    errors.push(format!(
                        "component {name} child {child} does not point back to parent"
                    ));
                }
            }
            if comp.parent.is_some_and(|p| self.component(p).is_err()) {
                errors.push(format!("component {} has missing parent", comp.name));
            }
        }
        errors
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The single-element mutators and lookup no operator calls: the
    /// references that bulk removal and the style operators are held to.
    impl System {
        /// Removes an attachment.
        pub(crate) fn detach(&mut self, port: PortId, role: RoleId) -> Result<(), ModelError> {
            let edge = self.walk(List::Edges(port.0, 0)).find(|edge| {
                self.attachments[*edge as usize].att == Some(Attachment { port, role })
            });
            let edge = edge.ok_or(ModelError::NotAttached(port, role))?;
            self.journal.structural = true;
            self.cut(edge);
            self.compact_edges();
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
            let roles = &self.connector(connector).ok()?.roles;
            roles
                .iter()
                .copied()
                .find(|id| self.role(*id).unwrap().name == name)
        }

        /// Sets a system-level property, journaling the write.
        pub(crate) fn set_system_property(&mut self, name: &str, value: impl Into<Value>) {
            let key = Key::new(name);
            self.properties.set(key, value);
            self.journal.dirty_system.insert(key);
        }
    }

    /// The companion of [`System::integrity_errors`] for the derived state:
    /// rebuilds every index from the canonical content (each kind's live
    /// elements, their owners and parents, `Connector::roles`, the live
    /// attachments in order) and names each one that differs from what the
    /// mutators maintained: the name maps, the id table's slots, every
    /// member list and every edge list, and the tombstone counts. `PartialEq`
    /// skips all of these, so a rewrite that corrupts one still compares
    /// equal to its oracle.
    pub(crate) fn index_errors(sys: &System) -> Vec<String> {
        let mut errors = Vec::new();
        let mut check = |name: &str, same: bool| {
            if !same {
                errors.push(format!("{name} differs from its rebuild"));
            }
        };
        let component_names: FxHashMap<Key, ComponentId> =
            sys.components().map(|(id, c)| (c.name, id)).collect();
        check("component_names", component_names == sys.component_names);
        let connector_names: FxHashMap<Key, ConnectorId> =
            sys.connectors().map(|(id, c)| (c.name, id)).collect();
        check("connector_names", connector_names == sys.connector_names);
        // Ascending id order: the first role seen under a name is the lowest.
        let mut role_names: FxHashMap<Key, (RoleId, u32)> = FxHashMap::default();
        for (id, role) in sys.roles() {
            role_names.entry(role.name).or_insert((id, 0)).1 += 1;
        }
        check("role_names", role_names == sys.role_names);
        let mut listed = 0;
        for (conn_id, conn) in sys.connectors() {
            let ascending = conn.roles.windows(2).all(|w| w[0] < w[1]);
            check("Connector::roles order", ascending);
            for id in &conn.roles {
                listed += 1;
                let owned = sys.role(*id).is_ok_and(|role| role.owner == conn_id);
                check("Connector::roles", owned);
            }
        }
        check("Connector::roles", listed == sys.roles().count());

        // Each kind's slots: every live id's table entry names its slot, and
        // the tombstone count is the number of empty slots.
        fn slots<T>(kind: &Slots<T>, index: &[[u32; 5]]) -> bool {
            let dead = kind.items.iter().filter(|(_, item)| item.is_none()).count();
            let placed = kind.iter().all(|(id, _)| {
                let slot = index[id as usize][SLOT] as usize;
                kind.items[slot].0 == id
            });
            let ascending = kind.items.windows(2).all(|w| w[0].0 < w[1].0);
            dead == kind.dead && placed && ascending
        }
        check("component slots", slots(&sys.components, &sys.index));
        check("connector slots", slots(&sys.connectors, &sys.index));
        check("port slots", slots(&sys.ports, &sys.index));
        check("role slots", slots(&sys.roles, &sys.index));

        // Member lists: a component's live ports and children, ascending;
        // every other id heads none.
        let mut members: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (id, port) in sys.ports() {
            members.entry(port.owner.0).or_default().push(id.0);
        }
        for (id, comp) in sys.components() {
            if let Some(parent) = comp.parent {
                members.entry(parent.0).or_default().push(id.0);
            }
        }
        // A corrupt link may close a cycle: no list is longer than this.
        let bound = sys.index.len() + sys.attachments.len() + 1;
        let mut lists_match = true;
        for id in 0..sys.index.len() as u32 {
            let mut expected = members.remove(&id).unwrap_or_default();
            expected.sort_unstable();
            let walked: Vec<u32> = sys.walk(List::Members(id)).take(bound).collect();
            lists_match &= walked == expected;
        }
        check("member lists", lists_match);

        // Edge lists: each live port's and role's attachments in list order,
        // by position; every other id heads none.
        let mut ends: BTreeMap<(u32, usize), Vec<u32>> = BTreeMap::new();
        for (at, edge) in sys.attachments.iter().enumerate() {
            if let Some(Attachment { port, role }) = edge.att {
                ends.entry((port.0, 0)).or_default().push(at as u32);
                ends.entry((role.0, 1)).or_default().push(at as u32);
            }
        }
        let mut edges_match = true;
        for id in 0..sys.index.len() as u32 {
            for side in 0..2 {
                let expected = ends.remove(&(id, side)).unwrap_or_default();
                let walked: Vec<u32> = sys.walk(List::Edges(id, side)).take(bound).collect();
                edges_match &= walked == expected;
            }
        }
        check("edge lists", edges_match && ends.is_empty());
        let dead = sys.attachments.iter().filter(|e| e.att.is_none()).count();
        check("dead_edges", dead == sys.dead_edges);
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
        assert_eq!(sys.children(group).collect::<Vec<_>>(), vec![s1, s2]);
        assert_eq!(sys.component(s1).unwrap().parent, Some(group));
        // Removing a child updates the parent's list.
        sys.remove_component(s1).unwrap();
        assert_eq!(sys.children(group).collect::<Vec<_>>(), vec![s2]);
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
        let port = sys.ports_of(client).next().unwrap();
        let role = sys.roles_of_component(client).next().unwrap();
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
        let port = sys.ports_of(client).next().unwrap();
        let role = sys.roles_of_component(client).next().unwrap();
        assert!(matches!(
            sys.attach(port, role),
            Err(ModelError::AlreadyAttached(_, _))
        ));
    }

    #[test]
    fn properties_on_all_element_kinds() {
        let (mut sys, client, _group, conn) = client_server_system();
        let port = sys.ports_of(client).next().unwrap();
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
    fn a_missed_name_lookup_interns_nothing() {
        let (sys, ..) = client_server_system();
        assert_eq!(sys.component_by_name("never-made"), None);
        assert_eq!(sys.connector_by_name("never-made"), None);
        assert_eq!(Key::find("never-made"), None);
        assert_eq!(Key::find("User1"), Some(Key::new("User1")));
    }

    #[test]
    fn indices_survive_every_structural_removal() {
        let (mut sys, client, group, conn) = client_server_system();
        assert_eq!(index_errors(&sys), Vec::<String>::new());
        // Two more roles under one name: removal has to promote the next.
        let twin_a = sys.add_role(conn, "twin", "ClientRoleT").unwrap();
        let twin_b = sys.add_role(conn, "twin", "ClientRoleT").unwrap();
        let port = sys.ports_of(client).next().unwrap();
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
        assert!(sys.roles().next().is_none() && sys.attachments().next().is_none());
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
        let role = sys.roles_of_component(client).next().unwrap();
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
            .update_property(ElementRef::Component(client), key, Value::Float(3.0))
            .unwrap());
        assert_eq!(pending_changes(&sys), 1);
        sys.drain_changes();
        // Re-writing the stored value is suppressed: no write, no dirt.
        assert!(!sys
            .update_property(ElementRef::Component(client), key, Value::Float(3.0))
            .unwrap());
        assert_eq!(pending_changes(&sys), 0);
        // Strict equality: an Int 3 is not a Float 3.0.
        assert!(sys
            .update_property(ElementRef::Component(client), key, Value::Int(3))
            .unwrap());
        assert_eq!(pending_changes(&sys), 1);
    }

    /// The representation against a shadow kept in ordered maps: scripts of
    /// structural ops applied to both, and after every op the model must
    /// answer as the shadow does, keep its derived state consistent, and
    /// equal a model built fresh from the shadow's content.
    mod shadow {
        use super::*;
        use crate::changeset::{apply_op, ModelOp};
        use crate::style::{
            CLIENT_ROLE_T, CLIENT_T, REQUEST_PORT_T, SERVER_GROUP_T, SERVER_ROLE_T, SERVER_T,
            SERVE_PORT_T, SERVICE_CONN_T,
        };
        use proptest::TestRng;

        /// One structural op, addressed by raw ids: an id may be live, gone,
        /// of another kind or never handed out.
        #[derive(Debug, Clone)]
        enum Op {
            Component(&'static str, &'static str, Option<u32>),
            Port(u32, &'static str, &'static str),
            Connector(&'static str, &'static str),
            Role(u32, &'static str, &'static str),
            Attach(u32, u32),
            RemoveComponent(u32),
            RemoveRoles(Vec<u32>),
            Move(Vec<String>, &'static str),
            Mark(ElementRef, i64),
        }

        /// `(name, type, owner or parent)` per element, attachments in the
        /// order they were made, and the `mark` property per element.
        #[derive(Debug, Default)]
        struct Shadow {
            components: BTreeMap<u32, (Key, Key, Option<u32>)>,
            connectors: BTreeMap<u32, (Key, Key)>,
            ports: BTreeMap<u32, (Key, Key, u32)>,
            roles: BTreeMap<u32, (Key, Key, u32)>,
            attachments: Vec<(u32, u32)>,
            marks: BTreeMap<ElementRef, i64>,
            next_id: u32,
        }

        const COMPONENT_NAMES: [&str; 14] = [
            "ServerGrp1",
            "ServerGrp2",
            "ServerGrp3",
            "User1",
            "User2",
            "User3",
            "User4",
            "User5",
            "User6",
            "C0",
            "C1",
            "C2",
            "C3",
            "ServerGrp1.Server1",
        ];
        const COMPONENT_TYPES: [&str; 4] = [CLIENT_T, SERVER_GROUP_T, SERVER_T, "OtherT"];
        const CONNECTOR_NAMES: [&str; 5] = [
            "ServerGrp1.Conn",
            "ServerGrp2.Conn",
            "ServerGrp3.Conn",
            "K0",
            "K1",
        ];
        const PORT_NAMES: [&str; 3] = ["request", "serve", "p0"];
        const ROLE_NAMES: [&str; 5] = ["User1.role", "User2.role", "serverSide", "r0", "r1"];

        impl Shadow {
            fn fresh(&mut self) -> u32 {
                self.next_id += 1;
                self.next_id - 1
            }

            fn component_named(&self, name: &str) -> Option<u32> {
                let mut found = self.components.iter().filter(|(_, c)| c.0 == name);
                found.next().map(|(id, _)| *id)
            }

            fn connector_named(&self, name: &str) -> Option<u32> {
                let mut found = self.connectors.iter().filter(|(_, c)| c.0 == name);
                found.next().map(|(id, _)| *id)
            }

            fn ports_of(&self, owner: u32) -> Vec<u32> {
                let ports = self.ports.iter().filter(|(_, p)| p.2 == owner);
                ports.map(|(id, _)| *id).collect()
            }

            fn children(&self, parent: u32) -> Vec<u32> {
                let children = self.components.iter().filter(|(_, c)| c.2 == Some(parent));
                children.map(|(id, _)| *id).collect()
            }

            fn roles_of(&self, owner: u32) -> Vec<u32> {
                let roles = self.roles.iter().filter(|(_, r)| r.2 == owner);
                roles.map(|(id, _)| *id).collect()
            }

            fn roles_at(&self, port: u32) -> Vec<u32> {
                let at = self.attachments.iter().filter(|a| a.0 == port);
                at.map(|a| a.1).collect()
            }

            /// The owners of every port attached to one of `conn`'s roles.
            fn holders(&self, conn: u32) -> Vec<u32> {
                let roles = self.roles_of(conn);
                let at = self.attachments.iter().filter(|a| roles.contains(&a.1));
                let owners: BTreeSet<u32> = at.map(|a| self.ports[&a.0].2).collect();
                owners.into_iter().collect()
            }

            /// The owners of every role attached to one of `owner`'s ports.
            fn connectors_of(&self, owner: u32) -> Vec<u32> {
                let ports = self.ports_of(owner);
                let at = self.attachments.iter().filter(|a| ports.contains(&a.0));
                let owners: BTreeSet<u32> = at.map(|a| self.roles[&a.1].2).collect();
                owners.into_iter().collect()
            }

            fn add_component(
                &mut self,
                name: &str,
                ctype: &str,
                parent: Option<u32>,
            ) -> Result<u32, ModelError> {
                if let Some(p) = parent.filter(|p| !self.components.contains_key(p)) {
                    return Err(ModelError::UnknownComponent(ComponentId(p)));
                }
                if self.component_named(name).is_some() {
                    return Err(ModelError::DuplicateName(name.to_string()));
                }
                let id = self.fresh();
                self.components
                    .insert(id, (Key::new(name), Key::new(ctype), parent));
                Ok(id)
            }

            fn add_port(&mut self, owner: u32, name: &str, ptype: &str) -> Result<u32, ModelError> {
                if !self.components.contains_key(&owner) {
                    return Err(ModelError::UnknownComponent(ComponentId(owner)));
                }
                let id = self.fresh();
                self.ports
                    .insert(id, (Key::new(name), Key::new(ptype), owner));
                Ok(id)
            }

            fn add_connector(&mut self, name: &str, ctype: &str) -> Result<u32, ModelError> {
                if self.connector_named(name).is_some() {
                    return Err(ModelError::DuplicateName(name.to_string()));
                }
                let id = self.fresh();
                self.connectors
                    .insert(id, (Key::new(name), Key::new(ctype)));
                Ok(id)
            }

            fn add_role(&mut self, owner: u32, name: &str, rtype: &str) -> Result<u32, ModelError> {
                if !self.connectors.contains_key(&owner) {
                    return Err(ModelError::UnknownConnector(ConnectorId(owner)));
                }
                let id = self.fresh();
                self.roles
                    .insert(id, (Key::new(name), Key::new(rtype), owner));
                Ok(id)
            }

            fn attach(&mut self, port: u32, role: u32) -> Result<(), ModelError> {
                if !self.ports.contains_key(&port) {
                    return Err(ModelError::UnknownPort(PortId(port)));
                }
                if !self.roles.contains_key(&role) {
                    return Err(ModelError::UnknownRole(RoleId(role)));
                }
                if self.attachments.contains(&(port, role)) {
                    return Err(ModelError::AlreadyAttached(PortId(port), RoleId(role)));
                }
                self.attachments.push((port, role));
                Ok(())
            }

            fn remove_component(&mut self, id: u32) -> Result<(), ModelError> {
                if !self.components.contains_key(&id) {
                    return Err(ModelError::UnknownComponent(ComponentId(id)));
                }
                for child in self.children(id) {
                    self.remove_component(child)?;
                }
                let ports = self.ports_of(id);
                self.attachments.retain(|a| !ports.contains(&a.0));
                for port in ports {
                    self.ports.remove(&port);
                    self.marks.remove(&ElementRef::Port(PortId(port)));
                }
                self.components.remove(&id);
                self.marks.remove(&ElementRef::Component(ComponentId(id)));
                Ok(())
            }

            fn remove_roles(&mut self, ids: &[u32]) -> Result<(), ModelError> {
                if let Some(unknown) = ids.iter().find(|id| !self.roles.contains_key(id)) {
                    return Err(ModelError::UnknownRole(RoleId(*unknown)));
                }
                self.attachments.retain(|a| !ids.contains(&a.1));
                for id in ids {
                    self.roles.remove(id);
                    self.marks.remove(&ElementRef::Role(RoleId(*id)));
                }
                Ok(())
            }

            /// `ModelOp::MoveClientGroup` as its documentation states it:
            /// every check before any change, then the connector, the stale
            /// roles' removal, and one fresh role per member in list order.
            fn move_clients(&mut self, clients: &[String], to: &str) -> Result<(), ()> {
                let group = self.component_named(to).ok_or(())?;
                if self.components[&group].1 != SERVER_GROUP_T {
                    return Err(());
                }
                let (mut members, mut stale) = (Vec::new(), Vec::new());
                for client in clients {
                    let Some(id) = self.component_named(client) else {
                        continue;
                    };
                    let ports = self.ports_of(id).into_iter();
                    let mut request = ports.filter(|p| self.ports[p].0 == "request");
                    let port = request.next().ok_or(())?;
                    if members.iter().any(|(_, p)| *p == port) {
                        continue;
                    }
                    let old = self.roles_at(port).into_iter().find(|r| !stale.contains(r));
                    stale.extend(old);
                    members.push((client.clone(), port));
                }
                let serve = self
                    .ports_of(group)
                    .into_iter()
                    .find(|p| self.ports[p].0 == "serve");
                let conn_name = format!("{to}.Conn");
                let conn = match self.connector_named(&conn_name) {
                    Some(conn) => conn,
                    None => {
                        let serve = serve.ok_or(())?;
                        let conn = self.add_connector(&conn_name, SERVICE_CONN_T).unwrap();
                        let role = self.add_role(conn, "serverSide", SERVER_ROLE_T).unwrap();
                        self.attach(serve, role).unwrap();
                        conn
                    }
                };
                self.remove_roles(&stale).unwrap();
                for (client, port) in members {
                    let role = self.add_role(conn, &format!("{client}.role"), CLIENT_ROLE_T);
                    self.attach(port, role.unwrap()).unwrap();
                }
                Ok(())
            }

            fn live(&self, element: ElementRef) -> bool {
                match element {
                    ElementRef::Component(id) => self.components.contains_key(&id.0),
                    ElementRef::Connector(id) => self.connectors.contains_key(&id.0),
                    ElementRef::Port(id) => self.ports.contains_key(&id.0),
                    ElementRef::Role(id) => self.roles.contains_key(&id.0),
                }
            }

            /// A model built fresh to the shadow's content and next id: each
            /// id the shadow no longer holds is a throwaway component,
            /// removed as soon as it is added.
            fn build(&self) -> System {
                let mut sys = System::new("shadow");
                for id in 0..self.next_id {
                    let made = if let Some((name, ctype, parent)) = self.components.get(&id) {
                        match parent {
                            Some(p) => sys
                                .add_child_component(ComponentId(*p), *name, *ctype)
                                .map(|c| c.0),
                            None => sys.add_component(*name, *ctype).map(|c| c.0),
                        }
                    } else if let Some((name, ctype)) = self.connectors.get(&id) {
                        sys.add_connector(*name, *ctype).map(|c| c.0)
                    } else if let Some((name, ptype, owner)) = self.ports.get(&id) {
                        sys.add_port(ComponentId(*owner), *name, *ptype)
                            .map(|p| p.0)
                    } else if let Some((name, rtype, owner)) = self.roles.get(&id) {
                        sys.add_role(ConnectorId(*owner), *name, *rtype)
                            .map(|r| r.0)
                    } else {
                        let gap = sys.add_component(format!("~gap{id}"), "GapT").unwrap();
                        sys.remove_component(gap).map(|_| gap.0)
                    };
                    assert_eq!(made, Ok(id));
                }
                for (port, role) in &self.attachments {
                    sys.attach(PortId(*port), RoleId(*role)).unwrap();
                }
                for (element, mark) in &self.marks {
                    sys.set_property(*element, "mark", Value::Int(*mark))
                        .unwrap();
                }
                sys
            }
        }

        /// Applies `op` to both and requires the same outcome.
        fn apply(sys: &mut System, shadow: &mut Shadow, op: &Op) -> bool {
            let (model, mirror) = match op.clone() {
                Op::Component(name, ctype, parent) => (
                    match parent {
                        Some(p) => sys
                            .add_child_component(ComponentId(p), name, ctype)
                            .map(|c| c.0),
                        None => sys.add_component(name, ctype).map(|c| c.0),
                    },
                    shadow.add_component(name, ctype, parent),
                ),
                Op::Port(owner, name, ptype) => (
                    sys.add_port(ComponentId(owner), name, ptype).map(|p| p.0),
                    shadow.add_port(owner, name, ptype),
                ),
                Op::Connector(name, ctype) => (
                    sys.add_connector(name, ctype).map(|c| c.0),
                    shadow.add_connector(name, ctype),
                ),
                Op::Role(owner, name, rtype) => (
                    sys.add_role(ConnectorId(owner), name, rtype).map(|r| r.0),
                    shadow.add_role(owner, name, rtype),
                ),
                Op::Attach(port, role) => (
                    sys.attach(PortId(port), RoleId(role)).map(|_| 0),
                    shadow.attach(port, role).map(|_| 0),
                ),
                Op::RemoveComponent(id) => (
                    sys.remove_component(ComponentId(id)).map(|_| 0),
                    shadow.remove_component(id).map(|_| 0),
                ),
                Op::RemoveRoles(ids) => {
                    let typed: Vec<RoleId> = ids.iter().map(|id| RoleId(*id)).collect();
                    (
                        sys.remove_roles(&typed).map(|_| 0),
                        shadow.remove_roles(&ids).map(|_| 0),
                    )
                }
                Op::Move(clients, to) => {
                    let to_group = to.to_string();
                    let op = ModelOp::MoveClientGroup {
                        clients: clients.iter().map(Key::from).collect(),
                        to_group,
                    };
                    let applied = apply_op(sys, &op).is_ok();
                    assert_eq!(applied, shadow.move_clients(&clients, to).is_ok(), "{op:?}");
                    return applied;
                }
                Op::Mark(element, mark) => {
                    let live = shadow.live(element);
                    if live {
                        shadow.marks.insert(element, mark);
                    }
                    let set = sys.set_property(element, "mark", Value::Int(mark));
                    assert_eq!(set.is_ok(), live, "{op:?}");
                    return live;
                }
            };
            assert_eq!(model, mirror, "{op:?}");
            model.is_ok()
        }

        /// Everything the model answers, against the shadow.
        fn check(sys: &System, shadow: &Shadow) {
            let components: Vec<_> = sys
                .components()
                .map(|(id, c)| (id.0, (c.name, c.ctype, c.parent.map(|p| p.0))))
                .collect();
            assert!(components.into_iter().eq(shadow.components.clone()));
            let connectors: Vec<_> = sys
                .connectors()
                .map(|(id, c)| (id.0, (c.name, c.ctype)))
                .collect();
            assert!(connectors.into_iter().eq(shadow.connectors.clone()));
            let ports: Vec<_> = sys
                .ports()
                .map(|(id, p)| (id.0, (p.name, p.ptype, p.owner.0)))
                .collect();
            assert!(ports.into_iter().eq(shadow.ports.clone()));
            let roles: Vec<_> = sys
                .roles()
                .map(|(id, r)| (id.0, (r.name, r.rtype, r.owner.0)))
                .collect();
            assert!(roles.into_iter().eq(shadow.roles.clone()));
            let attachments: Vec<_> = sys.attachments().map(|a| (a.port.0, a.role.0)).collect();
            assert_eq!(attachments, shadow.attachments);

            for name in COMPONENT_NAMES {
                assert_eq!(
                    sys.component_by_name(name).map(|c| c.0),
                    shadow.component_named(name),
                    "{name}"
                );
            }
            for name in CONNECTOR_NAMES {
                assert_eq!(
                    sys.connector_by_name(name).map(|c| c.0),
                    shadow.connector_named(name),
                    "{name}"
                );
            }
            for name in ROLE_NAMES {
                let first = shadow
                    .roles
                    .iter()
                    .find(|(_, r)| r.0 == name)
                    .map(|(id, _)| *id);
                assert_eq!(
                    sys.role_by_key(Key::new(name)).map(|r| r.0),
                    first,
                    "{name}"
                );
            }

            for id in 0..shadow.next_id + 2 {
                let (component, port, role) = (ComponentId(id), PortId(id), RoleId(id));
                assert_eq!(
                    sys.component(component).is_ok(),
                    shadow.components.contains_key(&id)
                );
                assert_eq!(
                    sys.connector(ConnectorId(id)).is_ok(),
                    shadow.connectors.contains_key(&id)
                );
                assert_eq!(sys.port(port).is_ok(), shadow.ports.contains_key(&id));
                assert_eq!(sys.role(role).is_ok(), shadow.roles.contains_key(&id));
                let ports: Vec<u32> = sys.ports_of(component).map(|p| p.0).collect();
                assert_eq!(ports, shadow.ports_of(id), "ports of #{id}");
                let children: Vec<u32> = sys.children(component).map(|c| c.0).collect();
                assert_eq!(children, shadow.children(id), "children of #{id}");
                let roles: Vec<u32> = sys.roles_attached_to_port(port).map(|r| r.0).collect();
                assert_eq!(roles, shadow.roles_at(id), "roles at #{id}");
                let holder = shadow.attachments.iter().find(|a| a.1 == id);
                let holder = holder.map(|a| ComponentId(shadow.ports[&a.0].2));
                assert_eq!(
                    sys.component_attached_to_role(role),
                    holder,
                    "holder of #{id}"
                );
                if let Ok(conn) = sys.connector(ConnectorId(id)) {
                    let listed: Vec<u32> = conn.roles.iter().map(|r| r.0).collect();
                    assert_eq!(listed, shadow.roles_of(id), "roles of #{id}");
                }
                let holders = sys.components_attached_to_connector(ConnectorId(id));
                let holders: Vec<u32> = holders.iter().map(|c| c.0).collect();
                assert_eq!(holders, shadow.holders(id), "holders of #{id}");
                let conns = sys.connectors_of_component(component);
                let conns: Vec<u32> = conns.iter().map(|c| c.0).collect();
                assert_eq!(conns, shadow.connectors_of(id), "connectors of #{id}");
                let roles: Vec<u32> = sys.roles_of_component(component).map(|r| r.0).collect();
                let ports = shadow.ports_of(id).into_iter();
                let shadow_roles: Vec<u32> = ports.flat_map(|p| shadow.roles_at(p)).collect();
                assert_eq!(roles, shadow_roles, "roles of component #{id}");
            }
            // Two components are connected when their connector lists meet.
            let ids = 0..shadow.next_id + 2;
            let connectors: Vec<Vec<u32>> =
                ids.clone().map(|id| shadow.connectors_of(id)).collect();
            for a in ids.clone() {
                for b in ids.clone() {
                    let meet = connectors[a as usize]
                        .iter()
                        .any(|c| connectors[b as usize].contains(c));
                    let connected = sys.connected(ComponentId(a), ComponentId(b));
                    assert_eq!(connected, meet, "#{a} and #{b} connected");
                }
            }
            for (element, mark) in &shadow.marks {
                assert_eq!(sys.get_property(*element, "mark"), Some(&Value::Int(*mark)));
            }

            assert_eq!(index_errors(sys), Vec::<String>::new());
            assert_eq!(sys.integrity_errors(), Vec::<String>::new());
            assert_eq!(shadow.build(), *sys);
        }

        /// A raw id: live of the wanted kind most of the time, else any id
        /// up to two past the last one handed out.
        fn pick(rng: &mut TestRng, live: Vec<u32>, next_id: u32) -> u32 {
            let roll = rng.next_u64() as usize;
            match live.len() {
                n if n > 0 && !roll.is_multiple_of(5) => live[roll / 5 % n],
                _ => (roll / 5 % (next_id as usize + 2)) as u32,
            }
        }

        fn choose<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[rng.next_u64() as usize % from.len()]
        }

        fn op(rng: &mut TestRng, shadow: &Shadow) -> Op {
            let next = shadow.next_id;
            let components = || shadow.components.keys().copied().collect();
            let roles = || shadow.roles.keys().copied().collect();
            let name = choose(rng, &COMPONENT_NAMES);
            match rng.next_u64() % 12 {
                0 => Op::Component(name, choose(rng, &COMPONENT_TYPES), None),
                1 => {
                    let parent = pick(rng, components(), next);
                    Op::Component(name, SERVER_T, Some(parent))
                }
                2 => Op::Port(
                    pick(rng, components(), next),
                    choose(rng, &PORT_NAMES),
                    REQUEST_PORT_T,
                ),
                3 => Op::Connector(choose(rng, &CONNECTOR_NAMES), SERVICE_CONN_T),
                4 => {
                    let owner = pick(rng, shadow.connectors.keys().copied().collect(), next);
                    Op::Role(owner, choose(rng, &ROLE_NAMES), CLIENT_ROLE_T)
                }
                5 | 6 => {
                    let port = pick(rng, shadow.ports.keys().copied().collect(), next);
                    Op::Attach(port, pick(rng, roles(), next))
                }
                7 => Op::RemoveComponent(pick(rng, components(), next)),
                8 => {
                    let n = rng.next_u64() % 4;
                    Op::RemoveRoles((0..n).map(|_| pick(rng, roles(), next)).collect())
                }
                9 | 10 => {
                    let n = rng.next_u64() % 5;
                    let clients = (0..n).map(|_| choose(rng, &COMPONENT_NAMES[3..]).to_string());
                    let clients = clients.collect();
                    let to = choose(rng, &["ServerGrp1", "ServerGrp2", "ServerGrp3", "User1"]);
                    Op::Move(clients, to)
                }
                _ => {
                    let element = match rng.next_u64() % 4 {
                        0 => ElementRef::Component(ComponentId(pick(rng, components(), next))),
                        1 => ElementRef::Port(PortId(pick(
                            rng,
                            shadow.ports.keys().copied().collect(),
                            next,
                        ))),
                        2 => ElementRef::Connector(ConnectorId(pick(
                            rng,
                            shadow.connectors.keys().copied().collect(),
                            next,
                        ))),
                        _ => ElementRef::Role(RoleId(pick(rng, roles(), next))),
                    };
                    Op::Mark(element, (rng.next_u64() % 7) as i64)
                }
            }
        }

        /// Two groups with their serve ports and four clients with their
        /// request ports, the first three connected: the shape the style
        /// builds, so class moves apply.
        fn fleet() -> Vec<Op> {
            let mut ops = Vec::new();
            for g in [0, 1] {
                ops.push(Op::Component(COMPONENT_NAMES[g], SERVER_GROUP_T, None));
                ops.push(Op::Port(ops.len() as u32 - 1, "serve", SERVE_PORT_T));
            }
            for client in &COMPONENT_NAMES[3..7] {
                ops.push(Op::Component(client, CLIENT_T, None));
                ops.push(Op::Port(ops.len() as u32 - 1, "request", REQUEST_PORT_T));
            }
            let clients = ["User1", "User2", "User3"].map(String::from);
            ops.push(Op::Move(clients.to_vec(), "ServerGrp1"));
            ops
        }

        /// 200 scripts of up to 60 ops after the fleet: removals open
        /// tombstones and compactions in every kind and in `attachments`,
        /// and every check holds after every op.
        #[test]
        fn the_arena_answers_as_ordered_maps_do() {
            let (mut applied, mut removals) = (0, 0);
            for case in 0..200 {
                let mut rng = TestRng::deterministic("arena_shadow", case);
                let (mut sys, mut shadow) = (System::new("shadow"), Shadow::default());
                for op in fleet() {
                    assert!(apply(&mut sys, &mut shadow, &op), "{op:?}");
                }
                check(&sys, &shadow);
                for _ in 0..rng.next_u64() % 61 {
                    let op = op(&mut rng, &shadow);
                    let ok = apply(&mut sys, &mut shadow, &op);
                    applied += usize::from(ok);
                    removals += usize::from(
                        ok && matches!(
                            op,
                            Op::RemoveComponent(_) | Op::RemoveRoles(_) | Op::Move(..)
                        ),
                    );
                    check(&sys, &shadow);
                }
            }
            assert!(
                applied > 2_000 && removals > 500,
                "{applied} applied, {removals} removals"
            );
        }
    }
}
