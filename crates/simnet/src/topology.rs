//! Network topology: hosts, routers, and links.
//!
//! The paper's testbed (Figure 6) consists of five routers and eleven
//! machines connected by 10 Mbps links. The topology here is an undirected
//! graph; each link has a capacity (bits/second), a propagation latency, and
//! an optional *background load* that models competing traffic injected by the
//! experiment's bandwidth-competition program. A topology is built once and
//! never changes after: these are the links' *nominal* values, and a
//! [`Network`](crate::network::Network) over it keeps the live ones.
//!
//! **Routing: one tree per gateway class.** [`PathTable`] routes every path
//! by the lexicographic `(latency, hops)` Dijkstra of the source, and builds
//! far fewer trees than it has sources, because sources that hang off the
//! same *gateway* share one. That is exact, not an approximation:
//!
//! - *One link up.* Take a leaf `h` (one link, of latency `c`, to a node `a`
//!   that has more than one link). Dijkstra from `h` pops `h`, relaxes `a` to
//!   `(0.0 + c, 1)` and has nothing else queued. From there it is, step for
//!   step, the Dijkstra seeded at `a` with `(c, 1)`: the heap holds the same
//!   one entry, every later relaxation adds to the same distances in the same
//!   order, and ties break on the same `(latency, hops, node)` keys. The one
//!   difference is `h` itself: visited from the start in one run, settled as
//!   a leaf from `a` in the other, and a leaf relaxes nothing.
//! - *One more link up.* If `a`'s other links all end at leaves but one,
//!   which ends at `r` (an aggregation switch and its uplink router, or an
//!   edge router and its one core link), then popping `a` settles those
//!   leaves, relaxes `r` to `(c + c2, 2)` and again leaves one entry queued.
//!   So from `r` on, `h`'s Dijkstra is the one seeded at `r` with that
//!   distance, except inside the *stub* `S` = `a` and its leaves. The seeded
//!   run reaches `S` only through `r`; a node of `S` relaxes nothing but
//!   leaves of `S` and `r`, which is popped first. So every relaxation of a
//!   node outside `S` comes from a node outside `S`, in the same order with
//!   the same values in both runs, and by induction over the pops both trees
//!   agree on every node outside `S`.
//!
//! So all sources with the same gateway and the same seed bits — the class
//! key `(gateway, latency bits, hops)` — see the same tree outside their own
//! stubs, and [`PathTable`] builds it once. The latency bits matter through
//! rounding alone (`(c + c2) + x` need not equal `c + (c2 + x)`, which can
//! break a tie either way); the hop count shifts every hop count of the run
//! alike and decides no comparison, but keeps the seeded distances the
//! source's own. Inside a stub every path is the
//! unique tree path, and the shared tree holds it too: a stub node's parent
//! is its one link towards the gateway. So the path from `src` to `dst` is
//! `src`'s walk up the shared tree (at most two links) to the first node
//! `dst`'s walk up reaches, then that walk back down to `dst`. A leaf climbs
//! at most two links; every other source is a gateway of its own, seeded at
//! `(0.0, 0)`. The per-source Dijkstra survives as the test oracle the
//! shared trees are held to, with the O(n²) reference search.

use crate::time::SimDuration;
use rustc_hash::FxHashMap;

/// Identifies a node (host or router) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// The role a node plays in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host running application processes.
    Host,
    /// A router forwarding traffic (runs a Remos collector in the testbed).
    Router,
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name, e.g. `"C1"`, `"S5,RQ"`, `"R3"`.
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Raw capacity in bits per second.
    pub capacity_bps: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth consumed by competing background traffic (bits per second).
    pub background_bps: f64,
}

impl Link {
    /// The endpoint opposite `node`, if `node` is an endpoint.
    pub fn other_end(&self, node: NodeId) -> Option<NodeId> {
        if self.a == node {
            Some(self.b)
        } else if self.b == node {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Errors raised while building or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node name was used twice.
    DuplicateNode(String),
    /// A node id does not exist.
    UnknownNode(usize),
    /// A link id does not exist.
    UnknownLink(usize),
    /// No path exists between the requested endpoints.
    NoPath(String, String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateNode(n) => write!(f, "duplicate node name: {n}"),
            TopologyError::UnknownNode(i) => write!(f, "unknown node id: {i}"),
            TopologyError::UnknownLink(i) => write!(f, "unknown link id: {i}"),
            TopologyError::NoPath(a, b) => write!(f, "no path between {a} and {b}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    by_name: FxHashMap<String, NodeId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> Result<NodeId, TopologyError> {
        if self.by_name.contains_key(name) {
            return Err(TopologyError::DuplicateNode(name.to_string()));
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
        });
        self.adjacency.push(Vec::new());
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Adds an end host.
    pub fn add_host(&mut self, name: &str) -> Result<NodeId, TopologyError> {
        self.add_node(name, NodeKind::Host)
    }

    /// Adds a router.
    pub fn add_router(&mut self, name: &str) -> Result<NodeId, TopologyError> {
        self.add_node(name, NodeKind::Router)
    }

    /// Adds an undirected link between `a` and `b`.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        latency: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        self.check_node(a)?;
        self.check_node(b)?;
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            capacity_bps,
            latency,
            background_bps: 0.0,
        });
        self.adjacency[a.0].push((b, id));
        self.adjacency[b.0].push((a, id));
        Ok(id)
    }

    fn check_node(&self, id: NodeId) -> Result<(), TopologyError> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(id.0))
        }
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> Result<&Node, TopologyError> {
        self.nodes.get(id.0).ok_or(TopologyError::UnknownNode(id.0))
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> Result<&Link, TopologyError> {
        self.links.get(id.0).ok_or(TopologyError::UnknownLink(id.0))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over all links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Sets the competing background load a link is built with.
    pub fn set_background_load(&mut self, id: LinkId, bps: f64) -> Result<(), TopologyError> {
        let link = self.links.get_mut(id.0);
        link.ok_or(TopologyError::UnknownLink(id.0))?.background_bps = bps.max(0.0);
        Ok(())
    }

    /// The single attachment point of a leaf node: the adjacent node and the
    /// connecting link, provided the node has exactly one neighbour. Hosts in
    /// the grid testbeds are always leaves (one access link to a router or an
    /// aggregation switch), so this is the basis of network-position
    /// equivalence classes: two leaves attached to the same node by links of
    /// equal capacity and latency occupy symmetric network positions.
    pub fn attachment(&self, node: NodeId) -> Option<(NodeId, LinkId)> {
        match self.adjacency.get(node.0)?.as_slice() {
            [(neighbour, link)] => Some((*neighbour, *link)),
            _ => None,
        }
    }

    /// An order/hash-stable signature of a leaf node's network position:
    /// `(attachment node, capacity bits, latency bits)`. `None` for nodes
    /// that are not leaves. Two leaves with equal signatures are attached to
    /// the same node by indistinguishable links.
    pub fn position_signature(&self, node: NodeId) -> Option<(NodeId, u64, u64)> {
        let (attach, link) = self.attachment(node)?;
        let link = self.links.get(link.0)?;
        Some((
            attach,
            link.capacity_bps.to_bits(),
            link.latency.as_secs().to_bits(),
        ))
    }

    /// Finds the link directly connecting `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency
            .get(a.0)?
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// The one link of `node` that ends at a node with more than one link,
    /// provided every other link of `node` ends at a leaf: an aggregation
    /// switch's uplink, or an edge router's only core link.
    fn uplink(&self, node: NodeId) -> Option<(NodeId, LinkId)> {
        let mut up = None;
        for &(next, link) in &self.adjacency[node.0] {
            if self.adjacency[next.0].len() > 1 {
                if up.is_some() {
                    return None;
                }
                up = Some((next, link));
            }
        }
        up
    }

    /// Computes the shortest-path tree of a binary-heap Dijkstra that starts
    /// at `root` with the distance `seed` (used by [`PathTable`]; see the
    /// module docs for why a seeded root serves many sources). Tie-breaks —
    /// lexicographic `(latency, hops)` distances, lowest node index first
    /// among equal distances, first-found predecessor kept — reproduce the
    /// O(n²) reference Dijkstra in this module's tests exactly.
    ///
    /// A leaf (one adjacency entry) is settled where it is first relaxed and
    /// never queued: only its one neighbour can relax it, that neighbour is
    /// settled once, and popping the leaf would relax nothing, so the tree is
    /// the same one the full queue builds.
    fn seeded_tree(&self, root: NodeId, seed: (f64, usize)) -> GatewayTree {
        #[derive(PartialEq)]
        struct Entry {
            latency: f64,
            hops: usize,
            node: usize,
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: BinaryHeap pops the minimum (latency, hops, node).
                other
                    .latency
                    .total_cmp(&self.latency)
                    .then_with(|| other.hops.cmp(&self.hops))
                    .then_with(|| other.node.cmp(&self.node))
            }
        }

        let n = self.nodes.len();
        let mut dist = vec![(f64::INFINITY, usize::MAX); n];
        let mut prev_link = vec![u32::MAX; n];
        let mut visited = vec![false; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[root.0] = seed;
        heap.push(Entry {
            latency: seed.0,
            hops: seed.1,
            node: root.0,
        });
        while let Some(entry) = heap.pop() {
            let u = entry.node;
            if visited[u] {
                continue; // superseded entry
            }
            visited[u] = true;
            for &(v, link_id) in &self.adjacency[u] {
                if visited[v.0] {
                    continue;
                }
                let link = &self.links[link_id.0];
                let cand = (dist[u].0 + link.latency.as_secs(), dist[u].1 + 1);
                if cand < dist[v.0] {
                    dist[v.0] = cand;
                    prev_link[v.0] = link_id.0 as u32;
                    if self.adjacency[v.0].len() == 1 {
                        visited[v.0] = true;
                    } else {
                        heap.push(Entry {
                            latency: cand.0,
                            hops: cand.1,
                            node: v.0,
                        });
                    }
                }
            }
        }
        GatewayTree { prev_link }
    }

    /// Total one-way propagation latency along a path.
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        let secs: f64 = path
            .iter()
            .filter_map(|l| self.links.get(l.0))
            .map(|l| l.latency.as_secs())
            .sum();
        SimDuration::from_secs(secs)
    }
}

/// The shortest-path tree of one gateway class: one `u32` per node, the link
/// to its predecessor (`u32::MAX` for the gateway and for every node it does
/// not reach). The predecessor is that link's other end.
#[derive(Debug, Clone)]
struct GatewayTree {
    prev_link: Vec<u32>,
}

/// A gateway class: the tree's root with the bits of the `(latency, hops)`
/// its sources' own Dijkstra reaches it at.
type ClassKey = (usize, u64, usize);

/// A cache of shortest paths over a structurally immutable topology: the
/// one shortest-path implementation in the build.
///
/// A full Dijkstra per query is fine for a one-off lookup and ruinous when
/// every transfer start and every bandwidth probe needs the same handful of
/// routes. A `PathTable` files each source, on its first route, under its
/// gateway class (see the module docs), builds one shortest-path tree per
/// class on first demand — a Dijkstra that queues only the nodes with more
/// than one link, settling leaves as it reaches them — and answers every
/// `(src, dst)` query by walking both endpoints up their class's tree to
/// the node where the walks meet.
///
/// Paths depend only on the graph structure and link latencies, neither of
/// which changes after construction ([`Network`](crate::network::Network)
/// keeps live capacities and background loads of its own), so the cache
/// never needs invalidation; a table serves one topology. Paths are
/// shortest by cumulative latency, ties broken by hop count, and
/// bit-identical to the per-query reference Dijkstra this module's tests
/// hold them to — same metric, same tie-breaks.
#[derive(Debug, Default)]
pub struct PathTable {
    /// Per source node: the index of its class's tree in `trees`,
    /// `u32::MAX` until the source's first route.
    tree_of: Vec<u32>,
    /// One tree per gateway class, in order of first demand.
    trees: Vec<GatewayTree>,
    /// Gateway class → tree index. A leaf's attachment class is filed too,
    /// beside the class it climbs to, so each attachment climbs once.
    classes: FxHashMap<ClassKey, u32>,
    /// Lifetime count of sources routed (first routes from a source).
    sources_routed: u64,
    /// Lifetime count of path queries answered.
    lookups: u64,
}

/// Usage counters of a [`PathTable`]: how many sources were routed vs how
/// many path queries they answered. Observability only — the values never
/// influence routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathTableStats {
    /// Distinct sources routed: each source counts at its first route,
    /// whether or not its class's tree was already built.
    pub sources_routed: u64,
    /// Path queries answered ([`PathTable::path_into`] calls).
    pub lookups: u64,
}

impl PathTable {
    /// An empty table; trees are computed on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index in `trees` of `src`'s class tree, filing `src` (and
    /// building the tree) on its first route.
    fn tree_index(&mut self, topology: &Topology, src: NodeId) -> usize {
        let n = topology.node_count();
        if self.tree_of.len() < n {
            self.tree_of.resize(n, u32::MAX);
        }
        if self.tree_of[src.0] == u32::MAX {
            self.tree_of[src.0] = self.class_tree(topology, src);
            self.sources_routed += 1;
        }
        self.tree_of[src.0] as usize
    }

    /// The tree of `src`'s gateway class. A leaf climbs to its attachment
    /// and, when the attachment has an [uplink](Topology::uplink), one link
    /// further; any other source is its own gateway. Distances add up in
    /// the order `src`'s own Dijkstra adds them, so the seed bits are its.
    fn class_tree(&mut self, topology: &Topology, src: NodeId) -> u32 {
        let latency = |link: LinkId| topology.links[link.0].latency.as_secs();
        let attached = topology
            .attachment(src)
            .filter(|(attach, _)| topology.adjacency[attach.0].len() > 1);
        let Some((attach, link)) = attached else {
            return self.tree_at(topology, src, (0.0, 0));
        };
        let seed = 0.0 + latency(link);
        let first = (attach.0, seed.to_bits(), 1);
        if let Some(&tree) = self.classes.get(&first) {
            return tree;
        }
        let tree = match topology.uplink(attach) {
            Some((up, link)) => self.tree_at(topology, up, (seed + latency(link), 2)),
            None => self.tree_at(topology, attach, (seed, 1)),
        };
        self.classes.insert(first, tree);
        tree
    }

    /// The tree of the class rooted at `root` with distance `seed`, built
    /// on first demand.
    fn tree_at(&mut self, topology: &Topology, root: NodeId, seed: (f64, usize)) -> u32 {
        let trees = &mut self.trees;
        *self
            .classes
            .entry((root.0, seed.0.to_bits(), seed.1))
            .or_insert_with(|| {
                trees.push(topology.seeded_tree(root, seed));
                (trees.len() - 1) as u32
            })
    }

    /// Usage counters: sources routed so far vs lookups answered.
    pub fn stats(&self) -> PathTableStats {
        PathTableStats {
            sources_routed: self.sources_routed,
            lookups: self.lookups,
        }
    }

    /// Appends the link sequence of the shortest path from `src` to `dst`
    /// onto `out` (in traversal order), from the shared tree of `src`'s
    /// gateway class. An empty sequence means `src == dst`; on an error
    /// `out` is left as it was.
    pub fn path_into(
        &mut self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        self.lookups += 1;
        topology.node(src)?;
        topology.node(dst)?;
        if src == dst {
            return Ok(());
        }
        let index = self.tree_index(topology, src);
        let tree = &self.trees[index];
        let up = |node: NodeId| match tree.prev_link[node.0] {
            u32::MAX => None,
            link => Some((
                link as usize,
                topology.links[link as usize].other_end(node)?,
            )),
        };
        // The source's walk to the gateway: the source and at most two
        // stub nodes above it.
        let mut climb = [src; 3];
        let mut len = 1;
        while let Some((_, node)) = up(climb[len - 1]) {
            climb[len] = node;
            len += 1;
        }
        // The destination's walk up to the first node of that climb, then
        // the climb back down to the source, reversed as a whole.
        let start = out.len();
        let mut cur = dst;
        let meet = loop {
            if let Some(k) = climb[..len].iter().position(|&node| node == cur) {
                break k;
            }
            let Some((link, next)) = up(cur) else {
                out.truncate(start);
                return Err(TopologyError::NoPath(
                    topology.nodes[src.0].name.clone(),
                    topology.nodes[dst.0].name.clone(),
                ));
            };
            out.push(LinkId(link));
            cur = next;
        };
        for &node in climb[..meet].iter().rev() {
            out.push(LinkId(tree.prev_link[node.0] as usize));
        }
        out[start..].reverse();
        Ok(())
    }

    /// The shortest path from `src` to `dst` as an owned link sequence.
    pub fn path(
        &mut self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<LinkId>, TopologyError> {
        let mut out = Vec::new();
        self.path_into(topology, src, dst, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The reference: an O(n²) Dijkstra per query for the shortest path (by
    /// cumulative latency, ties broken by hop count) between two nodes, as
    /// the sequence of links traversed.
    fn reference_path(
        t: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<LinkId>, TopologyError> {
        t.check_node(src)?;
        t.check_node(dst)?;
        if src == dst {
            return Ok(Vec::new());
        }
        // Dijkstra on (latency, hops).
        let n = t.nodes.len();
        let mut dist = vec![(f64::INFINITY, usize::MAX); n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[src.0] = (0.0, 0);
        for _ in 0..n {
            // Select the unvisited node with the smallest distance.
            let mut best: Option<usize> = None;
            for i in 0..n {
                if visited[i] || dist[i].0.is_infinite() {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        if dist[i] < dist[b] {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(u) = best else { break };
            if u == dst.0 {
                break;
            }
            visited[u] = true;
            for &(v, link_id) in &t.adjacency[u] {
                if visited[v.0] {
                    continue;
                }
                let link = &t.links[link_id.0];
                let cand = (dist[u].0 + link.latency.as_secs(), dist[u].1 + 1);
                if cand < dist[v.0] {
                    dist[v.0] = cand;
                    prev[v.0] = Some((NodeId(u), link_id));
                }
            }
        }
        if prev[dst.0].is_none() && dist[dst.0].0.is_infinite() {
            return Err(TopologyError::NoPath(
                t.nodes[src.0].name.clone(),
                t.nodes[dst.0].name.clone(),
            ));
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, link) = prev[cur.0].ok_or_else(|| {
                TopologyError::NoPath(t.nodes[src.0].name.clone(), t.nodes[dst.0].name.clone())
            })?;
            path.push(link);
            cur = p;
        }
        path.reverse();
        Ok(path)
    }

    fn simple_topology() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        // h1 - r1 - r2 - h2, plus a slow direct shortcut r1 - h2.
        let mut t = Topology::new();
        let h1 = t.add_host("h1").unwrap();
        let r1 = t.add_router("r1").unwrap();
        let r2 = t.add_router("r2").unwrap();
        let h2 = t.add_host("h2").unwrap();
        t.add_link(h1, r1, 10e6, ms(1.0)).unwrap();
        t.add_link(r1, r2, 10e6, ms(1.0)).unwrap();
        t.add_link(r2, h2, 10e6, ms(1.0)).unwrap();
        t.add_link(r1, h2, 10e6, ms(10.0)).unwrap();
        (t, h1, r1, r2, h2)
    }

    /// The per-source oracle: the tree of a Dijkstra from `src` itself, as
    /// every source had before trees were shared.
    fn shortest_path_tree(t: &Topology, src: NodeId) -> GatewayTree {
        t.seeded_tree(src, (0.0, 0))
    }

    /// `dst`'s walk back to `src` in the per-source tree, in traversal order.
    fn per_source_path(t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let tree = shortest_path_tree(t, src);
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let link = tree.prev_link[cur.0];
            if link == u32::MAX {
                return None;
            }
            path.push(LinkId(link as usize));
            cur = t.links[link as usize].other_end(cur).unwrap();
        }
        path.reverse();
        Some(path)
    }

    #[test]
    fn shared_trees_match_reference_on_a_multi_tier_topology() {
        // Routers in a cycle with distinct latencies (no metric ties), an
        // aggregation switch tier, and leaf hosts behind both tiers.
        let mut t = Topology::new();
        let r1 = t.add_router("r1").unwrap();
        let r2 = t.add_router("r2").unwrap();
        let r3 = t.add_router("r3").unwrap();
        t.add_link(r1, r2, 100e6, ms(1.0)).unwrap();
        t.add_link(r2, r3, 100e6, ms(1.3)).unwrap();
        t.add_link(r1, r3, 100e6, ms(1.7)).unwrap();
        let a1 = t.add_router("a1").unwrap();
        let a2 = t.add_router("a2").unwrap();
        t.add_link(a1, r1, 50e6, ms(0.9)).unwrap();
        t.add_link(a2, r1, 50e6, ms(0.9)).unwrap();
        let mut hosts = Vec::new();
        for (i, attach) in [a1, a1, a2, r2, r3, r3].iter().enumerate() {
            let h = t.add_host(&format!("h{i}")).unwrap();
            t.add_link(h, *attach, 10e6, ms(0.5)).unwrap();
            hosts.push(h);
        }
        let all: Vec<NodeId> = t.nodes().map(|(id, _)| id).collect();
        let mut table = PathTable::new();
        for &a in &hosts {
            for &b in &all {
                let want = reference_path(&t, a, b).unwrap();
                assert_eq!(table.path(&t, a, b).unwrap(), want, "{a:?} -> {b:?}");
                assert_eq!(per_source_path(&t, a, b), Some(want), "{a:?} -> {b:?}");
            }
        }
        // Three gateway classes serve the six hosts: r1 two links up from
        // a1's and a2's hosts alike, r2 and r3 one link up from theirs.
        assert_eq!(table.trees.len(), 3);
        assert_eq!(table.stats().sources_routed, hosts.len() as u64);
        // Each router has a class of its own.
        for &a in &all {
            for &b in &all {
                let got = table.path(&t, a, b).unwrap();
                assert_eq!(got, reference_path(&t, a, b).unwrap(), "{a:?} -> {b:?}");
            }
        }
        assert_eq!(table.trees.len(), 3 + 5);
        assert_eq!(table.stats().sources_routed, all.len() as u64);
    }

    #[test]
    fn sources_whose_seeds_round_apart_get_trees_of_their_own() {
        // `h1` and `h2` hang off `a`, whose uplink climbs to `r`. From `r`,
        // `v` is 0.3 s away directly and 0.2 + 0.1 s away through `w`: a tie
        // in exact arithmetic, which rounding breaks by the seed. From `h1`
        // (seed 0.1 + 0.2) the two-link route is strictly shorter; from `h2`
        // (seed 0.2 + 0.2) the direct one wins. A class key without the seed
        // bits, or a seed without the uplink's latency, gives one of them the
        // other's route.
        let mut t = Topology::new();
        let s = SimDuration::from_secs;
        let (h1, h2) = (t.add_host("h1").unwrap(), t.add_host("h2").unwrap());
        let (a, r) = (t.add_router("a").unwrap(), t.add_router("r").unwrap());
        let (v, w) = (t.add_router("v").unwrap(), t.add_router("w").unwrap());
        t.add_link(h1, a, 1e6, s(0.1)).unwrap();
        t.add_link(h2, a, 1e6, s(0.2)).unwrap();
        t.add_link(a, r, 1e6, s(0.2)).unwrap();
        let direct = t.add_link(r, v, 1e6, s(0.3)).unwrap();
        t.add_link(r, w, 1e6, s(0.2)).unwrap();
        t.add_link(w, v, 1e6, s(0.1)).unwrap();
        let mut table = PathTable::new();
        for src in [h1, h2] {
            let want = reference_path(&t, src, v).unwrap();
            assert_eq!(per_source_path(&t, src, v).as_ref(), Some(&want));
            assert_eq!(want.contains(&direct), src == h2);
            assert_eq!(table.path(&t, src, v).unwrap(), want, "{src:?}");
        }
        assert_eq!(table.trees.len(), 2);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut t = Topology::new();
        t.add_host("x").unwrap();
        assert!(matches!(
            t.add_host("x"),
            Err(TopologyError::DuplicateNode(_))
        ));
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let (t, h1, _r1, _r2, h2) = simple_topology();
        let path = reference_path(&t, h1, h2).unwrap();
        // 3-hop path at 3 ms beats 2-hop path at 11 ms.
        assert_eq!(path.len(), 3);
        assert!((t.path_latency(&path).as_secs() - 0.003).abs() < 1e-9);
    }

    #[test]
    fn path_to_self_is_empty() {
        let (t, h1, ..) = simple_topology();
        assert!(reference_path(&t, h1, h1).unwrap().is_empty());
    }

    #[test]
    fn no_path_between_disconnected_nodes() {
        let mut t = Topology::new();
        let a = t.add_host("a").unwrap();
        let b = t.add_host("b").unwrap();
        assert!(matches!(
            reference_path(&t, a, b),
            Err(TopologyError::NoPath(_, _))
        ));
    }

    /// A network over the topology starts from the background load it was
    /// built with: a probe across the link gets what that load leaves.
    #[test]
    fn background_load_reduces_effective_capacity() {
        let (mut t, h1, r1, ..) = simple_topology();
        let link = t.link_between(h1, r1).unwrap();
        t.set_background_load(link, 8e6).unwrap();
        assert_eq!(t.link(link).unwrap().background_bps, 8e6);
        let probe = |t: &Topology| {
            let net = crate::network::Network::new(t.clone());
            net.available_bandwidth(h1, r1).unwrap()
        };
        assert!((probe(&t) - 2e6).abs() < 1.0);
        // Background above capacity floors at a tiny positive value.
        t.set_background_load(link, 20e6).unwrap();
        assert_eq!(probe(&t), 1.0);
        // A negative load is no load.
        t.set_background_load(link, -5e6).unwrap();
        assert_eq!(t.link(link).unwrap().background_bps, 0.0);
    }

    #[test]
    fn node_lookup_by_name() {
        let (t, h1, ..) = simple_topology();
        assert_eq!(t.node_by_name("h1"), Some(h1));
        assert_eq!(t.node_by_name("missing"), None);
        assert_eq!(t.node(h1).unwrap().kind, NodeKind::Host);
    }

    #[test]
    fn link_between_finds_direct_links_only() {
        let (t, h1, r1, r2, _h2) = simple_topology();
        assert!(t.link_between(h1, r1).is_some());
        assert!(t.link_between(h1, r2).is_none());
    }

    #[test]
    fn path_table_matches_reference_dijkstra_on_all_pairs() {
        // Includes a topology with genuine latency ties (a 4-cycle of equal
        // links) so the tie-break paths are exercised, not just unique routes.
        let mut square = Topology::new();
        let nodes: Vec<NodeId> = (0..4)
            .map(|i| square.add_host(&format!("n{i}")).unwrap())
            .collect();
        square.add_link(nodes[0], nodes[1], 1e6, ms(1.0)).unwrap();
        square.add_link(nodes[1], nodes[2], 1e6, ms(1.0)).unwrap();
        square.add_link(nodes[2], nodes[3], 1e6, ms(1.0)).unwrap();
        square.add_link(nodes[3], nodes[0], 1e6, ms(1.0)).unwrap();
        // A diagonal shortcut with the same total latency as the two-hop
        // route, plus a parallel duplicate link (equal everything).
        square.add_link(nodes[0], nodes[2], 1e6, ms(2.0)).unwrap();
        square.add_link(nodes[0], nodes[2], 1e6, ms(2.0)).unwrap();

        let (tied, ..) = simple_topology();
        for topology in [&square, &tied] {
            let mut table = PathTable::new();
            for (a, _) in topology.nodes() {
                for (b, _) in topology.nodes() {
                    let reference = reference_path(topology, a, b);
                    let cached = table.path(topology, a, b);
                    assert_eq!(reference, cached, "{a:?} -> {b:?}");
                    // Second query hits the cached tree.
                    assert_eq!(table.path(topology, a, b), reference);
                }
            }
        }
    }

    /// A seeded random graph in the shapes routing must get right: a core of
    /// routers (a random tree plus extra links, some parallel), chains of
    /// degree-2 routers ending in a leaf host, many leaf hosts, aggregation
    /// switches with leaf hosts (some nested under another switch, some with
    /// a parallel uplink), a duplicate of a random link, a component the rest
    /// cannot reach and a pair of hosts linked only to each other. Latencies
    /// are whole seconds, zero included, so equal-latency routes tie exactly.
    fn random_graph(seed: u64) -> Topology {
        let mut rng = crate::rng::SimRng::seed_from_u64(seed);
        let mut t = Topology::new();
        let latency = |rng: &mut crate::rng::SimRng| {
            SimDuration::from_secs([0.0, 1.0, 1.0, 2.0, 3.0][rng.index(5)])
        };
        let core: Vec<NodeId> = (0..2 + rng.index(5))
            .map(|i| t.add_router(&format!("r{i}")).unwrap())
            .collect();
        for i in 1..core.len() {
            let up = core[rng.index(i)];
            t.add_link(core[i], up, 1e6, latency(&mut rng)).unwrap();
        }
        for _ in 0..rng.index(4) {
            let (a, b) = (core[rng.index(core.len())], core[rng.index(core.len())]);
            if a != b {
                t.add_link(a, b, 1e6, latency(&mut rng)).unwrap();
            }
        }
        let mut attach = core.clone();
        for c in 0..rng.index(4) {
            let mut end = core[rng.index(core.len())];
            for k in 0..1 + rng.index(3) {
                let next = t.add_router(&format!("c{c}.{k}")).unwrap();
                t.add_link(end, next, 1e6, latency(&mut rng)).unwrap();
                attach.push(next);
                end = next;
            }
            let tail = t.add_host(&format!("c{c}.host")).unwrap();
            t.add_link(end, tail, 1e6, latency(&mut rng)).unwrap();
        }
        for h in 0..3 + rng.index(10) {
            let host = t.add_host(&format!("h{h}")).unwrap();
            let at = attach[rng.index(attach.len())];
            t.add_link(host, at, 1e6, latency(&mut rng)).unwrap();
        }
        for g in 0..rng.index(5) {
            let agg = t.add_router(&format!("a{g}")).unwrap();
            let up = attach[rng.index(attach.len())];
            t.add_link(agg, up, 1e6, latency(&mut rng)).unwrap();
            if rng.index(4) == 0 {
                t.add_link(agg, up, 1e6, latency(&mut rng)).unwrap();
            }
            attach.push(agg);
            for i in 0..1 + rng.index(4) {
                let host = t.add_host(&format!("a{g}.h{i}")).unwrap();
                t.add_link(host, agg, 1e6, latency(&mut rng)).unwrap();
            }
        }
        let (a, b) = {
            let link = t.link(LinkId(rng.index(t.link_count()))).unwrap();
            (link.a, link.b)
        };
        t.add_link(a, b, 1e6, latency(&mut rng)).unwrap();
        let island = t.add_router("island").unwrap();
        for i in 0..rng.index(3) {
            let host = t.add_host(&format!("island.h{i}")).unwrap();
            t.add_link(host, island, 1e6, latency(&mut rng)).unwrap();
        }
        let pair = [t.add_host("pair.a").unwrap(), t.add_host("pair.b").unwrap()];
        t.add_link(pair[0], pair[1], 1e6, latency(&mut rng))
            .unwrap();
        t
    }

    #[test]
    fn path_table_matches_reference_dijkstra_on_generated_graphs() {
        let (mut trees, mut nodes) = (0, 0);
        for seed in 0..48 {
            let t = random_graph(seed);
            let leaves = t.nodes().filter(|(id, _)| t.attachment(*id).is_some());
            assert!(leaves.count() >= 3, "seed {seed}: too few leaves");
            let mut table = PathTable::new();
            for (a, _) in t.nodes() {
                for (b, _) in t.nodes() {
                    let want = reference_path(&t, a, b);
                    let mut got = vec![LinkId(usize::MAX)];
                    let result = table.path_into(&t, a, b, &mut got);
                    assert_eq!(got[0], LinkId(usize::MAX), "seed {seed}: {a:?} -> {b:?}");
                    let got = result.map(|()| got[1..].to_vec());
                    assert_eq!(got, want, "seed {seed}: {a:?} -> {b:?}");
                    let oracle = per_source_path(&t, a, b);
                    assert_eq!(got.ok(), oracle, "seed {seed}: {a:?} -> {b:?}");
                }
            }
            // Every node was a source, and leaves one link of one latency
            // from the same attachment shared a tree.
            assert_eq!(table.stats().sources_routed, t.node_count() as u64);
            let classes: rustc_hash::FxHashSet<_> = t
                .nodes()
                .map(|(id, _)| match t.attachment(id) {
                    Some((at, link)) if t.adjacency[at.0].len() > 1 => {
                        (at, t.links[link.0].latency.as_secs().to_bits())
                    }
                    _ => (id, u64::MAX),
                })
                .collect();
            assert!(table.trees.len() <= classes.len(), "seed {seed}");
            (trees, nodes) = (trees + table.trees.len(), nodes + t.node_count());
        }
        assert!(trees < nodes, "{trees} trees for {nodes} sources");
    }

    #[test]
    fn path_table_reports_missing_nodes_and_paths() {
        // Two hosts on routers the other side cannot reach, a lone host, and
        // a host two links below a gateway (`g`) that reaches neither `a`
        // nor `b`.
        let mut t = Topology::new();
        let a = t.add_host("a").unwrap();
        let b = t.add_host("b").unwrap();
        let (ra, rb) = (t.add_router("ra").unwrap(), t.add_router("rb").unwrap());
        let c = t.add_host("c").unwrap();
        t.add_link(a, ra, 1e6, ms(1.0)).unwrap();
        t.add_link(b, rb, 1e6, ms(1.0)).unwrap();
        let (agg, g, far) = (
            t.add_router("agg").unwrap(),
            t.add_router("g").unwrap(),
            t.add_router("far").unwrap(),
        );
        let (d, e, f) = (
            t.add_host("d").unwrap(),
            t.add_host("e").unwrap(),
            t.add_host("f").unwrap(),
        );
        t.add_link(d, agg, 1e6, ms(1.0)).unwrap();
        t.add_link(agg, g, 1e6, ms(1.0)).unwrap();
        t.add_link(g, far, 1e6, ms(1.0)).unwrap();
        t.add_link(e, g, 1e6, ms(1.0)).unwrap();
        t.add_link(f, far, 1e6, ms(1.0)).unwrap();
        let mut table = PathTable::new();
        assert!(matches!(
            table.path(&t, a, NodeId(99)),
            Err(TopologyError::UnknownNode(99))
        ));
        // A failed query leaves what `out` held before untouched.
        let unreachable = [(a, b), (b, a), (a, c), (c, a), (a, rb), (ra, b)];
        for (src, dst) in unreachable
            .into_iter()
            .chain([(d, a), (a, d), (d, rb), (d, c)])
        {
            let mut out = vec![LinkId(7)];
            assert!(
                matches!(
                    table.path_into(&t, src, dst, &mut out),
                    Err(TopologyError::NoPath(_, _))
                ),
                "{src:?} -> {dst:?}"
            );
            assert_eq!(out, [LinkId(7)], "{src:?} -> {dst:?}");
        }
        // `d` routes through `g`'s tree, inside its stub and past it.
        for dst in [agg, g, e, far, f] {
            assert_eq!(table.path(&t, d, dst), reference_path(&t, d, dst));
        }
        assert!(table.path(&t, a, a).unwrap().is_empty());
    }
}
