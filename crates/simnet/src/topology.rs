//! Network topology: hosts, routers, and links.
//!
//! The paper's testbed (Figure 6) consists of five routers and eleven
//! machines connected by 10 Mbps links. The topology here is an undirected
//! graph; each link has a capacity (bits/second), a propagation latency, and
//! an optional *background load* that models competing traffic injected by the
//! experiment's bandwidth-competition program.

use crate::time::SimDuration;
use std::collections::HashMap;

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
    /// Capacity left over after background competition, never below a small
    /// positive floor so transfers always make progress.
    pub fn effective_capacity_bps(&self) -> f64 {
        (self.capacity_bps - self.background_bps).max(1.0)
    }

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
    by_name: HashMap<String, NodeId>,
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

    /// Mutable access to a link (used to adjust background load).
    pub fn link_mut(&mut self, id: LinkId) -> Result<&mut Link, TopologyError> {
        self.links
            .get_mut(id.0)
            .ok_or(TopologyError::UnknownLink(id.0))
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

    /// Sets the competing background load on a link.
    pub fn set_background_load(&mut self, id: LinkId, bps: f64) -> Result<(), TopologyError> {
        self.link_mut(id)?.background_bps = bps.max(0.0);
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

    /// Computes the shortest-path tree rooted at `src` with a binary-heap
    /// Dijkstra (used by [`PathTable`]). Tie-breaks — lexicographic
    /// `(latency, hops)` distances, lowest node index first among equal
    /// distances, first-found predecessor kept — reproduce the O(n²)
    /// reference Dijkstra in this module's tests exactly.
    ///
    /// A leaf (one adjacency entry) is settled where it is first relaxed and
    /// never queued: only its one neighbour can relax it, that neighbour is
    /// settled once, and popping the leaf would relax nothing, so the tree is
    /// the same one the full queue builds.
    fn shortest_path_tree(&self, src: NodeId) -> SourceTree {
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
        dist[src.0] = (0.0, 0);
        heap.push(Entry {
            latency: 0.0,
            hops: 0,
            node: src.0,
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
        SourceTree { prev_link }
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

/// A shortest-path tree rooted at one source node: one `u32` per node, the
/// link to its predecessor (`u32::MAX` for the source and for every node the
/// source does not reach), so a large testbed can afford one tree per
/// transfer source. The predecessor is that link's other end.
#[derive(Debug, Clone)]
struct SourceTree {
    prev_link: Vec<u32>,
}

/// A cache of shortest paths over a structurally immutable topology: the
/// one shortest-path implementation in the build.
///
/// A full Dijkstra per query is fine for a one-off lookup and ruinous when
/// every transfer start and every bandwidth probe needs the same handful of
/// routes. A `PathTable` computes one shortest-path tree per *source* on
/// first demand — a Dijkstra that queues only the nodes with more than one
/// link, settling leaves as it reaches them — and answers every later
/// `(src, dst)` query by walking each node's predecessor link back to the
/// source.
///
/// Paths depend only on the graph structure and link latencies, neither of
/// which changes after construction ([`Network`](crate::network::Network)
/// mutates capacities and background loads only), so the cache never needs
/// invalidation; callers that do restructure a topology must build a fresh
/// table. Paths are shortest by cumulative latency, ties broken by hop
/// count; without leaf compression they are bit-identical to the per-query
/// reference Dijkstra this module's tests hold them to — same metric, same
/// tie-breaks.
#[derive(Debug, Default)]
pub struct PathTable {
    trees: Vec<Option<SourceTree>>,
    /// Leaf-compressed routing (see [`set_leaf_compressed`](Self::set_leaf_compressed)).
    leaf_compressed: bool,
    /// Lifetime count of source trees built lazily (cache misses).
    trees_built: u64,
    /// Lifetime count of path queries answered.
    lookups: u64,
}

/// Usage counters of a [`PathTable`]: how many source trees were built vs
/// how many path queries they answered. Observability only — the values
/// never influence routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathTableStats {
    /// Shortest-path trees computed on first demand.
    pub trees_built: u64,
    /// Path queries answered ([`PathTable::path_into`] calls).
    pub lookups: u64,
}

impl PathTable {
    /// An empty table; trees are computed on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the table to *leaf-compressed* routing: the path touching a
    /// leaf host is composed as `access link + inter-anchor path + access
    /// link`, where a leaf's anchor is its single attachment node. Every
    /// path from a leaf must traverse its only edge, so the composition is
    /// a genuine shortest path; the inter-anchor segment is answered from a
    /// tree rooted at the lower-numbered anchor (reversed when needed), so
    /// trees are only ever built for the handful of attachment routers —
    /// not for tens of thousands of host sources, whose per-source trees
    /// would cost `O(hosts × nodes)` memory at fleet scale.
    ///
    /// Off by default: uniform latency shifts can re-break `(latency, hops)`
    /// ties differently from the per-source reference Dijkstra, so the
    /// classic byte-compared presets keep per-source trees. The fleet-scale
    /// presets (no frozen baseline) opt in.
    pub fn set_leaf_compressed(&mut self, enabled: bool) {
        self.leaf_compressed = enabled;
    }

    fn tree(&mut self, topology: &Topology, src: NodeId) -> &SourceTree {
        let n = topology.node_count();
        if self.trees.len() < n {
            self.trees.resize(n, None);
        }
        let slot = &mut self.trees[src.0];
        if slot.is_none() {
            *slot = Some(topology.shortest_path_tree(src));
            self.trees_built += 1;
        }
        slot.as_ref().expect("just computed")
    }

    /// Usage counters: trees built so far vs lookups answered.
    pub fn stats(&self) -> PathTableStats {
        PathTableStats {
            trees_built: self.trees_built,
            lookups: self.lookups,
        }
    }

    /// Appends the link sequence of the shortest path from `src` to `dst`
    /// onto `out` (in traversal order), reusing the cached tree for `src`.
    /// An empty sequence means `src == dst`; on an error `out` is left as it
    /// was.
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
        if self.leaf_compressed {
            return self.compressed_path_into(topology, src, dst, out);
        }
        self.tree_path_into(topology, src, dst, out)
    }

    /// The tree-walking core of [`path_into`](Self::path_into): answers from
    /// the shortest-path tree rooted at `src`, leaving `out` as it found it
    /// when `dst` is unreached.
    fn tree_path_into(
        &mut self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        let tree = self.tree(topology, src);
        let start = out.len();
        let mut cur = dst;
        while cur != src {
            let link = tree.prev_link[cur.0] as usize;
            if link == u32::MAX as usize {
                out.truncate(start);
                return Err(TopologyError::NoPath(
                    topology.nodes[src.0].name.clone(),
                    topology.nodes[dst.0].name.clone(),
                ));
            }
            out.push(LinkId(link));
            cur = topology.links[link]
                .other_end(cur)
                .expect("a tree link ends at the node it leads to");
        }
        out[start..].reverse();
        Ok(())
    }

    /// Leaf-compressed path composition: each leaf-host endpoint contributes
    /// its access link, and the middle runs anchor-to-anchor. The
    /// anchor-to-anchor segment is served from a tree rooted at the
    /// lower-numbered anchor (link sequences are direction-symmetric, so the
    /// reverse walk is reversed back), bounding the tree count by the number
    /// of distinct attachment nodes.
    fn compressed_path_into(
        &mut self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        let anchor_of = |node: NodeId| -> (NodeId, Option<LinkId>) {
            if topology.nodes[node.0].kind == NodeKind::Host {
                if let Some((attach, link)) = topology.attachment(node) {
                    return (attach, Some(link));
                }
            }
            (node, None)
        };
        let (src_anchor, src_link) = anchor_of(src);
        let (dst_anchor, dst_link) = anchor_of(dst);
        // Degenerate compositions: one endpoint anchors at the other.
        if let Some(link) = src_link {
            if src_anchor == dst {
                out.push(link);
                return Ok(());
            }
        }
        if let Some(link) = dst_link {
            if dst_anchor == src {
                out.push(link);
                return Ok(());
            }
        }
        let start = out.len();
        if let Some(link) = src_link {
            out.push(link);
        }
        if src_anchor != dst_anchor {
            let middle = out.len();
            let result = if src_anchor <= dst_anchor {
                self.tree_path_into(topology, src_anchor, dst_anchor, out)
            } else {
                let reversed = self.tree_path_into(topology, dst_anchor, src_anchor, out);
                if reversed.is_ok() {
                    out[middle..].reverse();
                }
                reversed
            };
            // Report unreachability in terms of the queried endpoints, not
            // the anchors the composition happened to route through, and take
            // the source's access link back off `out`.
            if result.is_err() {
                out.truncate(start);
                return Err(TopologyError::NoPath(
                    topology.nodes[src.0].name.clone(),
                    topology.nodes[dst.0].name.clone(),
                ));
            }
        }
        if let Some(link) = dst_link {
            out.push(link);
        }
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

    #[test]
    fn leaf_compressed_paths_match_reference_on_a_multi_tier_topology() {
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
        let mut compressed = PathTable::new();
        compressed.set_leaf_compressed(true);
        let all: Vec<NodeId> = t.nodes().map(|(id, _)| id).collect();
        for &a in &all {
            for &b in &all {
                let got = compressed.path(&t, a, b).unwrap();
                let want = reference_path(&t, a, b).unwrap();
                assert_eq!(got, want, "{a:?} -> {b:?}");
            }
        }
        // The compressed table never built a tree for any leaf host source.
        for &h in &hosts {
            assert!(
                compressed.trees.get(h.0).is_none_or(|slot| slot.is_none()),
                "tree built for leaf host {h:?}"
            );
        }
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

    #[test]
    fn background_load_reduces_effective_capacity() {
        let (mut t, h1, r1, ..) = simple_topology();
        let link = t.link_between(h1, r1).unwrap();
        t.set_background_load(link, 8e6).unwrap();
        let l = t.link(link).unwrap();
        assert!((l.effective_capacity_bps() - 2e6).abs() < 1.0);
        // Background above capacity floors at a tiny positive value.
        t.set_background_load(link, 20e6).unwrap();
        assert!(t.link(link).unwrap().effective_capacity_bps() >= 1.0);
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
    /// degree-2 routers ending in a leaf host, many leaf hosts, a duplicate
    /// of a random link, and a component the rest cannot reach. Latencies are
    /// whole seconds, zero included, so equal-latency routes tie exactly.
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
        t
    }

    #[test]
    fn path_table_matches_reference_dijkstra_on_generated_graphs() {
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
                }
            }
            // One tree per source, leaves included.
            assert_eq!(table.stats().trees_built, t.node_count() as u64);
        }
    }

    #[test]
    fn path_table_reports_missing_nodes_and_paths() {
        // Two hosts on routers the other side cannot reach, and a lone host.
        let mut t = Topology::new();
        let a = t.add_host("a").unwrap();
        let b = t.add_host("b").unwrap();
        let (ra, rb) = (t.add_router("ra").unwrap(), t.add_router("rb").unwrap());
        let c = t.add_host("c").unwrap();
        t.add_link(a, ra, 1e6, ms(1.0)).unwrap();
        t.add_link(b, rb, 1e6, ms(1.0)).unwrap();
        for compressed in [false, true] {
            let mut table = PathTable::new();
            table.set_leaf_compressed(compressed);
            assert!(matches!(
                table.path(&t, a, NodeId(9)),
                Err(TopologyError::UnknownNode(9))
            ));
            // A failed query leaves what `out` held before untouched.
            for (src, dst) in [(a, b), (b, a), (a, c), (c, a), (a, rb), (ra, b)] {
                let mut out = vec![LinkId(7)];
                assert!(
                    matches!(
                        table.path_into(&t, src, dst, &mut out),
                        Err(TopologyError::NoPath(_, _))
                    ),
                    "{src:?} -> {dst:?}"
                );
                assert_eq!(
                    out,
                    [LinkId(7)],
                    "compressed {compressed}: {src:?} -> {dst:?}"
                );
            }
            assert!(table.path(&t, a, a).unwrap().is_empty());
        }
    }
}
