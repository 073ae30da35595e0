//! Routing on the real presets, under the traffic they carry: every path
//! `PathTable` answers between a server (or the request-queue host) and any
//! host, in both directions, and from a stride sample of client hosts to
//! every host, must equal the path of a plain per-source Dijkstra written
//! here — every node queued, leaves included, with the production tie
//! rules: `(latency, hops)` compared lexicographically, the lowest node
//! index popped first among equal distances, the first-found predecessor
//! kept. One table answers every query of a preset, as one `Network`'s
//! does, so sources share gateway trees the way a run shares them.

use gridapp::{testbed_preset_names, Testbed, TestbedSpec};
use simnet::{LinkId, NodeId, NodeKind, PathTable, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A per-source Dijkstra over reused buffers.
struct Oracle {
    adjacency: Vec<Vec<(usize, usize)>>,
    latency: Vec<f64>,
    dist: Vec<(f64, usize)>,
    prev: Vec<Option<(usize, usize)>>,
    settled: Vec<bool>,
    touched: Vec<usize>,
}

/// A heap key ordered by `(latency, hops, node)`.
#[derive(PartialEq)]
struct Entry(f64, usize, usize);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |e: &Entry| (e.1, e.2);
        self.0.total_cmp(&other.0).then(key(self).cmp(&key(other)))
    }
}

impl Oracle {
    fn new(topology: &Topology) -> Self {
        let n = topology.node_count();
        let mut adjacency = vec![Vec::new(); n];
        let mut latency = Vec::new();
        for (id, link) in topology.links() {
            adjacency[link.a.0].push((link.b.0, id.0));
            adjacency[link.b.0].push((link.a.0, id.0));
            latency.push(link.latency.as_secs());
        }
        Oracle {
            adjacency,
            latency,
            dist: vec![(f64::INFINITY, usize::MAX); n],
            prev: vec![None; n],
            settled: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Runs the Dijkstra from `src` until the `left` nodes `target` marks
    /// are settled (or nothing is left to pop).
    fn run(&mut self, src: NodeId, (target, mut left): (&[bool], usize)) {
        for &node in &self.touched {
            self.dist[node] = (f64::INFINITY, usize::MAX);
            self.prev[node] = None;
            self.settled[node] = false;
        }
        self.touched.clear();
        let mut heap = BinaryHeap::new();
        self.dist[src.0] = (0.0, 0);
        self.touched.push(src.0);
        heap.push(Reverse(Entry(0.0, 0, src.0)));
        while let Some(Reverse(Entry(_, _, u))) = heap.pop() {
            if self.settled[u] {
                continue;
            }
            self.settled[u] = true;
            if target[u] {
                left -= 1;
                if left == 0 {
                    return;
                }
            }
            for &(v, link) in &self.adjacency[u] {
                // A leaf lies on no path but its own, so one that is not a
                // target can be left out without changing any other path.
                let idle_leaf = self.adjacency[v].len() == 1 && !target[v];
                if self.settled[v] || idle_leaf {
                    continue;
                }
                let cand = (self.dist[u].0 + self.latency[link], self.dist[u].1 + 1);
                if cand < self.dist[v] {
                    self.touched.push(v);
                    self.dist[v] = cand;
                    self.prev[v] = Some((u, link));
                    heap.push(Reverse(Entry(cand.0, cand.1, v)));
                }
            }
        }
    }

    /// The path from the last run's source to `dst`, in traversal order.
    fn path(&self, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut path = Vec::new();
        let mut cur = dst.0;
        while self.dist[cur].1 > 0 {
            let (prev, link) = self.prev[cur]?;
            path.push(LinkId(link));
            cur = prev;
        }
        path.reverse();
        Some(path)
    }
}

fn assert_routes(name: &str) {
    let spec = TestbedSpec::by_name(name).expect("a preset");
    let testbed = Testbed::from_spec(&spec).expect("testbed builds");
    let topology = &testbed.topology;
    let hosts: Vec<NodeId> = topology
        .nodes()
        .filter(|(_, node)| node.kind == NodeKind::Host)
        .map(|(id, _)| id)
        .collect();
    let mut servers = testbed.server_hosts.clone();
    if !servers.contains(&testbed.host_request_queue) {
        servers.push(testbed.host_request_queue);
    }
    let mut machines: Vec<NodeId> = testbed.client_hosts.iter().map(|&(_, h)| h).collect();
    machines.dedup();
    let stride = (machines.len() / 16).max(1);
    let sampled: Vec<NodeId> = machines.iter().copied().step_by(stride).collect();

    let mask = |nodes: &[NodeId]| {
        let mut mask = vec![false; topology.node_count()];
        nodes.iter().for_each(|n| mask[n.0] = true);
        (mask, nodes.len())
    };
    let (host_mask, server_mask) = (mask(&hosts), mask(&servers));
    let mut oracle = Oracle::new(topology);
    let mut table = PathTable::new();
    let mut got = Vec::new();
    let mut check = |table: &mut PathTable, oracle: &Oracle, src: NodeId, dst: NodeId| {
        got.clear();
        table
            .path_into(topology, src, dst, &mut got)
            .unwrap_or_else(|e| panic!("{name}: {src:?} -> {dst:?}: {e}"));
        let want = oracle.path(dst).expect("connected testbed");
        assert_eq!(got, want, "{name}: {src:?} -> {dst:?}");
    };
    // Out of every server and from every sampled client, to every host.
    for &src in servers.iter().chain(&sampled) {
        oracle.run(src, (&host_mask.0, host_mask.1));
        for &dst in &hosts {
            check(&mut table, &oracle, src, dst);
        }
    }
    // Into every server, from every host.
    for &src in &hosts {
        oracle.run(src, (&server_mask.0, server_mask.1));
        for &dst in &servers {
            check(&mut table, &oracle, src, dst);
        }
    }
    // Each source was counted once, at its first route.
    assert_eq!(table.stats().sources_routed, hosts.len() as u64, "{name}");
}

fn presets(fleet: bool) -> impl Iterator<Item = &'static str> {
    testbed_preset_names().iter().copied().filter(move |name| {
        let spec = TestbedSpec::by_name(name).expect("a preset");
        spec.is_fleet_scale() == fleet
    })
}

#[test]
fn shared_trees_route_the_classic_and_2k_presets_as_a_per_source_dijkstra_does() {
    presets(false).for_each(assert_routes);
}

/// ~14 s in a release build; CI runs it there.
#[test]
#[cfg_attr(debug_assertions, ignore = "a release gate: minutes unoptimised")]
fn shared_trees_route_the_fleet_presets_as_a_per_source_dijkstra_does() {
    presets(true).for_each(assert_routes);
}
