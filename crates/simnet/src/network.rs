//! The fluid-flow network model.
//!
//! A [`Network`] tracks active data transfers over a [`Topology`]. Each
//! transfer drains its remaining bytes at the max-min fair rate of its path;
//! whenever the set of transfers or the background competition changes, the
//! rates are recomputed. The owner of the network (the simulation model) polls
//! [`Network::poll_completions_into`] and schedules a wake-up at
//! [`Network::next_event_time`], which is how transfer completions turn into
//! discrete events.

use crate::alloc::{Allocator, ResourceId, LOCAL_RATE_BPS};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, PathTable, Topology, TopologyError};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifies a transfer in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// Errors raised by network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The underlying topology reported a problem.
    Topology(TopologyError),
    /// A one-way mutation named a node that is not an endpoint of the link.
    InvalidDirection(LinkId, NodeId),
}

impl From<TopologyError> for NetError {
    fn from(e: TopologyError) -> Self {
        NetError::Topology(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Topology(e) => write!(f, "topology error: {e}"),
            NetError::InvalidDirection(link, node) => {
                write!(f, "node {} is not an endpoint of link {}", node.0, link.0)
            }
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug, Clone)]
struct ActiveTransfer {
    /// What the transfer reports once it arrives; `delivered` is filled in
    /// when it drains.
    record: CompletedTransfer,
    remaining_bits: f64,
    rate_bps: f64,
    /// The rate the last solved epoch replaced: what an epoch that undoes
    /// the last start restores.
    rate_before: f64,
    extra_latency: SimDuration,
}

impl ActiveTransfer {
    /// Seconds until the transfer drains at its current rate, capped at
    /// 1e12; `None` while it is stalled at rate zero.
    fn drain_secs(&self) -> Option<f64> {
        (self.rate_bps > 0.0).then(|| (self.remaining_bits / self.rate_bps).min(1.0e12))
    }
}

/// The smaller of a running minimum drain time and `t`'s.
fn min_drain(min: Option<f64>, t: &ActiveTransfer) -> Option<f64> {
    t.drain_secs().map(|s| min.map_or(s, |m| m.min(s))).or(min)
}

/// What opened an allocation epoch; the transfers are named by their row.
#[derive(Debug, Clone, Copy)]
enum Epoch {
    Start(u32),
    Retire(u32),
    Mutation,
}

/// A transfer that has finished draining and been delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTransfer {
    /// The transfer's id.
    pub id: TransferId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub size_bytes: f64,
    /// When the transfer started.
    pub started: SimTime,
    /// When the last byte arrived at the destination.
    pub delivered: SimTime,
    /// Caller-supplied tag (e.g. request id) for correlation.
    pub tag: u64,
}

impl CompletedTransfer {
    /// End-to-end duration of the transfer.
    pub fn duration(&self) -> SimDuration {
        self.delivered.since(self.started)
    }
}

/// The fluid-flow network simulation.
///
/// Active transfers live in a dense slab whose index is the transfer's row
/// in a persistent [`Allocator`]: a row is registered when the transfer
/// starts and dropped when it retires, so an *allocation epoch* — the
/// interval between two mutations — pays for one solve over rows already in
/// place. Shortest paths come from a cached [`PathTable`] and effective link
/// capacities from a dense vector refreshed only when a capacity-affecting
/// mutation occurs. A probe ([`available_bandwidth`](Self::available_bandwidth))
/// borrows the allocator for one extra row, and its answer is memoised per
/// `(src, dst)` pair until the epoch ends. An epoch that retires exactly the
/// transfer whose start opened the epoch before it (a request transfer
/// started, then drained) does not solve: its demand set is the one from
/// before that start, so it restores the rates that start replaced. All of
/// this is bit-identical to re-solving every epoch from scratch with one
/// unit-weight row per transfer in flight.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    /// Active transfers by allocator row; `None` marks a vacant row.
    slab: Vec<Option<ActiveTransfer>>,
    /// Drained transfers on their way, stamped with their arrival.
    pending: Vec<CompletedTransfer>,
    next_id: u64,
    last_advance: SimTime,
    /// Nodes currently taken down by fault injection. Every link adjacent to
    /// a down node has (effectively) no capacity until the node comes back.
    down_nodes: BTreeSet<NodeId>,
    /// Fault-injection mutations applied (capacity changes, one-way caps,
    /// node liveness flips).
    mutations: u64,
    /// One-way degrades in force: link → (degraded-direction origin, cap).
    oneway: BTreeMap<LinkId, (NodeId, f64)>,
    /// Number of physical links; resources `0..n_links` are the shared link
    /// pools, `n_links..2*n_links` the one-way-degraded directions.
    n_links: usize,
    /// Construction-time link capacities — the restore threshold for one-way
    /// degrades (fault mutations overwrite the live `capacity_bps`).
    nominal_caps: Vec<f64>,
    /// Dense per-resource effective capacities for the current epoch.
    caps: Vec<f64>,
    /// Set by capacity-affecting mutations; consumed by `recompute_rates`.
    caps_dirty: bool,
    /// The row whose start opened the current epoch, if one did.
    last_start: Option<u32>,
    /// Min over active transfers of `(remaining/rate).min(1e12)`, restricted
    /// to positive-rate transfers, as of `last_advance` — the cached answer
    /// `next_event_time` and `advance` would otherwise scan for.
    drain_min_pos_secs: Option<f64>,
    paths: RefCell<PathTable>,
    alloc: RefCell<Allocator>,
    resource_scratch: RefCell<Vec<ResourceId>>,
    link_scratch: RefCell<Vec<LinkId>>,
    /// Per-epoch memo of probe results: identical queries within one epoch
    /// are pure, so the first answer serves every later caller.
    probe_memo: RefCell<HashMap<(NodeId, NodeId), f64>>,
    /// Lifetime count of max-min probe *solves* (memo misses) — the unit the
    /// symmetry-aware probe sharing is measured in.
    probe_solves: std::cell::Cell<u64>,
    /// Lifetime count of probe *queries* (memo hits included); queries minus
    /// solves is the memo's hit count.
    probe_queries: std::cell::Cell<u64>,
    /// Lifetime count of allocation epochs ([`recompute_rates`] runs) — the
    /// dominant control-plane cost driver at scale.
    rate_epochs: u64,
    /// Lifetime count of the epochs that ran a solve.
    rate_solves: u64,
}

impl Network {
    /// Wraps a topology in a network with no active transfers.
    pub fn new(topology: Topology) -> Self {
        let n_links = topology.link_count();
        let nominal_caps: Vec<f64> = topology.links().map(|(_, l)| l.capacity_bps).collect();
        let mut network = Network {
            topology,
            slab: Vec::new(),
            pending: Vec::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            down_nodes: BTreeSet::new(),
            mutations: 0,
            oneway: BTreeMap::new(),
            n_links,
            nominal_caps,
            caps: Vec::new(),
            caps_dirty: false,
            last_start: None,
            drain_min_pos_secs: None,
            paths: RefCell::new(PathTable::new()),
            alloc: RefCell::new(Allocator::new()),
            resource_scratch: RefCell::new(Vec::new()),
            link_scratch: RefCell::new(Vec::new()),
            probe_memo: RefCell::new(HashMap::new()),
            probe_solves: std::cell::Cell::new(0),
            probe_queries: std::cell::Cell::new(0),
            rate_epochs: 0,
            rate_solves: 0,
        };
        network.refresh_caps();
        network
    }

    /// The underlying topology (read-only; use the dedicated mutators so rate
    /// recomputation stays consistent).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of transfers currently draining.
    pub fn active_transfers(&self) -> usize {
        self.slab.iter().flatten().count()
    }

    /// Starts a transfer of `size_bytes` from `src` to `dst` at time `now`.
    pub fn start_transfer(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        size_bytes: f64,
        tag: u64,
    ) -> Result<TransferId, NetError> {
        self.advance(now);
        let extra_latency = self.route(src, dst)?;
        let resources = self.resource_scratch.get_mut();
        let row = self.alloc.get_mut().insert(&self.caps, resources);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        let vacant = row as usize;
        if vacant >= self.slab.len() {
            self.slab.resize_with(vacant + 1, || None);
        }
        self.slab[vacant] = Some(ActiveTransfer {
            record: CompletedTransfer {
                id,
                src,
                dst,
                size_bytes,
                started: now,
                delivered: now,
                tag,
            },
            remaining_bits: (size_bytes * 8.0).max(1.0),
            rate_bps: 0.0,
            rate_before: 0.0,
            extra_latency,
        });
        self.recompute_rates(Epoch::Start(row));
        Ok(id)
    }

    /// Takes a transfer out of the slab and its row out of the allocator.
    fn retire(&mut self, row: u32) -> ActiveTransfer {
        self.alloc.get_mut().remove(row);
        self.slab[row as usize].take().expect("a live row")
    }

    /// Routes `src → dst` into `resource_scratch` as allocator resources (and
    /// into `link_scratch` as links) and returns the path's latency.
    fn route(&self, src: NodeId, dst: NodeId) -> Result<SimDuration, NetError> {
        let mut links = self.link_scratch.borrow_mut();
        links.clear();
        self.paths
            .borrow_mut()
            .path_into(&self.topology, src, dst, &mut links)?;
        let mut resources = self.resource_scratch.borrow_mut();
        resources.clear();
        self.resources_into(&links, src, &mut resources);
        Ok(self.topology.path_latency(&links))
    }

    /// Appends a link path's allocator resources to `out`. Without one-way
    /// degrades this is the identity mapping onto link indices; with them,
    /// links traversed in a degraded direction map onto the link's
    /// direction-specific resource (`n_links + link`).
    fn resources_into(&self, path: &[LinkId], src: NodeId, out: &mut Vec<ResourceId>) {
        if self.oneway.is_empty() {
            out.extend(path.iter().map(|l| l.0 as ResourceId));
            return;
        }
        let mut cur = src;
        for &link_id in path {
            let link = self.topology.link(link_id).expect("paths use valid links");
            let from = cur;
            cur = link.other_end(cur).expect("path is connected");
            let degraded =
                matches!(self.oneway.get(&link_id), Some(&(origin, _)) if origin == from);
            out.push(if degraded {
                (self.n_links + link_id.0) as ResourceId
            } else {
                link_id.0 as ResourceId
            });
        }
    }

    /// Cancels an in-flight transfer. Returns `Ok(true)` if it was still
    /// active.
    pub fn cancel_transfer(&mut self, now: SimTime, id: TransferId) -> Result<bool, NetError> {
        self.advance(now);
        let row = self
            .slab
            .iter()
            .position(|t| t.as_ref().is_some_and(|t| t.record.id == id));
        if let Some(row) = row {
            self.retire(row as u32);
            self.recompute_rates(Epoch::Retire(row as u32));
        }
        Ok(row.is_some())
    }

    /// Sets competing background traffic directly on a single link (e.g. an
    /// inter-router link loaded by the experiment's competition generator),
    /// replacing the link's previous load.
    pub fn set_background_on_link(
        &mut self,
        now: SimTime,
        link: LinkId,
        bps: f64,
    ) -> Result<(), NetError> {
        self.advance(now);
        self.topology.set_background_load(link, bps)?;
        self.caps_dirty = true;
        self.recompute_rates(Epoch::Mutation);
        Ok(())
    }

    /// Sets a link's raw capacity (bits per second) — the fault-injection
    /// hook behind `LinkCut` (capacity 0) and `LinkDegrade` (a fraction of
    /// the original capacity). Rates of every in-flight transfer are
    /// recomputed immediately; the mutation is counted in
    /// [`mutation_count`](Self::mutation_count).
    pub fn set_link_capacity(
        &mut self,
        now: SimTime,
        link: LinkId,
        capacity_bps: f64,
    ) -> Result<(), NetError> {
        self.advance(now);
        let capacity_bps = capacity_bps.max(0.0);
        self.topology.link_mut(link)?.capacity_bps = capacity_bps;
        self.mutations += 1;
        self.caps_dirty = true;
        self.recompute_rates(Epoch::Mutation);
        Ok(())
    }

    /// Imposes (or lifts) a *one-way* capacity cap on a link — the
    /// fault-injection hook behind `LinkDegradeOneWay`, modelling grey
    /// failures where one direction of a link is degraded while the other
    /// stays healthy. Traffic traversing the link **from** `from` is capped
    /// at `capacity_bps`; the opposite direction keeps the link's full
    /// (shared) capacity. A cap at or above the link's *nominal* capacity —
    /// its construction-time value, not the current (possibly fault-mutated)
    /// one, so a grey failure is not silently dropped while the link is also
    /// cut or degraded symmetrically — lifts the degrade. While a cap is in
    /// force the two directions are accounted as separate allocator
    /// resources; symmetric operation (the common case) is bit-identical to
    /// the shared-pool model.
    pub fn set_link_oneway(
        &mut self,
        now: SimTime,
        link: LinkId,
        from: NodeId,
        capacity_bps: f64,
    ) -> Result<(), NetError> {
        self.advance(now);
        let l = self.topology.link(link)?;
        if l.a != from && l.b != from {
            return Err(NetError::InvalidDirection(link, from));
        }
        let nominal = self.nominal_caps[link.0];
        let changed = if capacity_bps >= nominal {
            self.oneway.remove(&link).is_some()
        } else {
            let capped = capacity_bps.max(0.0);
            self.oneway.insert(link, (from, capped)) != Some((from, capped))
        };
        if changed {
            self.mutations += 1;
            // Resource ids of in-flight transfers depend on the one-way map:
            // recover each path from the old ids and translate it again. The
            // epoch's solve reads the refreshed capacities.
            let mut alloc = self.alloc.borrow_mut();
            let (mut links, mut resources) = (
                self.link_scratch.borrow_mut(),
                self.resource_scratch.borrow_mut(),
            );
            for (row, t) in self.slab.iter().enumerate() {
                let Some(t) = t else { continue };
                links.clear();
                let crossed = alloc.path(row as u32).map(|r| r as usize % self.n_links);
                links.extend(crossed.map(LinkId));
                resources.clear();
                self.resources_into(&links, t.record.src, &mut resources);
                alloc.relink(row as u32, &self.caps, &resources);
            }
            drop((alloc, links, resources));
            self.caps_dirty = true;
            self.recompute_rates(Epoch::Mutation);
        }
        Ok(())
    }

    /// Marks a node down (or back up) — the fault-injection hook behind
    /// server-machine crashes and router outages. While a node is down every
    /// link adjacent to it carries (effectively) no traffic: in-flight
    /// transfers crossing it stall and new flows see no bandwidth. The
    /// mutation is counted in [`mutation_count`](Self::mutation_count).
    pub fn set_node_down(
        &mut self,
        now: SimTime,
        node: NodeId,
        down: bool,
    ) -> Result<(), NetError> {
        self.advance(now);
        self.topology.node(node)?;
        let changed = if down {
            self.down_nodes.insert(node)
        } else {
            self.down_nodes.remove(&node)
        };
        if changed {
            self.mutations += 1;
            self.caps_dirty = true;
            self.recompute_rates(Epoch::Mutation);
        }
        Ok(())
    }

    /// Whether a node is currently marked down.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down_nodes.contains(&node)
    }

    /// Fault-injection mutations applied so far (0 for fault-free runs): a
    /// link capacity set, a one-way cap imposed or lifted, a node's liveness
    /// flipped.
    pub fn mutation_count(&self) -> u64 {
        self.mutations
    }

    /// Refreshes the dense per-resource effective-capacity vector:
    /// background competition is subtracted, links touching a down node are
    /// floored to the same minimal positive capacity as fully-saturated
    /// links (so transfers stall rather than divide by zero), and one-way
    /// degraded directions are capped on their dedicated resource. Called
    /// only when a capacity-affecting mutation occurred — transfer churn
    /// leaves capacities untouched.
    fn refresh_caps(&mut self) {
        self.caps.clear();
        self.caps.resize(2 * self.n_links, 0.0);
        for (id, l) in self.topology.links() {
            let capacity = if self.down_nodes.contains(&l.a) || self.down_nodes.contains(&l.b) {
                1.0
            } else {
                l.effective_capacity_bps()
            };
            self.caps[id.0] = capacity;
            if let Some(&(_, oneway_cap)) = self.oneway.get(&id) {
                self.caps[self.n_links + id.0] = capacity.min(oneway_cap);
            }
        }
        self.caps_dirty = false;
        self.alloc.get_mut().refresh_capacities(&self.caps);
    }

    /// Advances the fluid model to `now`, draining transfers at their current
    /// rates and collecting completions (handles multiple completions within
    /// the window in chronological order).
    pub fn advance(&mut self, now: SimTime) {
        let mut current = self.last_advance;
        if now <= current {
            return;
        }
        // The cached minimum drain time is current as of `current` (every
        // path that changes a rate or a remaining volume refreshes it), and
        // `current + _` is monotone, so it is the next completion instant.
        while let Some(drain_at) = self
            .drain_min_pos_secs
            .map(|secs| current + SimDuration::from_secs(secs))
            .filter(|&at| at <= now)
        {
            // One pass drains every transfer up to the completion instant
            // and finds the one completing: the earliest, ties to the lowest
            // id so simultaneous completions drain in a deterministic order.
            let dt = drain_at.since(current).as_secs();
            let mut first: Option<(SimTime, TransferId, usize)> = None;
            for (row, t) in self.slab.iter_mut().enumerate() {
                let Some(t) = t else { continue };
                let at = current + SimDuration::from_secs(t.drain_secs().unwrap_or(1.0e12));
                let key = (at, t.record.id, row);
                first = Some(first.map_or(key, |f| f.min(key)));
                t.remaining_bits = (t.remaining_bits - t.rate_bps * dt).max(0.0);
            }
            current = drain_at;
            let row = first.expect("a cached drain time has a transfer").2 as u32;
            let done = self.retire(row);
            let delivered = drain_at + done.extra_latency;
            self.pending.push(CompletedTransfer {
                delivered,
                ..done.record
            });
            self.recompute_rates(Epoch::Retire(row));
        }
        // No completion before `now`; drain partially.
        let dt = now.since(current).as_secs();
        let mut drain_min = None;
        for t in self.slab.iter_mut().flatten() {
            t.remaining_bits = (t.remaining_bits - t.rate_bps * dt).max(0.0);
            drain_min = min_drain(drain_min, t);
        }
        self.drain_min_pos_secs = drain_min;
        self.last_advance = now;
    }

    /// Settles the rates of a new allocation epoch: capacities are refreshed
    /// only if a mutation dirtied them, the per-epoch probe memo is
    /// invalidated, and the allocator solves over the rows in place. An epoch
    /// that retires exactly the transfer whose start opened the previous one
    /// has the demand set and capacities of the epoch before that start, so it
    /// restores the rates that start replaced instead of solving.
    fn recompute_rates(&mut self, epoch: Epoch) {
        self.rate_epochs += 1;
        self.probe_memo.get_mut().clear();
        let undo = matches!(epoch, Epoch::Retire(row) if self.last_start == Some(row));
        self.last_start = match epoch {
            Epoch::Start(row) => Some(row),
            Epoch::Retire(_) | Epoch::Mutation => None,
        };
        if !undo {
            if self.caps_dirty {
                self.refresh_caps();
            }
            self.alloc.get_mut().solve();
            self.rate_solves += 1;
        }
        let alloc = self.alloc.get_mut();
        let mut drain_min = None;
        for (row, t) in self.slab.iter_mut().enumerate() {
            let Some(t) = t else { continue };
            if undo {
                t.rate_bps = t.rate_before;
            } else {
                t.rate_before = t.rate_bps;
                t.rate_bps = alloc.rate(row as u32);
            }
            drain_min = min_drain(drain_min, t);
        }
        self.drain_min_pos_secs = drain_min;
    }

    /// The earliest future time at which something observable happens: a
    /// transfer finishing its drain or a pending delivery arriving.
    ///
    /// The drain component is served from a cache maintained by
    /// [`recompute_rates`](Self::recompute_rates) and `advance` instead of
    /// scanning every active transfer.
    ///
    /// **Known inaccuracy, kept because every recorded digest depends on it:**
    /// the cached drain time is measured from the last `advance`, but it is
    /// added to `now`. A transfer draining in 10 s from t = 0 reports 15 s
    /// when asked at t = 5 before `advance(5)`, and 10 s after it. The
    /// application asks with its own clock, which runs ahead of the
    /// network's between ticks.
    pub fn next_event_time(&self, now: SimTime) -> Option<SimTime> {
        let drain = self
            .drain_min_pos_secs
            .map(|secs| now + SimDuration::from_secs(secs));
        let deliveries = self.pending.iter().map(|p| p.delivered);
        deliveries.chain(drain).min()
    }

    /// Appends the transfers whose last byte has arrived by `now` (advancing
    /// the fluid model first) to a buffer the caller reuses, in `(delivered,
    /// id)` order: ready deliveries are drained in place, so a poll allocates
    /// nothing (and one that finds nothing due touches nothing).
    pub fn poll_completions_into(&mut self, now: SimTime, out: &mut Vec<CompletedTransfer>) {
        self.advance(now);
        let start = out.len();
        self.pending.retain(|p| {
            let ready = p.delivered <= now;
            if ready {
                out.push(p.clone());
            }
            !ready
        });
        out[start..].sort_by(|a, b| a.delivered.cmp(&b.delivered).then(a.id.cmp(&b.id)));
    }

    /// Predicted bandwidth (bits/second) a *new* flow between `src` and `dst`
    /// would receive right now — the quantity the paper obtains from Remos'
    /// `remos_get_flow` query.
    ///
    /// The probe is one more row in the epoch's allocator — inserted,
    /// solved with the transfers' rows already in place, read and removed —
    /// and its answer is memoised per `(src, dst)` pair until the next
    /// mutation. Both are exact: the answer is bit-identical to a full
    /// re-solve with the probe included.
    pub fn available_bandwidth(&self, src: NodeId, dst: NodeId) -> Result<f64, NetError> {
        self.probe_queries.set(self.probe_queries.get() + 1);
        if let Some(&cached) = self.probe_memo.borrow().get(&(src, dst)) {
            return Ok(cached);
        }
        self.probe_solves.set(self.probe_solves.get() + 1);
        self.route(src, dst)?;
        let probe = self.resource_scratch.borrow();
        let rate = if probe.is_empty() {
            LOCAL_RATE_BPS
        } else {
            let mut alloc = self.alloc.borrow_mut();
            let row = alloc.insert(&self.caps, &probe);
            alloc.solve();
            let rate = alloc.rate(row);
            alloc.remove(row);
            rate
        };
        self.probe_memo.borrow_mut().insert((src, dst), rate);
        Ok(rate)
    }

    /// Lifetime number of max-min probe solves performed by
    /// [`available_bandwidth`](Self::available_bandwidth) (per-epoch memo
    /// hits excluded). Probe-sharing optimisations are benchmarked against
    /// this counter; it never influences behaviour.
    pub fn probe_solve_count(&self) -> u64 {
        self.probe_solves.get()
    }

    /// Lifetime number of probe *queries* (memo hits included). The memo's
    /// hit count is `probe_query_count() - probe_solve_count()`. Like every
    /// observability counter, it never influences behaviour.
    pub fn probe_query_count(&self) -> u64 {
        self.probe_queries.get()
    }

    /// Lifetime number of allocation epochs (rate recomputations, solved or
    /// restored). Deterministic for a given run — the epoch schedule is
    /// driven entirely by simulated mutations.
    pub fn rate_epoch_count(&self) -> u64 {
        self.rate_epochs
    }

    /// Lifetime number of the allocation epochs that ran a max-min solve:
    /// [`rate_epoch_count`](Self::rate_epoch_count) minus the epochs that
    /// undid the last start and restored its predecessor's rates.
    pub fn rate_solve_count(&self) -> u64 {
        self.rate_solves
    }

    /// Usage counters of the shortest-path table (trees built lazily vs
    /// path lookups answered).
    pub fn path_table_stats(&self) -> crate::topology::PathTableStats {
        self.paths.borrow().stats()
    }

    /// Switches the path cache to leaf-compressed routing (see
    /// [`PathTable::set_leaf_compressed`]): shortest-path trees are only
    /// built for attachment routers instead of one per transfer source —
    /// the difference between a few router trees and `O(hosts × nodes)`
    /// memory on fleet-scale multi-tier topologies. Call before starting
    /// transfers; enabling it mid-run would mix path conventions across an
    /// epoch.
    pub fn set_leaf_routing(&mut self, enabled: bool) {
        self.paths.borrow_mut().set_leaf_compressed(enabled);
    }

    /// The current drain rate of a transfer, if it is still active.
    pub fn transfer_rate(&self, id: TransferId) -> Option<f64> {
        let mut live = self.slab.iter().flatten();
        live.find(|t| t.record.id == id).map(|t| t.rate_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transfers delivered by `now`, in a fresh buffer.
    fn poll(net: &mut Network, now: SimTime) -> Vec<CompletedTransfer> {
        let mut done = Vec::new();
        net.poll_completions_into(now, &mut done);
        done
    }

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn t(v: f64) -> SimTime {
        SimTime::from_secs(v)
    }

    /// Two hosts joined through one router; both links 10 Mbps, 1 ms latency.
    fn two_host_net() -> (Network, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_host("a").unwrap();
        let r = topo.add_router("r").unwrap();
        let b = topo.add_host("b").unwrap();
        topo.add_link(a, r, 10e6, ms(1.0)).unwrap();
        topo.add_link(r, b, 10e6, ms(1.0)).unwrap();
        (Network::new(topo), a, b)
    }

    #[test]
    fn single_transfer_completes_at_expected_time() {
        let (mut net, a, b) = two_host_net();
        // 10 Mbit payload over a 10 Mbps bottleneck: ~1 s + 2 ms latency.
        let id = net.start_transfer(t(0.0), a, b, 10e6 / 8.0, 42).unwrap();
        assert!(poll(&mut net, t(0.5)).is_empty());
        let done = poll(&mut net, t(1.1));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].tag, 42);
        let dur = done[0].duration().as_secs();
        assert!((dur - 1.002).abs() < 1e-3, "duration={dur}");
    }

    #[test]
    fn two_transfers_share_bandwidth() {
        let (mut net, a, b) = two_host_net();
        // Two 5 Mbit transfers on a 10 Mbps path: each gets 5 Mbps, ~1 s each.
        net.start_transfer(t(0.0), a, b, 5e6 / 8.0, 1).unwrap();
        net.start_transfer(t(0.0), a, b, 5e6 / 8.0, 2).unwrap();
        assert!(poll(&mut net, t(0.9)).is_empty());
        let done = poll(&mut net, t(1.1));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn second_transfer_speeds_up_after_first_finishes() {
        let (mut net, a, b) = two_host_net();
        // First: 2.5 Mbit, second: 10 Mbit, started together.
        // Phase 1: both at 5 Mbps until first finishes at 0.5 s.
        // Phase 2: second alone at 10 Mbps for its remaining 7.5 Mbit = 0.75 s.
        // Total for the second: ~1.25 s (+latency).
        net.start_transfer(t(0.0), a, b, 2.5e6 / 8.0, 1).unwrap();
        net.start_transfer(t(0.0), a, b, 10e6 / 8.0, 2).unwrap();
        let first = poll(&mut net, t(0.6));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].tag, 1);
        let second = poll(&mut net, t(1.3));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].tag, 2);
        let dur = second[0].duration().as_secs();
        assert!((dur - 1.252).abs() < 5e-3, "duration={dur}");
    }

    #[test]
    fn background_competition_slows_transfers() {
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        net.set_background_on_link(t(0.0), link, 9e6).unwrap();
        // Only 1 Mbps left: a 1 Mbit transfer takes ~1 s instead of ~0.1 s.
        net.start_transfer(t(0.0), a, b, 1e6 / 8.0, 1).unwrap();
        assert!(poll(&mut net, t(0.5)).is_empty());
        assert_eq!(poll(&mut net, t(1.1)).len(), 1);
    }

    #[test]
    fn link_level_background_load() {
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        net.set_background_on_link(t(0.0), link, 9.5e6).unwrap();
        let avail = net.available_bandwidth(a, b).unwrap();
        assert!((avail - 0.5e6).abs() < 1.0, "avail={avail}");
    }

    #[test]
    fn an_unknown_link_is_rejected_and_changes_nothing() {
        let (mut net, a, b) = two_host_net();
        let rejected = net.set_background_on_link(t(0.0), LinkId(99), 5e6);
        assert!(
            matches!(
                rejected,
                Err(NetError::Topology(TopologyError::UnknownLink(_)))
            ),
            "{rejected:?}"
        );
        assert!((net.available_bandwidth(a, b).unwrap() - 10e6).abs() < 1.0);
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        net.set_background_on_link(t(1.0), link, 4e6).unwrap();
        assert!((net.available_bandwidth(a, b).unwrap() - 6e6).abs() < 1.0);
    }

    #[test]
    fn available_bandwidth_accounts_for_active_flows() {
        let (mut net, a, b) = two_host_net();
        assert!((net.available_bandwidth(a, b).unwrap() - 10e6).abs() < 1.0);
        net.start_transfer(t(0.0), a, b, 100e6, 1).unwrap();
        // A new flow would share the 10 Mbps path with the existing one.
        let avail = net.available_bandwidth(a, b).unwrap();
        assert!((avail - 5e6).abs() < 1.0, "avail={avail}");
    }

    #[test]
    fn cancel_removes_transfer_and_frees_bandwidth() {
        let (mut net, a, b) = two_host_net();
        let id = net.start_transfer(t(0.0), a, b, 100e6, 1).unwrap();
        assert_eq!(net.active_transfers(), 1);
        assert!(net.cancel_transfer(t(0.1), id).unwrap());
        assert_eq!(net.active_transfers(), 0);
        assert!(!net.cancel_transfer(t(0.2), id).unwrap());
        assert!((net.available_bandwidth(a, b).unwrap() - 10e6).abs() < 1.0);
    }

    #[test]
    fn next_event_time_predicts_completion() {
        let (mut net, a, b) = two_host_net();
        net.start_transfer(t(0.0), a, b, 10e6 / 8.0, 1).unwrap();
        let next = net.next_event_time(t(0.0)).unwrap();
        assert!((next.as_secs() - 1.0).abs() < 1e-6, "next={next}");
        assert!(net.next_event_time(t(0.0)).is_some());
    }

    /// The known inaccuracy `next_event_time`'s doc describes, pinned: the
    /// cached drain time counts from the last `advance`, not from `now`.
    #[test]
    fn next_event_time_adds_the_drain_time_cached_at_the_last_advance() {
        let (mut net, a, b) = two_host_net();
        // 100 Mbit over a 10 Mbps path: drains at t = 10 s.
        net.start_transfer(t(0.0), a, b, 100e6 / 8.0, 1).unwrap();
        assert_eq!(net.next_event_time(t(5.0)), Some(t(15.0)));
        net.advance(t(5.0));
        assert_eq!(net.next_event_time(t(5.0)), Some(t(10.0)));
    }

    #[test]
    fn local_transfer_is_effectively_instant() {
        let (mut net, a, _b) = two_host_net();
        net.start_transfer(t(0.0), a, a, 20_000.0, 9).unwrap();
        let done = poll(&mut net, t(0.01));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn link_cut_stalls_transfers_and_restoring_resumes_them() {
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        // 10 Mbit payload; cut the access link immediately: nothing completes.
        net.start_transfer(t(0.0), a, b, 10e6 / 8.0, 1).unwrap();
        net.set_link_capacity(t(0.1), link, 0.0).unwrap();
        assert!(poll(&mut net, t(5.0)).is_empty());
        assert!(net.available_bandwidth(a, b).unwrap() <= 1.0);
        // Restore: the transfer drains at full speed again.
        net.set_link_capacity(t(5.0), link, 10e6).unwrap();
        assert_eq!(poll(&mut net, t(6.2)).len(), 1);
        // Both mutations were counted.
        assert_eq!(net.mutation_count(), 2);
    }

    #[test]
    fn down_node_zeroes_its_links_until_it_returns() {
        let (mut net, a, b) = two_host_net();
        let router = NodeId(1);
        assert!(!net.node_is_down(router));
        net.set_node_down(t(0.0), router, true).unwrap();
        assert!(net.node_is_down(router));
        assert!(net.available_bandwidth(a, b).unwrap() <= 1.0);
        // Marking the same node down twice counts a single mutation.
        net.set_node_down(t(0.5), router, true).unwrap();
        assert_eq!(net.mutation_count(), 1);
        net.set_node_down(t(1.0), router, false).unwrap();
        assert!(!net.node_is_down(router));
        assert!((net.available_bandwidth(a, b).unwrap() - 10e6).abs() < 1.0);
        assert_eq!(net.mutation_count(), 2);
    }

    #[test]
    fn degraded_link_capacity_slows_transfers_proportionally() {
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        // Degrade the access link to 10% of its capacity: a 1 Mbit payload
        // now takes ~1 s instead of ~0.1 s.
        net.set_link_capacity(t(0.0), link, 1e6).unwrap();
        net.start_transfer(t(0.0), a, b, 1e6 / 8.0, 1).unwrap();
        assert!(poll(&mut net, t(0.5)).is_empty());
        assert_eq!(poll(&mut net, t(1.1)).len(), 1);
    }

    #[test]
    fn oneway_degrade_hits_one_direction_only() {
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        assert!(!net.oneway.contains_key(&link));
        // Degrade the a→r direction to 1 Mbps: a→b flows crawl, b→a flows
        // keep the full 10 Mbps.
        net.set_link_oneway(t(0.0), link, a, 1.0e6).unwrap();
        assert_eq!(net.oneway.get(&link), Some(&(a, 1.0e6)));
        let forward = net.available_bandwidth(a, b).unwrap();
        let reverse = net.available_bandwidth(b, a).unwrap();
        assert!((forward - 1.0e6).abs() < 1.0, "forward={forward}");
        assert!((reverse - 10.0e6).abs() < 1.0, "reverse={reverse}");
        // An in-flight forward transfer slows to the cap; 1 Mbit now takes
        // ~1 s instead of ~0.1 s.
        net.start_transfer(t(0.0), a, b, 1.0e6 / 8.0, 1).unwrap();
        assert!(poll(&mut net, t(0.5)).is_empty());
        assert_eq!(poll(&mut net, t(1.1)).len(), 1);
        // Restoring (cap at/above nominal) lifts the degrade.
        net.set_link_oneway(t(2.0), link, a, 10.0e6).unwrap();
        assert!(!net.oneway.contains_key(&link));
        assert!((net.available_bandwidth(a, b).unwrap() - 10.0e6).abs() < 1.0);
        // Both mutations were counted.
        assert_eq!(net.mutation_count(), 2);
        // A non-endpoint direction is rejected.
        assert!(matches!(
            net.set_link_oneway(t(2.0), link, b, 1.0),
            Err(NetError::InvalidDirection(_, _))
        ));
    }

    #[test]
    fn oneway_degrade_survives_a_concurrent_symmetric_cut() {
        // A grey failure applied while the link is also cut must not be
        // treated as a lift: the restore threshold is the nominal capacity,
        // not the fault-mutated current one.
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        net.set_link_capacity(t(0.0), link, 0.0).unwrap();
        net.set_link_oneway(t(1.0), link, a, 3.0e6).unwrap();
        assert_eq!(net.oneway.get(&link), Some(&(a, 3.0e6)));
        // Restoring the symmetric cut leaves the grey failure in force.
        net.set_link_capacity(t(2.0), link, 10.0e6).unwrap();
        assert!((net.available_bandwidth(a, b).unwrap() - 3.0e6).abs() < 1.0);
        assert!((net.available_bandwidth(b, a).unwrap() - 10.0e6).abs() < 1.0);
        // Lifting at nominal clears it.
        net.set_link_oneway(t(3.0), link, a, 10.0e6).unwrap();
        assert!(!net.oneway.contains_key(&link));
    }

    #[test]
    fn oneway_degrade_remaps_in_flight_transfers_and_restores_exactly() {
        let (mut net, a, b) = two_host_net();
        let link = net.topology().link_between(a, NodeId(1)).unwrap();
        // Two opposing transfers share the undirected 10 Mbps pool: 5 Mbps
        // each. A one-way degrade splits the a–r pool: the degraded
        // direction is capped at 2 Mbps, and the reverse transfer is then
        // limited only by the still-shared r–b link (10 Mbps minus nothing —
        // the capped flow's 2 Mbps leaves it 8 Mbps).
        net.start_transfer(t(0.0), a, b, 100e6, 1).unwrap();
        net.start_transfer(t(0.0), b, a, 100e6, 2).unwrap();
        assert!((net.transfer_rate(TransferId(0)).unwrap() - 5.0e6).abs() < 1.0);
        net.set_link_oneway(t(0.1), link, a, 2.0e6).unwrap();
        assert!((net.transfer_rate(TransferId(0)).unwrap() - 2.0e6).abs() < 1.0);
        assert!((net.transfer_rate(TransferId(1)).unwrap() - 8.0e6).abs() < 1.0);
        // Lifting the cap returns to the shared pool.
        net.set_link_oneway(t(0.2), link, a, 10.0e6).unwrap();
        assert!((net.transfer_rate(TransferId(0)).unwrap() - 5.0e6).abs() < 1.0);
    }

    /// A star: three symmetric clients and one server host on one router.
    fn star_net() -> (Network, Vec<NodeId>, NodeId) {
        let mut topo = Topology::new();
        let r = topo.add_router("r").unwrap();
        let clients: Vec<NodeId> = (0..3)
            .map(|i| {
                let c = topo.add_host(&format!("c{i}")).unwrap();
                topo.add_link(c, r, 20e6, ms(1.0)).unwrap();
                c
            })
            .collect();
        let s = topo.add_host("s").unwrap();
        topo.add_link(s, r, 10e6, ms(1.0)).unwrap();
        (Network::new(topo), clients, s)
    }

    fn assert_rates(net: &Network, expected: &[f64]) {
        for (i, &want) in expected.iter().enumerate() {
            let rate = net.transfer_rate(TransferId(i as u64)).unwrap();
            assert!((rate - want).abs() < 1.0, "transfer {i}: {rate} != {want}");
        }
    }

    #[test]
    fn symmetric_clients_split_the_server_link_equally() {
        let (mut net, clients, s) = star_net();
        for (i, &c) in clients.iter().enumerate() {
            net.start_transfer(t(0.0), s, c, 100e6, i as u64).unwrap();
        }
        // The server access link (10 Mbps) splits three ways.
        assert_rates(&net, &[10e6 / 3.0; 3]);
    }

    #[test]
    fn an_access_fault_or_a_second_flow_moves_only_the_rates_it_should() {
        let (mut net, clients, s) = star_net();
        for (i, &c) in clients.iter().enumerate() {
            net.start_transfer(t(0.0), s, c, 100e6, i as u64).unwrap();
        }
        // A capacity fault on c0's access link pins c0 below its third of
        // the server link; the other two split what it leaves.
        let access = net.topology().link_between(clients[0], NodeId(0)).unwrap();
        net.set_link_capacity(t(1.0), access, 2e6).unwrap();
        assert_rates(&net, &[2e6, 4e6, 4e6]);
        // Restoring the capacity restores the three-way split.
        net.set_link_capacity(t(2.0), access, 20e6).unwrap();
        assert_rates(&net, &[10e6 / 3.0; 3]);
        // A second concurrent flow on c1's access link, the other way: four
        // flows now cross the server link.
        net.start_transfer(t(3.0), clients[1], s, 1e6, 99).unwrap();
        assert_rates(&net, &[2.5e6; 4]);
    }

    /// [`two_host_net`] plus a host no link reaches.
    fn net_with_a_lone_host() -> (Network, NodeId, NodeId, NodeId) {
        let (net, a, b) = two_host_net();
        let mut topo = net.topology().clone();
        let lone = topo.add_host("lone").unwrap();
        (Network::new(topo), a, b, lone)
    }

    #[test]
    fn a_transfer_with_no_path_leaves_the_resource_pool_alone() {
        let (mut net, a, b, lone) = net_with_a_lone_host();
        let id = net.start_transfer(t(0.0), a, b, 1e3, 0).unwrap();
        assert!(net.cancel_transfer(t(0.0), id).unwrap());
        assert!(net.start_transfer(t(0.0), a, lone, 1e3, 0).is_err());
        // The vacant row is still the only one, and the next transfer takes
        // it and the next id.
        assert_eq!(net.slab.len(), 1);
        assert_eq!(net.active_transfers(), 0);
        assert_eq!(net.start_transfer(t(0.0), a, b, 1e3, 0), Ok(TransferId(1)));
        assert_eq!(net.slab.len(), 1);
    }

    #[test]
    fn completions_are_ordered_by_delivery_time() {
        let (mut net, a, b) = two_host_net();
        net.start_transfer(t(0.0), a, b, 1e6 / 8.0, 1).unwrap();
        net.start_transfer(t(0.0), a, b, 4e6 / 8.0, 2).unwrap();
        let done = poll(&mut net, t(10.0));
        assert_eq!(done.len(), 2);
        assert!(done[0].delivered <= done[1].delivered);
        assert_eq!(done[0].tag, 1);
    }

    /// A chain of four routers with two hosts on each end router and one in
    /// the middle, so paths run from two to five links.
    fn chain_net() -> (Network, Vec<NodeId>) {
        let mut topo = Topology::new();
        let routers: Vec<NodeId> = (0..4)
            .map(|i| topo.add_router(&format!("r{i}")).unwrap())
            .collect();
        for pair in routers.windows(2) {
            topo.add_link(pair[0], pair[1], 8e6, ms(2.0)).unwrap();
        }
        let mut hosts = Vec::new();
        for (i, &r) in [0, 0, 2, 3, 3].iter().enumerate() {
            let h = topo.add_host(&format!("h{i}")).unwrap();
            topo.add_link(h, routers[r], 10e6, ms(1.0)).unwrap();
            hosts.push(h);
        }
        (Network::new(topo), hosts)
    }

    /// Replays one seeded interleaving of `start_transfer`, `cancel_transfer`,
    /// `set_link_oneway` and `poll_completions_into` on a fresh network and on a
    /// *used* one, whose vacant rows already carried other (longer) paths,
    /// and requires every observation to agree. Ids are compared modulo the
    /// used network's head start.
    fn recycled_network_matches_a_fresh_one(seed: u64, steps: usize) {
        let (mut fresh, hosts) = chain_net();
        let (mut used, _) = chain_net();
        for _ in 0..3 {
            let ids: Vec<TransferId> = [(0, 4), (1, 3), (3, 0), (4, 2)]
                .iter()
                .map(|&(a, b)| {
                    used.start_transfer(t(0.0), hosts[a], hosts[b], 1e5, 0)
                        .unwrap()
                })
                .collect();
            for id in ids {
                assert!(used.cancel_transfer(t(0.0), id).unwrap());
            }
        }
        assert_eq!(used.slab.len(), 4);
        assert_eq!(used.active_transfers(), 0);
        let offset = used.next_id;
        let links: Vec<(LinkId, NodeId, NodeId)> = fresh
            .topology()
            .links()
            .map(|(id, l)| (id, l.a, l.b))
            .collect();

        let mut rng = crate::rng::SimRng::seed_from_u64(seed);
        let mut now = 0.0;
        let mut started = 0u64;
        for step in 0..steps {
            now += rng.uniform_range(0.0, 0.4);
            match rng.index(6) {
                0..=2 => {
                    let src = hosts[rng.index(hosts.len())];
                    let dst = hosts[rng.index(hosts.len())];
                    let bytes = rng.uniform_range(1e3, 4e5);
                    let a = fresh.start_transfer(t(now), src, dst, bytes, started);
                    let b = used.start_transfer(t(now), src, dst, bytes, started);
                    assert_eq!(a.unwrap().0 + offset, b.unwrap().0, "step {step}");
                    started += 1;
                }
                3 if started > 0 => {
                    let id = rng.index(started as usize) as u64;
                    assert_eq!(
                        fresh.cancel_transfer(t(now), TransferId(id)),
                        used.cancel_transfer(t(now), TransferId(id + offset)),
                        "step {step}"
                    );
                }
                4 => {
                    let (link, a, b) = links[rng.index(links.len())];
                    let from = if rng.uniform() < 0.5 { a } else { b };
                    // A third of the calls lift the cap again.
                    let cap = [5e5, 2e6, 1e9][rng.index(3)];
                    fresh.set_link_oneway(t(now), link, from, cap).unwrap();
                    used.set_link_oneway(t(now), link, from, cap).unwrap();
                }
                _ => {}
            }
            let done = poll(&mut fresh, t(now));
            let mut also_done = poll(&mut used, t(now));
            for c in &mut also_done {
                c.id.0 -= offset;
            }
            assert_eq!(done, also_done, "step {step}");
            assert!(
                done.windows(2)
                    .all(|w| (w[0].delivered, w[0].id) < (w[1].delivered, w[1].id)),
                "step {step}: {done:?}"
            );
            assert_eq!(
                fresh.next_event_time(t(now)),
                used.next_event_time(t(now)),
                "step {step}"
            );
            for id in 0..started {
                assert_eq!(
                    fresh.transfer_rate(TransferId(id)),
                    used.transfer_rate(TransferId(id + offset)),
                    "step {step} transfer {id}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A row handed on from a retired transfer never carries that
        /// transfer's path or rates into the next one.
        #[test]
        fn recycling_resource_vectors_is_invisible(seed in 0u64..u64::MAX, steps in 10usize..120) {
            recycled_network_matches_a_fresh_one(seed, steps);
        }
    }
}
