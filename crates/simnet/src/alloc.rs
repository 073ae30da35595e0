//! Persistent, index-based max-min fair allocator.
//!
//! [`max_min_fair_rates`](crate::flow::max_min_fair_rates) is the *test
//! reference*: progressive filling over fresh `HashMap`s, rescanning every
//! link on every round. [`Allocator`] is the one solver in the production
//! build. The simulator re-solves the allocation on every transfer start and
//! completion and once more per bandwidth probe, so a solve costs what the
//! epoch's own flows and links cost, never what the fleet's link table costs.
//! A [`DemandSet`] holds one row per flow (the simulator pushes one per
//! transfer in flight) and a solve returns one rate per row.
//!
//! **Unit weights, counted.** Every flow weighs `1.0`, so a resource's
//! unfrozen weight is the number of unfrozen flows crossing it, once per path
//! occurrence. The reference reaches that number by adding `1.0`s in
//! registration order, which is exact in an `f64` far past any flow count;
//! the allocator keeps it as an integer `live` count, raised per registered
//! entry and lowered per path occurrence when a flow first freezes, and
//! `remaining.max(0.0) / live as f64` is the same float. Refreshing a share
//! after a freeze is therefore O(1) instead of a re-sum.
//!
//! **Solve-local slots.** `slot_of` maps a global [`ResourceId`] to a dense
//! *slot* for the current solve; the per-resource state (`remaining`,
//! `share`, `live`, heap stamp, dirty mark) lives in one array sized by the
//! resources this solve touches, capacity is copied at first touch, and paths
//! are translated to slots once at registration. The only fleet-sized table
//! is `slot_of` itself, reset through the slot list.
//!
//! **Same algorithm.** Rows register in push order; the bottleneck is the
//! minimum `(share, global resource id)`, found through a lazy binary heap
//! heapified once per solve; the rows to freeze are snapshotted before any
//! freezes; each subtracts its rate from every resource on its path in path
//! order, `(remaining - rate).max(0.0)` one at a time; the loop ends when no
//! unfrozen row is left. The result is **bit-identical** to the reference
//! for every unit-weight input (property-tested in
//! `tests/alloc_equivalence.rs`), and a warm allocator allocates nothing.
//!
//! Inputs are expressed over abstract *resources* rather than raw links so
//! that a direction-aware capacity (the one-way degrade fault) can map the
//! two directions of one physical link onto two resources. When no one-way
//! state exists, resource `i` *is* link `i`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Rate (bits/second) granted to flows that traverse no shared resource,
/// i.e. transfers local to one machine.
pub const LOCAL_RATE_BPS: f64 = 1.0e9;

/// A dense resource index (a link, or one direction of a link when a one-way
/// degrade is in force).
pub type ResourceId = u32;

/// A dense, reusable set of unit-weight flow demands stored CSR-style so
/// rebuilding the set each allocation epoch allocates nothing once warm.
///
/// A demand is a *row*: the resources one flow traverses. A solve yields one
/// rate per row, in push order.
#[derive(Debug, Default, Clone)]
pub struct DemandSet {
    /// Row `i`'s resources are `paths[path_start[i]..path_start[i + 1]]`.
    path_start: Vec<u32>,
    paths: Vec<ResourceId>,
}

impl DemandSet {
    /// An empty demand set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every demand, retaining capacity.
    pub fn clear(&mut self) {
        self.path_start.clear();
        self.paths.clear();
    }

    /// Appends a flow's demand. Demands must be pushed in the caller's
    /// canonical (key-sorted) order — the allocator freezes flows in push
    /// order, like the reference.
    pub fn push(&mut self, path: &[ResourceId]) {
        if self.path_start.is_empty() {
            self.path_start.push(0);
        }
        self.paths.extend_from_slice(path);
        self.path_start.push(self.paths.len() as u32);
    }

    /// Number of demand rows.
    pub fn len(&self) -> usize {
        self.path_start.len().saturating_sub(1)
    }

    /// True when no demands have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn path(&self, i: usize) -> &[ResourceId] {
        &self.paths[self.path_start[i] as usize..self.path_start[i + 1] as usize]
    }
}

/// A candidate bottleneck in the lazy heap: `(share bits, resource, stamp)`.
/// Shares are non-negative and never NaN (a candidate's count is positive),
/// so their bit patterns order exactly as the values do, and the reversed
/// max-heap pops the *smallest* `(share, resource)` — the same bottleneck the
/// reference selects by scanning every link.
type Candidate = Reverse<(u64, ResourceId, u32)>;

/// Marks a resource no row of the current solve has touched in `slot_of`.
const NO_SLOT: u32 = u32::MAX;

/// One resource touched by the current solve.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The global id: the heap's tie-break, and the way back into `slot_of`.
    resource: ResourceId,
    /// Capacity not yet handed to frozen rows.
    remaining: f64,
    /// `remaining / live` as of the last refresh.
    share: f64,
    /// Unfrozen rows crossing the resource, once per path occurrence.
    live: u32,
    /// Heap-entry invalidation stamp, bumped whenever the share changes.
    stamp: u32,
    /// The resource's registration list is `entries[start..end]`.
    start: u32,
    end: u32,
    /// Queued for a share refresh at the end of the current freeze round.
    dirty: bool,
}

/// One registered row: its translated path is `path_slots[path..end]`. The
/// probe is one more row.
#[derive(Debug, Clone, Copy)]
struct Row {
    path: u32,
    end: u32,
    frozen: bool,
}

/// Persistent max-min fair-share solver over dense resource indices.
///
/// All per-solve state is retained between calls, so a warm allocator
/// performs no heap allocation: the simulator keeps one per network and the
/// probe path reuses it for every `available_bandwidth` query in an epoch.
#[derive(Debug, Default)]
pub struct Allocator {
    /// Global resource → slot of the current solve, [`NO_SLOT`] elsewhere.
    slot_of: Vec<u32>,
    /// The resources this solve touches, in first-touch order.
    slots: Vec<Slot>,
    rows: Vec<Row>,
    /// Every row's path, translated to slots at registration.
    path_slots: Vec<u32>,
    /// Rows per slot (CSR, registration order within a slot), one entry per
    /// path occurrence.
    entries: Vec<u32>,
    /// Slots whose share must be recomputed after a freeze round.
    dirty: Vec<u32>,
    /// Snapshot of the rows to freeze in the current round — collected
    /// before any of them freezes, exactly like the reference (which then
    /// processes the snapshot without re-checking, so a path listing the
    /// same link twice subtracts its rate twice).
    freeze_scratch: Vec<u32>,
    heap: BinaryHeap<Candidate>,
}

impl Allocator {
    /// Creates an empty allocator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves max-min fair rates for `demands` given per-resource
    /// `capacities` (indexed by [`ResourceId`]; out-of-range resources are
    /// treated as capacity zero, exactly like absent links in the
    /// reference). `probe`, when given, is appended as one extra demand whose
    /// rate lands in the last slot of `rates` — the one-shot incremental
    /// insert behind `available_bandwidth`.
    ///
    /// `rates` is cleared and filled with one rate per demand (plus the
    /// probe, if any) in push order. Results are bit-identical to
    /// [`max_min_fair_rates`](crate::flow::max_min_fair_rates).
    pub fn solve(
        &mut self,
        capacities: &[f64],
        demands: &DemandSet,
        probe: Option<&[ResourceId]>,
        rates: &mut Vec<f64>,
    ) {
        // A row no round reaches keeps the reference's minimal rate.
        rates.clear();
        rates.resize(demands.len() + usize::from(probe.is_some()), 1.0);
        self.rows.clear();
        self.path_slots.clear();
        for slot in self.slots.drain(..) {
            self.slot_of[slot.resource as usize] = NO_SLOT;
        }

        // Registration, in row order: local flows freeze immediately at the
        // local rate; everything else enlists on each resource it crosses.
        let mut unfrozen = 0u32;
        for i in 0..demands.len() {
            unfrozen += self.register(capacities, demands.path(i), rates);
        }
        if let Some(path) = probe {
            unfrozen += self.register(capacities, path, rates);
        }

        // Lay the registration lists out slot by slot, then fill them in row
        // order.
        let mut total = 0;
        for slot in &mut self.slots {
            let len = slot.end;
            slot.start = total;
            slot.end = total;
            total += len;
        }
        self.entries.clear();
        self.entries.resize(total as usize, 0);
        for (i, row) in self.rows.iter().enumerate() {
            for &s in &self.path_slots[row.path as usize..row.end as usize] {
                let slot = &mut self.slots[s as usize];
                self.entries[slot.end as usize] = i as u32;
                slot.end += 1;
            }
        }

        // Initial shares, heapified in one pass.
        let mut candidates = std::mem::take(&mut self.heap).into_vec();
        candidates.clear();
        for slot in &mut self.slots {
            slot.share = slot.remaining.max(0.0) / slot.live as f64;
            candidates.push(Reverse((slot.share.to_bits(), slot.resource, slot.stamp)));
        }
        self.heap = BinaryHeap::from(candidates);

        // Progressive filling: repeatedly freeze every unfrozen row on the
        // most constrained resource at that resource's fair share. Once no
        // row is unfrozen, every candidate left is stale.
        while unfrozen > 0 {
            let Some(Reverse((_, resource, stamp))) = self.heap.pop() else {
                break;
            };
            let bottleneck = self.slots[self.slot_of[resource as usize] as usize];
            if stamp != bottleneck.stamp {
                continue; // superseded by a later share refresh
            }
            let rate = bottleneck.share.max(1.0);
            // Collect the rows to freeze before any of them freezes, then
            // process the snapshot without re-checking, exactly like the
            // reference: a row listing the bottleneck twice is taken twice.
            self.freeze_scratch.clear();
            let listed = &self.entries[bottleneck.start as usize..bottleneck.end as usize];
            self.freeze_scratch
                .extend(listed.iter().filter(|&&r| !self.rows[r as usize].frozen));
            for &r in &self.freeze_scratch {
                rates[r as usize] = rate;
                let row = &mut self.rows[r as usize];
                let first_freeze = !std::mem::replace(&mut row.frozen, true);
                if first_freeze {
                    unfrozen -= 1;
                }
                for &s in &self.path_slots[row.path as usize..row.end as usize] {
                    let slot = &mut self.slots[s as usize];
                    slot.remaining = (slot.remaining - rate).max(0.0);
                    if first_freeze {
                        slot.live -= 1;
                    }
                    if !slot.dirty {
                        slot.dirty = true;
                        self.dirty.push(s);
                    }
                }
            }
            // Refresh only the resources the freeze round actually changed;
            // the others keep their cached (bit-identical) share and their
            // candidate. A resource with nobody left unfrozen is retired.
            for s in self.dirty.drain(..) {
                let slot = &mut self.slots[s as usize];
                slot.dirty = false;
                slot.stamp += 1;
                if slot.live > 0 {
                    slot.share = slot.remaining.max(0.0) / slot.live as f64;
                    self.heap
                        .push(Reverse((slot.share.to_bits(), slot.resource, slot.stamp)));
                }
            }
        }
    }

    /// Registers one row, translating its resources to slots (first touch
    /// pins the resource's starting capacity, floored at the same tiny
    /// positive value as the reference) and counting its entries. Returns
    /// how many unfrozen rows it added: none for a flow that crosses
    /// nothing, which is settled here at the local rate.
    fn register(&mut self, capacities: &[f64], path: &[ResourceId], rates: &mut [f64]) -> u32 {
        let start = self.path_slots.len() as u32;
        for &r in path {
            let ri = r as usize;
            if ri >= self.slot_of.len() {
                self.slot_of.resize(ri + 1, NO_SLOT);
            }
            if self.slot_of[ri] == NO_SLOT {
                self.slot_of[ri] = self.slots.len() as u32;
                self.slots.push(Slot {
                    resource: r,
                    remaining: capacities.get(ri).copied().unwrap_or(0.0).max(1.0),
                    share: 0.0,
                    live: 0,
                    stamp: 0,
                    start: 0,
                    end: 0,
                    dirty: false,
                });
            }
            let s = self.slot_of[ri];
            let slot = &mut self.slots[s as usize];
            slot.live += 1;
            slot.end += 1; // entry count until the lists are laid out
            self.path_slots.push(s);
        }
        let local = path.is_empty();
        if local {
            rates[self.rows.len()] = LOCAL_RATE_BPS;
        }
        self.rows.push(Row {
            path: start,
            end: self.path_slots.len() as u32,
            frozen: local,
        });
        u32::from(!local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{max_min_fair_rates, FlowDemand, FlowKey};
    use crate::topology::LinkId;
    use std::collections::HashMap;

    /// Runs both implementations over the same inputs and asserts
    /// bit-identical rates.
    fn assert_matches_reference(capacities: &[f64], demands: &[Vec<u32>]) {
        let cap_map: HashMap<LinkId, f64> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| (LinkId(i), c))
            .collect();
        let reference_demands: Vec<FlowDemand> = demands
            .iter()
            .enumerate()
            .map(|(i, path)| FlowDemand {
                key: FlowKey(i as u64),
                links: path.iter().map(|&r| LinkId(r as usize)).collect(),
                weight: 1.0,
            })
            .collect();
        let expected = max_min_fair_rates(&cap_map, &reference_demands);

        let mut set = DemandSet::new();
        for path in demands {
            set.push(path);
        }
        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        // Solve twice to cover warm-scratch reuse.
        allocator.solve(capacities, &set, None, &mut rates);
        allocator.solve(capacities, &set, None, &mut rates);
        assert_eq!(rates.len(), demands.len());
        for (i, rate) in rates.iter().enumerate() {
            let reference = expected[&FlowKey(i as u64)];
            assert!(
                rate.to_bits() == reference.to_bits(),
                "flow {i}: indexed {rate} != reference {reference}"
            );
        }
    }

    #[test]
    fn matches_reference_on_classic_cases() {
        assert_matches_reference(&[10e6], &[vec![0], vec![0]]);
        assert_matches_reference(&[10.0, 4.0], &[vec![0], vec![0, 1], vec![1]]);
        assert_matches_reference(&[9.0], &[vec![0], vec![0], vec![0]]);
        assert_matches_reference(&[], &[vec![]]);
        assert_matches_reference(&[10.0], &[]);
        // Unknown resource (beyond the capacity slice) floors at 1 bps.
        assert_matches_reference(&[], &[vec![42]]);
        // Duplicate resources within one path, zero capacity.
        assert_matches_reference(&[5.0, 0.0], &[vec![0, 0, 1], vec![1]]);
    }

    #[test]
    fn probe_matches_appending_a_unit_demand() {
        let capacities = [10.0, 4.0, 7.0];
        let base = [vec![0], vec![0, 1], vec![1, 2]];
        let probe = vec![0u32, 2];

        let mut with_probe: Vec<Vec<u32>> = base.to_vec();
        with_probe.push(probe.clone());

        let mut set = DemandSet::new();
        for path in &base {
            set.push(path);
        }
        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        allocator.solve(&capacities, &set, Some(&probe), &mut rates);
        assert_eq!(rates.len(), 4);

        let mut full_set = DemandSet::new();
        for path in &with_probe {
            full_set.push(path);
        }
        let mut full_rates = Vec::new();
        allocator.solve(&capacities, &full_set, None, &mut full_rates);
        for (a, b) in rates.iter().zip(full_rates.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn local_probe_gets_local_rate() {
        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        allocator.solve(&[10.0], &DemandSet::new(), Some(&[]), &mut rates);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - LOCAL_RATE_BPS).abs() < 1.0);
    }

    #[test]
    fn dense_random_mesh_matches_reference() {
        // Deterministic pseudo-random configurations across several sizes.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for links in [1usize, 3, 8, 17] {
            for flows in [0usize, 1, 5, 23] {
                let capacities: Vec<f64> = (0..links)
                    .map(|_| (next() % 10_000) as f64 + 0.25)
                    .collect();
                let demands: Vec<Vec<u32>> = (0..flows)
                    .map(|_| {
                        let hops = (next() % 4) as usize;
                        (0..hops).map(|_| (next() % links as u64) as u32).collect()
                    })
                    .collect();
                assert_matches_reference(&capacities, &demands);
            }
        }
    }
}
