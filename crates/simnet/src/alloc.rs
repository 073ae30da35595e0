//! Persistent, index-based max-min fair allocator.
//!
//! [`max_min_fair_rates`](crate::flow::max_min_fair_rates) is the *test
//! reference*: progressive filling over fresh `HashMap`s, rescanning every
//! link on every round. [`Allocator`] is the one solver in the production
//! build. The simulator re-solves the allocation on every transfer start and
//! completion and once more per bandwidth probe, so a solve costs what the
//! epoch's own flows and links cost, never what the fleet's link table costs.
//!
//! **Rows persist.** A flow is registered once, as a *row*, when it starts
//! ([`Allocator::insert`]) and dropped once, when it retires
//! ([`Allocator::remove`]); a probe is insert, solve, read, remove. Its path
//! is translated to *slots* at registration: `slot_of` maps a global
//! [`ResourceId`] to a dense slot holding the resource's capacity and how
//! many live path occurrences cross it, and a slot is freed when that count
//! drops to zero. Live rows and live slots are kept in dense lists, so a
//! solve touches only what is registered: it resets the live slots, lays
//! their registration lists out CSR-style from the rows' translated paths,
//! heapifies once and fills. Capacities change only through
//! [`Allocator::refresh_capacities`]. The only fleet-sized table is
//! `slot_of` itself.
//!
//! **Unit weights, counted.** Every flow weighs `1.0`, so a resource's
//! unfrozen weight is the number of unfrozen flows crossing it, once per path
//! occurrence. The reference reaches that number by adding `1.0`s in
//! registration order, which is exact in an `f64` far past any flow count;
//! the allocator keeps it as an integer `live` count, lowered per path
//! occurrence when a flow first freezes, and `remaining.max(0.0) / live as
//! f64` is the same float. Refreshing a share after a freeze is therefore
//! O(1) instead of a re-sum.
//!
//! **Same algorithm, any row order.** The bottleneck is the minimum `(share,
//! global resource id)`, found through a lazy binary heap; the rows to freeze
//! are snapshotted before any freezes; each subtracts its rate from every
//! resource on its path, `(remaining - rate).max(0.0)` one at a time; the
//! loop ends when no unfrozen row is left. Every row frozen in one round
//! subtracts the same rate, so no result depends on the order of a slot's
//! entries, and rows may come and go in any order. The result is
//! **bit-identical** to the reference for every unit-weight input
//! (property-tested in `tests/alloc_equivalence.rs`), and a warm allocator
//! allocates nothing.
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

/// A candidate bottleneck in the lazy heap: `(share bits, resource, stamp)`.
/// Shares are non-negative and never NaN (a candidate's count is positive),
/// so their bit patterns order exactly as the values do, and the reversed
/// max-heap pops the *smallest* `(share, resource)` — the same bottleneck the
/// reference selects by scanning every link.
type Candidate = Reverse<(u64, ResourceId, u32)>;

/// Marks a resource no live row crosses in `slot_of`.
const NO_SLOT: u32 = u32::MAX;

/// One resource some live row crosses.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The global id: the heap's tie-break, and the way back into `slot_of`.
    resource: ResourceId,
    /// Starting capacity, floored at the same tiny positive value as the
    /// reference.
    capacity: f64,
    /// Live rows crossing the resource, once per path occurrence.
    count: u32,
    /// Index in `live_slots`.
    pos: u32,
    /// Capacity not yet handed to frozen rows in the current solve.
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

/// One registered flow: its path, translated to slots.
#[derive(Debug, Default)]
struct Row {
    path: Vec<u32>,
    /// Index in `live_rows`.
    pos: u32,
    frozen: bool,
    /// The rate as of the last solve.
    rate: f64,
}

/// Persistent max-min fair-share solver over dense resource indices.
///
/// Rows, slots and all per-solve state are retained between calls, so a warm
/// allocator performs no heap allocation: the simulator keeps one per network,
/// registers each transfer as one row for its lifetime, and lends it to every
/// `available_bandwidth` probe for one extra row.
#[derive(Debug, Default)]
pub struct Allocator {
    /// Global resource → its slot, [`NO_SLOT`] when no live row crosses it.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    live_slots: Vec<u32>,
    free_slots: Vec<u32>,
    rows: Vec<Row>,
    live_rows: Vec<u32>,
    free_rows: Vec<u32>,
    /// Rows per slot (CSR), one entry per path occurrence.
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

/// A resource's starting capacity: out-of-range resources count as capacity
/// zero, exactly like absent links in the reference, and every capacity is
/// floored at 1 bps.
fn capacity(caps: &[f64], r: ResourceId) -> f64 {
    caps.get(r as usize).map_or(1.0, |c| c.max(1.0))
}

/// Swap-removes `list[pos]` and returns the item moved into its place.
fn swap_out(list: &mut Vec<u32>, pos: u32) -> Option<u32> {
    list.swap_remove(pos as usize);
    list.get(pos as usize).copied()
}

impl Allocator {
    /// Creates an empty allocator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a unit-weight flow over `path` and returns its row, which
    /// stays valid until [`remove`](Self::remove). `capacities` is indexed by
    /// [`ResourceId`] and read for the resources no live row crossed yet.
    pub fn insert(&mut self, capacities: &[f64], path: &[ResourceId]) -> u32 {
        let row = self.free_rows.pop().unwrap_or_else(|| {
            self.rows.push(Row::default());
            self.rows.len() as u32 - 1
        });
        self.rows[row as usize].pos = self.live_rows.len() as u32;
        self.live_rows.push(row);
        self.link(capacities, row, path);
        row
    }

    /// Drops a row; its number may be handed out again by the next insert.
    pub fn remove(&mut self, row: u32) {
        self.unlink(row);
        let pos = self.rows[row as usize].pos;
        if let Some(moved) = swap_out(&mut self.live_rows, pos) {
            self.rows[moved as usize].pos = pos;
        }
        self.free_rows.push(row);
    }

    /// Gives a live row a new path, keeping its number.
    pub fn relink(&mut self, row: u32, capacities: &[f64], path: &[ResourceId]) {
        self.unlink(row);
        self.link(capacities, row, path);
    }

    /// A live row's path, as registered.
    pub fn path(&self, row: u32) -> impl Iterator<Item = ResourceId> + '_ {
        let path = &self.rows[row as usize].path;
        path.iter().map(|&s| self.slots[s as usize].resource)
    }

    /// Re-reads every live resource's capacity after `capacities` changed.
    pub fn refresh_capacities(&mut self, capacities: &[f64]) {
        for &s in &self.live_slots {
            let slot = &mut self.slots[s as usize];
            slot.capacity = capacity(capacities, slot.resource);
        }
    }

    /// A row's rate as of the last [`solve`](Self::solve).
    pub fn rate(&self, row: u32) -> f64 {
        self.rows[row as usize].rate
    }

    /// Translates `path` into `row`'s slots, creating a slot at a resource's
    /// first live crossing.
    fn link(&mut self, capacities: &[f64], row: u32, path: &[ResourceId]) {
        let mut slots = std::mem::take(&mut self.rows[row as usize].path);
        for &r in path {
            let ri = r as usize;
            if ri >= self.slot_of.len() {
                self.slot_of.resize(ri + 1, NO_SLOT);
            }
            if self.slot_of[ri] == NO_SLOT {
                let slot = Slot {
                    resource: r,
                    capacity: capacity(capacities, r),
                    pos: self.live_slots.len() as u32,
                    ..Slot::default()
                };
                let s = self.free_slots.pop().unwrap_or(self.slots.len() as u32);
                if s as usize == self.slots.len() {
                    self.slots.push(slot);
                } else {
                    self.slots[s as usize] = slot;
                }
                self.live_slots.push(s);
                self.slot_of[ri] = s;
            }
            let s = self.slot_of[ri];
            self.slots[s as usize].count += 1;
            slots.push(s);
        }
        self.rows[row as usize].path = slots;
    }

    /// Takes `row`'s path off its slots, freeing each slot no live row
    /// crosses any more. The row keeps its (emptied) path buffer.
    fn unlink(&mut self, row: u32) {
        let mut path = std::mem::take(&mut self.rows[row as usize].path);
        for &s in &path {
            let slot = &mut self.slots[s as usize];
            slot.count -= 1;
            if slot.count == 0 {
                self.slot_of[slot.resource as usize] = NO_SLOT;
                let pos = slot.pos;
                if let Some(moved) = swap_out(&mut self.live_slots, pos) {
                    self.slots[moved as usize].pos = pos;
                }
                self.free_slots.push(s);
            }
        }
        path.clear();
        self.rows[row as usize].path = path;
    }

    /// Solves max-min fair rates for every live row; read them with
    /// [`rate`](Self::rate). Results are bit-identical to
    /// [`max_min_fair_rates`](crate::flow::max_min_fair_rates) over the live
    /// rows' paths.
    pub fn solve(&mut self) {
        // Every live slot starts at its capacity with all of its rows
        // unfrozen, its registration list is laid out at the running total
        // of the counts, and its initial share is a candidate; the
        // candidates are heapified in one pass.
        let mut candidates = std::mem::take(&mut self.heap).into_vec();
        candidates.clear();
        let mut total = 0;
        for &s in &self.live_slots {
            let slot = &mut self.slots[s as usize];
            slot.remaining = slot.capacity;
            slot.live = slot.count;
            slot.stamp = 0;
            slot.start = total;
            slot.end = total;
            total += slot.count;
            slot.share = slot.remaining.max(0.0) / slot.live as f64;
            candidates.push(Reverse((slot.share.to_bits(), slot.resource, 0)));
        }
        self.heap = BinaryHeap::from(candidates);
        self.entries.clear();
        self.entries.resize(total as usize, 0);
        // A flow that crosses nothing is settled at the local rate; a row no
        // round reaches keeps the reference's minimal rate.
        let mut unfrozen = 0u32;
        for &r in &self.live_rows {
            let row = &mut self.rows[r as usize];
            row.frozen = row.path.is_empty();
            row.rate = if row.frozen { LOCAL_RATE_BPS } else { 1.0 };
            unfrozen += u32::from(!row.frozen);
            for &s in &row.path {
                let slot = &mut self.slots[s as usize];
                self.entries[slot.end as usize] = r;
                slot.end += 1;
            }
        }

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
                let row = &mut self.rows[r as usize];
                row.rate = rate;
                let first_freeze = !std::mem::replace(&mut row.frozen, true);
                if first_freeze {
                    unfrozen -= 1;
                }
                for &s in &row.path {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{max_min_fair_rates, FlowDemand, FlowKey};
    use crate::topology::LinkId;
    use std::collections::HashMap;

    /// The reference's rates for `demands`, in order.
    fn reference(capacities: &[f64], demands: &[Vec<u32>]) -> Vec<f64> {
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
        (0..demands.len())
            .map(|i| expected[&FlowKey(i as u64)])
            .collect()
    }

    /// Runs both implementations over the same inputs and asserts
    /// bit-identical rates.
    fn assert_matches_reference(capacities: &[f64], demands: &[Vec<u32>]) {
        let expected = reference(capacities, demands);
        let mut allocator = Allocator::new();
        let rows: Vec<u32> = demands
            .iter()
            .map(|path| allocator.insert(capacities, path))
            .collect();
        // Solve twice to cover warm-scratch reuse.
        allocator.solve();
        allocator.solve();
        for (i, (&row, want)) in rows.iter().zip(&expected).enumerate() {
            let rate = allocator.rate(row);
            assert!(
                rate.to_bits() == want.to_bits(),
                "flow {i}: indexed {rate} != reference {want}"
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
        let expected = reference(&capacities, &with_probe);

        let mut allocator = Allocator::new();
        for path in &base {
            allocator.insert(&capacities, path);
        }
        let row = allocator.insert(&capacities, &probe);
        allocator.solve();
        assert_eq!(allocator.rate(row).to_bits(), expected[3].to_bits());
        allocator.remove(row);
        assert_eq!(
            (allocator.live_rows.len(), allocator.live_slots.len()),
            (3, 3)
        );
        // The probe's number is the next insert's.
        assert_eq!(allocator.insert(&capacities, &[]), row);
    }

    #[test]
    fn a_slot_lives_exactly_as_long_as_a_row_crosses_it() {
        let mut allocator = Allocator::new();
        let a = allocator.insert(&[1.0; 8], &[3, 3, 5]);
        let b = allocator.insert(&[1.0; 8], &[5]);
        assert_eq!(allocator.path(a).collect::<Vec<_>>(), [3, 3, 5]);
        allocator.remove(a);
        assert_eq!(allocator.slot_of[3], NO_SLOT);
        assert_eq!(allocator.live_slots.len(), 1);
        allocator.relink(b, &[1.0; 8], &[7]);
        assert_eq!(allocator.path(b).collect::<Vec<_>>(), [7]);
        assert_eq!(allocator.slot_of[5], NO_SLOT);
        allocator.remove(b);
        assert!(allocator.live_slots.is_empty() && allocator.live_rows.is_empty());
    }

    #[test]
    fn local_probe_gets_local_rate() {
        let mut allocator = Allocator::new();
        let row = allocator.insert(&[10.0], &[]);
        allocator.solve();
        assert!((allocator.rate(row) - LOCAL_RATE_BPS).abs() < 1.0);
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
