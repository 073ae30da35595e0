//! Persistent, index-based max-min fair allocator.
//!
//! [`max_min_fair_rates`](crate::flow::max_min_fair_rates) is the *test
//! reference*: progressive filling over fresh `HashMap`s, rescanning every
//! link on every round. [`Allocator`] is the one solver in the production
//! build. The simulator re-solves the allocation on every transfer start and
//! completion and once more per bandwidth probe, so a solve costs what the
//! epoch's own flows and links cost, never what the fleet's link table costs.
//!
//! **Unit weights, counted.** Every flow weighs `1.0`, so a resource's
//! unfrozen weight is the number of unfrozen flows crossing it, once per path
//! occurrence. The reference reaches that number by adding `1.0`s in
//! registration order, which is exact in an `f64` far past any flow count;
//! the allocator keeps it as an integer `live` count, raised per registered
//! entry and lowered per path occurrence when a member first freezes, and
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
//! heapified once per solve; the members to freeze are snapshotted before any
//! freezes; each subtracts its rate from every resource on its path in path
//! order, `(remaining - rate).max(0.0)` one at a time; the loop ends when no
//! unfrozen member is left. The result is **bit-identical** to the reference
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
/// A demand is a *row*: either one flow ([`push`](Self::push) — the resources
/// the flow traverses), or an **aggregate** of `m` identical flows
/// ([`push_aggregate`](Self::push_aggregate) — one shared resource vector
/// crossed by every member plus one private *access* resource per member).
/// Aggregates let the allocator register a whole network-position class of
/// symmetric clients as a single row: shared links see one entry per class
/// instead of one per client, while each member keeps its own access
/// resource so per-member bottlenecks (a cut access link) still freeze that
/// member alone. Rates come back in *member order* — row-major, one rate per
/// member — so a set built only from `push` yields exactly one rate per row.
#[derive(Debug, Default, Clone)]
pub struct DemandSet {
    /// Row `i`'s shared resources are `paths[path_start[i]..path_start[i + 1]]`.
    path_start: Vec<u32>,
    paths: Vec<ResourceId>,
    /// Per-row private member resources (empty slice for plain rows).
    member_start: Vec<u32>,
    members: Vec<ResourceId>,
    /// Prefix sums of row multiplicities: member indices of row `i` are
    /// `member_off[i]..member_off[i + 1]`.
    member_off: Vec<u32>,
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
        self.member_start.clear();
        self.members.clear();
        self.member_off.clear();
    }

    /// Appends a single-flow demand. Demands must be pushed in the caller's
    /// canonical (key-sorted) order — the allocator freezes flows in push
    /// order, like the reference.
    pub fn push(&mut self, path: &[ResourceId]) {
        self.push_row(path, &[]);
    }

    /// Appends an aggregate demand: `member_resources.len()` identical flows,
    /// each crossing every resource in `shared` plus exactly one private
    /// resource of its own. Aggregation is **exact** (bit-identical to
    /// pushing each member as a separate flow over `[access] + shared`):
    /// every flow has unit weight, so the members of a freeze round share one
    /// rate and a resource's unfrozen weight is a count, whichever way the
    /// flows are grouped.
    ///
    /// # Panics
    /// Panics if `member_resources` is empty.
    pub fn push_aggregate(&mut self, shared: &[ResourceId], member_resources: &[ResourceId]) {
        assert!(
            !member_resources.is_empty(),
            "aggregate demands need at least one member"
        );
        self.push_row(shared, member_resources);
    }

    /// A row over `path` with one member per private resource, or a single
    /// member when there is none.
    fn push_row(&mut self, path: &[ResourceId], member_resources: &[ResourceId]) {
        if self.path_start.is_empty() {
            self.path_start.push(0);
            self.member_off.push(0);
            self.member_start.push(0);
        }
        self.paths.extend_from_slice(path);
        self.path_start.push(self.paths.len() as u32);
        self.members.extend_from_slice(member_resources);
        self.member_start.push(self.members.len() as u32);
        let mult = member_resources.len().max(1);
        self.member_off.push((self.total_members() + mult) as u32);
    }

    /// Number of demand rows.
    pub fn len(&self) -> usize {
        self.path_start.len().saturating_sub(1)
    }

    /// True when no demands have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total member flows across all rows (the length of the rate vector a
    /// solve produces, before any probe).
    pub fn total_members(&self) -> usize {
        self.member_off.last().copied().unwrap_or(0) as usize
    }

    fn path(&self, i: usize) -> &[ResourceId] {
        &self.paths[self.path_start[i] as usize..self.path_start[i + 1] as usize]
    }

    fn member_resources(&self, i: usize) -> &[ResourceId] {
        &self.members[self.member_start[i] as usize..self.member_start[i + 1] as usize]
    }
}

/// A candidate bottleneck in the lazy heap: `(share bits, resource, stamp)`.
/// Shares are non-negative and never NaN (a candidate's count is positive),
/// so their bit patterns order exactly as the values do, and the reversed
/// max-heap pops the *smallest* `(share, resource)` — the same bottleneck the
/// reference selects by scanning every link.
type Candidate = Reverse<(u64, ResourceId, u32)>;

/// An entry in a resource's registration list. The top bit distinguishes a
/// *row* entry (every member of the row crosses the resource — the shared
/// path of plain and aggregate rows alike) from a *member* entry (exactly one
/// aggregate member crosses it — its private access resource).
const ROW_ENTRY: u32 = 1 << 31;

/// Marks a resource no row of the current solve has touched in `slot_of`.
const NO_SLOT: u32 = u32::MAX;

/// One resource touched by the current solve.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The global id: the heap's tie-break, and the way back into `slot_of`.
    resource: ResourceId,
    /// Capacity not yet handed to frozen members.
    remaining: f64,
    /// `remaining / live` as of the last refresh.
    share: f64,
    /// Unfrozen members crossing the resource, once per path occurrence.
    live: u32,
    /// Heap-entry invalidation stamp, bumped whenever the share changes.
    stamp: u32,
    /// The resource's registration list is `entries[start..end]`.
    start: u32,
    end: u32,
    /// Queued for a share refresh at the end of the current freeze round.
    dirty: bool,
}

/// One registered row: where its translated path lives and who its members
/// are. The probe is one more plain row.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Shared slots are `path_slots[path..access]`, the members' private
    /// slots `path_slots[access..access + mult]` (none for a plain row).
    path: u32,
    access: u32,
    /// Members are `first..first + mult` in rate order.
    first: u32,
    mult: u32,
    /// Members not yet frozen.
    live: u32,
    /// Whether the row is an aggregate (its members own a private slot each).
    aggregate: bool,
}

/// Persistent max-min fair-share solver over dense resource indices.
///
/// All per-solve state is retained between calls, so a warm allocator
/// performs no heap allocation: the simulator keeps one per network and the
/// probe path reuses it for every `available_bandwidth` query in an epoch.
///
/// Flows are tracked in *member space* — aggregate rows contribute one index
/// per member — while per-resource registration lists hold one entry per
/// **row** for shared resources. A shared bottleneck therefore costs one
/// list entry per class instead of one per client; freezing then expands the
/// row back into members, replicating the exploded per-member operation
/// sequence exactly (see [`DemandSet::push_aggregate`]).
#[derive(Debug, Default)]
pub struct Allocator {
    /// Global resource → slot of the current solve, [`NO_SLOT`] elsewhere.
    slot_of: Vec<u32>,
    /// The resources this solve touches, in first-touch order.
    slots: Vec<Slot>,
    rows: Vec<Row>,
    /// Every row's path, translated to slots at registration.
    path_slots: Vec<u32>,
    /// Row/member entries per slot (CSR, registration order within a slot).
    entries: Vec<u32>,
    /// Owning row of each member.
    member_row: Vec<u32>,
    /// Per-member frozen flags.
    frozen: Vec<bool>,
    /// Slots whose share must be recomputed after a freeze round.
    dirty: Vec<u32>,
    /// Snapshot of the members to freeze in the current round — collected
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
    /// `rates` is cleared and filled with one rate per demand **member**
    /// (plus the probe, if any), row-major in push order — for sets built
    /// only from [`DemandSet::push`] that is one rate per demand. Results
    /// are bit-identical to
    /// [`max_min_fair_rates`](crate::flow::max_min_fair_rates) over the
    /// member-exploded inputs.
    pub fn solve(
        &mut self,
        capacities: &[f64],
        demands: &DemandSet,
        probe: Option<&[ResourceId]>,
        rates: &mut Vec<f64>,
    ) {
        let n_members = demands.total_members() + usize::from(probe.is_some());
        // A member no round reaches keeps the reference's minimal rate.
        rates.clear();
        rates.resize(n_members, 1.0);
        self.frozen.clear();
        self.frozen.resize(n_members, false);
        self.member_row.clear();
        self.rows.clear();
        self.path_slots.clear();
        for slot in self.slots.drain(..) {
            self.slot_of[slot.resource as usize] = NO_SLOT;
        }

        // Registration, in row order: local flows freeze immediately at the
        // local rate; everything else enlists on each resource it crosses.
        let mut unfrozen = 0u32;
        for i in 0..demands.len() {
            unfrozen += self.register(
                capacities,
                demands.path(i),
                demands.member_resources(i),
                rates,
            );
        }
        if let Some(path) = probe {
            unfrozen += self.register(capacities, path, &[], rates);
        }

        // Lay the registration lists out slot by slot, then fill them in row
        // order: one entry per *row* on a shared resource, one per *member*
        // on a private one.
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
            let (path, access) = (row.path as usize, row.access as usize);
            let members = if row.aggregate { row.mult as usize } else { 0 };
            let shared = self.path_slots[path..access].iter();
            let private = self.path_slots[access..access + members].iter();
            let row_entries = shared.map(|&s| (s, ROW_ENTRY | i as u32));
            let member_entries = private.zip(row.first..).map(|(&s, member)| (s, member));
            for (s, entry) in row_entries.chain(member_entries) {
                let slot = &mut self.slots[s as usize];
                self.entries[slot.end as usize] = entry;
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

        // Progressive filling: repeatedly freeze every unfrozen member on the
        // most constrained resource at that resource's fair share. Once no
        // member is unfrozen, every candidate left is stale.
        while unfrozen > 0 {
            let Some(Reverse((_, resource, stamp))) = self.heap.pop() else {
                break;
            };
            let bottleneck = self.slots[self.slot_of[resource as usize] as usize];
            if stamp != bottleneck.stamp {
                continue; // superseded by a later share refresh
            }
            let rate = bottleneck.share.max(1.0);
            // Collect the members to freeze — row entries expand to their
            // unfrozen members — before any of them freezes, then process
            // the snapshot without re-checking, exactly like the reference.
            self.freeze_scratch.clear();
            for &e in &self.entries[bottleneck.start as usize..bottleneck.end as usize] {
                if e & ROW_ENTRY == 0 {
                    if !self.frozen[e as usize] {
                        self.freeze_scratch.push(e);
                    }
                    continue;
                }
                let row = &self.rows[(e & !ROW_ENTRY) as usize];
                if row.live > 0 {
                    let members = row.first..row.first + row.mult;
                    self.freeze_scratch
                        .extend(members.filter(|&m| !self.frozen[m as usize]));
                }
            }
            for &member in &self.freeze_scratch {
                let mi = member as usize;
                rates[mi] = rate;
                let row = &mut self.rows[self.member_row[mi] as usize];
                let first_freeze = !std::mem::replace(&mut self.frozen[mi], true);
                if first_freeze {
                    row.live -= 1;
                    unfrozen -= 1;
                }
                let shared = &self.path_slots[row.path as usize..row.access as usize];
                let private = if row.aggregate {
                    let at = (row.access + member - row.first) as usize;
                    &self.path_slots[at..at + 1]
                } else {
                    &[]
                };
                for &s in shared.iter().chain(private) {
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

    /// Registers one row — `members.len()` flows over `shared` plus one
    /// private resource each, or a single flow over `shared` when `members`
    /// is empty — translating its resources to slots (first touch pins the
    /// resource's starting capacity, floored at the same tiny positive value
    /// as the reference) and counting its entries. Returns how many unfrozen
    /// members it added.
    fn register(
        &mut self,
        capacities: &[f64],
        shared: &[ResourceId],
        members: &[ResourceId],
        rates: &mut [f64],
    ) -> u32 {
        let first = self.member_row.len() as u32;
        let mult = members.len().max(1) as u32;
        let row = self.rows.len() as u32;
        self.member_row.resize((first + mult) as usize, row);
        let path = self.path_slots.len() as u32;
        for (resources, crossing) in [(shared, mult), (members, 1)] {
            for &r in resources {
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
                slot.live += crossing;
                slot.end += 1; // entry count until the lists are laid out
                self.path_slots.push(s);
            }
        }
        // A flow that crosses nothing is settled here, at the local rate.
        let live = if shared.is_empty() && members.is_empty() {
            rates[first as usize] = LOCAL_RATE_BPS;
            self.frozen[first as usize] = true;
            0
        } else {
            mult
        };
        self.rows.push(Row {
            path,
            access: path + shared.len() as u32,
            first,
            mult,
            live,
            aggregate: !members.is_empty(),
        });
        live
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

    /// Solves the same scenario twice — once with members exploded into
    /// plain unit-weight rows, once with them grouped into aggregate rows —
    /// and asserts bit-identical member rates. `groups` lists
    /// `(shared_path, member_resources)` aggregates; `plain` lists ordinary
    /// rows interleaved after the groups' members in push order.
    fn assert_aggregate_matches_exploded(
        capacities: &[f64],
        rows: &[AggRow],
        probe: Option<&[u32]>,
    ) {
        let mut exploded = DemandSet::new();
        for row in rows {
            match row {
                AggRow::Plain(path) => exploded.push(path),
                AggRow::Group { shared, members } => {
                    for &access in members {
                        let mut path = vec![access];
                        path.extend_from_slice(shared);
                        exploded.push(&path);
                    }
                }
            }
        }
        let mut aggregated = DemandSet::new();
        for row in rows {
            match row {
                AggRow::Plain(path) => aggregated.push(path),
                AggRow::Group { shared, members } => aggregated.push_aggregate(shared, members),
            }
        }
        assert_eq!(exploded.total_members(), aggregated.total_members());

        let mut alloc_a = Allocator::new();
        let mut alloc_b = Allocator::new();
        let (mut rates_a, mut rates_b) = (Vec::new(), Vec::new());
        // Solve twice to cover warm-scratch reuse.
        for _ in 0..2 {
            alloc_a.solve(capacities, &exploded, probe, &mut rates_a);
            alloc_b.solve(capacities, &aggregated, probe, &mut rates_b);
        }
        assert_eq!(rates_a.len(), rates_b.len());
        for (i, (a, b)) in rates_a.iter().zip(rates_b.iter()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "member {i}: exploded {a} != aggregated {b}"
            );
        }
    }

    enum AggRow {
        Plain(Vec<u32>),
        Group { shared: Vec<u32>, members: Vec<u32> },
    }

    #[test]
    fn aggregate_rows_match_exploded_members() {
        use AggRow::*;
        // Two symmetric clients behind access links 1, 2 sharing backbone 0.
        assert_aggregate_matches_exploded(
            &[10.0, 8.0, 8.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2],
            }],
            None,
        );
        // Backbone is the bottleneck: whole-row freeze.
        assert_aggregate_matches_exploded(
            &[4.0, 100.0, 100.0, 100.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2, 3],
            }],
            None,
        );
        // One member's access link is the bottleneck: partial freeze of that
        // member alone, the rest of the row freezes later.
        assert_aggregate_matches_exploded(
            &[30.0, 2.0, 100.0, 100.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2, 3],
            }],
            None,
        );
        // Equal access capacities: exploded freezes the members through
        // distinct same-share candidates; the aggregate must match.
        assert_aggregate_matches_exploded(
            &[30.0, 5.0, 5.0, 5.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2, 3],
            }],
            None,
        );
        // Mixed plain competition on the shared backbone, plus a probe.
        assert_aggregate_matches_exploded(
            &[12.0, 6.0, 9.0, 3.0, 20.0],
            &[
                Group {
                    shared: vec![0, 4],
                    members: vec![1, 2],
                },
                Plain(vec![0]),
                Group {
                    shared: vec![4],
                    members: vec![3],
                },
            ],
            Some(&[0, 4]),
        );
        // Zero-capacity shared link stalls the whole row.
        assert_aggregate_matches_exploded(
            &[0.0, 5.0, 5.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2],
            }],
            None,
        );
    }

    #[test]
    fn aggregate_rows_match_exploded_random_meshes() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let backbones = 1 + (next() % 4) as usize;
            let n_groups = 1 + (next() % 3) as usize;
            let mut capacities: Vec<f64> = (0..backbones)
                .map(|_| (next() % 500) as f64 + 0.5)
                .collect();
            let mut rows = Vec::new();
            for _ in 0..n_groups {
                let shared: Vec<u32> = (0..=(next() % backbones as u64) as usize)
                    .map(|_| (next() % backbones as u64) as u32)
                    .collect::<std::collections::BTreeSet<u32>>()
                    .into_iter()
                    .collect();
                let mult = 1 + (next() % 6) as usize;
                let members: Vec<u32> = (0..mult)
                    .map(|_| {
                        capacities.push((next() % 200) as f64 + 0.25);
                        (capacities.len() - 1) as u32
                    })
                    .collect();
                rows.push(AggRow::Group { shared, members });
                if next() % 2 == 0 {
                    let hops = (next() % 3) as usize;
                    let path: Vec<u32> = (0..hops)
                        .map(|_| (next() % backbones as u64) as u32)
                        .collect();
                    rows.push(AggRow::Plain(path));
                }
            }
            let probe: Vec<u32> = vec![(next() % backbones as u64) as u32];
            let with_probe = trial % 2 == 0;
            assert_aggregate_matches_exploded(
                &capacities,
                &rows,
                with_probe.then_some(probe.as_slice()),
            );
        }
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
