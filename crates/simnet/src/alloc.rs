//! Persistent, index-based max-min fair allocator.
//!
//! [`max_min_fair_rates`](crate::flow::max_min_fair_rates) is the *test
//! reference*: progressive filling over fresh `HashMap`s, rescanning every
//! link on every round. [`Allocator`] is the one solver in the production
//! build. The simulator re-solves the allocation on every transfer start and
//! completion and once more per bandwidth probe, so a solve costs what the
//! rows the change can reach and their links cost, never what the fleet's
//! link table or the other flows in flight cost.
//!
//! **Rows persist.** A flow is registered once, as a *row*, when it starts
//! ([`Allocator::insert`]) and dropped once, when it retires
//! ([`Allocator::remove`]); a probe ([`Allocator::probe`]) is insert,
//! cover, solve, read, remove, unless an earlier fill of its shape answers
//! it (see below). A path is translated to *slots* at registration:
//! `slot_of` maps a global [`ResourceId`] to a dense slot holding the
//! resource's capacity and how many live path occurrences cross it, and a
//! slot is freed when that count drops to zero. Each slot's occurrences are
//! a list threaded through the rows' paths (one `next` link per
//! occurrence), so no slot owns a buffer. Live rows and live slots are kept
//! in dense lists, so a solve touches only what is registered: it resets
//! the shared slots it queues, lays their registration lists out CSR-style
//! from the rows' translated paths, heapifies once and fills. Capacities
//! change only through [`Allocator::refresh_capacities`]. The only
//! fleet-sized table is `slot_of` itself.
//!
//! **Private slots are never queued.** A slot crossed once by one row (a
//! client's access link, most of a fleet's slots) loses nothing to anyone
//! until that row freezes, so its share is its capacity for as long as
//! anything reads it. A solve neither resets, refreshes nor heaps such a
//! slot: each row offers one candidate, the least `(capacity, resource id)`
//! of its private slots, which freezes the row at that capacity when it pops
//! and is skipped when the row froze first. The bottleneck order, and the
//! subtractions every shared slot sees, are the ones queueing every slot
//! gives.
//!
//! **Slots that cannot bind.** A row's *bound* is its least capacity times
//! the most times its path lists one slot: progressive filling never takes
//! more than that from any slot the row crosses, per occurrence (a row
//! freezes at most at the share of its least-capacity slot, and a row frozen
//! at a slot it lists `m` times is taken `m` times). A shared slot is
//! *bindable* only if its rows' bounds, summed over its occurrences, exceed
//! `capacity × (1 − 1e-9)`; every insert, remove and capacity refresh
//! re-sums the slots it touches. A covered solve leaves the other shared
//! slots out entirely: not queued, not subtracted from, not refreshed. That
//! is exact. Such a slot is no row's least-capacity slot (that row's bound
//! alone would fill it), so every unfrozen row on it has a candidate at or
//! under its own bound, and the heap's minimum is at most the least unfrozen
//! bound. The slot's share stays at or above its unfrozen rows' summed
//! bounds plus `1e-9 × capacity` (less rounding) over their count, which is
//! strictly more: it never pops, and a slot that never pops changes no rate.
//! The margin covers the rounding of millions of sequential
//! `(remaining − rate).max(0)` steps.
//!
//! **Probes that cannot differ share one fill.** A probe's answer comes
//! from a fill over the live rows plus the probe's row, and nothing but an
//! insert, a remove, a relink or a capacity refresh changes the live rows.
//! What such a fill reads of the probe's row is its *shape*: the resources
//! on its path that some live row already crosses (or that it lists twice),
//! in path order with their capacity bits, and its private candidate, the
//! least `(capacity bits, resource id)` of the rest. The shared resources
//! decide the probe's slots, its component and the order the cover walk
//! reaches them. They and the candidate's bits decide its bound (its least
//! capacity is the lesser of theirs and the candidate's, and only a shared
//! resource can be listed twice), so they decide which slots bind. Private
//! slots other than the candidate are never read.
//! The candidate's resource id is read in one place only: the heap orders
//! it by id against another candidate with exactly its share bits. So a
//! fill [`Allocator::probe`] runs also records the open *gap* of ids around
//! its candidate's that holds no other candidate, initial or pushed, with
//! those bits. Take a later probe with the same shared resources and
//! candidate bits whose candidate lies in that gap. Every heap key is
//! distinct (a shared slot's stamps differ, a private slot has one row), so
//! the heap pops in key order, and every comparison the later candidate
//! takes part in has the outcome the earlier one's had. By induction over
//! the pops, the later fill pushes the same candidates, freezes the same
//! rows at the same rates and gives the probe a bit-identical rate, so the
//! probe takes the recorded one instead. Any insert, remove, relink or
//! capacity refresh forgets every recorded shape, so no answer outlives its
//! epoch. The memo holds at most `SHAPE_ENTRIES` shapes, reserved when the
//! allocator is made, so it never allocates: a fill past that is not filed.
//!
//! **Components.** Rows joined through bindable slots form components, and
//! progressive filling on disjoint components only interleaves: no pop of
//! one touches a slot or a row of another. So [`Allocator::cover`] walks the
//! changed row's component, and [`Allocator::solve_cover`] solves just it,
//! bit-identical to what [`Allocator::solve`] gives those rows. A start can
//! only turn slots on its own path bindable and a retire only turn them
//! unbindable, so covering the new row after its insert, or the retiring row
//! before its remove, covers every rate that can move; a private slot a start
//! makes shared (or a retire makes private again) cannot bind either, by the
//! same argument. Other rows keep the rates their last covered solve gave
//! them, in the owner's hands: a probe's solve re-solves its component with
//! the probe in place, so the allocator's own copy of those rates is only
//! current for [`Allocator::covered`]. A capacity refresh or a relink is
//! followed by a full solve.
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

/// A candidate bottleneck in the lazy heap: `(share bits, resource, tag)`,
/// where the tag is a shared slot's stamp or a private slot's row. Shares are
/// non-negative and never NaN (a candidate's count is positive), so their
/// bit patterns order exactly as the values do, and the reversed max-heap
/// pops the *smallest* `(share, resource)` — the same bottleneck the
/// reference selects by scanning every link. A resource is private or shared
/// for a whole solve, so the tag only ever orders one shared slot's stamps.
type Candidate = Reverse<(u64, ResourceId, u32)>;

/// Marks an absent index: a resource no live row crosses in `slot_of`, the
/// end of a slot's occurrence list, a removed row's position.
const NONE: u32 = u32::MAX;

/// A probe's candidate bits when it has no private slot. It is a NaN
/// pattern and shares are never NaN, so no other candidate has these bits.
const NO_CANDIDATE: u64 = u64::MAX;

/// The most probe shapes one epoch files: later fills still run, but go
/// unrecorded, so the memo is sized once, by [`Allocator::new`], and its
/// scan stays short. A 50,000-client fleet files at most ~150 per epoch.
const SHAPE_ENTRIES: usize = 256;

/// The room in the shape memo's resource arena, in `(resource, capacity
/// bits)` pairs: filed shapes' shared resources plus one probe's key. A
/// probe whose key does not fit is filled without the memo.
const SHAPE_RESOURCES: usize = 2048;

/// How far under its capacity a shared slot's summed row bounds must stay
/// for the slot to be left out of covered solves: room for the rounding of
/// millions of sequential subtractions (see the module docs).
const BIND_MARGIN: f64 = 1.0e-9;

/// One path occurrence, `rows[row].path[at]`. A slot's occurrences form a
/// list threaded through the rows' `next` links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Occurrence {
    row: u32,
    at: u32,
}

/// The end of an occurrence list.
const END: Occurrence = Occurrence {
    row: NONE,
    at: NONE,
};

/// One resource some live row crosses.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The global id: the heap's tie-break, and the way back into `slot_of`.
    resource: ResourceId,
    /// Starting capacity, floored at the same tiny positive value as the
    /// reference.
    capacity: f64,
    /// Live rows crossing the resource, once per path occurrence; a slot
    /// with a count of one is *private* and none of the per-solve fields
    /// below is kept for it.
    count: u32,
    /// Index in `live_slots`.
    pos: u32,
    /// The first of the occurrences crossing the resource.
    head: Occurrence,
    /// Shared, and its rows' bounds can fill it: only such a slot joins
    /// rows into one component and enters a covered solve.
    bindable: bool,
    /// The last cover walk that reached the slot.
    seen: u64,
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

/// The ids a probe's private candidate can sit at without changing any heap
/// comparison: strictly between the nearest other candidates with the same
/// share bits (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Gap {
    bits: u64,
    at: ResourceId,
    first: ResourceId,
    last: ResourceId,
}

impl Gap {
    /// The gap around `(bits, at)` before any other candidate is seen:
    /// every id.
    fn around(bits: u64, at: ResourceId) -> Gap {
        Gap {
            bits,
            at,
            first: 0,
            last: ResourceId::MAX,
        }
    }

    /// Narrows the gap past another candidate.
    fn exclude(&mut self, bits: u64, resource: ResourceId) {
        if bits != self.bits {
            return;
        }
        if resource < self.at {
            self.first = self.first.max(resource + 1);
        } else if resource > self.at {
            self.last = self.last.min(resource - 1);
        }
    }

    /// Whether a candidate `(bits, at)` lies in the gap.
    fn admits(&self, bits: u64, at: ResourceId) -> bool {
        bits == self.bits && (self.first..=self.last).contains(&at)
    }
}

/// One probe fill's answer, filed under its probe's shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// The probe's shared resources are `shape_resources[start..end]`.
    start: u32,
    end: u32,
    gap: Gap,
    rate: f64,
}

/// One registered flow: its path, translated to slots.
#[derive(Debug, Default)]
struct Row {
    path: Vec<u32>,
    /// Each occurrence's successor in its slot's list.
    next: Vec<Occurrence>,
    /// The most a freeze of this row takes from any slot it crosses, per
    /// occurrence: its least capacity, times the most times its path lists
    /// one slot.
    bound: f64,
    /// Index in `live_rows`; [`NONE`] once removed.
    pos: u32,
    /// The last cover walk that reached the row.
    seen: u64,
    frozen: bool,
    /// The rate as of the last solve that covered the row.
    rate: f64,
}

/// Persistent max-min fair-share solver over dense resource indices.
///
/// Rows, slots and all per-solve state are retained between calls, so a warm
/// allocator performs no heap allocation: the simulator keeps one per network,
/// registers each transfer as one row for its lifetime, and lends it to every
/// `available_bandwidth` probe for one extra row. The shape memo's entry list
/// and resource arena keep their capacity across epochs too.
#[derive(Debug, Default)]
pub struct Allocator {
    /// Global resource → its slot, [`NONE`] when no live row crosses it.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    live_slots: Vec<u32>,
    free_slots: Vec<u32>,
    rows: Vec<Row>,
    live_rows: Vec<u32>,
    free_rows: Vec<u32>,
    /// The rows the next (or last) solve covers, and the slots that may be
    /// queued in it.
    cover: Vec<u32>,
    cover_slots: Vec<u32>,
    /// Stamp of the current cover walk.
    walk: u64,
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
    /// The shapes of this epoch's probe fills, and their shared resources
    /// with their capacity bits laid end to end; the key of the probe being
    /// looked up sits past the last shape's.
    shapes: Vec<Shape>,
    shape_resources: Vec<(ResourceId, u64)>,
    /// Lifetime count of the fills [`probe`](Allocator::probe) ran.
    probe_fills: u64,
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
    /// Creates an empty allocator. The shape memo is reserved at its full
    /// size here; every other buffer grows on first use.
    pub fn new() -> Self {
        Self {
            shapes: Vec::with_capacity(SHAPE_ENTRIES),
            shape_resources: Vec::with_capacity(SHAPE_RESOURCES),
            ..Self::default()
        }
    }

    /// Registers a unit-weight flow over `path` and returns its row, which
    /// stays valid until [`remove`](Self::remove). `capacities` is indexed by
    /// [`ResourceId`] and read for the resources no live row crossed yet.
    pub fn insert(&mut self, capacities: &[f64], path: &[ResourceId]) -> u32 {
        self.forget_shapes();
        self.insert_row(capacities, path)
    }

    fn insert_row(&mut self, capacities: &[f64], path: &[ResourceId]) -> u32 {
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
        self.forget_shapes();
        self.remove_row(row);
    }

    fn remove_row(&mut self, row: u32) {
        self.unlink(row);
        let pos = std::mem::replace(&mut self.rows[row as usize].pos, NONE);
        if let Some(moved) = swap_out(&mut self.live_rows, pos) {
            self.rows[moved as usize].pos = pos;
        }
        self.free_rows.push(row);
    }

    /// Gives a live row a new path, keeping its number.
    pub fn relink(&mut self, row: u32, capacities: &[f64], path: &[ResourceId]) {
        self.forget_shapes();
        self.unlink(row);
        self.link(capacities, row, path);
    }

    /// A live row's path, as registered.
    pub fn path(&self, row: u32) -> impl Iterator<Item = ResourceId> + '_ {
        let path = &self.rows[row as usize].path;
        path.iter().map(|&s| self.slots[s as usize].resource)
    }

    /// Re-reads every live resource's capacity after `capacities` changed,
    /// and with it every row's bound and every slot's classification.
    pub fn refresh_capacities(&mut self, capacities: &[f64]) {
        self.forget_shapes();
        for &s in &self.live_slots {
            let slot = &mut self.slots[s as usize];
            slot.capacity = capacity(capacities, slot.resource);
        }
        for i in 0..self.live_rows.len() {
            let row = self.live_rows[i];
            self.rows[row as usize].bound = self.bound(row);
        }
        for i in 0..self.live_slots.len() {
            self.classify(self.live_slots[i]);
        }
    }

    /// Forgets every recorded probe shape: the live rows or their
    /// capacities are about to change.
    fn forget_shapes(&mut self) {
        self.shapes.clear();
        self.shape_resources.clear();
    }

    /// The rate one more unit-weight flow over `path` would get, with the
    /// live rows as they are: its row is inserted, covered, solved, read and
    /// removed, unless a fill since the last change to the rows or their
    /// capacities read the same shape, whose answer is bit-identical (see
    /// the module docs). Only the covered rows' rates move, as after
    /// [`solve_cover`](Self::solve_cover).
    pub fn probe(&mut self, capacities: &[f64], path: &[ResourceId]) -> f64 {
        let start = self.shape_resources.len();
        if start + path.len() > SHAPE_RESOURCES {
            // No room left for this probe's key: fill it without the memo.
            return self.probe_fill(capacities, path, &mut Gap::around(NO_CANDIDATE, 0));
        }
        let mut private: Option<(u64, ResourceId)> = None;
        for &r in path {
            let bits = capacity(capacities, r).to_bits();
            let live = self.slot_of.get(r as usize).is_some_and(|&s| s != NONE);
            if live || path.iter().filter(|&&q| q == r).count() > 1 {
                self.shape_resources.push((r, bits));
            } else if private.is_none_or(|p| (bits, r) < p) {
                private = Some((bits, r));
            }
        }
        let (bits, at) = private.unwrap_or((NO_CANDIDATE, 0));
        let shared = &self.shape_resources[start..];
        let known = self.shapes.iter().find(|shape| {
            shape.gap.admits(bits, at)
                && self.shape_resources[shape.start as usize..shape.end as usize] == *shared
        });
        if let Some(&Shape { rate, .. }) = known {
            self.shape_resources.truncate(start);
            return rate;
        }
        let mut gap = Gap::around(bits, at);
        let rate = self.probe_fill(capacities, path, &mut gap);
        if self.shapes.len() < SHAPE_ENTRIES {
            self.shapes.push(Shape {
                start: start as u32,
                end: self.shape_resources.len() as u32,
                gap,
                rate,
            });
        } else {
            self.shape_resources.truncate(start);
        }
        rate
    }

    /// Inserts, covers, fills, reads and removes a probe row, narrowing
    /// `gap` as [`fill`](Self::fill) does.
    fn probe_fill(&mut self, capacities: &[f64], path: &[ResourceId], gap: &mut Gap) -> f64 {
        self.probe_fills += 1;
        let row = self.insert_row(capacities, path);
        self.cover(row);
        self.fill(false, gap);
        let rate = self.rows[row as usize].rate;
        self.remove_row(row);
        rate
    }

    /// Lifetime number of fills [`probe`](Self::probe) ran: the probes no
    /// recorded shape answered.
    pub fn probe_fills(&self) -> u64 {
        self.probe_fills
    }

    /// A row's rate as of the last solve that covered it.
    pub fn rate(&self, row: u32) -> f64 {
        self.rows[row as usize].rate
    }

    /// The live rows the last solve covered: every live row after
    /// [`solve`](Self::solve), a component after
    /// [`solve_cover`](Self::solve_cover). Only their rates are current.
    pub fn covered(&self) -> &[u32] {
        &self.cover
    }

    /// Translates `path` into `row`'s slots, creating a slot at a resource's
    /// first live crossing, threads each occurrence onto its slot's list and
    /// reclassifies the slots crossed.
    fn link(&mut self, capacities: &[f64], row: u32, path: &[ResourceId]) {
        let mut slots = std::mem::take(&mut self.rows[row as usize].path);
        let mut next = std::mem::take(&mut self.rows[row as usize].next);
        for (at, &r) in path.iter().enumerate() {
            let ri = r as usize;
            if ri >= self.slot_of.len() {
                self.slot_of.resize(ri + 1, NONE);
            }
            if self.slot_of[ri] == NONE {
                let slot = Slot {
                    resource: r,
                    capacity: capacity(capacities, r),
                    pos: self.live_slots.len() as u32,
                    head: END,
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
            let slot = &mut self.slots[s as usize];
            slot.count += 1;
            let at = at as u32;
            next.push(std::mem::replace(&mut slot.head, Occurrence { row, at }));
            slots.push(s);
        }
        let entry = &mut self.rows[row as usize];
        (entry.path, entry.next) = (slots, next);
        self.rows[row as usize].bound = self.bound(row);
        for at in 0..path.len() {
            self.classify(self.rows[row as usize].path[at]);
        }
    }

    /// Takes `row`'s path off its slots, freeing each slot no live row
    /// crosses any more and reclassifying the rest. The row keeps its
    /// (emptied) buffers.
    fn unlink(&mut self, row: u32) {
        let mut path = std::mem::take(&mut self.rows[row as usize].path);
        for (at, &s) in path.iter().enumerate() {
            let target = Occurrence { row, at: at as u32 };
            let (mut before, mut occurrence) = (END, self.slots[s as usize].head);
            while occurrence != target {
                before = occurrence;
                occurrence = self.rows[occurrence.row as usize].next[occurrence.at as usize];
            }
            let after = self.rows[row as usize].next[at];
            if before == END {
                self.slots[s as usize].head = after;
            } else {
                self.rows[before.row as usize].next[before.at as usize] = after;
            }
            let slot = &mut self.slots[s as usize];
            slot.count -= 1;
            if slot.count == 0 {
                self.slot_of[slot.resource as usize] = NONE;
                let pos = slot.pos;
                if let Some(moved) = swap_out(&mut self.live_slots, pos) {
                    self.slots[moved as usize].pos = pos;
                }
                self.free_slots.push(s);
            }
        }
        for &s in &path {
            if self.slots[s as usize].count > 0 {
                self.classify(s);
            }
        }
        path.clear();
        let entry = &mut self.rows[row as usize];
        entry.path = path;
        entry.next.clear();
    }

    /// A row's bound: its least capacity, times the most times its path
    /// lists one slot.
    fn bound(&self, row: u32) -> f64 {
        let path = &self.rows[row as usize].path;
        let least = path.iter().fold(f64::INFINITY, |least, &s| {
            least.min(self.slots[s as usize].capacity)
        });
        let most = path.iter().map(|s| path.iter().filter(|&t| t == s).count());
        most.max().map_or(0.0, |most| least * most as f64)
    }

    /// Decides whether a live slot is bindable: shared, with its rows'
    /// bounds summed over its occurrences above its capacity less the
    /// margin.
    fn classify(&mut self, s: u32) {
        let slot = self.slots[s as usize];
        let mut sum = 0.0;
        let mut occurrence = if slot.count > 1 { slot.head } else { END };
        while occurrence != END {
            let row = &self.rows[occurrence.row as usize];
            sum += row.bound;
            occurrence = row.next[occurrence.at as usize];
        }
        self.slots[s as usize].bindable = sum > slot.capacity * (1.0 - BIND_MARGIN);
    }

    /// Collects `row`'s component — the rows it reaches through bindable
    /// slots — as the rows the next [`solve_cover`](Self::solve_cover)
    /// solves. Take it after inserting the row whose start changed the
    /// demand set, or before removing the one whose retirement did.
    pub fn cover(&mut self, row: u32) {
        self.walk += 1;
        let walk = self.walk;
        self.cover.clear();
        self.cover_slots.clear();
        self.rows[row as usize].seen = walk;
        self.cover.push(row);
        let mut reached = 0;
        while let Some(&r) = self.cover.get(reached) {
            reached += 1;
            for at in 0..self.rows[r as usize].path.len() {
                let s = self.rows[r as usize].path[at];
                let slot = &mut self.slots[s as usize];
                if !slot.bindable || slot.seen == walk {
                    continue;
                }
                slot.seen = walk;
                self.cover_slots.push(s);
                let mut occurrence = slot.head;
                while occurrence != END {
                    let other = &mut self.rows[occurrence.row as usize];
                    if other.seen != walk {
                        other.seen = walk;
                        self.cover.push(occurrence.row);
                    }
                    occurrence = other.next[occurrence.at as usize];
                }
            }
        }
    }

    /// Solves max-min fair rates for the rows [`cover`](Self::cover)
    /// collected that are still live, queueing only their bindable slots;
    /// read them with [`rate`](Self::rate). Each is bit-identical to what
    /// [`solve`](Self::solve) gives it (see the module docs); the other
    /// rows' rates are left as they were.
    pub fn solve_cover(&mut self) {
        let rows = &self.rows;
        self.cover.retain(|&r| rows[r as usize].pos != NONE);
        self.fill(false, &mut Gap::around(NO_CANDIDATE, 0));
    }

    /// Solves max-min fair rates for every live row, queueing every shared
    /// slot; read them with [`rate`](Self::rate). Results are bit-identical
    /// to [`max_min_fair_rates`](crate::flow::max_min_fair_rates) over the
    /// live rows' paths. The heap holds the shared slots and one private
    /// candidate per row that has any (see the module docs). This is the
    /// solve after a capacity change or a relink, and the oracle for
    /// [`solve_cover`](Self::solve_cover).
    pub fn solve(&mut self) {
        self.cover.clone_from(&self.live_rows);
        self.cover_slots.clone_from(&self.live_slots);
        self.fill(true, &mut Gap::around(NO_CANDIDATE, 0));
    }

    /// Progressive filling over the `cover` rows, queueing the shared
    /// `cover_slots` — all of them when `every_shared`, else the bindable
    /// ones. `gap` is narrowed past every candidate the heap is offered.
    fn fill(&mut self, every_shared: bool, gap: &mut Gap) {
        let queued = |slot: &Slot| slot.count > 1 && (every_shared || slot.bindable);
        // Every queued slot starts at its capacity with all of its rows
        // unfrozen, its registration list is laid out at the running total
        // of the counts, and its initial share is a candidate. Private slots
        // and the slots left out are left as they are: nothing reads them.
        let mut candidates = std::mem::take(&mut self.heap).into_vec();
        candidates.clear();
        let mut total = 0;
        for &s in &self.cover_slots {
            let slot = &mut self.slots[s as usize];
            if !queued(slot) {
                continue;
            }
            slot.remaining = slot.capacity;
            slot.live = slot.count;
            slot.stamp = 0;
            slot.start = total;
            slot.end = total;
            total += slot.count;
            slot.share = slot.remaining.max(0.0) / slot.live as f64;
            gap.exclude(slot.share.to_bits(), slot.resource);
            candidates.push(Reverse((slot.share.to_bits(), slot.resource, 0)));
        }
        self.entries.clear();
        self.entries.resize(total as usize, 0);
        // A flow that crosses nothing is settled at the local rate; a row no
        // round reaches keeps the reference's minimal rate. A row's private
        // slots keep their capacity as their share until the row freezes, so
        // only the tightest of them can ever be its bottleneck: it is the
        // row's one private candidate, tagged with the row. The candidates
        // are heapified in one pass.
        let mut unfrozen = 0u32;
        for &r in &self.cover {
            let row = &mut self.rows[r as usize];
            row.frozen = row.path.is_empty();
            row.rate = if row.frozen { LOCAL_RATE_BPS } else { 1.0 };
            unfrozen += u32::from(!row.frozen);
            let mut private: Option<(u64, ResourceId)> = None;
            for &s in &row.path {
                let slot = &mut self.slots[s as usize];
                if slot.count == 1 {
                    let candidate = (slot.capacity.to_bits(), slot.resource);
                    private = Some(private.map_or(candidate, |p| p.min(candidate)));
                } else if queued(slot) {
                    self.entries[slot.end as usize] = r;
                    slot.end += 1;
                }
            }
            if let Some((share, resource)) = private {
                gap.exclude(share, resource);
                candidates.push(Reverse((share, resource, r)));
            }
        }
        self.heap = BinaryHeap::from(candidates);

        // Progressive filling: repeatedly freeze every unfrozen row on the
        // most constrained resource at that resource's fair share. Once no
        // row is unfrozen, every candidate left is stale.
        while unfrozen > 0 {
            let Some(Reverse((_, resource, tag))) = self.heap.pop() else {
                break;
            };
            let bottleneck = self.slots[self.slot_of[resource as usize] as usize];
            self.freeze_scratch.clear();
            let rate = if bottleneck.count == 1 {
                // A private candidate: its row, unless already frozen, takes
                // the whole capacity.
                if self.rows[tag as usize].frozen {
                    continue;
                }
                self.freeze_scratch.push(tag);
                bottleneck.capacity
            } else {
                if tag != bottleneck.stamp {
                    continue; // superseded by a later share refresh
                }
                // Collect the rows to freeze before any of them freezes, then
                // process the snapshot without re-checking, exactly like the
                // reference: a row listing the bottleneck twice is taken
                // twice.
                let listed = &self.entries[bottleneck.start as usize..bottleneck.end as usize];
                self.freeze_scratch
                    .extend(listed.iter().filter(|&&r| !self.rows[r as usize].frozen));
                bottleneck.share.max(1.0)
            };
            for &r in &self.freeze_scratch {
                let row = &mut self.rows[r as usize];
                row.rate = rate;
                let first_freeze = !std::mem::replace(&mut row.frozen, true);
                if first_freeze {
                    unfrozen -= 1;
                }
                for &s in &row.path {
                    let slot = &mut self.slots[s as usize];
                    if !queued(slot) {
                        continue; // nothing reads it again
                    }
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
                    gap.exclude(slot.share.to_bits(), slot.resource);
                    self.heap
                        .push(Reverse((slot.share.to_bits(), slot.resource, slot.stamp)));
                }
            }
        }
    }
}

#[cfg(test)]
// The max-min reference takes its capacities in std's `HashMap`.
#[allow(clippy::disallowed_types)]
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

    /// Asserts the last solve gave every live `(row, path)` the reference's
    /// rate for the live paths, and returns those rates.
    fn assert_live_matches(
        allocator: &Allocator,
        capacities: &[f64],
        live: &[(u32, Vec<u32>)],
    ) -> Vec<f64> {
        let paths: Vec<Vec<u32>> = live.iter().map(|(_, path)| path.clone()).collect();
        let expected = reference(capacities, &paths);
        for ((row, path), want) in live.iter().zip(&expected) {
            let rate = allocator.rate(*row);
            assert!(
                rate.to_bits() == want.to_bits(),
                "row {row} over {path:?}: indexed {rate} != reference {want}"
            );
        }
        expected
    }

    /// Runs both implementations over the same inputs, asserts bit-identical
    /// rates, and returns them.
    fn assert_matches_reference(capacities: &[f64], demands: &[Vec<u32>]) -> Vec<f64> {
        let mut allocator = Allocator::new();
        let live: Vec<(u32, Vec<u32>)> = demands
            .iter()
            .map(|path| (allocator.insert(capacities, path), path.clone()))
            .collect();
        // Solve twice to cover warm-scratch reuse.
        allocator.solve();
        allocator.solve();
        assert_live_matches(&allocator, capacities, &live)
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
        assert_eq!(allocator.slot_of[3], NONE);
        assert_eq!(allocator.live_slots.len(), 1);
        allocator.relink(b, &[1.0; 8], &[7]);
        assert_eq!(allocator.path(b).collect::<Vec<_>>(), [7]);
        assert_eq!(allocator.slot_of[5], NONE);
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
    fn a_private_slot_can_be_the_first_bottleneck() {
        // Resource 0 is row 0's alone and tighter than the shared resource
        // 1's even split, so it freezes row 0 first and row 1 takes the rest.
        assert_eq!(
            assert_matches_reference(&[2.0, 10.0], &[vec![0, 1], vec![1]]),
            [2.0, 8.0]
        );
        // The tightest of a row's private slots decides, wherever it sits in
        // the path; the looser ones never do.
        assert_eq!(
            assert_matches_reference(&[8.0, 3.0, 5.0], &[vec![0, 1, 2]]),
            [3.0]
        );
        assert_eq!(
            assert_matches_reference(&[9.0, 6.0, 4.0, 20.0], &[vec![0, 3, 2, 1], vec![3]]),
            [4.0, 16.0]
        );
    }

    #[test]
    fn a_private_and_a_shared_candidate_with_equal_shares_tie_on_resource_id() {
        // Three rows split 10 three ways; row 0 also crosses a private
        // resource of exactly that share. Freezing row 0 first leaves the
        // others `(10 - 10/3) / 2`, which differs from `10/3` in the last bit,
        // so the order is visible in the rates.
        let share = 10.0 / 3.0;
        let private_first =
            assert_matches_reference(&[share, 10.0], &[vec![0, 1], vec![1], vec![1]]);
        assert_eq!(private_first[1], (10.0 - share) / 2.0);
        let shared_first =
            assert_matches_reference(&[10.0, share], &[vec![0, 1], vec![0], vec![0]]);
        assert_eq!(shared_first, [share; 3]);
        assert_ne!(private_first[1].to_bits(), shared_first[1].to_bits());
    }

    #[test]
    fn a_private_candidate_of_a_frozen_row_is_skipped() {
        // Resource 0 (2 bps over two rows) freezes rows 0 and 1 at 1 bps
        // first; row 0's private resource 1 pops later, while row 2 is still
        // unfrozen, and must not re-freeze row 0 at 5.
        assert_eq!(
            assert_matches_reference(&[2.0, 5.0, 100.0], &[vec![0, 1], vec![0], vec![2]]),
            [1.0, 1.0, 100.0]
        );
    }

    #[test]
    fn a_resource_listed_twice_by_one_row_is_shared() {
        // Two occurrences in one path count twice: the row gets half.
        assert_eq!(assert_matches_reference(&[6.0], &[vec![0, 0]]), [3.0]);
        assert_eq!(
            assert_matches_reference(&[6.0, 2.0], &[vec![0, 0], vec![1, 0]]),
            [2.0, 2.0]
        );
    }

    #[test]
    fn a_probe_shape_keys_the_capacity_of_a_resource_it_lists_twice() {
        // No live row crosses resource 1, so the probe's own two occurrences
        // make it shared: its capacity, read from the caller's slice, halves.
        let mut allocator = Allocator::new();
        allocator.insert(&[10.0, 6.0], &[0]);
        assert_eq!(allocator.probe(&[10.0, 6.0], &[1, 1]), 3.0);
        assert_eq!(allocator.probe(&[10.0, 8.0], &[1, 1]), 4.0);
        assert_eq!(allocator.probe_fills(), 2);
    }

    #[test]
    fn the_shape_memo_stops_filing_at_its_reserved_size() {
        // Every probe's private capacity differs, so no two share a shape.
        let mut capacities: Vec<f64> = (0..=SHAPE_ENTRIES + 8).map(|i| i as f64).collect();
        capacities[0] = 1.0e6;
        let mut allocator = Allocator::new();
        allocator.insert(&capacities, &[0]);
        let (shapes, resources) = (
            allocator.shapes.capacity(),
            allocator.shape_resources.capacity(),
        );
        for round in 0..2 {
            for r in 1..capacities.len() as u32 {
                assert_eq!(allocator.probe(&capacities, &[0, r]), f64::from(r));
            }
            let unfiled = (capacities.len() - 1 - SHAPE_ENTRIES) as u64;
            assert_eq!(
                allocator.probe_fills(),
                (capacities.len() as u64 - 1) + round * unfiled
            );
        }
        assert_eq!(allocator.shapes.len(), SHAPE_ENTRIES);
        assert_eq!(
            (
                allocator.shapes.capacity(),
                allocator.shape_resources.capacity()
            ),
            (shapes, resources)
        );
    }

    #[test]
    fn a_row_listing_a_slot_twice_bounds_what_it_takes_by_both() {
        // Row 0 crosses resource 0 twice and freezes there at 7.8 / 2,
        // taking that from resource 1 twice. Its least capacity (4.1, a
        // private resource) and row 1's (4) sum to under resource 1's 10,
        // yet what row 0 leaves there is row 1's bottleneck: a bound counts
        // every occurrence, so resource 1 binds and covers both rows.
        let capacities = [7.8, 10.0, 4.1, 4.0];
        let paths = [vec![0, 0, 1, 2], vec![1, 3]];
        let expected = assert_matches_reference(&capacities, &paths);
        assert!(expected[1] < 4.0, "{expected:?}");
        let mut allocator = Allocator::new();
        let live: Vec<(u32, Vec<u32>)> = paths
            .iter()
            .map(|path| (allocator.insert(&capacities, path), path.clone()))
            .collect();
        allocator.cover(live[1].0);
        allocator.solve_cover();
        assert_eq!(allocator.covered(), [1, 0]);
        assert_live_matches(&allocator, &capacities, &live);
    }

    #[test]
    fn a_start_or_a_retire_covers_only_what_it_reaches() {
        // Rows a and b fill resource 0 together (bounds 4 + 6 over 6), but
        // resource 1 (10 under b's 6 and c's 1) cannot bind, so c stays
        // apart until a row with a bound of 10 crosses resource 1 as well.
        let capacities = [6.0, 10.0, 4.0, 1.0];
        let mut allocator = Allocator::new();
        let solve_around = |allocator: &mut Allocator, row: u32| {
            allocator.cover(row);
            allocator.solve_cover();
            let mut covered = allocator.covered().to_vec();
            covered.sort_unstable();
            covered
        };
        let a = allocator.insert(&capacities, &[0, 2]);
        let b = allocator.insert(&capacities, &[0, 1]);
        let c = allocator.insert(&capacities, &[1, 3]);
        assert_eq!(solve_around(&mut allocator, c), [c]);
        assert_eq!(solve_around(&mut allocator, a), [a, b]);
        let d = allocator.insert(&capacities, &[1]);
        assert_eq!(solve_around(&mut allocator, d), [a, b, c, d]);
        // A retire takes its cover before the row leaves, and c's component
        // splits off again.
        allocator.cover(d);
        allocator.remove(d);
        allocator.solve_cover();
        assert_eq!(allocator.covered().len(), 3);
        assert_eq!(solve_around(&mut allocator, a), [a, b]);
    }

    #[test]
    fn zero_capacity_and_unknown_private_resources_floor_at_one() {
        assert_eq!(
            assert_matches_reference(&[0.0, 10.0], &[vec![0, 1], vec![7, 1], vec![1]]),
            [1.0, 1.0, 8.0]
        );
    }

    #[test]
    fn private_slots_follow_capacity_refreshes_and_row_churn() {
        let mut capacities = vec![4.0, 10.0, 3.0];
        let mut allocator = Allocator::new();
        let mut live = Vec::new();
        let solve = |allocator: &mut Allocator, capacities: &[f64], live: &[(u32, Vec<u32>)]| {
            allocator.solve();
            assert_live_matches(allocator, capacities, live)
        };
        // Resources 0 and 1 are private to row a.
        let a = vec![0, 1];
        live.push((allocator.insert(&capacities, &a), a));
        assert_eq!(solve(&mut allocator, &capacities, &live), [4.0]);
        // A refresh reaches a private slot.
        capacities[0] = 12.0;
        allocator.refresh_capacities(&capacities);
        assert_eq!(solve(&mut allocator, &capacities, &live), [10.0]);
        // Resource 1 turns shared, then private to b once a leaves, then
        // shared again.
        let b = vec![1, 2];
        live.push((allocator.insert(&capacities, &b), b));
        assert_eq!(solve(&mut allocator, &capacities, &live), [7.0, 3.0]);
        let (row_a, _) = live.remove(0);
        allocator.remove(row_a);
        assert_eq!(solve(&mut allocator, &capacities, &live), [3.0]);
        capacities[2] = 50.0;
        allocator.refresh_capacities(&capacities);
        assert_eq!(solve(&mut allocator, &capacities, &live), [10.0]);
        let c = vec![1];
        live.push((allocator.insert(&capacities, &c), c));
        assert_eq!(solve(&mut allocator, &capacities, &live), [5.0, 5.0]);
        // b leaves; c is alone on resource 1 again.
        let (row_b, _) = live.remove(0);
        allocator.remove(row_b);
        assert_eq!(solve(&mut allocator, &capacities, &live), [10.0]);
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
