//! The max-min allocator on fleet-shaped demand sets: paths drawn from the
//! `large-scale` (2,000 clients) and `large-scale-50k` testbeds, whose slot
//! table is sparse over ~100k links and whose rows mostly cross private
//! access links behind a few shared uplinks and core links.
//!
//! Two gates, both bit for bit against the reference `max_min_fair_rates`:
//!
//! - **Full solves.** 16, 128 and 512 flows at 2k and the 39 flows of a
//!   typical 50k epoch are inserted into one persistent allocator and
//!   solved, then every other row is removed and the rest solved again.
//! - **Covered solves.** Transfers start, retire and are probed the way
//!   `Network` drives the allocator: a start covers its new row, a retire
//!   covers its row before removing it, a probe is insert, cover, solve,
//!   read, remove. The owner keeps each row's rate from the last solve that
//!   covered it, and every kept rate must equal the reference's for the
//!   live set, with a core link squeezed to a few kbps part of the way.

// The max-min reference takes its capacities in std's `HashMap`.
#![allow(clippy::disallowed_types)]

use gridapp::{Testbed, TestbedSpec};
use simnet::flow::{max_min_fair_rates, FlowDemand, FlowKey};
use simnet::{Allocator, LinkId, NodeId, PathTable, SimRng};
use std::collections::HashMap;

/// A testbed's topology, its endpoints and their paths.
struct Fleet {
    testbed: Testbed,
    paths: PathTable,
    clients: Vec<NodeId>,
    capacities: Vec<f64>,
}

impl Fleet {
    fn build(spec: TestbedSpec) -> Self {
        let testbed = Testbed::from_spec(&spec).expect("testbed builds");
        let clients = testbed.client_hosts.iter().map(|&(_, h)| h).collect();
        let capacities = testbed
            .topology
            .links()
            .map(|(_, l)| (l.capacity_bps - l.background_bps).max(1.0))
            .collect();
        Fleet {
            testbed,
            paths: PathTable::new(),
            clients,
            capacities,
        }
    }

    /// A random server-to-client path, as allocator resources.
    fn path(&mut self, rng: &mut SimRng) -> Vec<u32> {
        let servers = &self.testbed.server_hosts;
        let src = servers[rng.index(servers.len())];
        let dst = self.clients[rng.index(self.clients.len())];
        let path = self.paths.path(&self.testbed.topology, src, dst);
        let path = path.expect("connected testbed");
        path.iter().map(|l| l.0 as u32).collect()
    }

    /// Asserts `rate(i)` is the reference's rate for `paths[i]`, for every
    /// `i`, over the links those paths cross.
    fn assert_reference(&self, paths: &[&[u32]], rate: impl Fn(usize) -> f64, context: &str) {
        let demands: Vec<FlowDemand> = paths
            .iter()
            .enumerate()
            .map(|(key, path)| FlowDemand {
                key: FlowKey(key as u64),
                links: path.iter().map(|&r| LinkId(r as usize)).collect(),
                weight: 1.0,
            })
            .collect();
        let capacities: HashMap<LinkId, f64> = demands
            .iter()
            .flat_map(|d| d.links.iter())
            .map(|&l| (l, self.capacities[l.0]))
            .collect();
        let expected = max_min_fair_rates(&capacities, &demands);
        for (i, path) in paths.iter().enumerate() {
            let (got, want) = (rate(i), expected[&FlowKey(i as u64)]);
            assert!(
                got.to_bits() == want.to_bits(),
                "{context}: flow {i} of {} over {path:?}: {got} != reference {want}",
                paths.len()
            );
        }
    }
}

/// Full solves over `flows` random flows: all of them, then every other
/// one removed.
fn full_solves_match_reference(fleet: &mut Fleet, rng: &mut SimRng, flows: usize) {
    let mut allocator = Allocator::new();
    let mut live: Vec<(u32, Vec<u32>)> = (0..flows)
        .map(|_| {
            let path = fleet.path(rng);
            (allocator.insert(&fleet.capacities, &path), path)
        })
        .collect();
    for round in ["all rows", "every other row removed"] {
        allocator.solve();
        let paths: Vec<&[u32]> = live.iter().map(|(_, p)| p.as_slice()).collect();
        let rate = |i: usize| allocator.rate(live[i].0);
        fleet.assert_reference(&paths, rate, &format!("{flows} flows, {round}"));
        for &(row, _) in live.iter().skip(1).step_by(2) {
            allocator.remove(row);
        }
        live = live.into_iter().step_by(2).collect();
    }
}

/// What the owner of a covered allocator keeps: the live rows, their paths
/// and their rates as of the last solve that covered them.
struct Owner {
    allocator: Allocator,
    live: Vec<(u32, Vec<u32>)>,
    kept: HashMap<u32, f64>,
    /// Covered solves, and how many of them left a live row out.
    solves: usize,
    narrow: usize,
}

impl Owner {
    fn keep(&mut self) {
        for &row in self.allocator.covered() {
            self.kept.insert(row, self.allocator.rate(row));
        }
        self.solves += 1;
        self.narrow += usize::from(self.allocator.covered().len() < self.live.len());
    }

    fn start(&mut self, fleet: &Fleet, path: Vec<u32>) {
        let row = self.allocator.insert(&fleet.capacities, &path);
        self.live.push((row, path));
        self.allocator.cover(row);
        self.allocator.solve_cover();
        self.keep();
    }

    fn retire(&mut self, i: usize) {
        let (row, _) = self.live.swap_remove(i);
        self.allocator.cover(row);
        self.allocator.remove(row);
        self.kept.remove(&row);
        self.allocator.solve_cover();
        self.keep();
    }

    /// A probe's rate, and the owner's rates untouched by it.
    fn probe(&mut self, fleet: &Fleet, path: &[u32], context: &str) {
        let row = self.allocator.insert(&fleet.capacities, path);
        self.allocator.cover(row);
        self.allocator.solve_cover();
        let mut paths: Vec<&[u32]> = self.live.iter().map(|(_, p)| p.as_slice()).collect();
        paths.push(path);
        let covered = self.allocator.covered();
        let rate = |i: usize| {
            let r = self.live.get(i).map_or(row, |&(r, _)| r);
            if covered.contains(&r) {
                self.allocator.rate(r)
            } else {
                self.kept[&r]
            }
        };
        fleet.assert_reference(&paths, rate, &format!("{context}, probe"));
        self.allocator.remove(row);
    }

    fn assert_kept(&self, fleet: &Fleet, context: &str) {
        let paths: Vec<&[u32]> = self.live.iter().map(|(_, p)| p.as_slice()).collect();
        let rate = |i: usize| self.kept[&self.live[i].0];
        fleet.assert_reference(&paths, rate, context);
    }
}

/// Starts `flows` transfers, then runs `steps` seeded starts, retires and
/// probes, holding every kept rate to the reference after each; a third of
/// the way through, the link the most live paths share is squeezed to
/// 5 kbps, and two thirds of the way it is restored. Returns the covered
/// solves and how many left a live row out.
fn covered_solves_match_reference(
    fleet: &mut Fleet,
    rng: &mut SimRng,
    flows: usize,
    steps: usize,
) -> (usize, usize) {
    let mut owner = Owner {
        allocator: Allocator::new(),
        live: Vec::new(),
        kept: HashMap::new(),
        solves: 0,
        narrow: 0,
    };
    for _ in 0..flows {
        let path = fleet.path(rng);
        owner.start(fleet, path);
    }
    owner.assert_kept(fleet, &format!("{flows} flows started"));
    let mut squeezed: Option<(usize, f64)> = None;
    for step in 0..steps {
        let context = format!("{flows} flows, step {step}");
        if step == steps / 3 {
            let mut crossings: HashMap<u32, usize> = HashMap::new();
            for &r in owner.live.iter().flat_map(|(_, p)| p) {
                *crossings.entry(r).or_default() += 1;
            }
            let (&link, _) = crossings.iter().max_by_key(|&(&r, &n)| (n, r)).unwrap();
            let link = link as usize;
            squeezed = Some((link, fleet.capacities[link]));
            fleet.capacities[link] = 5.0e3;
            owner.allocator.refresh_capacities(&fleet.capacities);
            owner.allocator.solve();
            owner.keep();
        } else if step == 2 * steps / 3 {
            let (link, capacity) = squeezed.take().unwrap();
            fleet.capacities[link] = capacity;
            owner.allocator.refresh_capacities(&fleet.capacities);
            owner.allocator.solve();
            owner.keep();
        }
        match rng.index(3) {
            0 if !owner.live.is_empty() => owner.retire(rng.index(owner.live.len())),
            1 => {
                let path = fleet.path(rng);
                owner.probe(fleet, &path, &context);
            }
            _ => {
                let path = fleet.path(rng);
                owner.start(fleet, path);
            }
        }
        owner.assert_kept(fleet, &context);
    }
    (owner.solves, owner.narrow)
}

#[test]
fn fleet_flow_sets_match_reference_in_full_and_covered_solves() {
    let mut rng = SimRng::seed_from_u64(2026).derive(5);
    let mut fleet = Fleet::build(TestbedSpec::large_scale());
    for flows in [16, 128, 512] {
        full_solves_match_reference(&mut fleet, &mut rng, flows);
    }
    let (solves_2k, narrow_2k) = covered_solves_match_reference(&mut fleet, &mut rng, 30, 90);

    let mut fleet = Fleet::build(TestbedSpec::large_scale_50k());
    full_solves_match_reference(&mut fleet, &mut rng, 39);
    let (solves_50k, narrow_50k) = covered_solves_match_reference(&mut fleet, &mut rng, 39, 90);
    println!(
        "covered solves that left a live row out: {narrow_2k} of {solves_2k} at 2k, \
         {narrow_50k} of {solves_50k} at 50k"
    );
    assert!(
        narrow_2k > 0 && narrow_50k > 0,
        "no covered solve left a row out"
    );
}
