//! Property-based equivalence of the indexed incremental allocator and the
//! reference `max_min_fair_rates` implementation.
//!
//! The `Network` now computes every transfer rate and every bandwidth probe
//! through the persistent [`simnet::Allocator`]. These tests replay random
//! scenarios — random topologies, flow churn (starts, cancellations,
//! completions), and fault mutations (link cuts/degrades, node outages,
//! background competition) — while independently reconstructing the
//! allocator's inputs from public state and solving them with the retained
//! reference implementation. Every rate and every probe must match
//! **bit-identically** at every step; this is the invariant that keeps the
//! refactored simulation core byte-compatible with the original.

use proptest::prelude::*;
use simnet::flow::{max_min_fair_rates, FlowDemand, FlowKey};
use simnet::rng::SimRng;
use simnet::topology::{LinkId, NodeId, Topology};
use simnet::{Allocator, Network, PathTable, SimDuration, SimTime, TransferId};
use std::collections::HashMap;

/// A random connected topology: a chain of routers with hosts hung off
/// seeded positions, seeded capacities, and seeded latencies.
fn random_topology(seed: u64, routers: usize, hosts: usize) -> (Topology, Vec<NodeId>) {
    let mut rng = SimRng::seed_from_u64(seed).derive(77);
    let mut topo = Topology::new();
    let router_ids: Vec<NodeId> = (0..routers)
        .map(|i| topo.add_router(&format!("r{i}")).unwrap())
        .collect();
    for pair in router_ids.windows(2) {
        topo.add_link(
            pair[0],
            pair[1],
            rng.uniform_range(1.0e6, 20.0e6),
            SimDuration::from_millis(rng.uniform_range(0.5, 5.0)),
        )
        .unwrap();
    }
    // Occasional shortcut links create equal-cost-ish alternatives.
    if routers > 2 && rng.index(2) == 0 {
        topo.add_link(
            router_ids[0],
            router_ids[routers - 1],
            rng.uniform_range(1.0e6, 20.0e6),
            SimDuration::from_millis(rng.uniform_range(0.5, 5.0)),
        )
        .unwrap();
    }
    let mut host_ids = Vec::new();
    for i in 0..hosts {
        let h = topo.add_host(&format!("h{i}")).unwrap();
        let r = router_ids[rng.index(router_ids.len())];
        topo.add_link(
            h,
            r,
            rng.uniform_range(2.0e6, 50.0e6),
            SimDuration::from_millis(rng.uniform_range(0.2, 2.0)),
        )
        .unwrap();
        host_ids.push(h);
    }
    (topo, host_ids)
}

/// The reference's view of the network: effective capacities from public
/// topology state plus the down-node floor.
fn reference_capacities(net: &Network) -> HashMap<LinkId, f64> {
    net.topology()
        .links()
        .map(|(id, l)| {
            let capacity = if net.node_is_down(l.a) || net.node_is_down(l.b) {
                1.0
            } else {
                l.effective_capacity_bps()
            };
            (id, capacity)
        })
        .collect()
}

/// The reference's view of the demand set, rebuilt from the test's own
/// transfer ledger (paths recomputed through the reference Dijkstra).
fn reference_demands(net: &Network, ledger: &[(TransferId, NodeId, NodeId)]) -> Vec<FlowDemand> {
    let mut demands: Vec<FlowDemand> = ledger
        .iter()
        .filter(|(id, _, _)| net.transfer_rate(*id).is_some())
        .map(|&(id, src, dst)| FlowDemand {
            key: FlowKey(id.0),
            links: PathTable::new().path(net.topology(), src, dst).unwrap(),
            weight: 1.0,
        })
        .collect();
    demands.sort_by_key(|d| d.key);
    demands
}

/// Asserts every live transfer rate and a probe between `probe` endpoints
/// match the reference solver bit-for-bit.
fn assert_reference_agreement(
    net: &Network,
    ledger: &[(TransferId, NodeId, NodeId)],
    probe: (NodeId, NodeId),
) {
    let capacities = reference_capacities(net);
    let demands = reference_demands(net, ledger);
    let expected = max_min_fair_rates(&capacities, &demands);
    for demand in &demands {
        let live = net
            .transfer_rate(TransferId(demand.key.0))
            .expect("ledger filtered to live transfers");
        let reference = expected[&demand.key];
        assert!(
            live.to_bits() == reference.to_bits(),
            "transfer {} rate diverged: live {live} != reference {reference}",
            demand.key.0
        );
    }
    // The probe query must equal a full re-solve with the probe appended.
    let (src, dst) = probe;
    let path = PathTable::new().path(net.topology(), src, dst).unwrap();
    let live_probe = net.available_bandwidth(src, dst).unwrap();
    if path.is_empty() {
        assert_eq!(live_probe, simnet::flow::LOCAL_RATE_BPS);
    } else {
        let probe_key = FlowKey(u64::MAX);
        let mut with_probe = demands.clone();
        with_probe.push(FlowDemand {
            key: probe_key,
            links: path,
            weight: 1.0,
        });
        let expected_probe = max_min_fair_rates(&capacities, &with_probe)[&probe_key];
        assert!(
            live_probe.to_bits() == expected_probe.to_bits(),
            "probe diverged: live {live_probe} != reference {expected_probe}"
        );
    }
}

/// Replays a seeded scenario of flow churn and fault mutations, checking
/// reference agreement after every step.
fn run_equivalence_scenario(seed: u64, routers: usize, hosts: usize, steps: usize) {
    let (topo, host_ids) = random_topology(seed, routers, hosts);
    let links: Vec<LinkId> = topo.links().map(|(id, _)| id).collect();
    let nominal: Vec<f64> = topo.links().map(|(_, l)| l.capacity_bps).collect();
    let mut net = Network::new(topo);
    let mut rng = SimRng::seed_from_u64(seed).derive(99);
    let mut ledger: Vec<(TransferId, NodeId, NodeId)> = Vec::new();
    let mut clock = 0.0;
    for _ in 0..steps {
        clock += rng.uniform_range(0.01, 0.8);
        let now = SimTime::from_secs(clock);
        match rng.index(6) {
            0 | 1 => {
                let src = host_ids[rng.index(host_ids.len())];
                let dst = host_ids[rng.index(host_ids.len())];
                let size = rng.uniform_range(5.0e3, 5.0e6);
                if src != dst {
                    let id = net.start_transfer(now, src, dst, size, 0).unwrap();
                    ledger.push((id, src, dst));
                }
            }
            2 => {
                if !ledger.is_empty() {
                    let (id, ..) = ledger[rng.index(ledger.len())];
                    let _ = net.cancel_transfer(now, id);
                }
            }
            3 => {
                let link = links[rng.index(links.len())];
                let factor = [0.0, 0.1, 0.5, 1.0][rng.index(4)];
                net.set_link_capacity(now, link, nominal[link.0] * factor)
                    .unwrap();
            }
            4 => {
                let node = NodeId(rng.index(net.topology().node_count()));
                net.set_node_down(now, node, rng.index(2) == 0).unwrap();
            }
            _ => {
                let link = links[rng.index(links.len())];
                net.set_background_on_link(now, link, rng.uniform_range(0.0, 8.0e6))
                    .unwrap();
            }
        }
        net.poll_completions_into(now, &mut Vec::new());
        let probe_src = host_ids[rng.index(host_ids.len())];
        let probe_dst = host_ids[rng.index(host_ids.len())];
        assert_reference_agreement(&net, &ledger, (probe_src, probe_dst));
    }
}

/// Asserts the allocator's last solve gave every `(row, path)` in `live` the
/// reference's rate for the same paths.
fn assert_solve_matches(
    allocator: &Allocator,
    capacities: &[f64],
    live: &[(u32, Vec<u32>)],
    context: &str,
) {
    let reference_flows: Vec<FlowDemand> = live
        .iter()
        .enumerate()
        .map(|(i, (_, path))| FlowDemand {
            key: FlowKey(i as u64),
            links: path.iter().map(|&r| LinkId(r as usize)).collect(),
            weight: 1.0,
        })
        .collect();
    let capacity_map: HashMap<LinkId, f64> = capacities
        .iter()
        .enumerate()
        .map(|(i, &c)| (LinkId(i), c))
        .collect();
    let expected = max_min_fair_rates(&capacity_map, &reference_flows);
    for (i, (row, path)) in live.iter().enumerate() {
        let (rate, reference) = (allocator.rate(*row), expected[&FlowKey(i as u64)]);
        assert!(
            rate.to_bits() == reference.to_bits(),
            "{context}: row {row} over {path:?}: allocator {rate} != reference {reference}"
        );
    }
}

/// Replays a seeded sequence of inserts, removes, probes (insert, solve,
/// remove) and capacity refreshes on one persistent allocator, in shapes
/// `Network` never builds — a resource listed twice in one path, ids past the
/// end of `capacities`, zero capacities, rows that cross nothing — and holds
/// every solve to the reference over the rows live at that moment.
fn run_direct_scenario(seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed).derive(3);
    let ids = 1 + rng.index(12);
    let table = |rng: &mut SimRng| -> Vec<f64> {
        let known = rng.index(ids + 1);
        (0..known)
            .map(|_| [0.0, 0.5, 3.0, 7.0, 1.0e3, 2.5e6][rng.index(6)])
            .collect()
    };
    let resource = |rng: &mut SimRng| {
        let id = rng.index(ids) as u32;
        // Now and then an id far past anything the last solve sized for.
        if rng.index(16) == 0 {
            id + 1_000 * (1 + seed % 7) as u32
        } else {
            id
        }
    };
    let path =
        |rng: &mut SimRng| -> Vec<u32> { (0..rng.index(5)).map(|_| resource(rng)).collect() };

    let mut capacities = table(&mut rng);
    let mut allocator = Allocator::new();
    let mut live: Vec<(u32, Vec<u32>)> = Vec::new();
    for step in 0..1 + rng.index(40) {
        let context = format!("seed {seed} step {step}");
        match rng.index(6) {
            0 | 1 => {
                let path = path(&mut rng);
                let row = allocator.insert(&capacities, &path);
                assert!(live.iter().all(|&(r, _)| r != row), "{context}: row reused");
                live.push((row, path));
            }
            2 if !live.is_empty() => {
                let (row, _) = live.swap_remove(rng.index(live.len()));
                allocator.remove(row);
            }
            3 => {
                capacities = table(&mut rng);
                allocator.refresh_capacities(&capacities);
            }
            4 => {
                let probe = path(&mut rng);
                let row = allocator.insert(&capacities, &probe);
                live.push((row, probe));
                allocator.solve();
                assert_solve_matches(&allocator, &capacities, &live, &context);
                live.pop();
                allocator.remove(row);
            }
            _ => {}
        }
        allocator.solve();
        assert_solve_matches(&allocator, &capacities, &live, &context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The allocator's slot counts, `live` counts and early exit, held to the
    /// reference under row churn on inputs the goldens cannot reach.
    #[test]
    fn allocator_matches_reference_on_demand_sets_no_network_builds(seed in 0u64..u64::MAX) {
        run_direct_scenario(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The indexed allocator matches the reference bit-identically across
    /// random topologies, flow churn, and fault mutations.
    #[test]
    fn allocator_matches_reference_under_churn_and_faults(
        seed in 0u64..u64::MAX,
        routers in 2usize..6,
        hosts in 2usize..8,
        steps in 5usize..40,
    ) {
        run_equivalence_scenario(seed, routers, hosts, steps);
    }
}

/// A fixed, deeper scenario so the equivalence also runs under `--test-threads`
/// deterministic CI without relying on proptest's sampling.
#[test]
fn allocator_matches_reference_fixed_deep_scenario() {
    run_equivalence_scenario(0xC0FFEE, 4, 6, 120);
}

/// A second fixed scenario: fewer routers, more hosts, so more transfers
/// share each core link.
#[test]
fn allocator_matches_reference_fixed_wide_scenario() {
    run_equivalence_scenario(0xA66A, 3, 8, 120);
}

/// Groups of concurrent transfers under hand counts: three share one far
/// endpoint and direction, a fourth from the same hosts goes the other way to
/// another server, a fifth reaches the first server without crossing the core
/// link, and two more arrive from slower access links. Rates and a probe are
/// held to the reference throughout, and the rates to figures worked by hand.
#[test]
fn grouped_epochs_match_reference_and_hand_counts() {
    let ms = SimDuration::from_millis;
    let mut topo = Topology::new();
    let r0 = topo.add_router("r0").unwrap();
    let r1 = topo.add_router("r1").unwrap();
    topo.add_link(r0, r1, 6.0e6, ms(2.0)).unwrap();
    let mut host = |name: &str, router: NodeId, bps: f64| {
        let h = topo.add_host(name).unwrap();
        topo.add_link(h, router, bps, ms(1.0)).unwrap();
        h
    };
    let a: Vec<NodeId> = (0..4).map(|i| host(&format!("a{i}"), r0, 20.0e6)).collect();
    let b: Vec<NodeId> = (0..2).map(|i| host(&format!("b{i}"), r0, 5.0e6)).collect();
    // Attached where the servers are.
    let stray = host("stray", r1, 20.0e6);
    let s0 = host("s0", r1, 10.0e6);
    let s1 = host("s1", r1, 10.0e6);

    let mut net = Network::new(topo);
    let mut ledger = Vec::new();
    let now = SimTime::from_secs(0.5);
    let mut start = |net: &mut Network, src: NodeId, dst: NodeId| {
        ledger.push((
            net.start_transfer(now, src, dst, 50.0e6, 0).unwrap(),
            src,
            dst,
        ));
        assert_reference_agreement(net, &ledger, (s1, a[3]));
    };
    // Live transfers' rates, in start order.
    let assert_rates = |net: &Network, expected: &[f64]| {
        let live: Vec<f64> = (0..7)
            .filter_map(|i| net.transfer_rate(TransferId(i)))
            .collect();
        assert_eq!(live.len(), expected.len(), "{live:?}");
        for (rate, want) in live.iter().zip(expected) {
            assert!((rate - want).abs() < 1.0, "{live:?} != {expected:?}");
        }
    };

    // Three to the `a` clients from s0 split the 6 Mbps core link.
    for &client in &a[..3] {
        start(&mut net, s0, client);
    }
    assert_rates(&net, &[2.0e6; 3]);
    // A fourth crosses the core the other way, to s1.
    start(&mut net, a[3], s1);
    assert_rates(&net, &[1.5e6; 4]);
    // s0 to a host on its own router: what the other three leave of s0's
    // 10 Mbps access link.
    start(&mut net, s0, stray);
    assert_rates(&net, &[1.5e6, 1.5e6, 1.5e6, 1.5e6, 5.5e6]);
    // Two more across the core, to the `b` clients.
    for &client in &b {
        start(&mut net, s0, client);
    }
    assert_rates(&net, &[1.0e6, 1.0e6, 1.0e6, 1.0e6, 5.0e6, 1.0e6, 1.0e6]);
    // One leaves: the core splits five ways and s0's link has more to spare.
    assert!(net.cancel_transfer(now, ledger[1].0).unwrap());
    assert_reference_agreement(&net, &ledger, (a[1], s0));
    assert_rates(&net, &[1.2e6, 1.2e6, 1.2e6, 5.2e6, 1.2e6, 1.2e6]);
}

/// A transfer that starts and drains while nothing else changes: the epoch
/// that retires it restores the rates from before its start instead of
/// solving, and they must still be the reference's — with a probe solved in
/// between, and for a retire that undoes nothing.
#[test]
fn an_epoch_that_undoes_the_last_start_matches_reference() {
    let ms = SimDuration::from_millis;
    let mut topo = Topology::new();
    let r = topo.add_router("r").unwrap();
    let hosts: Vec<NodeId> = [20.0e6, 8.0e6, 5.0e6, 10.0e6]
        .iter()
        .enumerate()
        .map(|(i, &bps)| {
            let h = topo.add_host(&format!("h{i}")).unwrap();
            topo.add_link(h, r, bps, ms(1.0)).unwrap();
            h
        })
        .collect();
    let mut net = Network::new(topo);
    let start = |net: &mut Network, src: usize, bytes: f64, at: f64| {
        let id = net.start_transfer(SimTime::from_secs(at), hosts[src], hosts[3], bytes, 0);
        (id.unwrap(), hosts[src], hosts[3])
    };
    let long_rates = |net: &Network, ledger: &[(TransferId, NodeId, NodeId)]| -> Vec<u64> {
        let rate = |&(id, ..): &(TransferId, NodeId, NodeId)| net.transfer_rate(id).unwrap();
        ledger[..2].iter().map(|t| rate(t).to_bits()).collect()
    };
    // Two long transfers, then a short one that drains alone.
    let mut ledger = vec![
        start(&mut net, 0, 50.0e6, 0.0),
        start(&mut net, 1, 50.0e6, 0.0),
    ];
    let before = long_rates(&net, &ledger);
    ledger.push(start(&mut net, 2, 1.0e4, 1.0));
    assert_ne!(before, long_rates(&net, &ledger));
    assert_reference_agreement(&net, &ledger, (hosts[0], hosts[3]));
    assert_eq!((net.rate_epoch_count(), net.rate_solve_count()), (3, 3));
    let mut done = Vec::new();
    net.poll_completions_into(SimTime::from_secs(1.5), &mut done);
    assert_eq!(done.len(), 1);
    assert_eq!((net.rate_epoch_count(), net.rate_solve_count()), (4, 3));
    assert_reference_agreement(&net, &ledger, (hosts[1], hosts[3]));
    assert_eq!(before, long_rates(&net, &ledger));
    // Retiring a transfer whose start did not open the last epoch solves.
    assert!(net
        .cancel_transfer(SimTime::from_secs(2.0), ledger[0].0)
        .unwrap());
    assert_eq!((net.rate_epoch_count(), net.rate_solve_count()), (5, 4));
    assert_reference_agreement(&net, &ledger, (hosts[2], hosts[3]));
}

/// Fleet-shaped demand sets: each client is the only row on its access link
/// and its edge link, behind a few shared uplinks and server links, so most
/// slots of a solve are crossed by one row and each row has two of them.
/// Access and edge capacities straddle the uplink shares and each other, so
/// some rows freeze at their tighter private link and others at an uplink or
/// a server. Churn reuses a busy client's links (a private slot turns shared
/// and back), probes cross a client's access link twice, and capacity
/// refreshes degrade uplinks and private links alike; every solve is held to
/// the reference.
#[test]
fn fleet_shaped_private_access_links_match_reference() {
    let mut private_bound = 0;
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from_u64(seed).derive(5);
        let (uplinks, servers) = (1 + rng.index(3), 1 + rng.index(3));
        let clients = 40 + rng.index(40);
        let access = (uplinks + servers) as u32;
        let mut capacities = Vec::new();
        for (count, choices) in [
            (uplinks, &[10.0e6, 45.0e6, 100.0e6][..]),
            (servers, &[100.0e6, 1.0e9]),
            (clients, &[0.5e6, 1.0e6, 2.0e6, 10.0e6, 100.0e6]),
            (clients, &[0.5e6, 1.0e6, 2.0e6, 10.0e6, 100.0e6]),
        ] {
            capacities.extend((0..count).map(|_| choices[rng.index(choices.len())]));
        }
        let path = |rng: &mut SimRng, client: usize| -> Vec<u32> {
            let server = (uplinks + rng.index(servers)) as u32;
            let (access, edge) = (access + client as u32, access + (clients + client) as u32);
            vec![access, edge, rng.index(uplinks) as u32, server]
        };
        let mut allocator = Allocator::new();
        let mut live: Vec<(u32, Vec<u32>)> = (0..clients)
            .map(|client| {
                let path = path(&mut rng, client);
                (allocator.insert(&capacities, &path), path)
            })
            .collect();
        for step in 0..40 {
            let context = format!("seed {seed} step {step}");
            match rng.index(4) {
                0 if !live.is_empty() => {
                    let (row, _) = live.swap_remove(rng.index(live.len()));
                    allocator.remove(row);
                }
                1 => {
                    let client = rng.index(clients);
                    let path = path(&mut rng, client);
                    live.push((allocator.insert(&capacities, &path), path));
                }
                2 => {
                    let r = rng.index(capacities.len());
                    capacities[r] *= [0.1, 0.5, 2.0][rng.index(3)];
                    allocator.refresh_capacities(&capacities);
                }
                _ => {
                    let client = access + rng.index(clients) as u32;
                    let probe = vec![client, rng.index(uplinks) as u32, client];
                    let row = allocator.insert(&capacities, &probe);
                    live.push((row, probe));
                    allocator.solve();
                    assert_solve_matches(&allocator, &capacities, &live, &context);
                    live.pop();
                    allocator.remove(row);
                }
            }
            allocator.solve();
            assert_solve_matches(&allocator, &capacities, &live, &context);
            private_bound += live
                .iter()
                .filter(|(row, path)| {
                    let private = path[..2].iter().map(|&r| capacities[r as usize]);
                    allocator.rate(*row) == private.fold(f64::INFINITY, f64::min)
                })
                .count();
        }
    }
    assert!(private_bound > 0, "no row ever froze at a private link");
}
