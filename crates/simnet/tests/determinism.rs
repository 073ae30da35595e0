//! Property-based determinism tests: the simulator's whole observable
//! behaviour — event traces (transfer completions) and time-series stats —
//! must be a pure function of the seed. The paper's methodology depends on
//! this ("the clients were seeded so that the size of requests and responses
//! occurred in the same sequence" in control and adaptive runs), so replaying
//! the same seed twice must produce *bit-identical* traces, on more than one
//! topology.

use proptest::prelude::*;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::{LinkId, NodeId, Topology};
use simnet::{Network, TimeSeries};

/// A dumbbell: two groups of hosts joined by a shared bottleneck between two
/// routers — the classic shape of the paper's testbed backbone.
fn dumbbell(hosts_per_side: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut topo = Topology::new();
    let r1 = topo.add_router("r1").unwrap();
    let r2 = topo.add_router("r2").unwrap();
    topo.add_link(r1, r2, 10.0e6, SimDuration::from_millis(5.0))
        .unwrap();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..hosts_per_side {
        let l = topo.add_host(&format!("lh{i}")).unwrap();
        topo.add_link(l, r1, 100.0e6, SimDuration::from_millis(1.0))
            .unwrap();
        left.push(l);
        let r = topo.add_host(&format!("rh{i}")).unwrap();
        topo.add_link(r, r2, 100.0e6, SimDuration::from_millis(1.0))
            .unwrap();
        right.push(r);
    }
    (topo, left, right)
}

/// A star: every host hangs off one router, so all cross-host flows share
/// exactly two links.
fn star(hosts: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut topo = Topology::new();
    let hub = topo.add_router("hub").unwrap();
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    for i in 0..hosts {
        let h = topo.add_host(&format!("h{i}")).unwrap();
        topo.add_link(h, hub, 10.0e6, SimDuration::from_millis(2.0))
            .unwrap();
        if i % 2 == 0 {
            srcs.push(h);
        } else {
            dsts.push(h);
        }
    }
    if dsts.is_empty() {
        dsts.push(srcs[0]);
    }
    (topo, srcs, dsts)
}

/// Everything observable about one run, with floats captured bit-exactly.
#[derive(Debug, PartialEq, Eq)]
struct RunTrace {
    /// (id, src, dst, size bits, started bits, delivered bits) per delivery.
    completions: Vec<(u64, usize, usize, u64, u64, u64)>,
    /// Sampled available-bandwidth observations, bit-exact.
    bandwidth_samples: Vec<u64>,
    /// Bit-exact (mean, min, max) of the queue-depth series.
    stats: (u64, u64, u64),
}

/// Drives a seeded workload over the given topology and records every
/// observable output. Purely a function of (topology, seed, transfers).
fn run_scenario(
    (topo, srcs, dsts): (Topology, Vec<NodeId>, Vec<NodeId>),
    seed: u64,
    transfers: usize,
) -> RunTrace {
    let mut rng = SimRng::seed_from_u64(seed).derive(1);
    let mut net = Network::new(topo);
    let probe_src = srcs[0];
    let probe_dst = dsts[dsts.len() - 1];

    // Seeded arrival process: exponential inter-arrivals, uniform sizes,
    // random endpoints.
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    for _ in 0..transfers {
        t += rng.exponential(2.0);
        let size = rng.uniform_range(10.0e3, 2.0e6);
        let src = srcs[rng.index(srcs.len())];
        let dst = dsts[rng.index(dsts.len())];
        arrivals.push((t, src, dst, size));
    }
    let horizon = t + 120.0;

    // Seeded background competition on several links.
    let mut bg_rng = SimRng::seed_from_u64(seed).derive(2);
    for i in 0..3 {
        let link = LinkId(bg_rng.index(net.topology().link_count()));
        net.set_background_on_link(
            SimTime::from_secs(0.1 * (i + 1) as f64),
            link,
            bg_rng.uniform_range(0.5e6, 3.0e6),
        )
        .unwrap();
    }

    let mut completions = Vec::new();
    let mut bandwidth_samples = Vec::new();
    let mut depth_series = TimeSeries::new();
    let mut next_arrival = 0usize;
    let mut tag = 0u64;
    let step = 0.25;
    let mut clock = 0.0;
    while clock < horizon {
        clock += step;
        let now = SimTime::from_secs(clock);
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= clock {
            let (_, src, dst, size) = arrivals[next_arrival];
            if src != dst {
                net.start_transfer(now, src, dst, size, tag).unwrap();
                tag += 1;
            }
            next_arrival += 1;
        }
        let mut delivered = Vec::new();
        net.poll_completions_into(now, &mut delivered);
        for done in delivered {
            completions.push((
                done.id.0,
                done.src.0,
                done.dst.0,
                done.size_bytes.to_bits(),
                done.started.as_secs().to_bits(),
                done.delivered.as_secs().to_bits(),
            ));
        }
        if let Ok(bw) = net.available_bandwidth(probe_src, probe_dst) {
            bandwidth_samples.push(bw.to_bits());
        }
        depth_series.record(clock, net.active_transfers() as f64);
    }

    let stats = (
        depth_series.mean().unwrap_or(0.0).to_bits(),
        depth_series.min().unwrap_or(0.0).to_bits(),
        depth_series.max().unwrap_or(0.0).to_bits(),
    );
    RunTrace {
        completions,
        bandwidth_samples,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ bit-identical event trace and stats on the dumbbell.
    #[test]
    fn dumbbell_trace_is_seed_deterministic(
        seed in 0u64..u64::MAX,
        hosts in 2usize..5,
        transfers in 1usize..24,
    ) {
        let a = run_scenario(dumbbell(hosts), seed, transfers);
        let b = run_scenario(dumbbell(hosts), seed, transfers);
        prop_assert!(!a.completions.is_empty(), "scenario produced no events");
        prop_assert_eq!(a, b);
    }

    /// Same seed ⇒ bit-identical event trace and stats on the star.
    #[test]
    fn star_trace_is_seed_deterministic(
        seed in 0u64..u64::MAX,
        hosts in 3usize..8,
        transfers in 1usize..24,
    ) {
        let a = run_scenario(star(hosts), seed, transfers);
        let b = run_scenario(star(hosts), seed, transfers);
        prop_assert_eq!(a, b);
    }

    /// Different seeds almost surely diverge (guards against the scenario
    /// accidentally ignoring the seed, which would make the two tests above
    /// vacuous).
    #[test]
    fn different_seeds_diverge(seed in 0u64..(u64::MAX - 1)) {
        let a = run_scenario(dumbbell(3), seed, 12);
        let b = run_scenario(dumbbell(3), seed + 1, 12);
        prop_assert_ne!(a.completions, b.completions);
    }

    /// The derived-stream property the experiment harness relies on: a
    /// sub-stream's draws do not depend on how much other streams consumed.
    #[test]
    fn derived_streams_are_isolated(seed in 0u64..u64::MAX, drain in 0usize..50) {
        let root = SimRng::seed_from_u64(seed);
        let mut other = root.derive(7);
        for _ in 0..drain {
            other.uniform();
        }
        let mut a = root.derive(9);
        let mut b = SimRng::seed_from_u64(seed).derive(9);
        for _ in 0..32 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }
}
