//! The allocation epoch's heap budget: once warm, `Network::start_transfer`,
//! `advance` (drains re-solve the epoch, or restore the rates from before the
//! start they undo), `available_bandwidth` (one probe row per miss) and
//! `poll_completions_into` allocate **nothing** on a 200-host star and on 200
//! clients behind eight aggregation switches — the transfer slab, the
//! allocator's rows, slots, occurrence links, covers and registration lists,
//! the heap, the pair memo and the shape memo are all reused. The fleet case
//! also probes one server against every client after every step, the shape of
//! a class snapshot, and requires the shape memo to answer most of those
//! probes. The count is a deterministic work
//! counter, the same on every host, so a `Vec`, a `HashMap` entry or a
//! `format!` per epoch fails here with no wall-clock noise.

use simnet::rng::SimRng;
use simnet::topology::{NodeId, Topology};
use simnet::{Network, SimDuration, SimTime};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

const CLIENTS: usize = 200;
const IN_FLIGHT: usize = 32;
const COUNTED_EPOCHS: u64 = 10_000;

struct Churn {
    net: Network,
    clients: Vec<NodeId>,
    servers: Vec<NodeId>,
    rng: SimRng,
    clock: f64,
    busy: Vec<bool>,
    in_flight: usize,
    done: Vec<simnet::CompletedTransfer>,
    /// Whether every settle also probes `servers[0]` against every client.
    snapshot: bool,
}

impl Churn {
    fn start(&mut self, client: usize, server: usize, to_client: bool, bytes: f64) {
        let (client_host, server_host) = (self.clients[client], self.servers[server]);
        let (src, dst) = if to_client {
            (server_host, client_host)
        } else {
            (client_host, server_host)
        };
        let now = SimTime::from_secs(self.clock);
        self.net
            .start_transfer(now, src, dst, bytes, client as u64)
            .expect("star is connected");
        self.busy[client] = true;
        self.in_flight += 1;
    }

    /// Moves the clock on so some transfers drain, probes a pair (and, for
    /// a snapshot churn, one server against every client), and collects
    /// what arrived.
    fn settle(&mut self, secs: f64) {
        self.clock += secs;
        let now = SimTime::from_secs(self.clock);
        self.net.advance(now);
        let probe = self.clients[self.rng.index(CLIENTS)];
        self.net
            .available_bandwidth(self.servers[0], probe)
            .expect("star is connected");
        if self.snapshot {
            for &client in &self.clients {
                self.net
                    .available_bandwidth(self.servers[0], client)
                    .expect("star is connected");
            }
        }
        self.done.clear();
        self.net.poll_completions_into(now, &mut self.done);
        for transfer in &self.done {
            self.busy[transfer.tag as usize] = false;
            self.in_flight -= 1;
        }
    }

    /// One step of seeded churn: maybe start a transfer between an idle
    /// client and a server (either direction), then [`settle`](Self::settle).
    fn step(&mut self) {
        let client = self.rng.index(CLIENTS);
        // One transfer per client: `warm_up` sizes the buffers for that.
        if self.in_flight < IN_FLIGHT && !self.busy[client] {
            let server = self.rng.index(self.servers.len());
            let to_client = self.rng.uniform() < 0.5;
            let bytes = self.rng.uniform_range(1.0e5, 1.0e6);
            self.start(client, server, to_client, bytes);
        }
        let secs = self.rng.uniform_range(0.0, 0.2);
        self.settle(secs);
    }

    /// Takes every reused buffer to the most this churn can ask of it, by
    /// construction rather than by luck: round `k` runs `k` transfers on one
    /// server and `IN_FLIGHT - k` on the other, directions alternating, so
    /// the most rows, the widest slot table (every client link, both server
    /// links and the probe's own) and the largest single freeze round
    /// (everything plus the probe on one server link) have all happened.
    /// Every transfer has one size, so a whole round drains and arrives
    /// within a single `advance`.
    fn warm_up(&mut self) {
        for k in 0..=IN_FLIGHT {
            for position in 0..IN_FLIGHT {
                let server = usize::from(position >= k);
                self.start(position, server, position % 2 == 0, 1.0e5);
            }
            // A probe solve over the full set, on its most crowded link.
            self.net
                .available_bandwidth(self.servers[0], self.clients[CLIENTS - 1])
                .expect("star is connected");
            self.settle(10.0);
            assert_eq!(self.in_flight, 0);
        }
    }
}

/// Runs [`COUNTED_EPOCHS`] warm epochs of churn between `clients` and
/// `servers` and returns the heap allocations they made.
fn warm_epoch_allocations(
    net: Network,
    clients: Vec<NodeId>,
    servers: Vec<NodeId>,
    snapshot: bool,
) -> u64 {
    // One shortest-path tree per source, and a probe memo that has held
    // every pair, before anything is counted.
    for &c in &clients {
        for &s in &servers {
            net.available_bandwidth(c, s).unwrap();
            net.available_bandwidth(s, c).unwrap();
        }
    }
    let mut churn = Churn {
        net,
        clients,
        servers,
        rng: SimRng::seed_from_u64(42).derive(19),
        clock: 0.0,
        busy: vec![false; CLIENTS],
        in_flight: 0,
        done: Vec::with_capacity(IN_FLIGHT),
        snapshot,
    };
    churn.warm_up();

    let epochs_before = churn.net.rate_epoch_count();
    let solves_before = churn.net.probe_solve_count();
    let fills_before = churn.net.probe_fill_count();
    let rate_solves_before = churn.net.rate_solve_count();
    let mut allocations = 0;
    while churn.net.rate_epoch_count() - epochs_before < COUNTED_EPOCHS {
        allocations += counted(|| churn.step());
    }
    let probe_solves = churn.net.probe_solve_count() - solves_before;
    let fills = churn.net.probe_fill_count() - fills_before;
    let solved = churn.net.rate_solve_count() - rate_solves_before;
    println!(
        "{allocations} allocations over {COUNTED_EPOCHS} epochs ({solved} solved) \
         and {probe_solves} probe solves ({fills} filled)"
    );
    assert!(probe_solves > 1_000, "only {probe_solves} probe solves");
    assert!(solved < COUNTED_EPOCHS, "no epoch restored its rates");
    if snapshot {
        assert!(
            fills * 4 < probe_solves,
            "the shape memo answered only {} of {probe_solves} probes",
            probe_solves - fills
        );
    }
    allocations
}

#[test]
fn a_warm_epoch_allocates_nothing() {
    let ms = SimDuration::from_millis;
    let mut topo = Topology::new();
    let hub = topo.add_router("hub").unwrap();
    let mut host = |name: String, bps: f64| {
        let h = topo.add_host(&name).unwrap();
        topo.add_link(h, hub, bps, ms(1.0)).unwrap();
        h
    };
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|i| host(format!("c{i}"), 20.0e6))
        .collect();
    let servers: Vec<NodeId> = (0..2).map(|i| host(format!("s{i}"), 10.0e6)).collect();
    let allocations = warm_epoch_allocations(Network::new(topo), clients, servers, false);
    assert_eq!(allocations, 0, "a warm epoch must not touch the heap");
}

/// The same churn behind eight aggregation switches of 25 clients each, so
/// most of an epoch's links are one client's own. A switch's 25 Mbps
/// uplink can be filled by three of its clients' 10 Mbps access links but
/// not by two, and a server's 100 Mbps link by eleven transfers but not by
/// ten, so as transfers come and go those links keep turning from slots a
/// solve must queue into slots it may leave out, and back: covers grow,
/// shrink and merge, and still allocate nothing once warm. Every step also
/// probes the first server against all 200 clients.
#[test]
fn a_warm_fleet_epoch_allocates_nothing() {
    let ms = SimDuration::from_millis;
    let mut topo = Topology::new();
    let hub = topo.add_router("hub").unwrap();
    let mut clients = Vec::new();
    for a in 0..8 {
        let switch = topo.add_router(&format!("agg{a}")).unwrap();
        topo.add_link(switch, hub, 25.0e6, ms(1.0)).unwrap();
        for c in 0..CLIENTS / 8 {
            let h = topo.add_host(&format!("c{a}.{c}")).unwrap();
            topo.add_link(h, switch, 10.0e6, ms(0.5)).unwrap();
            clients.push(h);
        }
    }
    let servers: Vec<NodeId> = (0..2)
        .map(|i| {
            let h = topo.add_host(&format!("s{i}")).unwrap();
            topo.add_link(h, hub, 100.0e6, ms(0.5)).unwrap();
            h
        })
        .collect();
    let allocations = warm_epoch_allocations(Network::new(topo), clients, servers, true);
    assert_eq!(allocations, 0, "a warm epoch must not touch the heap");
}
