//! The experimental testbed (Figure 6) and its parameterised variants.
//!
//! The paper's experiment ran on a dedicated testbed of five routers and
//! eleven machines connected by 10 Mbps links: clients C1–C6 (C1 and C2 share
//! a machine, as do C5 and C6), servers S1–S7, and a request-queue machine
//! shared with S5. Servers S4 and S7 start as spares.
//!
//! This module builds the equivalent simulated topology — and, through
//! [`TestbedSpec`], a whole family of topologies that keep the paper's
//! structural skeleton (five routers, a squeezable path between one client
//! router and Server Group 1) while varying client counts, server counts,
//! link-capacity tiers, and baseline background traffic. The paper topology
//! is the [`TestbedSpec::paper`] preset; [`TestbedSpec::wide_fanout`] and
//! [`TestbedSpec::congested_core`] are alternative named presets used by the
//! scenario sweep harness.

use serde::Serialize;
use simnet::{LinkId, NodeId, Registry, SimDuration, Topology, TopologyError};
use std::sync::Arc;

/// Capacity of every paper-testbed link (10 Mbps).
pub const LINK_CAPACITY_BPS: f64 = 10.0e6;

/// The built-in topology presets, in scale order — the sweep harness's
/// scale axis. `large-scale` is the ≥2,000-client deployment with a
/// multi-tier (aggregation) edge; `large-scale-50k` and `large-scale-100k`
/// are the 50,000- and 100,000-client fleet deployments.
/// [`testbed_preset_names`] lists the names, derived from this table.
pub static TESTBED_REGISTRY: Registry<fn() -> TestbedSpec> = Registry::new(
    "topology preset",
    &[
        ("paper", TestbedSpec::paper),
        ("wide-fanout", TestbedSpec::wide_fanout),
        ("congested-core", TestbedSpec::congested_core),
        ("large-scale", TestbedSpec::large_scale),
        ("large-scale-50k", TestbedSpec::large_scale_50k),
        ("large-scale-100k", TestbedSpec::large_scale_100k),
    ],
);

/// Names of the built-in topology presets, in scale order — derived from
/// [`TESTBED_REGISTRY`], never maintained by hand.
pub fn testbed_preset_names() -> &'static [&'static str] {
    TESTBED_REGISTRY.names()
}

/// Client count from which a testbed is treated as *fleet scale*
/// ([`TestbedSpec::is_fleet_scale`]). It picks two things only: the grid
/// application spreads the first requests over one mean inter-arrival
/// instead of one second, and the framework switches to representative-only
/// monitoring (per-class gauges, snapshots, and metric recording). Routing
/// is the same at every scale. Chosen above every byte-compared preset (the
/// 2,000-client `large-scale` keeps exact per-client behaviour) and below
/// the 50k fleet.
pub const FLEET_SCALE_MIN_CLIENTS: usize = 10_000;

fn is_zero<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// A declarative description of a testbed topology.
///
/// Every spec shares the Figure 6 skeleton: routers R1/R2/R5 serve client
/// machines, R3 serves Server Group 1 (plus its spares), R4 serves Server
/// Group 2 (plus its spares) and the request-queue machine, and the R2–R3 /
/// R2–R4 links are the ones the workload generators squeeze. The spec varies
/// how many clients and servers hang off each router, the capacities of the
/// core (inter-router) and access (host) link tiers, and a baseline
/// background-traffic profile applied to every core link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TestbedSpec {
    /// Clients behind router R1 (packed two per machine, like C1/C2).
    pub clients_r1: usize,
    /// Clients behind router R2 — the squeezable path (one machine each,
    /// like C3 and C4).
    pub clients_r2: usize,
    /// Clients behind router R5 (packed two per machine, like C5/C6).
    pub clients_r5: usize,
    /// Servers initially active in Server Group 1 (behind R3).
    pub sg1_active: usize,
    /// Spare servers behind R3.
    pub sg1_spares: usize,
    /// Servers initially active in Server Group 2 (behind R4). The first one
    /// shares its machine with the request queue, like S5.
    pub sg2_active: usize,
    /// Spare servers behind R4.
    pub sg2_spares: usize,
    /// Capacity of the inter-router (core) links, bits per second.
    pub core_capacity_bps: f64,
    /// Capacity of the host access links, bits per second.
    pub access_capacity_bps: f64,
    /// Baseline background traffic on every core link, bits per second
    /// (clamped to 90% of the core capacity). The workload schedule overrides
    /// this on the two competition links once it starts.
    pub background_bps: f64,
    /// Clients per aggregation switch. `0` (every classic preset) attaches
    /// client machines directly to their router, exactly as before; a
    /// positive value inserts an aggregation tier — client machines hang off
    /// aggregation routers (`A1`, `A2`, …) that uplink to the classic client
    /// routers — the multi-tier edge of the `large-scale` preset.
    /// Serialised, like the tier's capacity, only when non-zero: the classic
    /// presets keep the pre-aggregation layout byte for byte.
    #[serde(skip_serializing_if = "is_zero")]
    pub clients_per_agg: usize,
    /// Capacity of the aggregation uplinks (bits per second); unused, and
    /// zero in every preset, when `clients_per_agg` is 0.
    #[serde(skip_serializing_if = "is_zero")]
    pub agg_capacity_bps: f64,
}

impl Default for TestbedSpec {
    fn default() -> Self {
        Self::paper()
    }
}

impl TestbedSpec {
    /// The paper's Figure 6 testbed: six clients, 3+1 servers behind R3,
    /// 2+1 behind R4, 10 Mbps everywhere, no baseline background traffic.
    pub fn paper() -> Self {
        TestbedSpec {
            clients_r1: 2,
            clients_r2: 2,
            clients_r5: 2,
            sg1_active: 3,
            sg1_spares: 1,
            sg2_active: 2,
            sg2_spares: 1,
            core_capacity_bps: LINK_CAPACITY_BPS,
            access_capacity_bps: LINK_CAPACITY_BPS,
            background_bps: 0.0,
            clients_per_agg: 0,
            agg_capacity_bps: 0.0,
        }
    }

    /// A wider deployment: eight clients fanned out over the three client
    /// routers and larger server groups (4+2 behind R3, 3+1 behind R4).
    pub fn wide_fanout() -> Self {
        TestbedSpec {
            clients_r1: 4,
            clients_r2: 2,
            clients_r5: 2,
            sg1_active: 4,
            sg1_spares: 2,
            sg2_active: 3,
            sg2_spares: 1,
            ..Self::paper()
        }
    }

    /// The production-scale deployment: 2,000 clients packed two per machine
    /// behind a multi-tier edge (32 clients per aggregation switch uplinked
    /// at 50 Mbps into the classic client routers), a 200 Mbps core, and
    /// 48+8 / 32+6 server groups. Per-client request rates come down
    /// accordingly (see [`GridConfig::with_testbed`](crate::GridConfig::with_testbed)):
    /// web-scale systems serve many low-rate users, not six frantic ones.
    pub fn large_scale() -> Self {
        TestbedSpec {
            clients_r1: 800,
            clients_r2: 400,
            clients_r5: 800,
            sg1_active: 48,
            sg1_spares: 8,
            sg2_active: 32,
            sg2_spares: 6,
            core_capacity_bps: 200.0e6,
            access_capacity_bps: LINK_CAPACITY_BPS,
            background_bps: 0.0,
            clients_per_agg: 32,
            agg_capacity_bps: 50.0e6,
        }
    }

    /// The fleet-scale deployment: 50,000 clients behind 64-client
    /// aggregation switches uplinked at 100 Mbps into a 2 Gbps core. The
    /// server block matches [`large_scale`](Self::large_scale) — capacity,
    /// and with it the aggregate request rate
    /// ([`GridConfig::with_testbed`](crate::GridConfig::with_testbed) sizes
    /// per-client rates off server capacity), stays the same while the
    /// client population grows 25×. Event volume therefore tracks the 2,000
    /// -client preset; everything per-client (probes, gauges, due-time
    /// bookkeeping) is what the fleet-scale machinery — the calendar queue
    /// and representative-only monitoring — has to keep sublinear. Of that,
    /// [`FLEET_SCALE_MIN_CLIENTS`] picks only the monitoring policy and the
    /// first-request stagger; routing needs no switch, since hosts behind one
    /// gateway share one shortest-path tree at every scale.
    pub fn large_scale_50k() -> Self {
        TestbedSpec {
            clients_r1: 20_000,
            clients_r2: 10_000,
            clients_r5: 20_000,
            core_capacity_bps: 2.0e9,
            clients_per_agg: 64,
            agg_capacity_bps: 100.0e6,
            ..Self::large_scale()
        }
    }

    /// The 100,000-client fleet deployment: the
    /// [`large_scale_50k`](Self::large_scale_50k) client population doubled
    /// behind the same 64-client aggregation switches. The server block,
    /// the core, and with them the aggregate request rate all stay at the
    /// `large_scale_50k` sizing — twice the population sharing the same
    /// contended substrate — so the step workload still wedges the control
    /// run and the preset doubles exactly the per-client dimension the
    /// fleet-scale machinery (class representatives, incremental constraint
    /// checking) must keep sublinear.
    pub fn large_scale_100k() -> Self {
        TestbedSpec {
            clients_r1: 40_000,
            clients_r2: 20_000,
            clients_r5: 40_000,
            ..Self::large_scale_50k()
        }
    }

    /// The paper deployment on a congested network: the core links run at
    /// 6 Mbps and carry 1 Mbps of standing background traffic.
    pub fn congested_core() -> Self {
        TestbedSpec {
            core_capacity_bps: 6.0e6,
            background_bps: 1.0e6,
            ..Self::paper()
        }
    }

    /// Looks a preset up by its sweep-matrix name (a thin wrapper over
    /// [`TESTBED_REGISTRY`]).
    pub fn by_name(name: &str) -> Option<Self> {
        TESTBED_REGISTRY.find(name).map(|build| build())
    }

    /// The preset name of this spec, or `"custom"` if it matches none.
    pub fn name(&self) -> &'static str {
        for (preset, build) in TESTBED_REGISTRY.iter() {
            if build() == *self {
                return preset;
            }
        }
        "custom"
    }

    /// Total number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients_r1 + self.clients_r2 + self.clients_r5
    }

    /// Whether this deployment is *fleet scale*: at least
    /// [`FLEET_SCALE_MIN_CLIENTS`] clients. The one place that decides it.
    pub fn is_fleet_scale(&self) -> bool {
        self.num_clients() >= FLEET_SCALE_MIN_CLIENTS
    }

    /// Total number of servers (active and spare).
    pub fn num_servers(&self) -> usize {
        self.sg1_active + self.sg1_spares + self.sg2_active + self.sg2_spares
    }

    /// 1-based client number of the first client on the squeezable R2 path
    /// (`User3`/`C3` on the paper testbed). Accounts for the structural
    /// clamping [`Testbed::from_spec`] applies, so it matches the deployment
    /// actually built even for degenerate custom specs.
    pub fn first_squeezed_client(&self) -> usize {
        self.normalised().clients_r1 + 1
    }

    /// A copy with every count clamped to the structural minimum (at least
    /// one client per client router, at least one active server per group)
    /// and capacities clamped positive.
    fn normalised(&self) -> Self {
        TestbedSpec {
            clients_r1: self.clients_r1.max(1),
            clients_r2: self.clients_r2.max(1),
            clients_r5: self.clients_r5.max(1),
            sg1_active: self.sg1_active.max(1),
            sg1_spares: self.sg1_spares,
            sg2_active: self.sg2_active.max(1),
            sg2_spares: self.sg2_spares,
            core_capacity_bps: self.core_capacity_bps.max(1.0e3),
            access_capacity_bps: self.access_capacity_bps.max(1.0e3),
            background_bps: self.background_bps.max(0.0),
            clients_per_agg: self.clients_per_agg,
            agg_capacity_bps: if self.clients_per_agg > 0 {
                self.agg_capacity_bps.max(1.0e3)
            } else {
                self.agg_capacity_bps
            },
        }
    }
}

/// The built testbed: the topology plus named handles to its parts.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The network topology, immutable once built: its capacities and
    /// background loads are the nominal ones. A run's
    /// [`Network`](simnet::Network) shares this one copy and keeps the live
    /// link state itself.
    pub topology: Arc<Topology>,
    /// The (possibly normalised) spec the testbed was built from.
    pub spec: TestbedSpec,
    /// Client names (`"C1"`, `"C2"`, …) with the machine each runs on, in
    /// client-number order.
    pub client_hosts: Vec<(String, NodeId)>,
    /// Machines hosting servers S1..Sn (index 0 = S1).
    pub server_hosts: Vec<NodeId>,
    /// Names of the servers initially active in Server Group 1.
    pub sg1_servers: Vec<String>,
    /// Names of the servers initially active in Server Group 2.
    pub sg2_servers: Vec<String>,
    /// Names of the spare servers.
    pub spare_servers: Vec<String>,
    /// Machine hosting the request-queue process (shared with the first
    /// Server Group 2 server).
    pub host_request_queue: NodeId,
    /// The five routers R1..R5.
    pub routers: Vec<NodeId>,
    /// Aggregation switches (`A1`, `A2`, …) of the multi-tier edge, in
    /// creation order. Empty for every classic (direct-attach) preset.
    /// Client machines behind the same aggregation switch occupy symmetric
    /// network positions — the basis of the planner's equivalence classes.
    pub agg_routers: Vec<NodeId>,
    /// All inter-router (core) links.
    pub core_links: Vec<LinkId>,
    /// The inter-router link on the path between R2's clients and Server
    /// Group 1's router (R3) — loaded by the bandwidth-competition generator.
    pub link_c34_sg1: LinkId,
    /// The inter-router link on the path between R2's clients and Server
    /// Group 2's router (R4).
    pub link_c34_sg2: LinkId,
}

impl Testbed {
    /// Builds the Figure 6 testbed (the [`TestbedSpec::paper`] preset).
    pub fn build() -> Result<Testbed, TopologyError> {
        Self::from_spec(&TestbedSpec::paper())
    }

    /// Builds a testbed from a declarative spec. Counts below the structural
    /// minimum (one client per client router, one active server per group)
    /// are clamped up.
    pub fn from_spec(spec: &TestbedSpec) -> Result<Testbed, TopologyError> {
        let spec = spec.normalised();
        let mut topo = Topology::new();
        let router_latency = SimDuration::from_millis(1.0);
        let access_latency = SimDuration::from_millis(0.5);
        let core = spec.core_capacity_bps;
        let access = spec.access_capacity_bps;

        // Routers R1..R5. R1 and R5 serve shared client machines, R2 serves
        // the squeezable clients, R3 serves Server Group 1, R4 serves Server
        // Group 2 and the request queue.
        let r: Vec<NodeId> = (1..=5)
            .map(|i| topo.add_router(&format!("R{i}")))
            .collect::<Result<_, _>>()?;

        // Inter-router (core) links.
        let mut core_links = Vec::new();
        core_links.push(topo.add_link(r[0], r[2], core, router_latency)?); // R1-R3
        let link_c34_sg1 = topo.add_link(r[1], r[2], core, router_latency)?; // R2-R3
        core_links.push(link_c34_sg1);
        let link_c34_sg2 = topo.add_link(r[1], r[3], core, router_latency)?; // R2-R4
        core_links.push(link_c34_sg2);
        core_links.push(topo.add_link(r[2], r[3], core, router_latency)?); // R3-R4
        core_links.push(topo.add_link(r[3], r[4], core, router_latency)?); // R4-R5
        let baseline = spec.background_bps.min(core * 0.9);
        if baseline > 0.0 {
            for &link in &core_links {
                topo.set_background_load(link, baseline)?;
            }
        }

        // Client machines. R1 and R5 clients share machines two at a time
        // (like C1/C2 and C5/C6); R2 clients get one machine each (like C3
        // and C4). With an aggregation tier, machines hang off aggregation
        // routers (A1, A2, …) that uplink into the classic client routers.
        let mut client_hosts: Vec<(String, NodeId)> = Vec::new();
        let mut agg_routers: Vec<NodeId> = Vec::new();
        let client_routers = [
            (r[0], spec.clients_r1, 2),
            (r[1], spec.clients_r2, 1),
            (r[4], spec.clients_r5, 2),
        ];
        for (router, count, per_host) in client_routers {
            let mut remaining = count;
            while remaining > 0 {
                // The router itself, or its next aggregation switch.
                let (attach, mut in_attach) = if spec.clients_per_agg == 0 {
                    (router, remaining)
                } else {
                    let agg = topo.add_router(&format!("A{}", agg_routers.len() + 1))?;
                    agg_routers.push(agg);
                    topo.add_link(agg, router, spec.agg_capacity_bps, router_latency)?;
                    (agg, remaining.min(spec.clients_per_agg))
                };
                remaining -= in_attach;
                while in_attach > 0 {
                    let on_this_host = in_attach.min(per_host);
                    let first = client_hosts.len() + 1;
                    let names: Vec<String> = (first..first + on_this_host)
                        .map(|n| format!("C{n}"))
                        .collect();
                    let host = topo.add_host(&names.join(","))?;
                    topo.add_link(host, attach, access, access_latency)?;
                    for name in names {
                        client_hosts.push((name, host));
                    }
                    in_attach -= on_this_host;
                }
            }
        }

        // Server machines. Actives then spares behind R3 (Server Group 1),
        // then actives (the first sharing its machine with the request queue,
        // like S5) and spares behind R4 (Server Group 2).
        let mut server_hosts = Vec::new();
        let mut sg1_servers = Vec::new();
        let mut sg2_servers = Vec::new();
        let mut spare_servers = Vec::new();
        let mut host_request_queue = None;
        for slot in 0..spec.num_servers() {
            let behind_r3 = slot < spec.sg1_active + spec.sg1_spares;
            let router = if behind_r3 { r[2] } else { r[3] };
            let name = format!("S{}", slot + 1);
            let shares_rq = slot == spec.sg1_active + spec.sg1_spares;
            let host = if shares_rq {
                let host = topo.add_host(&format!("{name},RQ"))?;
                host_request_queue = Some(host);
                host
            } else {
                topo.add_host(&name)?
            };
            topo.add_link(host, router, access, access_latency)?;
            server_hosts.push(host);
            let sg1_slot = slot < spec.sg1_active;
            let sg2_slot =
                !behind_r3 && slot - (spec.sg1_active + spec.sg1_spares) < spec.sg2_active;
            if sg1_slot {
                sg1_servers.push(name);
            } else if sg2_slot {
                sg2_servers.push(name);
            } else {
                spare_servers.push(name);
            }
        }

        Ok(Testbed {
            topology: Arc::new(topo),
            spec,
            client_hosts,
            server_hosts,
            sg1_servers,
            sg2_servers,
            spare_servers,
            host_request_queue: host_request_queue.expect("SG2 has at least one active server"),
            routers: r,
            agg_routers,
            core_links,
            link_c34_sg1,
            link_c34_sg2,
        })
    }

    /// Number of clients in this testbed.
    pub fn num_clients(&self) -> usize {
        self.client_hosts.len()
    }

    /// Whether this testbed is fleet scale ([`TestbedSpec::is_fleet_scale`]
    /// of the spec it was built from).
    pub fn is_fleet_scale(&self) -> bool {
        self.spec.is_fleet_scale()
    }

    /// The machine a named client runs on (`"C1"` .. `"Cn"`). `client_hosts`
    /// is in client-number order, so the number is the index; the stored name
    /// must still match, which rejects spellings like `"C01"`.
    pub fn client_host(&self, client: &str) -> Option<NodeId> {
        let idx: usize = client.strip_prefix('C')?.parse().ok()?;
        let (name, host) = self.client_hosts.get(idx.checked_sub(1)?)?;
        (name == client).then_some(*host)
    }

    /// The machine a named server runs on (`"S1"` .. `"Sn"`).
    pub fn server_host(&self, server: &str) -> Option<NodeId> {
        let idx: usize = server.strip_prefix('S')?.parse().ok()?;
        self.server_hosts.get(idx.checked_sub(1)?).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::PathTable;

    #[test]
    fn testbed_has_five_routers_and_eleven_machine_slots() {
        let tb = Testbed::build().unwrap();
        assert_eq!(tb.routers.len(), 5);
        // Eleven machines, as in Figure 6: four client machines (C1/C2 and
        // C5/C6 share theirs) plus seven server machines (S5 shares its
        // machine with the request queue).
        let hosts = tb
            .topology
            .nodes()
            .filter(|(_, n)| n.kind == simnet::NodeKind::Host)
            .count();
        assert_eq!(hosts, 11);
        assert_eq!(tb.server_hosts.len(), 7);
        assert_eq!(tb.num_clients(), 6);
        // The paper's initial deployment: S1-S3 active in group 1, S5-S6 in
        // group 2, S4 and S7 spare.
        assert_eq!(tb.sg1_servers, vec!["S1", "S2", "S3"]);
        assert_eq!(tb.sg2_servers, vec!["S5", "S6"]);
        assert_eq!(tb.spare_servers, vec!["S4", "S7"]);
        assert_eq!(tb.server_host("S5"), Some(tb.host_request_queue));
    }

    #[test]
    fn every_pair_of_hosts_is_connected() {
        let tb = Testbed::build().unwrap();
        let hosts: Vec<NodeId> = tb
            .topology
            .nodes()
            .filter(|(_, n)| n.kind == simnet::NodeKind::Host)
            .map(|(id, _)| id)
            .collect();
        for &a in &hosts {
            for &b in &hosts {
                assert!(PathTable::new().path(&tb.topology, a, b).is_ok());
            }
        }
    }

    #[test]
    fn client_and_server_host_lookup() {
        let tb = Testbed::build().unwrap();
        // C1 and C2 share a machine, as do C5 and C6; C3 and C4 do not.
        assert_eq!(tb.client_host("C1"), tb.client_host("C2"));
        assert_eq!(tb.client_host("C5"), tb.client_host("C6"));
        assert_ne!(tb.client_host("C3"), tb.client_host("C4"));
        assert!(tb.client_host("C3").is_some());
        assert_eq!(tb.client_host("C9"), None);
        assert_eq!(tb.server_host("S1"), Some(tb.server_hosts[0]));
        assert_eq!(tb.server_host("S5"), Some(tb.host_request_queue));
        assert_eq!(tb.server_host("S8"), None);
        assert_eq!(tb.server_host("bogus"), None);
    }

    #[test]
    fn client_host_matches_the_linear_scan_on_every_preset() {
        // The lookup this replaced: compare every stored name.
        let scan = |tb: &Testbed, client: &str| {
            tb.client_hosts
                .iter()
                .find(|(name, _)| name == client)
                .map(|&(_, host)| host)
        };
        for &preset in testbed_preset_names() {
            let tb = Testbed::from_spec(&TestbedSpec::by_name(preset).unwrap()).unwrap();
            // Every entry is checked against its own position; names that
            // are all distinct (each is `C{i+1}`) make that the scan's answer
            // too. The scan itself is the quadratic this lookup removed, so
            // on fleet presets it runs on a stride and on the last entry.
            let n = tb.num_clients();
            let stride = (n / 2_000).max(1);
            for (i, (name, host)) in tb.client_hosts.iter().enumerate() {
                assert_eq!(*name, format!("C{}", i + 1), "{preset}");
                assert_eq!(tb.client_host(name), Some(*host), "{preset} {name}");
                if i % stride == 0 || i + 1 == n {
                    assert_eq!(tb.client_host(name), scan(&tb, name), "{preset} {name}");
                }
            }
            let past = format!("C{}", n + 1);
            let padded = format!("C0{n}");
            for odd in [
                "C0",
                "C",
                "",
                "C999999",
                "X1",
                "c1",
                "C01",
                "C+1",
                "C-1",
                "C1 ",
                "C1,C2",
                "C18446744073709551616",
                "User1",
                past.as_str(),
                padded.as_str(),
            ] {
                assert_eq!(tb.client_host(odd), None, "{preset} {odd:?}");
                assert_eq!(scan(&tb, odd), None, "{preset} {odd:?}");
            }
        }
    }

    #[test]
    fn competition_links_lie_on_the_c34_paths() {
        let tb = Testbed::build().unwrap();
        // Path C3 -> S1 (Server Group 1) crosses the R2-R3 link.
        let path_sg1 = PathTable::new()
            .path(
                &tb.topology,
                tb.client_host("C3").unwrap(),
                tb.server_hosts[0],
            )
            .unwrap();
        assert!(path_sg1.contains(&tb.link_c34_sg1));
        // Path C3 -> S6 (Server Group 2) crosses the R2-R4 link.
        let path_sg2 = PathTable::new()
            .path(
                &tb.topology,
                tb.client_host("C3").unwrap(),
                tb.server_hosts[5],
            )
            .unwrap();
        assert!(path_sg2.contains(&tb.link_c34_sg2));
        // The two do not share the loaded link.
        assert!(!path_sg2.contains(&tb.link_c34_sg1));
    }

    #[test]
    fn c1_path_to_sg1_avoids_the_competition_link() {
        let tb = Testbed::build().unwrap();
        let path = PathTable::new()
            .path(
                &tb.topology,
                tb.client_host("C1").unwrap(),
                tb.server_hosts[0],
            )
            .unwrap();
        assert!(!path.contains(&tb.link_c34_sg1));
    }

    #[test]
    fn links_run_at_ten_megabits() {
        let tb = Testbed::build().unwrap();
        for (_, link) in tb.topology.links() {
            assert_eq!(link.capacity_bps, LINK_CAPACITY_BPS);
        }
    }

    #[test]
    fn presets_resolve_by_name_and_report_their_names() {
        assert_eq!(
            testbed_preset_names(),
            &[
                "paper",
                "wide-fanout",
                "congested-core",
                "large-scale",
                "large-scale-50k",
                "large-scale-100k"
            ]
        );
        for &preset in testbed_preset_names() {
            let spec = TestbedSpec::by_name(preset).unwrap();
            assert_eq!(spec.name(), preset);
            Testbed::from_spec(&spec).unwrap();
        }
        assert!(TestbedSpec::by_name("nonsense").is_none());
        let custom = TestbedSpec {
            clients_r1: 3,
            ..TestbedSpec::paper()
        };
        assert_eq!(custom.name(), "custom");
    }

    #[test]
    fn wide_fanout_grows_clients_and_servers() {
        let spec = TestbedSpec::wide_fanout();
        let tb = Testbed::from_spec(&spec).unwrap();
        assert_eq!(tb.num_clients(), 8);
        assert_eq!(tb.server_hosts.len(), 10);
        assert_eq!(tb.sg1_servers.len(), 4);
        assert_eq!(tb.sg2_servers.len(), 3);
        assert_eq!(tb.spare_servers.len(), 3);
        // Clients C1..C4 pack two per machine behind R1; the squeezable
        // clients C5 and C6 sit alone behind R2.
        assert_eq!(tb.client_host("C1"), tb.client_host("C2"));
        assert_eq!(tb.client_host("C3"), tb.client_host("C4"));
        assert_ne!(tb.client_host("C5"), tb.client_host("C6"));
        // The squeezable clients' path to Server Group 1 crosses the
        // competition link.
        let path = PathTable::new()
            .path(
                &tb.topology,
                tb.client_host("C5").unwrap(),
                tb.server_hosts[0],
            )
            .unwrap();
        assert!(path.contains(&tb.link_c34_sg1));
        // All hosts remain connected.
        for (id, n) in tb.topology.nodes() {
            if n.kind == simnet::NodeKind::Host {
                assert!(PathTable::new()
                    .path(&tb.topology, id, tb.host_request_queue)
                    .is_ok());
            }
        }
    }

    #[test]
    fn fifty_k_preset_keeps_the_large_scale_server_block() {
        let spec = TestbedSpec::large_scale_50k();
        assert_eq!(spec.num_clients(), 50_000);
        let base = TestbedSpec::large_scale();
        assert_eq!(spec.sg1_active, base.sg1_active);
        assert_eq!(spec.sg1_spares, base.sg1_spares);
        assert_eq!(spec.sg2_active, base.sg2_active);
        assert_eq!(spec.sg2_spares, base.sg2_spares);
        assert_eq!(spec.name(), "large-scale-50k");
        assert!(spec.is_fleet_scale());
        assert!(!TestbedSpec::large_scale().is_fleet_scale());
        let tb = Testbed::from_spec(&spec).unwrap();
        assert!(tb.is_fleet_scale());
        // 20k/64 = 313 switches behind R1, 157 behind R2, 313 behind R5.
        assert_eq!(tb.agg_routers.len(), 313 + 157 + 313);
    }

    #[test]
    fn hundred_k_preset_doubles_the_fleet_not_the_servers() {
        let spec = TestbedSpec::large_scale_100k();
        assert_eq!(spec.num_clients(), 100_000);
        let fleet = TestbedSpec::large_scale_50k();
        assert_eq!(spec.sg1_active, fleet.sg1_active);
        assert_eq!(spec.sg1_spares, fleet.sg1_spares);
        assert_eq!(spec.sg2_active, fleet.sg2_active);
        assert_eq!(spec.sg2_spares, fleet.sg2_spares);
        assert_eq!(spec.clients_per_agg, fleet.clients_per_agg);
        assert_eq!(spec.agg_capacity_bps, fleet.agg_capacity_bps);
        assert_eq!(spec.core_capacity_bps, fleet.core_capacity_bps);
        assert_eq!(spec.name(), "large-scale-100k");
        assert!(spec.is_fleet_scale());
        let tb = Testbed::from_spec(&spec).unwrap();
        // 40k/64 = 625 switches behind R1, 20k/64 = 313 behind R2, 625
        // behind R5.
        assert_eq!(tb.agg_routers.len(), 625 + 313 + 625);
    }

    #[test]
    fn congested_core_lowers_capacity_and_adds_background() {
        let tb = Testbed::from_spec(&TestbedSpec::congested_core()).unwrap();
        for &link in &tb.core_links {
            let l = tb.topology.link(link).unwrap();
            assert_eq!(l.capacity_bps, 6.0e6);
            assert_eq!(l.background_bps, 1.0e6);
        }
        // Access links keep the full 10 Mbps.
        let c1 = tb.client_host("C1").unwrap();
        let path = PathTable::new()
            .path(&tb.topology, c1, tb.routers[0])
            .unwrap();
        assert_eq!(
            tb.topology.link(path[0]).unwrap().capacity_bps,
            LINK_CAPACITY_BPS
        );
    }

    #[test]
    fn degenerate_specs_are_clamped_to_the_structural_minimum() {
        let spec = TestbedSpec {
            clients_r1: 0,
            clients_r2: 0,
            clients_r5: 0,
            sg1_active: 0,
            sg1_spares: 0,
            sg2_active: 0,
            sg2_spares: 0,
            core_capacity_bps: -1.0,
            access_capacity_bps: 0.0,
            background_bps: -5.0,
            clients_per_agg: 0,
            agg_capacity_bps: 0.0,
        };
        let tb = Testbed::from_spec(&spec).unwrap();
        assert_eq!(tb.num_clients(), 3);
        assert_eq!(tb.sg1_servers.len(), 1);
        assert_eq!(tb.sg2_servers.len(), 1);
        assert!(tb.spare_servers.is_empty());
        // The squeezed-client derivation follows the clamped deployment: one
        // client behind R1, so C2 is the first R2 client.
        assert_eq!(spec.first_squeezed_client(), 2);
        assert_ne!(tb.client_host("C1"), tb.client_host("C2"));
        let path = PathTable::new()
            .path(
                &tb.topology,
                tb.client_host("C2").unwrap(),
                tb.server_hosts[0],
            )
            .unwrap();
        assert!(path.contains(&tb.link_c34_sg1));
    }

    #[test]
    fn first_squeezed_client_matches_the_paper() {
        assert_eq!(TestbedSpec::paper().first_squeezed_client(), 3);
        assert_eq!(TestbedSpec::wide_fanout().first_squeezed_client(), 5);
    }
}
