//! The running grid application.
//!
//! The evaluated system (§5) is a client/server application in which clients
//! send requests to an entity that splits them into queues, one per server
//! group; servers in a group pull requests from their queue in FIFO order and
//! send the reply directly back to the requesting client. The application
//! exposes the Table 1 change operations (`createReqQueue`, `findServer`,
//! `moveClient`, `connectServer`, `activateServer`, `deactivateServer`,
//! `remos_get_flow`) so the adaptation framework can reconfigure it at
//! runtime.
//!
//! [`GridApp`] advances in simulated time over the [`Testbed`](crate::testbed::Testbed)
//! network: request and response payloads are fluid-flow transfers that share
//! link bandwidth, service time is charged per request at the serving
//! replica, and every per-client latency, per-group queue length, and
//! per-client available bandwidth is recorded for the experiment figures.

use crate::config::GridConfig;
use crate::due::DueQueue;
use crate::metrics::Metrics;
use crate::testbed::Testbed;
use simnet::{NetError, Network, NodeId, SimDuration, SimRng, SimTime, TransferId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Name of the first server group (S1–S3 behind router R3).
pub const SERVER_GROUP_1: &str = "ServerGrp1";
/// Name of the second server group (S5–S6 behind router R4).
pub const SERVER_GROUP_2: &str = "ServerGrp2";

/// Errors raised by application operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// Unknown client name.
    UnknownClient(String),
    /// Unknown server name.
    UnknownServer(String),
    /// Unknown server group name.
    UnknownGroup(String),
    /// A network operation failed.
    Net(NetError),
    /// The operation is invalid in the current state.
    Invalid(String),
}

impl From<NetError> for AppError {
    fn from(e: NetError) -> Self {
        AppError::Net(e)
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::UnknownClient(c) => write!(f, "unknown client: {c}"),
            AppError::UnknownServer(s) => write!(f, "unknown server: {s}"),
            AppError::UnknownGroup(g) => write!(f, "unknown server group: {g}"),
            AppError::Net(e) => write!(f, "network error: {e}"),
            AppError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

#[derive(Debug, Clone)]
struct ClientState {
    host: NodeId,
    group: String,
    next_request_at: SimTime,
    rate_per_sec: f64,
    response_bytes: f64,
    issued: u64,
    completed: u64,
}

#[derive(Debug, Clone)]
struct ServerState {
    host: NodeId,
    group: Option<String>,
    active: bool,
    /// Whether the server process is alive. A crashed server keeps its group
    /// assignment (it is *assigned but dead* until a failover repair cleans
    /// it up) but serves nothing and is invisible to `findServer`.
    up: bool,
    /// The request currently in service and when its service completes.
    busy: Option<(u64, SimTime)>,
    /// The request whose response this server is currently transmitting and
    /// when the transmission started. Like the paper's Java servers, a
    /// replica handles one request at a time: it is not free to pull new
    /// work until the reply has been delivered, so slow links translate
    /// into lost serving capacity.
    sending: Option<(u64, SimTime)>,
    served: u64,
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    queue: VecDeque<u64>,
}

#[derive(Debug, Clone, PartialEq)]
enum RequestPhase {
    /// Request payload travelling from the client to the request-queue
    /// machine.
    ToQueue(TransferId),
    /// Waiting in its group's FIFO queue.
    Queued,
    /// Being processed by a server.
    InService,
    /// Response payload travelling from the server back to the client.
    ResponseInFlight(TransferId),
}

#[derive(Debug, Clone)]
struct RequestState {
    client: String,
    group: String,
    issued_at: SimTime,
    response_bytes: f64,
    phase: RequestPhase,
}

/// A completed request/response exchange, as observed by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// Completion time.
    pub time: SimTime,
    /// The client that issued the request.
    pub client: String,
    /// The server group that served it.
    pub group: String,
    /// End-to-end latency in seconds.
    pub latency_secs: f64,
}

/// The running client/server grid application.
///
/// Event scheduling is index-based so a large-scale testbed (thousands of
/// clients) does not rescan every client and server per event: client
/// request due-times and server service-finish times live in ordered sets,
/// idle servers are indexed per group, and in-flight responses map back to
/// their transmitting server directly. All indices mirror the authoritative
/// per-entity state bit-identically — processing order (name order among
/// simultaneously due entities) is unchanged.
pub struct GridApp {
    config: GridConfig,
    testbed: Testbed,
    network: Network,
    clients: BTreeMap<String, ClientState>,
    servers: BTreeMap<String, ServerState>,
    groups: BTreeMap<String, GroupState>,
    requests: HashMap<u64, RequestState>,
    next_request_id: u64,
    now: SimTime,
    metrics: Metrics,
    completions: Vec<CompletedRequest>,
    rng: HashMap<String, SimRng>,
    /// Client names by dense index (build order) and the reverse map.
    client_seq: Vec<String>,
    client_idx: HashMap<String, u32>,
    /// `(next_request_at, client)` for every client with a positive rate.
    request_due: DueQueue,
    /// Server names by dense index (build order) and the reverse map.
    server_seq: Vec<String>,
    server_idx: HashMap<String, u32>,
    /// `(service-finish, server)` mirroring every `ServerState::busy`.
    service_due: DueQueue,
    /// Scratch for calendar-queue due collection, reused across steps.
    due_scratch: Vec<(SimTime, u32)>,
    /// Transmitting server of each in-flight response, by request id.
    sending_index: HashMap<u64, String>,
    /// Per group, the name-ordered set of servers currently able to pull
    /// work (assigned + active + up + neither busy nor sending).
    idle: BTreeMap<String, BTreeSet<String>>,
    /// Where transfer-lifecycle observations go; the default `NullSink` is
    /// disabled, so emission costs nothing unless a collector is attached.
    sink: tracestore::SharedSink,
    /// Lifetime `(machine, group)` memo hits/misses across
    /// [`flow_snapshot`](Self::flow_snapshot) calls (cells: the snapshot
    /// takes `&self`). Observability only.
    flow_memo_hits: std::cell::Cell<u64>,
    flow_memo_misses: std::cell::Cell<u64>,
    /// Bumped by every successful [`move_client`](Self::move_client) /
    /// [`move_clients`](Self::move_clients) — the only writers of a client's
    /// group — so state derived from the client→group assignment knows when
    /// it is stale.
    assignment_generation: u64,
}

/// The machine `User{i}` runs on: the testbed's `i`-th client slot, which
/// must be the one named `C{i}`.
fn slot_host(i: u64, slot: &(String, NodeId)) -> Result<NodeId, AppError> {
    let (name, host) = slot;
    if *name != format!("C{i}") {
        return Err(AppError::Invalid(format!(
            "testbed has no slot C{i} for User{i}: client slot {i} is named {name:?}"
        )));
    }
    Ok(*host)
}

impl GridApp {
    /// Builds the configured deployment (paper default: six clients all
    /// served by Server Group 1 (S1–S3), Server Group 2 (S5–S6) idle, S4 and
    /// S7 held as spare servers) on the testbed named by
    /// [`GridConfig::testbed`].
    pub fn build(config: GridConfig) -> Result<GridApp, AppError> {
        let testbed =
            Testbed::from_spec(&config.testbed).map_err(|e| AppError::Invalid(e.to_string()))?;
        let mut network = Network::new(testbed.topology.clone());
        if config.aggregate_flows {
            // One aggregate demand row per network-position class of client
            // machines (empty — and therefore a no-op — on the classic
            // presets). Bit-identical to the exploded per-client solve.
            network.set_flow_classes(testbed.client_position_classes());
        }
        if testbed.num_clients() >= crate::testbed::FLEET_SCALE_MIN_CLIENTS {
            // Fleet-scale topologies cannot afford one shortest-path tree
            // per client-host source; compose leaf paths over the access
            // links instead.
            network.set_leaf_routing(true);
        }
        let root_rng = SimRng::seed_from_u64(config.seed);

        let mut clients = BTreeMap::new();
        let mut rng = HashMap::new();
        for (i, slot) in (1u64..).zip(&testbed.client_hosts) {
            let name = format!("User{i}");
            let host = slot_host(i, slot)?;
            let mut stream = root_rng.derive(i);
            // Stagger the first requests so clients do not fire in lockstep.
            // At fleet scale a one-second window would still dump every
            // client's opening request into the first second (a 50k-request
            // thundering herd); spread the starts over one mean inter-arrival
            // instead so the opening load matches steady state.
            let stagger = if testbed.num_clients() >= crate::testbed::FLEET_SCALE_MIN_CLIENTS {
                (1.0 / config.request_rate_per_client.max(1e-9)).max(1.0)
            } else {
                1.0
            };
            let first = SimTime::from_secs(stream.uniform_range(0.1, stagger));
            clients.insert(
                name.clone(),
                ClientState {
                    host,
                    group: SERVER_GROUP_1.to_string(),
                    next_request_at: first,
                    rate_per_sec: config.request_rate_per_client,
                    response_bytes: config.response_bytes,
                    issued: 0,
                    completed: 0,
                },
            );
            rng.insert(name, stream);
        }

        let mut servers = BTreeMap::new();
        for (i, &host) in testbed.server_hosts.iter().enumerate() {
            let name = format!("S{}", i + 1);
            let (group, active) = if testbed.sg1_servers.contains(&name) {
                (Some(SERVER_GROUP_1.to_string()), true)
            } else if testbed.sg2_servers.contains(&name) {
                (Some(SERVER_GROUP_2.to_string()), true)
            } else {
                (None, false) // spare
            };
            servers.insert(
                name,
                ServerState {
                    host,
                    group,
                    active,
                    up: true,
                    busy: None,
                    sending: None,
                    served: 0,
                },
            );
        }

        let mut groups = BTreeMap::new();
        groups.insert(SERVER_GROUP_1.to_string(), GroupState::default());
        groups.insert(SERVER_GROUP_2.to_string(), GroupState::default());

        let client_seq: Vec<String> = clients.keys().cloned().collect();
        let client_idx: HashMap<String, u32> = client_seq
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i as u32))
            .collect();
        let mut request_due = DueQueue::new();
        for (name, c) in clients.iter().filter(|(_, c)| c.rate_per_sec > 0.0) {
            request_due.insert(c.next_request_at, client_idx[name]);
        }
        let server_seq: Vec<String> = servers.keys().cloned().collect();
        let server_idx: HashMap<String, u32> = server_seq
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i as u32))
            .collect();
        let mut idle: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (name, s) in &servers {
            if let Some(group) = &s.group {
                if s.active && s.up {
                    idle.entry(group.clone()).or_default().insert(name.clone());
                }
            }
        }

        Ok(GridApp {
            config,
            testbed,
            network,
            clients,
            servers,
            groups,
            requests: HashMap::new(),
            next_request_id: 0,
            now: SimTime::ZERO,
            metrics: Metrics::new(),
            completions: Vec::new(),
            rng,
            client_seq,
            client_idx,
            request_due,
            server_seq,
            server_idx,
            service_due: DueQueue::new(),
            due_scratch: Vec::new(),
            sending_index: HashMap::new(),
            idle,
            sink: tracestore::null_sink(),
            flow_memo_hits: std::cell::Cell::new(0),
            flow_memo_misses: std::cell::Cell::new(0),
            assignment_generation: 0,
        })
    }

    /// Attaches a trace sink; subsequent transfer completions are recorded
    /// as [`tracestore::EventKind::Transfer`] events (subject: client,
    /// detail: serving group, value: latency, correlation: request id).
    pub fn set_trace_sink(&mut self, sink: tracestore::SharedSink) {
        self.sink = sink;
    }

    /// The attached trace sink (the disabled `NullSink` by default).
    pub fn trace_sink(&self) -> &tracestore::SharedSink {
        &self.sink
    }

    /// Re-derives a server's membership in its group's idle set from its
    /// authoritative state. Must be called after any change to a server's
    /// `active`/`up`/`busy`/`sending` flags (group changes additionally
    /// remove the server from the old group's set first).
    fn refresh_idle(&mut self, server: &str) {
        let Some(state) = self.servers.get(server) else {
            return;
        };
        let Some(group) = state.group.clone() else {
            return;
        };
        let eligible = state.active && state.up && state.busy.is_none() && state.sending.is_none();
        let set = self.idle.entry(group).or_default();
        if eligible {
            set.insert(server.to_string());
        } else {
            set.remove(server);
        }
    }

    /// Removes a server from a group's idle set (used before its group
    /// assignment changes).
    fn idle_remove(&mut self, group: &str, server: &str) {
        if let Some(set) = self.idle.get_mut(group) {
            set.remove(server);
        }
    }

    /// The configuration the application was built with.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// The underlying testbed.
    pub fn testbed(&self) -> &Testbed {
        &self.testbed
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current simulated time the application has advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Names of all clients.
    pub fn client_names(&self) -> Vec<String> {
        self.clients.keys().cloned().collect()
    }

    /// Names of all server groups.
    pub fn group_names(&self) -> Vec<String> {
        self.groups.keys().cloned().collect()
    }

    /// Names of all servers.
    pub fn server_names(&self) -> Vec<String> {
        self.servers.keys().cloned().collect()
    }

    /// The machine a named client runs on.
    pub fn client_host(&self, client: &str) -> Option<NodeId> {
        self.clients.get(client).map(|c| c.host)
    }

    /// The machine a named server runs on.
    pub fn server_host(&self, server: &str) -> Option<NodeId> {
        self.servers.get(server).map(|s| s.host)
    }

    /// The server group a client currently sends to.
    pub fn client_group(&self, client: &str) -> Result<String, AppError> {
        Ok(self
            .clients
            .get(client)
            .ok_or_else(|| AppError::UnknownClient(client.into()))?
            .group
            .clone())
    }

    /// The current queue length of a server group.
    pub fn queue_length(&self, group: &str) -> Result<usize, AppError> {
        Ok(self
            .groups
            .get(group)
            .ok_or_else(|| AppError::UnknownGroup(group.into()))?
            .queue
            .len())
    }

    /// Names of the live, active servers currently assigned to a group
    /// (crashed replicas do not count — they serve nothing).
    pub fn active_servers(&self, group: &str) -> Vec<String> {
        self.servers
            .iter()
            .filter(|(_, s)| s.active && s.up && s.group.as_deref() == Some(group))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Whether a server's runtime process is alive.
    pub fn server_is_up(&self, server: &str) -> Result<bool, AppError> {
        Ok(self
            .servers
            .get(server)
            .ok_or_else(|| AppError::UnknownServer(server.into()))?
            .up)
    }

    /// A group's liveness census: `(live, dead)` counts over the replicas
    /// assigned to it (active flag set). `dead` replicas have crashed and
    /// not yet been failed over.
    pub fn group_liveness(&self, group: &str) -> (usize, usize) {
        let mut live = 0;
        let mut dead = 0;
        for s in self.servers.values() {
            if s.active && s.group.as_deref() == Some(group) {
                if s.up {
                    live += 1;
                } else {
                    dead += 1;
                }
            }
        }
        (live, dead)
    }

    /// Total requests served by a named server.
    pub fn served_by(&self, server: &str) -> u64 {
        self.servers.get(server).map(|s| s.served).unwrap_or(0)
    }

    /// Number of requests currently in flight (any phase).
    pub fn in_flight(&self) -> usize {
        self.requests.len()
    }

    /// Total age, in seconds, of every request still in flight — the
    /// time-weighted unserved demand the violation fraction cannot see (it
    /// only counts completed requests, so work stuck behind a dead group
    /// never registers). Summed in request-id order so the floating-point
    /// total is reproducible.
    pub fn unserved_demand_secs(&self) -> f64 {
        let now = self.now;
        let mut ids: Vec<u64> = self.requests.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|id| now.since(self.requests[id].issued_at).as_secs())
            .sum()
    }

    /// Drains the requests completed since the last call (used by the latency
    /// probe).
    pub fn take_completions(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.completions)
    }

    // ---- workload control --------------------------------------------------

    /// Sets every client's request rate (requests/second) and response size
    /// (bytes) — the knobs the Figure 7 schedule turns at 600 s.
    pub fn set_workload(&mut self, rate_per_sec: f64, response_bytes: f64) {
        for client in self.clients.values_mut() {
            client.rate_per_sec = rate_per_sec.max(0.0);
            client.response_bytes = response_bytes.max(1.0);
        }
        // The due index only tracks clients with a positive rate.
        self.request_due.clear();
        for (name, c) in self.clients.iter().filter(|(_, c)| c.rate_per_sec > 0.0) {
            self.request_due
                .insert(c.next_request_at, self.client_idx[name]);
        }
    }

    /// Sets the competing background load (bits/second) on the R2–R3 link
    /// (between C3/C4 and Server Group 1).
    pub fn set_competition_sg1(&mut self, now: SimTime, bps: f64) -> Result<(), AppError> {
        self.advance(now);
        self.network
            .set_background_on_link(now, self.testbed.link_c34_sg1, bps)?;
        Ok(())
    }

    /// Sets the competing background load (bits/second) on the R2–R4 link
    /// (between C3/C4 and Server Group 2).
    pub fn set_competition_sg2(&mut self, now: SimTime, bps: f64) -> Result<(), AppError> {
        self.advance(now);
        self.network
            .set_background_on_link(now, self.testbed.link_c34_sg2, bps)?;
        Ok(())
    }

    // ---- fault injection -----------------------------------------------------

    /// Sets the raw capacity (bits/second) of a topology link — the
    /// fault-injection hook for link cuts and degradations. The [`LinkId`]
    /// comes from the testbed's topology (see [`Testbed`]).
    pub fn set_link_capacity(
        &mut self,
        now: SimTime,
        link: simnet::LinkId,
        capacity_bps: f64,
    ) -> Result<(), AppError> {
        self.advance(now);
        self.network.set_link_capacity(now, link, capacity_bps)?;
        Ok(())
    }

    /// Imposes (or lifts) a one-way capacity cap on a topology link — the
    /// fault-injection hook for asymmetric (grey) link failures: traffic
    /// leaving `from` over the link is capped at `capacity_bps` while the
    /// opposite direction keeps the link's full capacity. A cap at or above
    /// the link's nominal capacity lifts the degrade.
    pub fn set_link_oneway(
        &mut self,
        now: SimTime,
        link: simnet::LinkId,
        from: NodeId,
        capacity_bps: f64,
    ) -> Result<(), AppError> {
        self.advance(now);
        self.network
            .set_link_oneway(now, link, from, capacity_bps)?;
        Ok(())
    }

    /// Marks a topology node down (or back up) — the fault-injection hook
    /// for machine and router outages. Links adjacent to a down node carry
    /// no traffic until the node returns.
    pub fn set_node_down(
        &mut self,
        now: SimTime,
        node: NodeId,
        down: bool,
    ) -> Result<(), AppError> {
        self.advance(now);
        self.network.set_node_down(now, node, down)?;
        Ok(())
    }

    /// Crashes a server process: it stops serving immediately, the request
    /// it was working on (or whose reply it was transmitting) is lost, and
    /// it no longer counts as live — but it keeps its group assignment, so
    /// the group's liveness census reports it as *assigned but dead* until a
    /// failover repair deactivates it.
    pub fn crash_server(&mut self, now: SimTime, server: &str) -> Result<(), AppError> {
        self.advance(now);
        let (busy, sending) = {
            let state = self
                .servers
                .get_mut(server)
                .ok_or_else(|| AppError::UnknownServer(server.into()))?;
            state.up = false;
            let busy = state.busy.take();
            let sending = state.sending.take();
            (busy, sending)
        };
        if let Some((_, finish)) = busy {
            self.service_due.remove(finish, self.server_idx[server]);
        }
        self.refresh_idle(server);
        // The request in service is lost with the process.
        if let Some((req, _)) = busy {
            self.requests.remove(&req);
        }
        // The reply in flight is torn down; the requester never hears back.
        if let Some((req, _)) = sending {
            self.sending_index.remove(&req);
            if let Some(request) = self.requests.remove(&req) {
                if let RequestPhase::ResponseInFlight(transfer) = request.phase {
                    let _ = self.network.cancel_transfer(now, transfer);
                }
            }
        }
        Ok(())
    }

    /// Restarts a crashed server process. If it still holds a group
    /// assignment and its activation flag it resumes pulling requests;
    /// a server that was failed over in the meantime (deactivated and
    /// disconnected) comes back as a spare.
    pub fn restart_server(&mut self, now: SimTime, server: &str) -> Result<(), AppError> {
        self.advance(now);
        let group = {
            let state = self
                .servers
                .get_mut(server)
                .ok_or_else(|| AppError::UnknownServer(server.into()))?;
            state.up = true;
            if state.active {
                state.group.clone()
            } else {
                None
            }
        };
        self.refresh_idle(server);
        if let Some(group) = group {
            self.dispatch_group(&group, now);
        }
        Ok(())
    }

    /// The audit log of network fault mutations applied so far (capacity
    /// changes and node liveness flips; empty for fault-free runs).
    pub fn network_mutation_trace(&self) -> &simnet::Trace {
        self.network.mutation_trace()
    }

    // ---- Table 1 runtime operators ------------------------------------------

    /// `createReqQueue()`: adds a logical request queue for `group` to the
    /// request-queue machine.
    pub fn create_req_queue(&mut self, group: &str) {
        self.groups.entry(group.to_string()).or_default();
    }

    /// `findServer([cli, bw_thresh])`: finds a spare (inactive, unassigned)
    /// server. When a client is given, only servers whose predicted bandwidth
    /// to that client exceeds the threshold qualify; servers are considered
    /// in name order.
    pub fn find_server(
        &self,
        client: Option<&str>,
        bandwidth_threshold_bps: f64,
    ) -> Option<String> {
        for (name, server) in &self.servers {
            if self.spare_qualifies(server, client, bandwidth_threshold_bps) {
                return Some(name.clone());
            }
        }
        None
    }

    /// Whether a server is a spare (inactive, unassigned, alive) that also
    /// clears the optional client-bandwidth threshold.
    fn spare_qualifies(
        &self,
        server: &ServerState,
        client: Option<&str>,
        bandwidth_threshold_bps: f64,
    ) -> bool {
        if server.active || server.group.is_some() || !server.up {
            return false;
        }
        if let Some(client) = client {
            let Some(client_state) = self.clients.get(client) else {
                return false;
            };
            let bw = self
                .network
                .available_bandwidth(server.host, client_state.host)
                .unwrap_or(0.0);
            if bw < bandwidth_threshold_bps {
                return false;
            }
        }
        true
    }

    /// The attachment router of a group's replicas, read from its first
    /// live active member in name order (`None` for a dead or empty group).
    fn group_attachment(&self, group: &str) -> Option<NodeId> {
        self.servers
            .values()
            .find(|s| s.active && s.up && s.group.as_deref() == Some(group))
            .and_then(|s| self.testbed.topology.attachment(s.host))
            .map(|(node, _)| node)
    }

    /// Group-aware `findServer` used by repair recruitment: prefers a spare
    /// whose machine attaches to the same router as the group's current
    /// replicas. Plain name order alone pulls whichever spare sorts first —
    /// on the scaled testbeds that hands an R3-attached spare (`S49`) to an
    /// R4 group, parking the recruit behind the wrong router and silently
    /// contaminating its server class's shared probes. Falls back to the
    /// name-order pick when no same-attachment spare qualifies; such a
    /// cross-attachment recruit keeps its own position class (an explicit
    /// class split — class-shared probing probes it separately rather than
    /// lumping it with the group's native replicas).
    pub fn find_server_for_group(
        &self,
        group: &str,
        client: Option<&str>,
        bandwidth_threshold_bps: f64,
    ) -> Option<String> {
        if let Some(target) = self.group_attachment(group) {
            for (name, server) in &self.servers {
                if !self.spare_qualifies(server, client, bandwidth_threshold_bps) {
                    continue;
                }
                let attach = self.testbed.topology.attachment(server.host);
                if attach.map(|(node, _)| node) == Some(target) {
                    return Some(name.clone());
                }
            }
        }
        self.find_server(client, bandwidth_threshold_bps)
    }

    /// Names of every live spare (inactive, unassigned) server, in name
    /// order — the pool `findServer` draws from.
    pub fn spare_servers(&self) -> Vec<String> {
        self.servers
            .iter()
            .filter(|(_, s)| !s.active && s.group.is_none() && s.up)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// `connectServer(srv, to)`: configures a server to pull requests from
    /// the given group's queue.
    pub fn connect_server(&mut self, server: &str, group: &str) -> Result<(), AppError> {
        if !self.groups.contains_key(group) {
            self.create_req_queue(group);
        }
        let old_group = self
            .servers
            .get_mut(server)
            .ok_or_else(|| AppError::UnknownServer(server.into()))?
            .group
            .replace(group.to_string());
        if let Some(old) = old_group {
            if old != group {
                self.idle_remove(&old, server);
            }
        }
        self.refresh_idle(server);
        Ok(())
    }

    /// `activateServer()`: the server begins pulling requests from its queue.
    pub fn activate_server(&mut self, server: &str) -> Result<(), AppError> {
        let group = {
            let state = self
                .servers
                .get_mut(server)
                .ok_or_else(|| AppError::UnknownServer(server.into()))?;
            if state.group.is_none() {
                return Err(AppError::Invalid(format!(
                    "server {server} must be connected to a queue before activation"
                )));
            }
            state.active = true;
            state.group.clone().expect("checked above")
        };
        self.refresh_idle(server);
        let now = self.now;
        self.dispatch_group(&group, now);
        Ok(())
    }

    /// `deactivateServer()`: the server stops pulling requests (it finishes
    /// the request currently in service).
    pub fn deactivate_server(&mut self, server: &str) -> Result<(), AppError> {
        let state = self
            .servers
            .get_mut(server)
            .ok_or_else(|| AppError::UnknownServer(server.into()))?;
        state.active = false;
        self.refresh_idle(server);
        Ok(())
    }

    /// Disconnects a deactivated server from its queue, returning it to the
    /// spare pool.
    pub fn disconnect_server(&mut self, server: &str) -> Result<(), AppError> {
        let old_group = {
            let state = self
                .servers
                .get_mut(server)
                .ok_or_else(|| AppError::UnknownServer(server.into()))?;
            if state.active {
                return Err(AppError::Invalid(format!(
                    "server {server} must be deactivated before it is disconnected"
                )));
            }
            state.group.take()
        };
        if let Some(group) = old_group {
            self.idle_remove(&group, server);
        }
        Ok(())
    }

    /// `moveClient(newQ)`: future requests from the client go to the new
    /// group's queue (requests already queued are served where they are).
    pub fn move_client(&mut self, client: &str, to_group: &str) -> Result<(), AppError> {
        if !self.groups.contains_key(to_group) {
            return Err(AppError::UnknownGroup(to_group.into()));
        }
        let state = self
            .clients
            .get_mut(client)
            .ok_or_else(|| AppError::UnknownClient(client.into()))?;
        state.group = to_group.to_string();
        self.assignment_generation += 1;
        // A per-element repair broke the client's position symmetry: split
        // it permanently out of its aggregate demand row. Bookkeeping only —
        // aggregate rows are bit-identical to the exploded solve either way
        // — but it keeps the diverged client visibly singleton in the
        // aggregation statistics. (Whole-class moves via
        // [`move_clients`](Self::move_clients) preserve symmetry and do not
        // split.)
        let host = state.host;
        self.network.split_client(host);
        Ok(())
    }

    /// `moveClientGroup(clients, newQ)`: the batched variant of
    /// [`move_client`](Self::move_client) used by the group-level planner.
    /// Every listed client is re-pointed at `to_group`'s queue in one pass,
    /// and — unlike the per-element operator — the clients' requests still
    /// *waiting* in their old queues migrate with them (the group move
    /// re-binds the queue routing entry, so queued work follows it).
    /// Requests already in service or in flight are unaffected. Returns the
    /// number of clients moved.
    pub fn move_clients(&mut self, clients: &[String], to_group: &str) -> Result<usize, AppError> {
        if !self.groups.contains_key(to_group) {
            return Err(AppError::UnknownGroup(to_group.into()));
        }
        // Validate the whole batch before touching anything: a group move is
        // atomic, and a half-applied batch (some clients re-pointed, none of
        // their queued requests migrated) would be unobservable to the
        // caller behind the returned error.
        if let Some(unknown) = clients.iter().find(|c| !self.clients.contains_key(*c)) {
            return Err(AppError::UnknownClient(unknown.clone()));
        }
        self.assignment_generation += 1;
        let mut moved: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for client in clients {
            let state = self.clients.get_mut(client).expect("validated above");
            state.group = to_group.to_string();
            moved.insert(client.as_str());
        }
        // Migrate queued requests: scan every other queue in name order and
        // pull out the moved clients' waiting requests, preserving their
        // FIFO order within each source queue.
        let group_names: Vec<String> = self
            .groups
            .keys()
            .filter(|g| g.as_str() != to_group)
            .cloned()
            .collect();
        let mut migrated: Vec<u64> = Vec::new();
        for group in group_names {
            let queue = &mut self.groups.get_mut(&group).expect("group exists").queue;
            let mut kept = VecDeque::with_capacity(queue.len());
            for id in queue.drain(..) {
                let belongs_to_moved = self
                    .requests
                    .get(&id)
                    .is_some_and(|r| moved.contains(r.client.as_str()));
                if belongs_to_moved {
                    migrated.push(id);
                } else {
                    kept.push_back(id);
                }
            }
            *queue = kept;
        }
        for id in &migrated {
            if let Some(request) = self.requests.get_mut(id) {
                request.group = to_group.to_string();
            }
        }
        self.groups
            .get_mut(to_group)
            .expect("checked above")
            .queue
            .extend(migrated);
        let now = self.now;
        self.dispatch_group(to_group, now);
        Ok(moved.len())
    }

    /// `drainServer(srv)`: recycles a server in place — the request it is
    /// serving (or whose reply it is transmitting) is abandoned, the reply
    /// transfer is torn down, and the server immediately pulls fresh work
    /// from its queue. The group-level planner uses this to recover replicas
    /// wedged transmitting replies over a path that has collapsed under
    /// them: the stuck reply would otherwise occupy the replica long past any
    /// latency bound. The abandoned request never completes (its client
    /// observes a timeout, exactly as with a crashed replica).
    pub fn drain_server(&mut self, now: SimTime, server: &str) -> Result<(), AppError> {
        self.advance(now);
        let (busy, sending, group) = {
            let state = self
                .servers
                .get_mut(server)
                .ok_or_else(|| AppError::UnknownServer(server.into()))?;
            let busy = state.busy.take();
            let sending = state.sending.take();
            (busy, sending, state.group.clone())
        };
        if let Some((req, finish)) = busy {
            self.service_due.remove(finish, self.server_idx[server]);
            self.requests.remove(&req);
        }
        if let Some((req, _)) = sending {
            self.sending_index.remove(&req);
            if let Some(request) = self.requests.remove(&req) {
                if let RequestPhase::ResponseInFlight(transfer) = request.phase {
                    let _ = self.network.cancel_transfer(now, transfer);
                }
            }
        }
        self.refresh_idle(server);
        if let Some(group) = group {
            self.dispatch_group(&group, now);
        }
        Ok(())
    }

    /// The active, live servers of `group` stuck *transmitting* a reply for
    /// more than `min_age_secs` — replicas wedged on a collapsed path, in
    /// name order. The age is measured from when the reply transmission
    /// started, not from when its request was issued: during a backlog a
    /// request can legitimately wait in queue far past the latency bound and
    /// still transmit in milliseconds, and such replicas must not be
    /// recycled. A healthy reply transmits within a fraction of a second, so
    /// transmission ages past the bound indicate a transfer that will not
    /// finish in useful time.
    pub fn stuck_sending_servers(&self, group: &str, min_age_secs: f64) -> Vec<String> {
        let now = self.now;
        self.servers
            .iter()
            .filter(|(_, s)| s.active && s.up && s.group.as_deref() == Some(group))
            .filter(|(_, s)| {
                s.sending
                    .is_some_and(|(_, since)| now.since(since).as_secs() > min_age_secs)
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// A coarse signature of a server's runtime state, used to refine
    /// symmetry classes: two replicas only share a probe when they are in
    /// the same phase of work. `0` = idle, `1` = computing a response, and
    /// `2 + (reply age / 5 s)` for a replica mid-transmission — bucketing
    /// the reply age separates a replica seconds into a wedged transfer
    /// from one that just started sending.
    pub fn server_runtime_signature(&self, server: &str) -> u64 {
        let Some(state) = self.servers.get(server) else {
            return 0;
        };
        if let Some((_, since)) = state.sending {
            let age = self.now.since(since).as_secs();
            return 2 + (age / 5.0).floor().max(0.0) as u64;
        }
        if state.busy.is_some() {
            return 1;
        }
        0
    }

    /// Predicted bandwidth of a new flow from one named server's machine to
    /// one named client's machine — the single Remos pair query
    /// [`remos_get_flow`](Self::remos_get_flow) folds its per-server maximum
    /// over. The symmetry-aware probe sharing issues this query once per
    /// network-position class representative instead of once per server.
    pub fn available_bandwidth_between(&self, server: &str, client: &str) -> Result<f64, AppError> {
        let server_host = self
            .server_host(server)
            .ok_or_else(|| AppError::UnknownServer(server.into()))?;
        let client_host = self
            .client_host(client)
            .ok_or_else(|| AppError::UnknownClient(client.into()))?;
        Ok(self
            .network
            .available_bandwidth(server_host, client_host)
            .unwrap_or(0.0))
    }

    /// Lifetime number of max-min probe solves the underlying network has
    /// performed (per-epoch memo hits excluded) — the measurement behind the
    /// "probe sampling per tick" figures.
    pub fn probe_solve_count(&self) -> u64 {
        self.network.probe_solve_count()
    }

    /// Aggregation statistics of the underlying allocator: demand rows and
    /// member flows of the last epoch, plus the lifetime count of clients
    /// permanently split out of their aggregates.
    pub fn aggregation_stats(&self) -> simnet::AggregationStats {
        self.network.aggregation_stats()
    }

    /// Lifetime number of probe queries (memo hits included) the underlying
    /// network has answered; minus [`probe_solve_count`](Self::probe_solve_count)
    /// it gives the per-epoch memo's hit count.
    pub fn probe_query_count(&self) -> u64 {
        self.network.probe_query_count()
    }

    /// Lifetime number of allocation-epoch rebuilds (full max-min re-solves)
    /// the underlying network has performed.
    pub fn rate_epoch_count(&self) -> u64 {
        self.network.rate_epoch_count()
    }

    /// Usage counters of the network's shortest-path table.
    pub fn path_table_stats(&self) -> simnet::PathTableStats {
        self.network.path_table_stats()
    }

    /// Combined lifetime operation counts of the event loop's two calendar
    /// queues (pending request dues + busy server dues).
    pub fn due_queue_stats(&self) -> crate::due::DueQueueStats {
        self.request_due.stats() + self.service_due.stats()
    }

    /// Lifetime `(machine, group)` memo hits and misses across
    /// [`flow_snapshot`](Self::flow_snapshot) calls, as `(hits, misses)`.
    pub fn flow_memo_stats(&self) -> (u64, u64) {
        (self.flow_memo_hits.get(), self.flow_memo_misses.get())
    }

    /// The generation of the client→group assignment: unchanged for as long
    /// as every [`client_group`](Self::client_group) answer is. A failed move
    /// leaves it alone.
    pub fn assignment_generation(&self) -> u64 {
        self.assignment_generation
    }

    /// `remos_get_flow(clIP, svIP)`: predicted bandwidth between a client and
    /// a server group, taken as the best available bandwidth from any of the
    /// group's active servers to the client.
    pub fn remos_get_flow(&self, client: &str, group: &str) -> Result<f64, AppError> {
        let client_state = self
            .clients
            .get(client)
            .ok_or_else(|| AppError::UnknownClient(client.into()))?;
        let servers = self.active_servers(group);
        if servers.is_empty() {
            return Err(AppError::UnknownGroup(format!(
                "{group} has no active servers"
            )));
        }
        let mut best: f64 = 0.0;
        for server in servers {
            let host = self.servers[&server].host;
            let bw = self
                .network
                .available_bandwidth(host, client_state.host)
                .unwrap_or(0.0);
            best = best.max(bw);
        }
        Ok(best)
    }

    // ---- simulation driving --------------------------------------------------

    /// The earliest future time at which something happens inside the
    /// application (a client issuing a request, a transfer completing, a
    /// server finishing service).
    ///
    /// Answered from the due-time indices in `O(log n)` instead of scanning
    /// every client and server.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                None => t,
                Some(existing) => existing.min(t),
            });
        };
        if let Some(t) = self.request_due.min_time() {
            consider(t);
        }
        if let Some(t) = self.service_due.min_time() {
            consider(t);
        }
        if let Some(t) = self.network.next_event_time(self.now) {
            consider(t);
        }
        next
    }

    /// Advances the application to `now`, processing every internal event in
    /// chronological order.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.now {
            return;
        }
        loop {
            let next = self.next_event_time();
            match next {
                Some(t) if t <= now => {
                    self.process_due(t);
                }
                _ => break,
            }
        }
        self.now = now;
    }

    fn process_due(&mut self, t: SimTime) {
        self.now = self.now.max(t);

        // 1. Clients whose next request is due (name order among ties,
        // matching the previous full scan of the name-ordered map).
        self.due_scratch.clear();
        self.request_due.collect_due(t, &mut self.due_scratch);
        let mut due_clients: Vec<String> = self
            .due_scratch
            .iter()
            .map(|&(_, idx)| self.client_seq[idx as usize].clone())
            .collect();
        due_clients.sort();
        for client in due_clients {
            self.issue_request(&client, t);
        }

        // 2. Network transfers that have completed by now.
        let completions = self.network.poll_completions(t);
        for done in completions {
            self.handle_transfer_complete(done.tag, done.delivered);
        }

        // 3. Servers whose service completes (again in name order).
        self.due_scratch.clear();
        self.service_due.collect_due(t, &mut self.due_scratch);
        let mut finished: Vec<(String, u64, SimTime)> = self
            .due_scratch
            .iter()
            .map(|&(finish, idx)| {
                let name = self.server_seq[idx as usize].clone();
                let (req, _) = self.servers[&name].busy.expect("index mirrors busy");
                (name, req, finish)
            })
            .collect();
        finished.sort();
        for (server, request, finish) in finished {
            self.finish_service(&server, request, finish);
        }
    }

    fn issue_request(&mut self, client_name: &str, t: SimTime) {
        let config_request_bytes = self.config.request_bytes;
        let jitter = self.config.response_size_jitter;
        let client_idx = self.client_idx[client_name];
        let (host, group, response_bytes, old_due, new_due, rate_positive) = {
            let rng = self.rng.get_mut(client_name).expect("client rng exists");
            let client = self.clients.get_mut(client_name).expect("client exists");
            let response_bytes = if jitter > 0.0 {
                rng.normal_clamped(
                    client.response_bytes,
                    client.response_bytes * jitter,
                    client.response_bytes * 0.25,
                )
            } else {
                client.response_bytes
            };
            let interval = rng.exponential(client.rate_per_sec.max(1e-9));
            client.issued += 1;
            let old_due = client.next_request_at;
            client.next_request_at = t + SimDuration::from_secs(interval);
            (
                client.host,
                client.group.clone(),
                response_bytes,
                old_due,
                client.next_request_at,
                client.rate_per_sec > 0.0,
            )
        };
        self.request_due.remove(old_due, client_idx);
        if rate_positive {
            self.request_due.insert(new_due, client_idx);
        }
        let id = self.next_request_id;
        self.next_request_id += 1;
        let transfer = self
            .network
            .start_transfer(
                t,
                host,
                self.testbed.host_request_queue,
                config_request_bytes,
                id,
            )
            .expect("request transfer starts");
        self.requests.insert(
            id,
            RequestState {
                client: client_name.to_string(),
                group,
                issued_at: t,
                response_bytes,
                phase: RequestPhase::ToQueue(transfer),
            },
        );
    }

    fn handle_transfer_complete(&mut self, request_id: u64, delivered: SimTime) {
        let Some(request) = self.requests.get_mut(&request_id) else {
            return;
        };
        match request.phase.clone() {
            RequestPhase::ToQueue(_) => {
                // The request has reached the request-queue machine; it is
                // split into the queue of the client's *current* server group.
                let group = self
                    .clients
                    .get(&request.client)
                    .map(|c| c.group.clone())
                    .unwrap_or_else(|| request.group.clone());
                request.group = group.clone();
                request.phase = RequestPhase::Queued;
                self.groups
                    .entry(group.clone())
                    .or_default()
                    .queue
                    .push_back(request_id);
                self.dispatch_group(&group, delivered);
            }
            RequestPhase::ResponseInFlight(_) => {
                let request = self.requests.remove(&request_id).expect("request exists");
                let latency = delivered.since(request.issued_at).as_secs();
                if let Some(client) = self.clients.get_mut(&request.client) {
                    client.completed += 1;
                }
                // The reply has been delivered: the transmitting server is
                // free again and can pull the next queued request.
                let freed: Option<(String, Option<String>)> =
                    self.sending_index.remove(&request_id).map(|name| {
                        let s = self.servers.get_mut(&name).expect("indexed server exists");
                        s.sending = None;
                        let group = s.group.clone();
                        (name, group)
                    });
                if let Some((name, group)) = freed {
                    self.refresh_idle(&name);
                    if let Some(group) = group {
                        self.dispatch_group(&group, delivered);
                    }
                }
                self.metrics
                    .record_latency(delivered.as_secs(), &request.client, latency);
                if self.sink.enabled() {
                    self.sink.append(
                        tracestore::TraceEvent::new(
                            delivered.as_secs(),
                            tracestore::EventKind::Transfer,
                            request.client.clone(),
                            request.group.clone(),
                        )
                        .with_value(latency)
                        .with_correlation(request_id),
                    );
                }
                self.completions.push(CompletedRequest {
                    time: delivered,
                    client: request.client,
                    group: request.group,
                    latency_secs: latency,
                });
            }
            RequestPhase::Queued | RequestPhase::InService => {
                // Transfers only exist in the two phases handled above.
            }
        }
    }

    fn dispatch_group(&mut self, group: &str, now: SimTime) {
        loop {
            let Some(group_state) = self.groups.get(group) else {
                return;
            };
            if group_state.queue.is_empty() {
                return;
            }
            // First idle server of the group in name order — the same server
            // the previous full scan over the name-ordered map selected.
            let Some(server_name) = self.idle.get(group).and_then(|set| set.first().cloned())
            else {
                return;
            };
            let request_id = self
                .groups
                .get_mut(group)
                .expect("group exists")
                .queue
                .pop_front()
                .expect("queue non-empty");
            let finish = now + SimDuration::from_secs(self.config.service_time_secs);
            if let Some(request) = self.requests.get_mut(&request_id) {
                request.phase = RequestPhase::InService;
            }
            let server = self.servers.get_mut(&server_name).expect("server exists");
            server.busy = Some((request_id, finish));
            self.service_due
                .insert(finish, self.server_idx[&server_name]);
            self.refresh_idle(&server_name);
        }
    }

    fn finish_service(&mut self, server_name: &str, request_id: u64, finish: SimTime) {
        let host = {
            let server = self.servers.get_mut(server_name).expect("server exists");
            server.busy = None;
            // The server now transmits the reply; it stays occupied until the
            // last byte reaches the client.
            server.sending = Some((request_id, finish));
            server.served += 1;
            server.host
        };
        self.service_due
            .remove(finish, self.server_idx[server_name]);
        self.sending_index
            .insert(request_id, server_name.to_string());
        if let Some(request) = self.requests.get_mut(&request_id) {
            let client_host = self
                .clients
                .get(&request.client)
                .map(|c| c.host)
                .unwrap_or(host);
            let transfer = self
                .network
                .start_transfer(
                    finish,
                    host,
                    client_host,
                    request.response_bytes,
                    request_id,
                )
                .expect("response transfer starts");
            request.phase = RequestPhase::ResponseInFlight(transfer);
        }
    }

    // ---- periodic measurement --------------------------------------------------

    /// Takes one shared network snapshot of every client's Remos flow
    /// prediction against its current server group. The control loop takes
    /// one snapshot per tick and serves every flow-derived probe (bandwidth,
    /// reachability, monitoring-delay estimation, figure metrics) from it,
    /// instead of re-running the max-min query once per consumer. Values are
    /// memoised per `(client machine, group)` pair — clients sharing a
    /// machine and a group see the same prediction by definition.
    pub fn flow_snapshot(&self) -> FlowSnapshot {
        let mut memo: HashMap<(NodeId, String), Option<f64>> = HashMap::new();
        let mut entries = Vec::with_capacity(self.clients.len());
        for (name, client) in &self.clients {
            let key = (client.host, client.group.clone());
            let flow = match memo.get(&key) {
                Some(&cached) => {
                    self.flow_memo_hits.set(self.flow_memo_hits.get() + 1);
                    cached
                }
                None => {
                    self.flow_memo_misses.set(self.flow_memo_misses.get() + 1);
                    let value = self.remos_get_flow(name, &client.group).ok();
                    memo.insert(key, value);
                    value
                }
            };
            entries.push((name.clone(), client.group.clone(), flow));
        }
        FlowSnapshot { entries }
    }

    /// Records the current queue lengths and per-client available bandwidth
    /// into the metrics store. Called periodically by the experiment driver
    /// (the latency series is recorded per completed request instead).
    pub fn sample_metrics(&mut self, now: SimTime) {
        self.advance(now);
        let flows = self.flow_snapshot();
        self.sample_metrics_with_flows(now, &flows);
    }

    /// [`sample_metrics`](Self::sample_metrics) variant serving the
    /// bandwidth series from an already-taken [`FlowSnapshot`].
    pub fn sample_metrics_with_flows(&mut self, now: SimTime, flows: &FlowSnapshot) {
        self.advance(now);
        let t = now.as_secs();
        let groups: Vec<String> = self.groups.keys().cloned().collect();
        for group in groups {
            let len = self.queue_length(&group).unwrap_or(0);
            self.metrics.record_queue_length(t, &group, len);
        }
        for (client, _, flow) in flows.entries() {
            if let Some(bw) = flow {
                self.metrics.record_bandwidth(t, client, *bw);
            }
        }
    }
}

/// One control tick's shared view of every client's predicted bandwidth:
/// `(client, current group, Remos flow)` in client-name order, with `None`
/// where the query failed (e.g. the group has no live server).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSnapshot {
    entries: Vec<(String, String, Option<f64>)>,
}

impl FlowSnapshot {
    /// Builds a snapshot from pre-computed rows. The rows must be in
    /// client-name order with one entry per client — the contract every
    /// consumer of [`entries`](Self::entries) assumes. Used by the
    /// symmetry-aware class probing, which computes one Remos flow per
    /// network-position class and fans it out to every member.
    pub fn from_entries(entries: Vec<(String, String, Option<f64>)>) -> FlowSnapshot {
        FlowSnapshot { entries }
    }

    /// The snapshot rows, in client-name order.
    pub fn entries(&self) -> &[(String, String, Option<f64>)] {
        &self.entries
    }

    /// The smallest successfully probed flow, if any — what the monitoring
    /// delay model keys on.
    pub fn min_flow_bps(&self) -> Option<f64> {
        self.entries
            .iter()
            .filter_map(|(_, _, flow)| *flow)
            .fold(None, |acc, bw| Some(acc.map_or(bw, |m: f64| m.min(bw))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> GridApp {
        GridApp::build(GridConfig::default()).unwrap()
    }

    fn secs(v: f64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn a_misnumbered_client_slot_is_a_typed_error_naming_it() {
        let testbed = Testbed::build().unwrap();
        for (i, slot) in (1u64..).zip(&testbed.client_hosts) {
            assert_eq!(slot_host(i, slot), Ok(slot.1));
        }
        // Slot 3 of a testbed that skipped C3.
        let stray = ("C4".to_string(), testbed.client_hosts[3].1);
        match slot_host(3, &stray) {
            Err(AppError::Invalid(message)) => {
                assert!(message.contains("no slot C3"), "{message}");
                assert!(message.contains("\"C4\""), "{message}");
            }
            other => panic!("unexpected result: {other:?}"),
        }
        // Every client of a built application sits on its slot's machine.
        let app = app();
        for (i, (_, host)) in (1u64..).zip(&app.testbed().client_hosts) {
            assert_eq!(app.client_host(&format!("User{i}")), Some(*host));
        }
    }

    #[test]
    fn group_aware_recruit_prefers_a_same_attachment_spare() {
        let mut app =
            GridApp::build(GridConfig::with_testbed(crate::TestbedSpec::large_scale())).unwrap();
        let attach = |app: &GridApp, s: &str| {
            let host = app.server_host(s).unwrap();
            app.testbed().topology.attachment(host).unwrap().0
        };
        // The name-order-first spare hangs off SG1's router, so a
        // group-blind SG2 recruit would cross attachments — parking the
        // new replica behind the wrong router and breaking the group's
        // position symmetry.
        let name_order_pick = app.find_server(None, 0.0).unwrap();
        let group_pick = app
            .find_server_for_group(SERVER_GROUP_2, None, 0.0)
            .unwrap();
        let sg2_attach = attach(&app, &app.active_servers(SERVER_GROUP_2)[0]);
        assert_ne!(attach(&app, &name_order_pick), sg2_attach);
        assert_eq!(attach(&app, &group_pick), sg2_attach);
        // Recruit it: the group keeps a single attachment signature, so its
        // server class count stays stable (no forced class split).
        app.connect_server(&group_pick, SERVER_GROUP_2).unwrap();
        app.activate_server(&group_pick).unwrap();
        let attachments: std::collections::BTreeSet<_> = app
            .active_servers(SERVER_GROUP_2)
            .iter()
            .map(|s| attach(&app, s))
            .collect();
        assert_eq!(attachments.len(), 1);
        // SG1 recruiting is unchanged: the name-order pick already sits on
        // SG1's router.
        assert_eq!(
            app.find_server_for_group(SERVER_GROUP_1, None, 0.0)
                .unwrap(),
            name_order_pick
        );
        // A group with no live replicas falls back to the name-order scan.
        assert!(app
            .find_server_for_group("NoSuchGroup", None, 0.0)
            .is_some());
    }

    #[test]
    fn initial_deployment_matches_the_paper() {
        let app = app();
        assert_eq!(app.client_names().len(), 6);
        assert_eq!(app.active_servers(SERVER_GROUP_1), vec!["S1", "S2", "S3"]);
        assert_eq!(app.active_servers(SERVER_GROUP_2), vec!["S5", "S6"]);
        // S4 and S7 are spares.
        assert_eq!(app.find_server(None, 0.0), Some("S4".to_string()));
        for client in app.client_names() {
            assert_eq!(app.client_group(&client).unwrap(), SERVER_GROUP_1);
        }
    }

    #[test]
    fn builds_on_every_topology_preset() {
        for &preset in crate::testbed::testbed_preset_names() {
            let spec = crate::testbed::TestbedSpec::by_name(preset).unwrap();
            let mut app = GridApp::build(GridConfig::with_testbed(spec)).unwrap();
            assert_eq!(app.client_names().len(), spec.num_clients());
            assert_eq!(
                app.active_servers(SERVER_GROUP_1).len(),
                spec.sg1_active,
                "{preset}"
            );
            assert_eq!(app.active_servers(SERVER_GROUP_2).len(), spec.sg2_active);
            app.advance(secs(60.0));
            let completions = app.take_completions();
            assert!(
                !completions.is_empty(),
                "{preset} serves requests in the first minute"
            );
            if spec.clients_per_agg == 0 {
                // Classic presets run hot enough that every client completes
                // something in the first minute; the large-scale preset's
                // low-rate clients individually may not.
                for client in app.client_names() {
                    assert!(
                        completions.iter().any(|c| c.client == client),
                        "{preset}: {client} completed nothing"
                    );
                }
            } else {
                // A web-scale minute should still see substantial aggregate
                // throughput spread over many distinct clients. The aggregate
                // request rate is sized off the (fixed) server block, not the
                // population, so the number of distinct completers per minute
                // saturates as the fleet grows — cap the expectation at the
                // 50k preset's tenth rather than scaling it forever.
                let distinct: std::collections::BTreeSet<&str> =
                    completions.iter().map(|c| c.client.as_str()).collect();
                assert!(
                    distinct.len() > (spec.num_clients() / 10).min(5_000),
                    "{preset}: only {} distinct clients completed",
                    distinct.len()
                );
            }
        }
    }

    #[test]
    fn wide_fanout_squeeze_hits_the_r2_clients() {
        // In the wide-fanout preset the squeezable clients behind R2 are C5
        // and C6 (User5/User6), not C3/C4.
        let mut app = GridApp::build(GridConfig::with_testbed(
            crate::testbed::TestbedSpec::wide_fanout(),
        ))
        .unwrap();
        let before = app.remos_get_flow("User5", SERVER_GROUP_1).unwrap();
        app.set_competition_sg1(secs(1.0), 9.9e6).unwrap();
        let squeezed = app.remos_get_flow("User5", SERVER_GROUP_1).unwrap();
        let unaffected = app.remos_get_flow("User1", SERVER_GROUP_1).unwrap();
        assert!(squeezed < before / 10.0);
        assert!(unaffected > squeezed * 10.0);
    }

    #[test]
    fn requests_complete_with_low_latency_when_unloaded() {
        let mut app = app();
        app.advance(secs(60.0));
        let completions = app.take_completions();
        assert!(
            completions.len() > 40,
            "expected ≈60 completions in the first minute, got {}",
            completions.len()
        );
        let mean: f64 =
            completions.iter().map(|c| c.latency_secs).sum::<f64>() / completions.len() as f64;
        assert!(
            mean < 2.0,
            "unloaded latency should be below the 2 s bound, got {mean}"
        );
        // All clients make progress.
        for client in app.client_names() {
            assert!(
                completions.iter().any(|c| c.client == client),
                "{client} completed nothing"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mut a = GridApp::build(GridConfig::default()).unwrap();
        let mut b = GridApp::build(GridConfig::default()).unwrap();
        a.advance(secs(120.0));
        b.advance(secs(120.0));
        let la: Vec<_> = a
            .take_completions()
            .into_iter()
            .map(|c| (c.client, (c.latency_secs * 1e9) as u64))
            .collect();
        let lb: Vec<_> = b
            .take_completions()
            .into_iter()
            .map(|c| (c.client, (c.latency_secs * 1e9) as u64))
            .collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GridApp::build(GridConfig::default()).unwrap();
        let mut b = GridApp::build(GridConfig::with_seed(7)).unwrap();
        a.advance(secs(60.0));
        b.advance(secs(60.0));
        let la: Vec<u64> = a
            .take_completions()
            .into_iter()
            .map(|c| (c.latency_secs * 1e9) as u64)
            .collect();
        let lb: Vec<u64> = b
            .take_completions()
            .into_iter()
            .map(|c| (c.latency_secs * 1e9) as u64)
            .collect();
        assert_ne!(la, lb);
    }

    #[test]
    fn bandwidth_squeeze_raises_latency_for_c3_c4() {
        let mut app = app();
        app.advance(secs(30.0));
        app.take_completions();
        // Squeeze the R2-R3 link to ~5 Kbps: User3/User4 responses crawl.
        app.set_competition_sg1(secs(30.0), 9.995e6).unwrap();
        app.advance(secs(150.0));
        let completions = app.take_completions();
        let squeezed: Vec<f64> = completions
            .iter()
            .filter(|c| c.client == "User3" || c.client == "User4")
            .map(|c| c.latency_secs)
            .collect();
        let others: Vec<f64> = completions
            .iter()
            .filter(|c| c.client == "User1" || c.client == "User2")
            .map(|c| c.latency_secs)
            .collect();
        // The squeezed clients make far less progress than the others (their
        // responses crawl over a ~5 Kbps path and tie up servers), and
        // whatever they do complete breaches the 2 s bound.
        assert!(
            squeezed.len() < others.len(),
            "squeezed clients ({}) should complete fewer requests than others ({})",
            squeezed.len(),
            others.len()
        );
        if let Some(worst) = squeezed
            .iter()
            .cloned()
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
        {
            assert!(
                worst > 2.0,
                "a squeezed client that completes does so with latency above the bound, got {worst}"
            );
        }
    }

    #[test]
    fn moving_a_client_restores_its_latency() {
        let mut app = app();
        app.set_competition_sg1(secs(0.0), 9.995e6).unwrap();
        app.advance(secs(100.0));
        app.take_completions();
        // Move the affected clients to Server Group 2.
        app.move_client("User3", SERVER_GROUP_2).unwrap();
        app.move_client("User4", SERVER_GROUP_2).unwrap();
        app.advance(secs(160.0));
        // Give in-flight stragglers time to flush, then look at fresh traffic.
        app.take_completions();
        app.advance(secs(260.0));
        let after = app.take_completions();
        let moved: Vec<f64> = after
            .iter()
            .filter(|c| (c.client == "User3" || c.client == "User4") && c.group == SERVER_GROUP_2)
            .map(|c| c.latency_secs)
            .collect();
        assert!(!moved.is_empty(), "moved clients serve from ServerGrp2");
        let mean = moved.iter().sum::<f64>() / moved.len() as f64;
        assert!(mean < 2.0, "after the move latency recovers, got {mean}");
        assert_eq!(app.client_group("User3").unwrap(), SERVER_GROUP_2);
    }

    #[test]
    fn overload_grows_the_queue_and_activating_a_spare_helps() {
        let mut app = app();
        // Double the per-client rate and keep 20 KB responses: 12 req/s
        // against 7.5 req/s of capacity.
        app.set_workload(2.0, 20_480.0);
        app.advance(secs(200.0));
        let loaded = app.queue_length(SERVER_GROUP_1).unwrap();
        assert!(
            loaded > 6,
            "queue should exceed the overload bound, got {loaded}"
        );
        // Recruit the spare servers as the paper's repairs did.
        let spare = app.find_server(None, 0.0).unwrap();
        assert_eq!(spare, "S4");
        app.connect_server("S4", SERVER_GROUP_1).unwrap();
        app.activate_server("S4").unwrap();
        app.connect_server("S7", SERVER_GROUP_1).unwrap();
        app.activate_server("S7").unwrap();
        assert_eq!(app.active_servers(SERVER_GROUP_1).len(), 5);
        app.advance(secs(500.0));
        let after = app.queue_length(SERVER_GROUP_1).unwrap();
        assert!(
            after < loaded.max(20),
            "queue should shrink once capacity exceeds load ({loaded} -> {after})"
        );
        assert!(
            app.served_by("S4") > 0,
            "the recruited spare serves requests"
        );
    }

    #[test]
    fn deactivated_server_stops_taking_work() {
        let mut app = app();
        app.advance(secs(20.0));
        app.deactivate_server("S1").unwrap();
        app.deactivate_server("S2").unwrap();
        app.deactivate_server("S3").unwrap();
        let served_before: u64 = ["S1", "S2", "S3"].iter().map(|s| app.served_by(s)).sum();
        app.advance(secs(40.0));
        // Queue grows because nothing serves ServerGrp1 any more.
        assert!(app.queue_length(SERVER_GROUP_1).unwrap() > 0);
        app.advance(secs(60.0));
        let served_after: u64 = ["S1", "S2", "S3"].iter().map(|s| app.served_by(s)).sum();
        // At most the requests already in service finish; afterwards nothing.
        assert!(served_after <= served_before + 3);
    }

    #[test]
    fn crashed_server_stops_serving_and_loses_its_request() {
        let mut app = app();
        app.advance(secs(20.0));
        let served_before = app.served_by("S1");
        app.crash_server(secs(20.0), "S1").unwrap();
        assert!(!app.server_is_up("S1").unwrap());
        // The crashed replica vanishes from the active roster but stays
        // assigned (dead) for the liveness census.
        assert_eq!(app.active_servers(SERVER_GROUP_1), vec!["S2", "S3"]);
        assert_eq!(app.group_liveness(SERVER_GROUP_1), (2, 1));
        app.advance(secs(80.0));
        assert_eq!(app.served_by("S1"), served_before);
        // Spares exclude the corpse: S4 is up, so it is still first.
        app.crash_server(secs(80.0), "S4").unwrap();
        assert_eq!(app.find_server(None, 0.0), Some("S7".to_string()));
    }

    #[test]
    fn full_group_crash_wedges_its_queue_until_restart() {
        let mut app = app();
        app.advance(secs(20.0));
        for server in ["S1", "S2", "S3"] {
            app.crash_server(secs(20.0), server).unwrap();
        }
        assert_eq!(app.group_liveness(SERVER_GROUP_1), (0, 3));
        app.advance(secs(60.0));
        app.take_completions();
        // Nothing serves the queue: it only grows.
        let wedged = app.queue_length(SERVER_GROUP_1).unwrap();
        assert!(wedged > 0, "queue grows with no live server");
        app.advance(secs(90.0));
        let completions = app.take_completions();
        assert!(completions.is_empty(), "no completions while wedged");
        // Restart: the replicas resume where they were assigned and the
        // backlog drains.
        for server in ["S1", "S2", "S3"] {
            app.restart_server(secs(90.0), server).unwrap();
        }
        assert_eq!(app.group_liveness(SERVER_GROUP_1), (3, 0));
        app.advance(secs(200.0));
        assert!(!app.take_completions().is_empty());
        assert!(app.queue_length(SERVER_GROUP_1).unwrap() < wedged.max(10));
    }

    #[test]
    fn restart_after_failover_returns_the_server_as_a_spare() {
        let mut app = app();
        app.crash_server(secs(10.0), "S2").unwrap();
        // The failover repair deactivates and disconnects the corpse.
        app.deactivate_server("S2").unwrap();
        app.disconnect_server("S2").unwrap();
        assert_eq!(app.group_liveness(SERVER_GROUP_1), (2, 0));
        // While dead it is not offered as a spare.
        assert_eq!(app.find_server(None, 0.0), Some("S4".to_string()));
        app.restart_server(secs(50.0), "S2").unwrap();
        assert_eq!(app.find_server(None, 0.0), Some("S2".to_string()));
    }

    #[test]
    fn node_down_hook_stalls_traffic_until_the_node_returns() {
        let mut app = app();
        app.advance(secs(10.0));
        app.take_completions();
        // Take Server Group 1's router (R3) down: SG1 becomes unreachable.
        let r3 = app.testbed().routers[2];
        app.set_node_down(secs(10.0), r3, true).unwrap();
        let bw = app.remos_get_flow("User1", SERVER_GROUP_1).unwrap();
        assert!(bw <= 1.0, "SG1 unreachable through a down router: {bw}");
        app.set_node_down(secs(40.0), r3, false).unwrap();
        let bw = app.remos_get_flow("User1", SERVER_GROUP_1).unwrap();
        assert!(bw > 1.0e5, "bandwidth returns with the router: {bw}");
        // The mutations were recorded for the audit trail.
        assert_eq!(app.network_mutation_trace().entries().len(), 2);
    }

    #[test]
    fn link_capacity_hook_cuts_and_restores_a_core_link() {
        let mut app = app();
        let link = app.testbed().link_c34_sg1;
        let original = app.testbed().topology.link(link).unwrap().capacity_bps;
        app.set_link_capacity(secs(5.0), link, 0.0).unwrap();
        let squeezed = app.remos_get_flow("User3", SERVER_GROUP_1).unwrap();
        assert!(squeezed <= 1.0, "cut link leaves ~nothing: {squeezed}");
        // Other clients (via R1-R3) are unaffected.
        assert!(app.remos_get_flow("User1", SERVER_GROUP_1).unwrap() > 1.0e6);
        app.set_link_capacity(secs(15.0), link, original).unwrap();
        assert!(app.remos_get_flow("User3", SERVER_GROUP_1).unwrap() > 1.0e6);
    }

    #[test]
    fn remos_get_flow_reflects_competition() {
        let mut app = app();
        let before = app.remos_get_flow("User3", SERVER_GROUP_1).unwrap();
        app.set_competition_sg1(secs(1.0), 9.9e6).unwrap();
        let after = app.remos_get_flow("User3", SERVER_GROUP_1).unwrap();
        assert!(
            after < before / 10.0,
            "competition cuts bandwidth ({before} -> {after})"
        );
        // Bandwidth to the other group is unaffected.
        let sg2 = app.remos_get_flow("User3", SERVER_GROUP_2).unwrap();
        assert!(sg2 > 1.0e6);
    }

    #[test]
    fn table1_error_paths() {
        let mut app = app();
        assert!(matches!(
            app.move_client("User1", "Nowhere"),
            Err(AppError::UnknownGroup(_))
        ));
        assert!(matches!(
            app.move_client("Ghost", SERVER_GROUP_2),
            Err(AppError::UnknownClient(_))
        ));
        assert!(matches!(
            app.activate_server("S9"),
            Err(AppError::UnknownServer(_))
        ));
        // Activating an unconnected spare is invalid.
        assert!(matches!(
            app.activate_server("S4"),
            Err(AppError::Invalid(_))
        ));
        assert!(matches!(
            app.remos_get_flow("User1", "Nowhere"),
            Err(AppError::UnknownGroup(_))
        ));
        // Disconnect requires deactivation first.
        assert!(matches!(
            app.disconnect_server("S1"),
            Err(AppError::Invalid(_))
        ));
        app.deactivate_server("S1").unwrap();
        app.disconnect_server("S1").unwrap();
        assert_eq!(app.active_servers(SERVER_GROUP_1), vec!["S2", "S3"]);
    }

    #[test]
    fn create_req_queue_is_idempotent() {
        let mut app = app();
        app.create_req_queue("ServerGrp3");
        app.create_req_queue("ServerGrp3");
        assert_eq!(app.group_names().len(), 3);
        assert_eq!(app.queue_length("ServerGrp3").unwrap(), 0);
    }

    #[test]
    fn sample_metrics_records_series() {
        let mut app = app();
        for t in (10..=100).step_by(10) {
            app.sample_metrics(secs(t as f64));
        }
        assert!(app.metrics().queue_series(SERVER_GROUP_1).is_some());
        assert!(app.metrics().bandwidth_series("User3").is_some());
        assert!(app.metrics().latency_series("User1").is_some());
    }

    #[test]
    fn find_server_respects_bandwidth_threshold() {
        let mut app = app();
        // Saturate the path between the spare S4 (behind R3) and User3.
        app.set_competition_sg1(secs(0.0), 9.999e6).unwrap();
        // With an enormous threshold nothing qualifies for User3 via R2-R3,
        // but S7 (behind R4) still does.
        let found = app.find_server(Some("User3"), 1.0e6);
        assert_eq!(found, Some("S7".to_string()));
        // Without a client, the first spare by name is returned.
        assert_eq!(app.find_server(None, 0.0), Some("S4".to_string()));
    }
}
