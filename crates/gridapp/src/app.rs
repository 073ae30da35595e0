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
use monitoring::Key;
use rustc_hash::FxHashMap;
use simnet::{
    CompletedTransfer, NetError, Network, NodeId, SimDuration, SimRng, SimTime, TransferId,
};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Name of the first server group (S1–S3 behind router R3).
pub const SERVER_GROUP_1: &str = "ServerGrp1";
/// Name of the second server group (S5–S6 behind router R4).
pub const SERVER_GROUP_2: &str = "ServerGrp2";

/// Errors raised by application operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// Unknown client name.
    UnknownClient(Key),
    /// Unknown server name.
    UnknownServer(Key),
    /// Unknown server group name.
    UnknownGroup(Key),
    /// A known server group with no live active server to ask.
    NoActiveServers(Key),
    /// A network operation failed.
    Net(NetError),
    /// `activateServer()` on a server not connected to a queue.
    NotConnected(Key),
    /// A server disconnected while still active.
    StillActive(Key),
    /// `connectServer()` found no spare to recruit for the named replica.
    NoSpare(Key),
    /// A configuration, model or fault schedule that cannot be built.
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
            AppError::NoActiveServers(g) => write!(f, "server group {g} has no active servers"),
            AppError::Net(e) => write!(f, "network error: {e}"),
            AppError::NotConnected(s) => write!(
                f,
                "invalid operation: server {s} must be connected to a queue before activation"
            ),
            AppError::StillActive(s) => write!(
                f,
                "invalid operation: server {s} must be deactivated before it is disconnected"
            ),
            AppError::NoSpare(s) => {
                write!(f, "invalid operation: no spare server available for {s}")
            }
            AppError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

/// A client's position in the name-ordered client table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ClientId(u32);

/// A server's position in the name-ordered server table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ServerId(u32);

/// A server group's position in the group table, which is in creation order:
/// a queue created at runtime takes the next id and renumbers nobody.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupId(u32);

impl ClientId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

impl ServerId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

impl GroupId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

/// Every client starts on [`SERVER_GROUP_1`], the first group built.
const GROUP_1: GroupId = GroupId(0);
const GROUP_2: GroupId = GroupId(1);

#[derive(Debug)]
struct ClientState {
    host: NodeId,
    group: GroupId,
    next_request_at: SimTime,
    rate_per_sec: f64,
    response_bytes: f64,
    /// The client's own random stream (inter-arrival times, response sizes).
    rng: SimRng,
}

#[derive(Debug)]
struct ServerState {
    host: NodeId,
    group: Option<GroupId>,
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

impl ServerState {
    /// Whether the server is a live, active replica of `group`.
    fn serves(&self, group: GroupId) -> bool {
        self.active && self.up && self.group == Some(group)
    }

    /// Whether the server is in the pool `findServer` draws from.
    fn is_spare(&self) -> bool {
        !self.active && self.group.is_none() && self.up
    }
}

#[derive(Debug, Default)]
struct GroupState {
    queue: VecDeque<u64>,
    /// The servers currently able to pull work (assigned + active + up +
    /// neither busy nor sending); the first one is the first by name.
    idle: BTreeSet<ServerId>,
}

#[derive(Debug, Clone, Copy)]
enum RequestPhase {
    /// Request payload travelling from the client to the request-queue
    /// machine.
    ToQueue,
    /// Waiting in its group's FIFO queue.
    Queued,
    /// Being processed by a server.
    InService,
    /// Response payload travelling from `server` back to the client.
    ResponseInFlight {
        transfer: TransferId,
        server: ServerId,
    },
}

#[derive(Debug)]
struct RequestState {
    client: ClientId,
    group: GroupId,
    issued_at: SimTime,
    response_bytes: f64,
    phase: RequestPhase,
}

/// One server group as the probes see it.
pub(crate) struct GroupSample {
    pub(crate) group: Key,
    /// Requests waiting in the group's queue.
    pub(crate) queued: usize,
    /// The liveness census over the replicas assigned to the group: `live`
    /// ones are the group's active servers, `dead` ones have crashed and not
    /// been failed over.
    pub(crate) live: usize,
    pub(crate) dead: usize,
}

/// A completed request/response exchange, as observed by the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// Completion time.
    pub time: SimTime,
    /// The client that issued the request.
    pub client: Key,
    /// The server group that served it.
    pub group: Key,
    /// End-to-end latency in seconds.
    pub latency_secs: f64,
}

/// The running client/server grid application.
///
/// **Identity.** Inside the application a client, a server and a server
/// group *are* dense ids: `ClientId` and `ServerId` are positions in the
/// name-ordered name tables, so `User10 < User2` holds for the ids as it does
/// for the names and sorting ids is sorting names; `GroupId`s are handed out
/// in creation order (a queue created at runtime renumbers nobody) and
/// `group_order` keeps them name-ordered for iteration. All per-entity state
/// is a `Vec` indexed by id, a request carries the ids of its client, its
/// group and (while the reply is in flight) its transmitting server, and the
/// due-time calendars hold ids. Names exist only at the boundary: the public
/// API takes a name as an interned [`Key`] (text is interned on the way in)
/// and resolves it once, by binary search over the name table, and every
/// name-order guarantee it makes (`client_names`, `group_names`, processing
/// order among simultaneously due entities, first idle server of a group) is
/// id order underneath.
///
/// **Names.** Each name table holds interned [`Key`]s, interned once where
/// the entity is created (`build`, and `create_req_queue` for a runtime
/// group) — never per event: interning takes a process-wide lock. What
/// crosses the crate boundary per event or per tick — [`CompletedRequest`],
/// [`FlowSnapshot`] rows, the probes' measurements — carries those keys by
/// copy, and a `Key` orders as its string does, so name order is unchanged.
///
/// **What still allocates per request.** The event loop (`advance`) makes no
/// `String` and no `Vec` of its own, and a completed request leaves the
/// crate as a `Copy` value. With an enabled sink attached, the
/// [`tracestore::EventRef`] of a completed request borrows its two interned
/// names, and the sink encodes it on arrival. The rest is amortised growth of
/// long-lived buffers (the latency series, the request table, and the
/// completion list until it holds one tick's worth:
/// [`drain_completions`](Self::drain_completions) empties it in place).
pub struct GridApp {
    config: GridConfig,
    testbed: Testbed,
    /// Shares the testbed's one `Topology`; the live link state is its own.
    network: Network,
    /// Client names in name order; a `ClientId` indexes this and `clients`.
    client_names: Vec<Key>,
    clients: Vec<ClientState>,
    /// Server names in name order; a `ServerId` indexes this and `servers`.
    server_names: Vec<Key>,
    servers: Vec<ServerState>,
    /// Group names in creation order; a `GroupId` indexes this and `groups`.
    group_names: Vec<Key>,
    groups: Vec<GroupState>,
    /// Every group id, ordered by group name.
    group_order: Vec<GroupId>,
    requests: FxHashMap<u64, RequestState>,
    next_request_id: u64,
    now: SimTime,
    metrics: Metrics,
    completions: Vec<CompletedRequest>,
    /// `(next_request_at, client)` for every client with a positive rate.
    request_due: DueQueue,
    /// `(service-finish, server)` mirroring every `ServerState::busy`.
    service_due: DueQueue,
    /// Scratch for calendar-queue due collection and for delivered
    /// transfers, reused across steps.
    due_scratch: Vec<(SimTime, u32)>,
    delivered_scratch: Vec<CompletedTransfer>,
    /// Where transfer-lifecycle observations go; the default `NullSink` is
    /// disabled, so emission costs nothing unless a collector is attached.
    sink: tracestore::SharedSink,
    /// Lifetime `(machine, group)` memo hits/misses across
    /// [`flow_snapshot`](Self::flow_snapshot) calls (cells: the snapshot
    /// takes `&self`). Observability only.
    flow_memo_hits: std::cell::Cell<u64>,
    flow_memo_misses: std::cell::Cell<u64>,
    /// [`flow_snapshot`](Self::flow_snapshot)'s `(machine, group)` memo,
    /// cleared at the start of each call and kept so that its table is
    /// allocated once, not per tick.
    flow_memo: std::cell::RefCell<FxHashMap<(NodeId, GroupId), Option<f64>>>,
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

/// Rejects a workload number the event loop cannot honour. A payload size,
/// request rate, response-size jitter or service time that is NaN or
/// negative would otherwise become a 1-bit transfer, a client that stops
/// after one request, jitter silently read as 0, or a panic at the first
/// dispatch; an infinite one is rejected too.
fn check_workload(config: &GridConfig) -> Result<(), AppError> {
    let fields = [
        ("request_bytes", config.request_bytes),
        ("response_bytes", config.response_bytes),
        ("request_rate_per_client", config.request_rate_per_client),
        ("response_size_jitter", config.response_size_jitter),
        ("service_time_secs", config.service_time_secs),
    ];
    match fields.iter().find(|(_, v)| !(v.is_finite() && *v >= 0.0)) {
        Some((name, v)) => Err(AppError::Invalid(format!(
            "GridConfig::{name} must be a finite, non-negative number, not {v}"
        ))),
        None => Ok(()),
    }
}

/// Splits `(name, state)` pairs into a table of interned names and a state
/// table, both in name order.
fn name_ordered<T>(mut named: Vec<(String, T)>) -> (Vec<Key>, Vec<T>) {
    named.sort_by(|a, b| a.0.cmp(&b.0));
    let named = named.into_iter();
    named.map(|(name, state)| (Key::new(&name), state)).unzip()
}

impl GridApp {
    /// Builds the configured deployment (paper default: six clients all
    /// served by Server Group 1 (S1–S3), Server Group 2 (S5–S6) idle, S4 and
    /// S7 held as spare servers) on the testbed named by
    /// [`GridConfig::testbed`]. A payload size, request rate, response-size
    /// jitter or service time that is not a finite, non-negative number is
    /// rejected with [`AppError::Invalid`] naming the field.
    pub fn build(config: GridConfig) -> Result<GridApp, AppError> {
        check_workload(&config)?;
        let testbed =
            Testbed::from_spec(&config.testbed).map_err(|e| AppError::Invalid(e.to_string()))?;
        let network = Network::new(Arc::clone(&testbed.topology));
        let root_rng = SimRng::seed_from_u64(config.seed);
        // Stagger the first requests so clients do not fire in lockstep. At
        // fleet scale a one-second window would still dump every client's
        // opening request into the first second (a 50k-request thundering
        // herd); spread the starts over one mean inter-arrival instead so the
        // opening load matches steady state.
        let stagger = if testbed.is_fleet_scale() {
            (1.0 / config.request_rate_per_client.max(1e-9)).max(1.0)
        } else {
            1.0
        };

        let mut clients = Vec::with_capacity(testbed.num_clients());
        for (i, slot) in (1u64..).zip(&testbed.client_hosts) {
            let mut rng = root_rng.derive(i);
            let state = ClientState {
                host: slot_host(i, slot)?,
                group: GROUP_1,
                next_request_at: SimTime::from_secs(rng.uniform_range(0.1, stagger)),
                rate_per_sec: config.request_rate_per_client,
                response_bytes: config.response_bytes,
                rng,
            };
            clients.push((format!("User{i}"), state));
        }
        let (client_names, clients) = name_ordered(clients);

        let mut servers = Vec::with_capacity(testbed.server_hosts.len());
        for (i, &host) in testbed.server_hosts.iter().enumerate() {
            let name = format!("S{}", i + 1);
            let group = if testbed.sg1_servers.contains(&name) {
                Some(GROUP_1)
            } else if testbed.sg2_servers.contains(&name) {
                Some(GROUP_2)
            } else {
                None // spare
            };
            let state = ServerState {
                host,
                group,
                active: group.is_some(),
                up: true,
                busy: None,
                sending: None,
                served: 0,
            };
            servers.push((name, state));
        }
        let (server_names, servers) = name_ordered(servers);

        let mut groups = vec![GroupState::default(), GroupState::default()];
        for (server, state) in (0u32..).zip(&servers) {
            if let Some(group) = state.group {
                groups[group.ix()].idle.insert(ServerId(server));
            }
        }
        let mut request_due = DueQueue::new();
        for (client, state) in (0u32..).zip(&clients) {
            if state.rate_per_sec > 0.0 {
                request_due.insert(state.next_request_at, client);
            }
        }

        Ok(GridApp {
            config,
            testbed,
            network,
            client_names,
            clients,
            server_names,
            servers,
            group_names: vec![Key::new(SERVER_GROUP_1), Key::new(SERVER_GROUP_2)],
            groups,
            group_order: vec![GROUP_1, GROUP_2],
            requests: FxHashMap::default(),
            next_request_id: 0,
            now: SimTime::ZERO,
            metrics: Metrics::new(),
            completions: Vec::new(),
            request_due,
            service_due: DueQueue::new(),
            due_scratch: Vec::new(),
            delivered_scratch: Vec::new(),
            sink: tracestore::null_sink(),
            flow_memo_hits: std::cell::Cell::new(0),
            flow_memo_misses: std::cell::Cell::new(0),
            flow_memo: Default::default(),
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

    // ---- names at the boundary ---------------------------------------------
    //
    // Each kind has one lookup, by interned key: a search of its name-ordered
    // keys, which `Key`'s string order keeps sorted. A caller holding a key
    // (the control loop, the planner) passes it as it is; one holding text
    // interns it on the way in.

    fn client_id(&self, client: Key) -> Result<ClientId, AppError> {
        let found = self.client_names.binary_search(&client);
        found
            .map(|i| ClientId(i as u32))
            .map_err(|_| AppError::UnknownClient(client))
    }

    fn server_id(&self, server: Key) -> Result<ServerId, AppError> {
        let found = self.server_names.binary_search(&server);
        found
            .map(|i| ServerId(i as u32))
            .map_err(|_| AppError::UnknownServer(server))
    }

    /// Where `group` sits in `group_order`, or where it would be inserted.
    fn group_rank(&self, group: Key) -> Result<usize, usize> {
        self.group_order
            .binary_search_by(|&g| self.group_names[g.ix()].cmp(&group))
    }

    fn group_id(&self, group: Key) -> Result<GroupId, AppError> {
        self.group_rank(group)
            .map(|at| self.group_order[at])
            .map_err(|_| AppError::UnknownGroup(group))
    }

    /// Names of the servers `keep` accepts, in name order.
    fn server_names_where<'a>(
        &'a self,
        keep: impl Fn(&ServerState) -> bool + 'a,
    ) -> impl Iterator<Item = Key> + 'a {
        let named = self.servers.iter().zip(&self.server_names);
        named
            .filter(move |(state, _)| keep(state))
            .map(|(_, &name)| name)
    }

    /// Re-derives a server's membership in its group's idle set from its
    /// authoritative state. Must be called after any change to a server's
    /// `active`/`up`/`busy`/`sending` flags (group changes additionally
    /// remove the server from the old group's set first).
    fn refresh_idle(&mut self, server: ServerId) {
        let state = &self.servers[server.ix()];
        let Some(group) = state.group else {
            return;
        };
        let eligible = state.active && state.up && state.busy.is_none() && state.sending.is_none();
        let idle = &mut self.groups[group.ix()].idle;
        if eligible {
            idle.insert(server);
        } else {
            idle.remove(&server);
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
        self.client_names.iter().map(Key::to_string).collect()
    }

    /// Names of all server groups, in name order.
    pub fn group_names(&self) -> Vec<Key> {
        let ordered = self.group_order.iter();
        ordered.map(|g| self.group_names[g.ix()]).collect()
    }

    /// Names of all servers.
    pub fn server_names(&self) -> Vec<String> {
        self.server_names.iter().map(Key::to_string).collect()
    }

    /// The machine a named client runs on.
    pub fn client_host(&self, client: impl Into<Key>) -> Option<NodeId> {
        self.client_id(client.into())
            .ok()
            .map(|id| self.clients[id.ix()].host)
    }

    /// The machine a named server runs on.
    pub fn server_host(&self, server: impl Into<Key>) -> Option<NodeId> {
        self.server_id(server.into())
            .ok()
            .map(|id| self.servers[id.ix()].host)
    }

    /// The server group a client currently sends to.
    pub fn client_group(&self, client: impl Into<Key>) -> Result<Key, AppError> {
        let group = self.clients[self.client_id(client.into())?.ix()].group;
        Ok(self.group_names[group.ix()])
    }

    /// Every client with the server group it currently sends to, as interned
    /// names, in client name order.
    pub fn assignments(&self) -> impl Iterator<Item = (Key, Key)> + '_ {
        let groups = self.clients.iter().map(|c| self.group_names[c.group.ix()]);
        self.client_names.iter().copied().zip(groups)
    }

    /// A client, named by its interned key, and the server group it
    /// currently sends to, as the interned names every [`FlowSnapshot`] row
    /// and [`CompletedRequest`] carries.
    pub fn assignment(&self, client: Key) -> Result<(Key, Key), AppError> {
        let id = self.client_id(client)?;
        let group = self.clients[id.ix()].group;
        Ok((self.client_names[id.ix()], self.group_names[group.ix()]))
    }

    /// The current queue length of a server group.
    pub fn queue_length(&self, group: impl Into<Key>) -> Result<usize, AppError> {
        let group = self.group_id(group.into())?;
        Ok(self.groups[group.ix()].queue.len())
    }

    /// Names of the live, active servers currently assigned to a group
    /// (crashed replicas do not count — they serve nothing).
    pub fn active_servers(&self, group: impl Into<Key>) -> Vec<Key> {
        let hosts = self.active_server_hosts(group);
        hosts.map(|(name, _)| name).collect()
    }

    /// The live, active servers of a group with the machines they run on,
    /// in name order; none for an unknown group.
    pub fn active_server_hosts(
        &self,
        group: impl Into<Key>,
    ) -> impl Iterator<Item = (Key, NodeId)> + '_ {
        let group = self.group_id(group.into()).ok();
        let named = self.servers.iter().zip(&self.server_names);
        named
            .filter(move |(state, _)| group.is_some_and(|group| state.serves(group)))
            .map(|(state, &name)| (name, state.host))
    }

    /// Whether a server's runtime process is alive.
    pub fn server_is_up(&self, server: impl Into<Key>) -> Result<bool, AppError> {
        Ok(self.servers[self.server_id(server.into())?.ix()].up)
    }

    /// A group's liveness census: `(live, dead)` counts over the replicas
    /// assigned to it (active flag set). `dead` replicas have crashed and
    /// not yet been failed over.
    pub fn group_liveness(&self, group: impl Into<Key>) -> (usize, usize) {
        let group = self.group_id(group.into());
        group.map_or((0, 0), |id| self.census(id))
    }

    fn census(&self, group: GroupId) -> (usize, usize) {
        let (mut live, mut dead) = (0, 0);
        for s in &self.servers {
            if s.active && s.group == Some(group) {
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
    pub fn served_by(&self, server: impl Into<Key>) -> u64 {
        self.server_id(server.into())
            .map_or(0, |id| self.servers[id.ix()].served)
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
    /// probe). The list keeps its capacity, so a caller that drains every tick
    /// stops it regrowing from empty.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, CompletedRequest> {
        self.completions.drain(..)
    }

    /// Every server group as the probes see it right now, in group-name order.
    pub(crate) fn sample_groups(&self) -> impl Iterator<Item = GroupSample> + '_ {
        self.group_order.iter().map(|&id| {
            let (live, dead) = self.census(id);
            GroupSample {
                group: self.group_names[id.ix()],
                queued: self.groups[id.ix()].queue.len(),
                live,
                dead,
            }
        })
    }

    /// Every server and whether its process is alive, in server-name order.
    pub(crate) fn sample_servers(&self) -> impl Iterator<Item = (Key, bool)> + '_ {
        let states = self.servers.iter().map(|s| s.up);
        self.server_names.iter().copied().zip(states)
    }

    // ---- workload control --------------------------------------------------

    /// Sets every client's request rate (requests/second) and response size
    /// (bytes) — the knobs the Figure 7 schedule turns at 600 s.
    pub fn set_workload(&mut self, rate_per_sec: f64, response_bytes: f64) {
        // The due index only tracks clients with a positive rate.
        self.request_due.clear();
        for (id, client) in (0u32..).zip(&mut self.clients) {
            client.rate_per_sec = rate_per_sec.max(0.0);
            client.response_bytes = response_bytes.max(1.0);
            if client.rate_per_sec > 0.0 {
                self.request_due.insert(client.next_request_at, id);
            }
        }
    }

    /// Sets the competing background load (bits/second) on the R2–R3 link
    /// (between C3/C4 and Server Group 1).
    pub fn set_competition_sg1(&mut self, now: SimTime, bps: f64) {
        self.set_competition(now, self.testbed.link_c34_sg1, bps);
    }

    /// Sets the competing background load (bits/second) on the R2–R4 link
    /// (between C3/C4 and Server Group 2).
    pub fn set_competition_sg2(&mut self, now: SimTime, bps: f64) {
        self.set_competition(now, self.testbed.link_c34_sg2, bps);
    }

    fn set_competition(&mut self, now: SimTime, link: simnet::LinkId, bps: f64) {
        self.advance(now);
        // The only error is `NetError` for an unknown link, and both
        // competition links are links `Testbed::from_spec` built.
        self.network
            .set_background_on_link(now, link, bps)
            .expect("a competition link of the testbed");
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

    /// Abandons whatever a server is doing: the request in service is lost,
    /// and a reply in flight is torn down so the requester never hears back.
    fn abandon_work(&mut self, server: ServerId, now: SimTime) {
        let state = &mut self.servers[server.ix()];
        let (busy, sending) = (state.busy.take(), state.sending.take());
        if let Some((request, finish)) = busy {
            self.service_due.remove(finish, server.0);
            self.requests.remove(&request);
        }
        let reply = sending.and_then(|(request, _)| self.requests.remove(&request));
        if let Some(RequestPhase::ResponseInFlight { transfer, .. }) = reply.map(|r| r.phase) {
            let _ = self.network.cancel_transfer(now, transfer);
        }
    }

    /// Crashes a server process: it stops serving immediately, the request
    /// it was working on (or whose reply it was transmitting) is lost, and
    /// it no longer counts as live — but it keeps its group assignment, so
    /// the group's liveness census reports it as *assigned but dead* until a
    /// failover repair deactivates it.
    pub fn crash_server(&mut self, now: SimTime, server: impl Into<Key>) -> Result<(), AppError> {
        self.advance(now);
        let server = self.server_id(server.into())?;
        self.servers[server.ix()].up = false;
        self.abandon_work(server, now);
        self.refresh_idle(server);
        Ok(())
    }

    /// Restarts a crashed server process. If it still holds a group
    /// assignment and its activation flag it resumes pulling requests;
    /// a server that was failed over in the meantime (deactivated and
    /// disconnected) comes back as a spare.
    pub fn restart_server(&mut self, now: SimTime, server: impl Into<Key>) -> Result<(), AppError> {
        self.advance(now);
        let server = self.server_id(server.into())?;
        let state = &mut self.servers[server.ix()];
        state.up = true;
        let group = state.group.filter(|_| state.active);
        self.refresh_idle(server);
        if let Some(group) = group {
            self.dispatch_group(group, now);
        }
        Ok(())
    }

    /// Network fault mutations applied so far (capacity changes, one-way
    /// caps and node liveness flips; 0 for fault-free runs).
    pub fn network_mutation_count(&self) -> u64 {
        self.network.mutation_count()
    }

    // ---- Table 1 runtime operators ------------------------------------------

    /// `createReqQueue()`: adds a logical request queue for `group` to the
    /// request-queue machine.
    pub fn create_req_queue(&mut self, group: impl Into<Key>) {
        self.ensure_group(group.into());
    }

    /// The id of `group`, created with an empty queue if it is new.
    fn ensure_group(&mut self, group: Key) -> GroupId {
        match self.group_rank(group) {
            Ok(at) => self.group_order[at],
            Err(at) => {
                let id = GroupId(self.groups.len() as u32);
                self.group_names.push(group);
                self.groups.push(GroupState::default());
                self.group_order.insert(at, id);
                id
            }
        }
    }

    /// `findServer()`: the first spare (inactive, unassigned, alive) server
    /// by name.
    pub fn find_server(&self) -> Option<Key> {
        self.spare_servers().next()
    }

    /// The router a server's machine attaches to.
    fn attachment(&self, server: &ServerState) -> Option<NodeId> {
        let attachment = self.testbed.topology.attachment(server.host);
        attachment.map(|(node, _)| node)
    }

    /// Group-aware `findServer` used by repair recruitment: prefers a spare
    /// whose machine attaches to the same router as the group's current
    /// replicas (read from the group's first live active member in name
    /// order). Plain name order alone pulls whichever spare sorts first —
    /// on the scaled testbeds that hands an R3-attached spare (`S49`) to an
    /// R4 group, parking the recruit behind the wrong router and silently
    /// contaminating its server class's shared probes. Falls back to the
    /// name-order pick when no same-attachment spare qualifies (or the group
    /// is dead, empty or unknown); such a cross-attachment recruit keeps its
    /// own position class (an explicit class split — class-shared probing
    /// probes it separately rather than lumping it with the group's native
    /// replicas). So it finds a spare exactly when one exists.
    pub fn find_server_for_group(&self, group: impl Into<Key>) -> Option<Key> {
        let group = self.group_id(group.into()).ok();
        let replica = group.and_then(|g| self.servers.iter().find(|s| s.serves(g)));
        replica
            .and_then(|replica| self.attachment(replica))
            .and_then(|target| {
                let same_router =
                    |s: &ServerState| s.is_spare() && self.attachment(s) == Some(target);
                self.server_names_where(same_router).next()
            })
            .or_else(|| self.find_server())
    }

    /// Names of every live spare (inactive, unassigned) server, in name
    /// order — the pool `findServer` draws from. Counting them allocates
    /// nothing.
    pub fn spare_servers(&self) -> impl Iterator<Item = Key> + '_ {
        self.server_names_where(ServerState::is_spare)
    }

    /// `connectServer(srv, to)`: configures a server to pull requests from
    /// the given group's queue, creating the queue if it is new. An unknown
    /// server is an error that leaves no queue behind.
    pub fn connect_server(
        &mut self,
        server: impl Into<Key>,
        group: impl Into<Key>,
    ) -> Result<(), AppError> {
        let server = self.server_id(server.into())?;
        let group = self.ensure_group(group.into());
        let old_group = self.servers[server.ix()].group.replace(group);
        if let Some(old) = old_group.filter(|&old| old != group) {
            self.groups[old.ix()].idle.remove(&server);
        }
        self.refresh_idle(server);
        Ok(())
    }

    /// `activateServer()`: the server begins pulling requests from its queue.
    pub fn activate_server(&mut self, server: impl Into<Key>) -> Result<(), AppError> {
        let server = server.into();
        let id = self.server_id(server)?;
        let state = &mut self.servers[id.ix()];
        let Some(group) = state.group else {
            return Err(AppError::NotConnected(server));
        };
        state.active = true;
        self.refresh_idle(id);
        self.dispatch_group(group, self.now);
        Ok(())
    }

    /// `deactivateServer()`: the server stops pulling requests (it finishes
    /// the request currently in service).
    pub fn deactivate_server(&mut self, server: impl Into<Key>) -> Result<(), AppError> {
        let server = self.server_id(server.into())?;
        self.servers[server.ix()].active = false;
        self.refresh_idle(server);
        Ok(())
    }

    /// Disconnects a deactivated server from its queue, returning it to the
    /// spare pool.
    pub fn disconnect_server(&mut self, server: impl Into<Key>) -> Result<(), AppError> {
        let server = server.into();
        let id = self.server_id(server)?;
        let state = &mut self.servers[id.ix()];
        if state.active {
            return Err(AppError::StillActive(server));
        }
        if let Some(group) = state.group.take() {
            self.groups[group.ix()].idle.remove(&id);
        }
        Ok(())
    }

    /// `moveClient(newQ)`: future requests from the client go to the new
    /// group's queue (requests already queued are served where they are).
    pub fn move_client(
        &mut self,
        client: impl Into<Key>,
        to_group: impl Into<Key>,
    ) -> Result<(), AppError> {
        let to = self.group_id(to_group.into())?;
        let client = self.client_id(client.into())?;
        let state = &mut self.clients[client.ix()];
        state.group = to;
        self.assignment_generation += 1;
        Ok(())
    }

    /// `moveClientGroup(clients, newQ)`: the batched variant of
    /// [`move_client`](Self::move_client) used by the group-level planner.
    /// Every listed client is re-pointed at `to_group`'s queue in one pass,
    /// and — unlike the per-element operator — the clients' requests still
    /// *waiting* in their old queues migrate with them (the group move
    /// re-binds the queue routing entry, so queued work follows it).
    /// Requests already in service or in flight are unaffected. Returns the
    /// number of clients moved. The clients are the interned names the
    /// planner's class index holds, each found by key.
    pub fn move_clients(
        &mut self,
        clients: &[Key],
        to_group: impl Into<Key>,
    ) -> Result<usize, AppError> {
        let to = self.group_id(to_group.into())?;
        // Validate the whole batch before touching anything: a group move is
        // atomic, and a half-applied batch (some clients re-pointed, none of
        // their queued requests migrated) would be unobservable to the
        // caller behind the returned error.
        let moved: Result<BTreeSet<ClientId>, AppError> =
            clients.iter().map(|&c| self.client_id(c)).collect();
        let moved = moved?;
        self.assignment_generation += 1;
        for &client in &moved {
            self.clients[client.ix()].group = to;
        }
        // Migrate queued requests: scan every other queue in name order and
        // pull out the moved clients' waiting requests, preserving their
        // FIFO order within each source queue.
        let mut migrated: Vec<u64> = Vec::new();
        for &group in self.group_order.iter().filter(|&&g| g != to) {
            let requests = &self.requests;
            self.groups[group.ix()].queue.retain(|id| {
                let leaves = requests.get(id).is_some_and(|r| moved.contains(&r.client));
                if leaves {
                    migrated.push(*id);
                }
                !leaves
            });
        }
        for id in &migrated {
            if let Some(request) = self.requests.get_mut(id) {
                request.group = to;
            }
        }
        self.groups[to.ix()].queue.extend(migrated);
        self.dispatch_group(to, self.now);
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
    pub fn drain_server(&mut self, now: SimTime, server: impl Into<Key>) -> Result<(), AppError> {
        self.advance(now);
        let server = self.server_id(server.into())?;
        self.abandon_work(server, now);
        self.refresh_idle(server);
        if let Some(group) = self.servers[server.ix()].group {
            self.dispatch_group(group, now);
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
    pub fn stuck_sending_servers(&self, group: impl Into<Key>, min_age_secs: f64) -> Vec<Key> {
        let Ok(group) = self.group_id(group.into()) else {
            return Vec::new();
        };
        let now = self.now;
        let stuck = self.server_names_where(|s| {
            let stuck = |(_, since)| now.since(since).as_secs() > min_age_secs;
            s.serves(group) && s.sending.is_some_and(stuck)
        });
        stuck.collect()
    }

    /// Predicted bandwidth of a new flow from one named server's machine to
    /// one named client's machine: [`host_bandwidth`](Self::host_bandwidth)
    /// between the two machines.
    pub fn available_bandwidth_between(&self, server: &str, client: &str) -> Result<f64, AppError> {
        let server_host = self.servers[self.server_id(server.into())?.ix()].host;
        let client_host = self.clients[self.client_id(client.into())?.ix()].host;
        Ok(self.host_bandwidth(server_host, client_host))
    }

    /// Predicted bandwidth of a new flow from a server machine to a client
    /// machine, 0 when the network cannot route it — the single Remos pair
    /// query every probe goes through.
    /// [`remos_get_flow`](Self::remos_get_flow) folds its per-server maximum
    /// over it, and the symmetry-aware probe sharing asks it once per
    /// network-position class representative instead of once per server.
    pub fn host_bandwidth(&self, server_host: NodeId, client_host: NodeId) -> f64 {
        let bandwidth = self.network.available_bandwidth(server_host, client_host);
        bandwidth.unwrap_or(0.0)
    }

    /// Lifetime number of probe queries the underlying network's per-epoch
    /// `(src, dst)` pair memo missed — the measurement behind the "probe
    /// sampling per tick" figures. A miss the network's shape memo answered
    /// without a fill counts too.
    pub fn probe_solve_count(&self) -> u64 {
        self.network.probe_solve_count()
    }

    /// Lifetime number of probe queries (memo hits included) the underlying
    /// network has answered; minus [`probe_solve_count`](Self::probe_solve_count)
    /// it gives the per-epoch pair memo's hit count.
    pub fn probe_query_count(&self) -> u64 {
        self.network.probe_query_count()
    }

    /// Lifetime number of allocation epochs the underlying network has
    /// settled, solved or restored.
    pub fn rate_epoch_count(&self) -> u64 {
        self.network.rate_epoch_count()
    }

    /// Lifetime number of those epochs that ran a max-min solve.
    pub fn rate_solve_count(&self) -> u64 {
        self.network.rate_solve_count()
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
    /// group's active servers to the client. A known group with no live
    /// active server is [`AppError::NoActiveServers`].
    pub fn remos_get_flow(
        &self,
        client: impl Into<Key>,
        group: impl Into<Key>,
    ) -> Result<f64, AppError> {
        let client_host = self.clients[self.client_id(client.into())?.ix()].host;
        let group = group.into();
        let id = self.group_id(group)?;
        self.flow_to(client_host, id)
            .ok_or(AppError::NoActiveServers(group))
    }

    /// The best available bandwidth from any live active server of `group`
    /// (probed in name order) to a client machine; `None` without one.
    fn flow_to(&self, client_host: NodeId, group: GroupId) -> Option<f64> {
        let mut best: Option<f64> = None;
        for server in self.servers.iter().filter(|s| s.serves(group)) {
            let bw = self.host_bandwidth(server.host, client_host);
            best = Some(best.unwrap_or(0.0).max(bw));
        }
        best
    }

    // ---- simulation driving --------------------------------------------------

    /// The earliest future time at which something happens inside the
    /// application (a client issuing a request, a transfer completing, a
    /// server finishing service).
    ///
    /// Answered from the due-time indices in `O(log n)` instead of scanning
    /// every client and server.
    pub fn next_event_time(&self) -> Option<SimTime> {
        [
            self.request_due.min_time(),
            self.service_due.min_time(),
            self.network.next_event_time(self.now),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Advances the application to `now`, processing every internal event in
    /// chronological order.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.now {
            return;
        }
        while let Some(t) = self.next_event_time().filter(|&t| t <= now) {
            self.process_due(t);
        }
        self.now = now;
    }

    fn process_due(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        let mut due = std::mem::take(&mut self.due_scratch);

        // 1. Clients whose next request is due, in name (= id) order.
        due.clear();
        self.request_due.collect_due(t, &mut due);
        due.sort_unstable_by_key(|&(_, client)| client);
        for &(_, client) in &due {
            self.issue_request(ClientId(client), t);
        }

        // 2. Network transfers that have completed by now.
        let mut delivered = std::mem::take(&mut self.delivered_scratch);
        self.network.poll_completions_into(t, &mut delivered);
        for done in delivered.drain(..) {
            self.handle_transfer_complete(done.tag, done.delivered);
        }
        self.delivered_scratch = delivered;

        // 3. Servers whose service completes, again in name (= id) order.
        due.clear();
        self.service_due.collect_due(t, &mut due);
        due.sort_unstable_by_key(|&(_, server)| server);
        for &(finish, server) in &due {
            self.finish_service(ServerId(server), finish);
        }
        self.due_scratch = due;
    }

    fn issue_request(&mut self, id: ClientId, t: SimTime) {
        let jitter = self.config.response_size_jitter;
        let client = &mut self.clients[id.ix()];
        let response_bytes = if jitter > 0.0 {
            client.rng.normal_clamped(
                client.response_bytes,
                client.response_bytes * jitter,
                client.response_bytes * 0.25,
            )
        } else {
            client.response_bytes
        };
        let interval = client.rng.exponential(client.rate_per_sec.max(1e-9));
        self.request_due.remove(client.next_request_at, id.0);
        client.next_request_at = t + SimDuration::from_secs(interval);
        if client.rate_per_sec > 0.0 {
            self.request_due.insert(client.next_request_at, id.0);
        }
        let request = self.next_request_id;
        self.next_request_id += 1;
        self.network
            .start_transfer(
                t,
                client.host,
                self.testbed.host_request_queue,
                self.config.request_bytes,
                request,
            )
            .expect("request transfer starts");
        self.requests.insert(
            request,
            RequestState {
                client: id,
                group: client.group,
                issued_at: t,
                response_bytes,
                phase: RequestPhase::ToQueue,
            },
        );
    }

    fn handle_transfer_complete(&mut self, request_id: u64, delivered: SimTime) {
        let Some(request) = self.requests.get_mut(&request_id) else {
            return;
        };
        match request.phase {
            RequestPhase::ToQueue => {
                // The request has reached the request-queue machine; it is
                // split into the queue of the client's *current* server group.
                let group = self.clients[request.client.ix()].group;
                request.group = group;
                request.phase = RequestPhase::Queued;
                self.groups[group.ix()].queue.push_back(request_id);
                self.dispatch_group(group, delivered);
            }
            RequestPhase::ResponseInFlight { server, .. } => {
                let request = self.requests.remove(&request_id).expect("request exists");
                let latency = delivered.since(request.issued_at).as_secs();
                // The reply has been delivered: the transmitting server is
                // free again and can pull the next queued request.
                let state = &mut self.servers[server.ix()];
                state.sending = None;
                let serving = state.group;
                self.refresh_idle(server);
                if let Some(group) = serving {
                    self.dispatch_group(group, delivered);
                }
                let client = self.client_names[request.client.ix()];
                let group = self.group_names[request.group.ix()];
                self.metrics
                    .record_latency(delivered.as_secs(), client.as_str(), latency);
                if self.sink.enabled() {
                    self.sink.append(
                        tracestore::EventRef::new(
                            delivered.as_secs(),
                            tracestore::EventKind::Transfer,
                            client.as_str(),
                            group.as_str(),
                        )
                        .with_value(latency)
                        .with_correlation(request_id),
                    );
                }
                self.completions.push(CompletedRequest {
                    time: delivered,
                    client,
                    group,
                    latency_secs: latency,
                });
            }
            RequestPhase::Queued | RequestPhase::InService => {
                // Transfers only exist in the two phases handled above.
            }
        }
    }

    /// Hands queued requests of `group` to its idle servers, first by name
    /// first, until one of the two runs out.
    fn dispatch_group(&mut self, group: GroupId, now: SimTime) {
        let finish = now + SimDuration::from_secs(self.config.service_time_secs);
        loop {
            let state = &mut self.groups[group.ix()];
            if state.queue.is_empty() {
                return;
            }
            let Some(server) = state.idle.pop_first() else {
                return;
            };
            let request_id = state.queue.pop_front().expect("queue non-empty");
            if let Some(request) = self.requests.get_mut(&request_id) {
                request.phase = RequestPhase::InService;
            }
            self.servers[server.ix()].busy = Some((request_id, finish));
            self.service_due.insert(finish, server.0);
        }
    }

    fn finish_service(&mut self, server: ServerId, finish: SimTime) {
        let state = &mut self.servers[server.ix()];
        let (request_id, _) = state.busy.take().expect("index mirrors busy");
        // The server now transmits the reply; it stays occupied until the
        // last byte reaches the client.
        state.sending = Some((request_id, finish));
        state.served += 1;
        self.service_due.remove(finish, server.0);
        if let Some(request) = self.requests.get_mut(&request_id) {
            let transfer = self
                .network
                .start_transfer(
                    finish,
                    state.host,
                    self.clients[request.client.ix()].host,
                    request.response_bytes,
                    request_id,
                )
                .expect("response transfer starts");
            request.phase = RequestPhase::ResponseInFlight { transfer, server };
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
        let mut memo = self.flow_memo.borrow_mut();
        memo.clear();
        let mut entries = Vec::with_capacity(self.clients.len());
        for (&name, client) in self.client_names.iter().zip(&self.clients) {
            let key = (client.host, client.group);
            let flow = match memo.get(&key) {
                Some(&cached) => {
                    self.flow_memo_hits.set(self.flow_memo_hits.get() + 1);
                    cached
                }
                None => {
                    self.flow_memo_misses.set(self.flow_memo_misses.get() + 1);
                    let value = self.flow_to(client.host, client.group);
                    memo.insert(key, value);
                    value
                }
            };
            entries.push((name, self.group_names[client.group.ix()], flow));
        }
        FlowSnapshot { entries }
    }

    /// Records the current queue lengths and, from an already-taken
    /// [`FlowSnapshot`], per-client available bandwidth into the metrics
    /// store. The control loop calls it once per period (the latency series
    /// is recorded per completed request instead).
    pub fn sample_metrics_with_flows(&mut self, now: SimTime, flows: &FlowSnapshot) {
        self.advance(now);
        let t = now.as_secs();
        for &group in &self.group_order {
            let queued = self.groups[group.ix()].queue.len();
            let name = self.group_names[group.ix()].as_str();
            self.metrics.record_queue_length(t, name, queued);
        }
        for (client, _, flow) in flows.entries() {
            if let Some(bw) = flow {
                self.metrics.record_bandwidth(t, client.as_str(), *bw);
            }
        }
    }
}

/// One control tick's shared view of every client's predicted bandwidth:
/// `(client, current group, Remos flow)` in client-name order, with `None`
/// where the query failed (e.g. the group has no live server).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSnapshot {
    entries: Vec<(Key, Key, Option<f64>)>,
}

impl FlowSnapshot {
    /// Builds a snapshot from pre-computed rows. The rows must be in
    /// client-name order with one entry per client — the contract every
    /// consumer of [`entries`](Self::entries) assumes. Used by the
    /// symmetry-aware class probing, which computes one Remos flow per
    /// network-position class and fans it out to every member.
    pub fn from_entries(entries: Vec<(Key, Key, Option<f64>)>) -> FlowSnapshot {
        FlowSnapshot { entries }
    }

    /// The snapshot rows, in client-name order.
    pub fn entries(&self) -> &[(Key, Key, Option<f64>)] {
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
            assert_eq!(app.client_host(format!("User{i}")), Some(*host));
        }
    }

    #[test]
    fn build_rejects_a_workload_number_the_event_loop_cannot_honour() {
        type Field = fn(&mut GridConfig) -> &mut f64;
        let fields: [(&str, Field); 5] = [
            ("request_bytes", |c| &mut c.request_bytes),
            ("response_bytes", |c| &mut c.response_bytes),
            ("request_rate_per_client", |c| {
                &mut c.request_rate_per_client
            }),
            ("response_size_jitter", |c| &mut c.response_size_jitter),
            ("service_time_secs", |c| &mut c.service_time_secs),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, -1.0, -0.5e-9, f64::INFINITY, f64::NEG_INFINITY] {
                let mut config = GridConfig::default();
                *field(&mut config) = bad;
                match GridApp::build(config).err() {
                    Some(AppError::Invalid(message)) => {
                        assert!(message.contains(name), "{name} = {bad}: {message}")
                    }
                    other => panic!("{name} = {bad}: {other:?}"),
                }
            }
            let mut config = GridConfig::default();
            *field(&mut config) = 0.0;
            assert!(GridApp::build(config).is_ok(), "{name} = 0 is a number");
        }
    }

    #[test]
    fn group_aware_recruit_prefers_a_same_attachment_spare() {
        let mut app =
            GridApp::build(GridConfig::with_testbed(crate::TestbedSpec::large_scale())).unwrap();
        let attach = |app: &GridApp, s: Key| {
            let host = app.server_host(s).unwrap();
            app.testbed().topology.attachment(host).unwrap().0
        };
        // The name-order-first spare hangs off SG1's router, so a
        // group-blind SG2 recruit would cross attachments — parking the
        // new replica behind the wrong router and breaking the group's
        // position symmetry.
        let name_order_pick = app.find_server().unwrap();
        let group_pick = app.find_server_for_group(SERVER_GROUP_2).unwrap();
        let sg2_attach = attach(&app, app.active_servers(SERVER_GROUP_2)[0]);
        assert_ne!(attach(&app, name_order_pick), sg2_attach);
        assert_eq!(attach(&app, group_pick), sg2_attach);
        // Recruit it: the group keeps a single attachment signature, so its
        // server class count stays stable (no forced class split).
        app.connect_server(group_pick, SERVER_GROUP_2).unwrap();
        app.activate_server(group_pick).unwrap();
        let attachments: std::collections::BTreeSet<_> = app
            .active_servers(SERVER_GROUP_2)
            .iter()
            .map(|&s| attach(&app, s))
            .collect();
        assert_eq!(attachments.len(), 1);
        // SG1 recruiting is unchanged: the name-order pick already sits on
        // SG1's router.
        assert_eq!(
            app.find_server_for_group(SERVER_GROUP_1).unwrap(),
            name_order_pick
        );
        // A group with no live replicas falls back to the name-order scan.
        assert!(app.find_server_for_group("NoSuchGroup").is_some());
    }

    #[test]
    fn initial_deployment_matches_the_paper() {
        let app = app();
        assert_eq!(app.client_names().len(), 6);
        assert_eq!(app.active_servers(SERVER_GROUP_1), vec!["S1", "S2", "S3"]);
        assert_eq!(app.active_servers(SERVER_GROUP_2), vec!["S5", "S6"]);
        // S4 and S7 are spares.
        assert_eq!(app.find_server(), Some("S4".into()));
        assert_eq!(app.spare_servers().collect::<Vec<_>>(), ["S4", "S7"]);
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
            let completions: Vec<_> = app.drain_completions().collect();
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
        app.set_competition_sg1(secs(1.0), 9.9e6);
        let squeezed = app.remos_get_flow("User5", SERVER_GROUP_1).unwrap();
        let unaffected = app.remos_get_flow("User1", SERVER_GROUP_1).unwrap();
        assert!(squeezed < before / 10.0);
        assert!(unaffected > squeezed * 10.0);
    }

    #[test]
    fn requests_complete_with_low_latency_when_unloaded() {
        let mut app = app();
        app.advance(secs(60.0));
        let completions: Vec<_> = app.drain_completions().collect();
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
            .drain_completions()
            .map(|c| (c.client, (c.latency_secs * 1e9) as u64))
            .collect();
        let lb: Vec<_> = b
            .drain_completions()
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
            .drain_completions()
            .map(|c| (c.latency_secs * 1e9) as u64)
            .collect();
        let lb: Vec<u64> = b
            .drain_completions()
            .map(|c| (c.latency_secs * 1e9) as u64)
            .collect();
        assert_ne!(la, lb);
    }

    #[test]
    fn bandwidth_squeeze_raises_latency_for_c3_c4() {
        let mut app = app();
        app.advance(secs(30.0));
        app.drain_completions();
        // Squeeze the R2-R3 link to ~5 Kbps: User3/User4 responses crawl.
        app.set_competition_sg1(secs(30.0), 9.995e6);
        app.advance(secs(150.0));
        let completions: Vec<_> = app.drain_completions().collect();
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
        app.set_competition_sg1(secs(0.0), 9.995e6);
        app.advance(secs(100.0));
        app.drain_completions();
        // Move the affected clients to Server Group 2.
        app.move_client("User3", SERVER_GROUP_2).unwrap();
        app.move_client("User4", SERVER_GROUP_2).unwrap();
        app.advance(secs(160.0));
        // Give in-flight stragglers time to flush, then look at fresh traffic.
        app.drain_completions();
        app.advance(secs(260.0));
        let after: Vec<_> = app.drain_completions().collect();
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
        let spare = app.find_server().unwrap();
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
        let served_before: u64 = ["S1", "S2", "S3"].map(|s| app.served_by(s)).iter().sum();
        app.advance(secs(40.0));
        // Queue grows because nothing serves ServerGrp1 any more.
        assert!(app.queue_length(SERVER_GROUP_1).unwrap() > 0);
        app.advance(secs(60.0));
        let served_after: u64 = ["S1", "S2", "S3"].map(|s| app.served_by(s)).iter().sum();
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
        assert_eq!(app.find_server(), Some("S7".into()));
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
        app.drain_completions();
        // Nothing serves the queue: it only grows.
        let wedged = app.queue_length(SERVER_GROUP_1).unwrap();
        assert!(wedged > 0, "queue grows with no live server");
        app.advance(secs(90.0));
        assert_eq!(app.drain_completions().count(), 0, "nothing while wedged");
        // Restart: the replicas resume where they were assigned and the
        // backlog drains.
        for server in ["S1", "S2", "S3"] {
            app.restart_server(secs(90.0), server).unwrap();
        }
        assert_eq!(app.group_liveness(SERVER_GROUP_1), (3, 0));
        app.advance(secs(200.0));
        assert!(app.drain_completions().count() > 0);
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
        assert_eq!(app.find_server(), Some("S4".into()));
        app.restart_server(secs(50.0), "S2").unwrap();
        assert_eq!(app.find_server(), Some("S2".into()));
    }

    #[test]
    fn node_down_hook_stalls_traffic_until_the_node_returns() {
        let mut app = app();
        app.advance(secs(10.0));
        app.drain_completions();
        // Take Server Group 1's router (R3) down: SG1 becomes unreachable.
        let r3 = app.testbed().routers[2];
        app.set_node_down(secs(10.0), r3, true).unwrap();
        let bw = app.remos_get_flow("User1", SERVER_GROUP_1).unwrap();
        assert!(bw <= 1.0, "SG1 unreachable through a down router: {bw}");
        app.set_node_down(secs(40.0), r3, false).unwrap();
        let bw = app.remos_get_flow("User1", SERVER_GROUP_1).unwrap();
        assert!(bw > 1.0e5, "bandwidth returns with the router: {bw}");
        // Both mutations reached the network.
        assert_eq!(app.network_mutation_count(), 2);
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
        app.set_competition_sg1(secs(1.0), 9.9e6);
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
    fn a_known_group_without_a_live_active_server_is_its_own_error() {
        let mut app = app();
        for server in app.active_servers(SERVER_GROUP_2) {
            app.crash_server(secs(5.0), server).unwrap();
        }
        let error = app.remos_get_flow("User3", SERVER_GROUP_2).unwrap_err();
        assert_eq!(error, AppError::NoActiveServers(SERVER_GROUP_2.into()));
        assert_eq!(
            error.to_string(),
            "server group ServerGrp2 has no active servers"
        );
        assert_eq!(
            app.remos_get_flow("User3", "Nowhere"),
            Err(AppError::UnknownGroup("Nowhere".into()))
        );
        assert!(app.remos_get_flow("User3", SERVER_GROUP_1).is_ok());
    }

    #[test]
    fn runtime_op_failures_keep_their_logged_text() {
        let cases = [
            (
                AppError::NotConnected("S4".into()),
                "invalid operation: server S4 must be connected to a queue before activation",
            ),
            (
                AppError::StillActive("S1".into()),
                "invalid operation: server S1 must be deactivated before it is disconnected",
            ),
            (
                AppError::NoSpare("S7".into()),
                "invalid operation: no spare server available for S7",
            ),
        ];
        for (error, text) in cases {
            assert_eq!(error.to_string(), text);
        }
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
        assert_eq!(
            app.activate_server("S4"),
            Err(AppError::NotConnected("S4".into()))
        );
        assert!(matches!(
            app.remos_get_flow("User1", "Nowhere"),
            Err(AppError::UnknownGroup(_))
        ));
        // Disconnect requires deactivation first.
        assert_eq!(
            app.disconnect_server("S1"),
            Err(AppError::StillActive("S1".into()))
        );
        app.deactivate_server("S1").unwrap();
        app.disconnect_server("S1").unwrap();
        assert_eq!(app.active_servers(SERVER_GROUP_1), vec!["S2", "S3"]);
        // Connecting an unknown server fails without creating the queue it
        // named: no phantom group to sample, probe or plan against.
        assert_eq!(
            app.connect_server("S9", "ServerGrp3"),
            Err(AppError::UnknownServer("S9".into()))
        );
        assert_eq!(app.group_names(), vec![SERVER_GROUP_1, SERVER_GROUP_2]);
        assert!(app.queue_length("ServerGrp3").is_err());
        // A known server still brings a new queue into being.
        app.connect_server("S1", "ServerGrp3").unwrap();
        assert_eq!(
            app.group_names(),
            vec![SERVER_GROUP_1, SERVER_GROUP_2, "ServerGrp3"]
        );
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
            app.advance(secs(t as f64));
            let flows = app.flow_snapshot();
            app.sample_metrics_with_flows(secs(t as f64), &flows);
        }
        assert!(app.metrics().queue_series(SERVER_GROUP_1).is_some());
        assert!(app.metrics().bandwidth_series("User3").is_some());
        assert!(app.metrics().latency_series("User1").is_some());
    }
}
