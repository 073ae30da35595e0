//! Runtime-layer operators and queries (Table 1 of the paper).
//!
//! The environment manager exposes low-level routines for creating request
//! queues, activating and deactivating servers, and moving client
//! communications to a new queue, plus the Remos bandwidth query. The
//! translator converts model-layer repair scripts into sequences of these
//! operations; the adaptation framework executes them against the running
//! (simulated) system.

use archmodel::Key;
use std::fmt;

/// A gauge a reconfiguration retires or recreates, by what it watches.
/// `Display` is the gauge's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeRef {
    /// `load-gauge/{group}`: a server group's load gauge, which must be
    /// refreshed when the group gains a replica.
    Load(Key),
    /// `bandwidth-gauge/{client}`: the gauge watching a moved client's old
    /// client/group pair.
    Bandwidth(Key),
    /// `bandwidth-gauges/planner-batch`: every bandwidth gauge a
    /// group-planner batch moves, relocated in one sweep.
    PlannerBatch,
}

impl fmt::Display for GaugeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaugeRef::Load(group) => write!(f, "load-gauge/{group}"),
            GaugeRef::Bandwidth(client) => write!(f, "bandwidth-gauge/{client}"),
            GaugeRef::PlannerBatch => f.write_str("bandwidth-gauges/planner-batch"),
        }
    }
}

/// A concrete operation on the running system (Table 1). Every element is
/// named by the interned [`Key`] the model names it by.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeOp {
    /// `createReqQueue()` — adds a logical request queue for a server group
    /// to the request-queue machine.
    CreateReqQueue {
        /// The server group the queue will serve.
        group: Key,
    },
    /// `findServer([cli_ip, bw_thresh])` — finds a spare server for a group.
    /// The spare itself is chosen when the `ConnectServer` that follows
    /// executes; this operation is the search's cost.
    FindServer {
        /// The server group the spare is for.
        group: Key,
        /// Minimum acceptable bandwidth (bits per second).
        bandwidth_threshold_bps: f64,
    },
    /// `moveClient(ReqQ newQ)` — moves a client to the new request queue.
    MoveClient {
        /// The client to move.
        client: Key,
        /// The server group whose queue it should use from now on.
        to_group: Key,
    },
    /// `moveClientGroup(clients, ReqQ newQ)` — the group-level planner's
    /// batched client move: every listed client is re-pointed at the new
    /// queue in one routing-table update, and their queued requests migrate
    /// with them. One reconfiguration handshake covers the whole batch, which
    /// is what makes fleet-scale migration affordable (a per-client
    /// `moveClient` sequence pays the full handshake per client).
    MoveClientGroup {
        /// The clients to move, in execution order, as the interned names
        /// the planner's class index holds.
        clients: Vec<Key>,
        /// The server group whose queue they should use from now on.
        to_group: Key,
    },
    /// `drainServer(group, age)` — one sweep of the `drainServer` tactic:
    /// every replica of the group wedged transmitting a reply older than
    /// `min_age_secs` is recycled in place (its stuck reply transfer is torn
    /// down and the replica immediately pulls fresh work). The wedged set is
    /// resolved at *execution* time, like `findServer` resolves spares, so
    /// the sweep also catches replicas that wedged while the repair was in
    /// flight.
    DrainStuckServers {
        /// The server group to sweep.
        group: Key,
        /// Replies transmitting for longer than this (seconds since the
        /// reply transfer started — queue wait does not count) are wedged.
        min_age_secs: f64,
    },
    /// `connectServer(Server srv, ReqQ to)` — configures a server to pull
    /// client requests from the given queue.
    ConnectServer {
        /// The server being configured.
        server: Key,
        /// The server group / queue it will serve.
        group: Key,
    },
    /// `activateServer()` — the server should begin pulling requests.
    ActivateServer {
        /// The server to activate.
        server: Key,
    },
    /// `deactivateServer()` — the server should stop pulling requests.
    DeactivateServer {
        /// The server to deactivate.
        server: Key,
    },
    /// `remos_get_flow(clIP, svIP)` — query the predicted bandwidth between
    /// two machines.
    RemosGetFlow {
        /// Client machine.
        client: Key,
        /// Server machine (or server group representative).
        server: Key,
    },
    /// Delete a gauge that is no longer relevant after a reconfiguration
    /// (part of the repair's monitoring churn, §5.3).
    DeleteGauge {
        /// The gauge.
        gauge: GaugeRef,
    },
    /// Create (or relocate) a gauge for the new configuration.
    CreateGauge {
        /// The gauge.
        gauge: GaugeRef,
    },
}

impl RuntimeOp {
    /// A short human-readable form used in traces.
    pub fn describe(&self) -> String {
        match self {
            RuntimeOp::CreateReqQueue { group } => format!("createReqQueue({group})"),
            RuntimeOp::FindServer {
                group,
                bandwidth_threshold_bps,
            } => format!("findServer({group}, {bandwidth_threshold_bps:.0}bps)"),
            RuntimeOp::MoveClient { client, to_group } => {
                format!("moveClient({client} -> {to_group})")
            }
            RuntimeOp::MoveClientGroup { clients, to_group } => {
                format!("moveClientGroup({} clients -> {to_group})", clients.len())
            }
            RuntimeOp::DrainStuckServers {
                group,
                min_age_secs,
            } => format!("drainStuckServers({group}, >{min_age_secs:.0}s)"),
            RuntimeOp::ConnectServer { server, group } => {
                format!("connectServer({server}, {group})")
            }
            RuntimeOp::ActivateServer { server } => format!("activateServer({server})"),
            RuntimeOp::DeactivateServer { server } => format!("deactivateServer({server})"),
            RuntimeOp::RemosGetFlow { client, server } => {
                format!("remos_get_flow({client}, {server})")
            }
            RuntimeOp::DeleteGauge { gauge } => format!("deleteGauge({gauge})"),
            RuntimeOp::CreateGauge { gauge } => format!("createGauge({gauge})"),
        }
    }
}

/// Errors raised while executing runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslationError {
    /// The operation referenced an element the runtime does not know.
    UnknownTarget(String),
    /// The runtime refused the operation (e.g. no spare server available).
    Rejected(String),
    /// The model operation has no runtime counterpart and should not have
    /// been sent to the runtime layer.
    NotTranslatable(String),
}

impl fmt::Display for TranslationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslationError::UnknownTarget(t) => write!(f, "unknown runtime target: {t}"),
            TranslationError::Rejected(r) => write!(f, "runtime rejected operation: {r}"),
            TranslationError::NotTranslatable(o) => write!(f, "no runtime mapping for: {o}"),
        }
    }
}

impl std::error::Error for TranslationError {}

/// The environment manager: executes runtime operations against the running
/// system. Implemented over the simulated grid application by the adaptation
/// framework; a [`RecordingEnvironmentManager`] is provided for tests.
pub trait EnvironmentManager {
    /// Executes one operation at simulated time `now`, returning when the
    /// operation's effect is complete (seconds).
    fn execute(&mut self, now: f64, op: &RuntimeOp) -> Result<f64, TranslationError>;
}

/// An environment manager that records operations and completes them
/// instantly — useful for unit tests and dry runs.
#[derive(Debug, Default)]
pub struct RecordingEnvironmentManager {
    executed: Vec<RuntimeOp>,
}

impl RecordingEnvironmentManager {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The operations executed so far.
    pub fn executed(&self) -> &[RuntimeOp] {
        &self.executed
    }
}

impl EnvironmentManager for RecordingEnvironmentManager {
    fn execute(&mut self, now: f64, op: &RuntimeOp) -> Result<f64, TranslationError> {
        self.executed.push(op.clone());
        Ok(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_matches_table1_names() {
        assert_eq!(
            RuntimeOp::CreateReqQueue {
                group: "ServerGrp2".into()
            }
            .describe(),
            "createReqQueue(ServerGrp2)"
        );
        assert_eq!(
            RuntimeOp::MoveClient {
                client: "User3".into(),
                to_group: "ServerGrp2".into()
            }
            .describe(),
            "moveClient(User3 -> ServerGrp2)"
        );
        assert!(RuntimeOp::RemosGetFlow {
            client: "C3".into(),
            server: "S1".into()
        }
        .describe()
        .starts_with("remos_get_flow"));
        // A gauge op renders its gauge by the gauge's deployed name.
        let gauges = [
            GaugeRef::Load("ServerGrp1".into()),
            GaugeRef::Bandwidth("User3".into()),
            GaugeRef::PlannerBatch,
        ];
        assert_eq!(
            gauges.map(|gauge| RuntimeOp::CreateGauge { gauge }.describe()),
            [
                "createGauge(load-gauge/ServerGrp1)",
                "createGauge(bandwidth-gauge/User3)",
                "createGauge(bandwidth-gauges/planner-batch)",
            ]
        );
    }

    #[test]
    fn recording_manager_captures_ops() {
        let mut mgr = RecordingEnvironmentManager::new();
        let done = mgr
            .execute(
                5.0,
                &RuntimeOp::ActivateServer {
                    server: "S4".into(),
                },
            )
            .unwrap();
        assert_eq!(done, 5.0);
        assert_eq!(mgr.executed().len(), 1);
    }

    #[test]
    fn errors_render_meaningfully() {
        assert!(TranslationError::Rejected("no spare server".into())
            .to_string()
            .contains("no spare server"));
        assert!(TranslationError::UnknownTarget("S9".into())
            .to_string()
            .contains("S9"));
    }
}
