//! # gridapp — the evaluated client/server grid application
//!
//! The paper evaluates its adaptation framework on *a client-server system
//! using replicated server groups communicating over a distributed system*
//! (§5), deployed on a dedicated testbed of five routers and eleven machines
//! (Figure 6) and driven by a scripted 30-minute workload (Figure 7). This
//! crate reproduces that application and testbed on the `simnet` simulator:
//!
//! * [`config`] — the application parameters (request/response sizes, arrival
//!   rate, service rate, thresholds) taken from §5,
//! * [`testbed`] — the Figure 6 topology,
//! * [`app`] — the running application: clients, the request-queue machine,
//!   replicated server groups, and the Table 1 runtime change operations,
//! * [`workload`] — the Figure 7 bandwidth-competition and load schedules,
//! * [`probes`] — concrete probes feeding the monitoring infrastructure,
//! * [`metrics`] — the latency / queue-length / bandwidth series reported in
//!   Figures 8–13.

#![warn(missing_docs)]

pub mod app;
pub mod config;
pub mod due;
pub mod metrics;
pub mod probes;
pub mod testbed;
pub mod workload;

pub use app::{AppError, CompletedRequest, FlowSnapshot, GridApp, SERVER_GROUP_1, SERVER_GROUP_2};
pub use config::GridConfig;
pub use due::{DueQueue, DueQueueStats};
pub use metrics::Metrics;
/// The interned name [`CompletedRequest`] and [`FlowSnapshot`] rows carry.
pub use monitoring::Key;
pub use probes::{
    sample_flow_probes_from, sample_latency_probe, sample_liveness_probe, sample_queue_probe,
    REACHABILITY_FLOOR_BPS,
};
pub use testbed::{
    testbed_preset_names, Testbed, TestbedSpec, FLEET_SCALE_MIN_CLIENTS, LINK_CAPACITY_BPS,
    TESTBED_REGISTRY,
};
pub use workload::{workload_names, ExperimentSchedule, RUN_DURATION_SECS, WORKLOAD_REGISTRY};
