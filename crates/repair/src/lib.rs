//! # repair — repair strategies, tactics, and adaptation operators
//!
//! When the architecture manager detects a constraint violation it triggers
//! the associated *repair strategy* (§3.2). A strategy is a sequence of
//! *tactics*; each tactic is guarded by a precondition over the architectural
//! model and, when applicable, executes a repair script written with the
//! style-specific *adaptation operators* (§3.3): `addServer`, `move`,
//! `remove`, and the runtime query `findGoodSGroup`.
//!
//! * [`operators`] — the client/server-style operators, which record a
//!   script's ops against the borrowed model,
//! * [`tactic`] / [`strategy`] — guarded tactics and first-success
//!   strategies with commit/abort semantics and the script's style check,
//! * [`builtin`] — the paper's `fixLatency` strategy (Figure 5) plus the
//!   `reduceServers` cost repair and the default constraint set,
//! * [`engine`] — mapping violations to plans, with violation-selection
//!   policies ([`selection`]) and oscillation [`damping`] (§5.3/§7), and
//!   the typed [`skip`] record of the repairs it could not make,
//! * [`query`] — the runtime-layer queries tactics rely on.

#![warn(missing_docs)]

pub mod builtin;
pub mod damping;
pub mod engine;
pub mod operators;
pub mod query;
pub mod selection;
pub mod skip;
pub mod strategy;
pub mod tactic;

pub use builtin::{
    default_constraints, fix_latency_strategy, recover_liveness_strategy,
    FailoverServerGroupTactic, FixBandwidthTactic, FixServerLoadTactic, ReduceServersTactic,
    RerouteClientsTactic, DEFAULT_MAX_SERVER_LOAD, DEFAULT_MIN_BANDWIDTH_BPS,
};
pub use damping::RepairDamping;
pub use engine::{PlanOutcome, RepairEngine, RepairPlan};
pub use operators::{add_server, move_client, remove_server, OperatorError};
pub use query::{RuntimeQuery, StaticQuery};
pub use selection::SelectionPolicy;
pub use skip::{Declined, Skip};
pub use strategy::{RepairStrategy, StrategyOutcome};
pub use tactic::{
    client_of_violation, NotApplicable, RepairError, Tactic, TacticContext, TacticResult,
};
