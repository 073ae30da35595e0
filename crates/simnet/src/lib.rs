//! # simnet — fluid-flow network/grid simulator
//!
//! This crate is the *runtime-layer substrate* of the reproduction: it stands
//! in for the paper's dedicated experimental testbed (five routers, eleven
//! machines, 10 Mbps links). The event loop that drives it and the Remos
//! bandwidth query belong to the application above (`gridapp::GridApp`).
//!
//! It provides:
//!
//! * virtual [`time`],
//! * a network [`topology`] of hosts, routers, and links,
//! * a fluid-flow [`network`] model in which concurrent transfers share link
//!   capacity max-min fairly (see [`alloc`]),
//! * deterministic randomness ([`rng`]) and time-series [`stats`],
//! * generic name → value [`registry`] tables backing the preset catalogues
//!   (strategies, fault profiles, testbeds, workloads) of the layers above.
//!
//! The grid application under evaluation (crate `gridapp`) and the adaptation
//! framework (crate `arch-adapt`) are built on top of these primitives.

#![warn(missing_docs)]

pub mod alloc;
#[doc(hidden)]
pub mod flow;
pub mod network;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;

pub use alloc::{Allocator, ResourceId};
pub use network::{CompletedTransfer, NetError, Network, TransferId};
pub use registry::{Registry, RegistryError};
pub use rng::SimRng;
pub use stats::{quantile_of, StepSchedule, Summary, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use topology::{
    Link, LinkId, Node, NodeId, NodeKind, PathTable, PathTableStats, Topology, TopologyError,
};
