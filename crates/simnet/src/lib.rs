//! # simnet — discrete-event network/grid simulator
//!
//! This crate is the *runtime-layer substrate* of the reproduction: it stands
//! in for the paper's dedicated experimental testbed (five routers, eleven
//! machines, 10 Mbps links) plus the Remos bandwidth-measurement service.
//!
//! It provides:
//!
//! * a deterministic discrete-event [`engine`] with a virtual clock,
//! * a network [`topology`] of hosts, routers, and links,
//! * a fluid-flow [`network`] model in which concurrent transfers share link
//!   capacity max-min fairly (see [`alloc`]),
//! * a Remos-like predicted-[`bandwidth`] oracle with cold-query behaviour,
//! * deterministic randomness ([`rng`]), time-series [`stats`], and an event
//!   [`trace`] used by the experiment harness,
//! * generic name → value [`registry`] tables backing the preset catalogues
//!   (strategies, fault profiles, testbeds, workloads) of the layers above.
//!
//! The grid application under evaluation (crate `gridapp`) and the adaptation
//! framework (crate `arch-adapt`) are built on top of these primitives.

#![warn(missing_docs)]

pub mod alloc;
pub mod bandwidth;
pub mod engine;
pub mod event;
#[doc(hidden)]
pub mod flow;
pub mod network;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use alloc::{Allocator, DemandSet, ResourceId};
pub use bandwidth::{BandwidthEstimate, RemosConfig, RemosOracle};
pub use engine::{Ctx, Engine, Model};
pub use event::{EventHandle, EventQueue};
pub use network::{CompletedTransfer, NetError, Network, TransferId};
pub use registry::{Registry, RegistryError};
pub use rng::SimRng;
pub use stats::{quantile_of, StepSchedule, Summary, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use topology::{
    Link, LinkId, Node, NodeId, NodeKind, PathTable, PathTableStats, Topology, TopologyError,
};
pub use trace::{Trace, TraceEntry, TraceKind};
