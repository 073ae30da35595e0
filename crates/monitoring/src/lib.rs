//! # monitoring — the probe/gauge monitoring infrastructure
//!
//! The paper bridges system-level behaviour and architecture-level
//! observations with a three-level monitoring infrastructure (Figure 4):
//! *probes* deployed in the target system announce observations on a probe
//! bus; *gauges* interpret probe measurements as higher-level model
//! properties and disseminate them on a gauge reporting bus; *gauge
//! consumers* (chiefly the architecture manager) use those readings to update
//! the model and make repair decisions.
//!
//! This crate provides:
//! * [`probe`] — the observation vocabulary probes publish, and the
//!   [`Topic`] each observation is published under,
//! * [`bus`] — a deterministic single-reader bus with a delivery delay
//!   (monitoring traffic shares the network),
//! * [`gauge`] — the one [`Gauge`] type (average latency, load, bandwidth,
//!   server health, group liveness, reachability — its topic's kind says
//!   which) and its [`GaugeId`],
//! * [`consumer`] — the [`MonitoringPipeline`], the one owner of both buses
//!   and the gauge roster, which charges each gauge its warm-up,
//! * [`window`] — sliding-window aggregation.
//!
//! **Topics and gauges are values.** `probe/latency/User3` is how a [`Topic`]
//! *prints* and `latency-gauge/User3` how a [`GaugeId`] does; what travels
//! and is compared is three `Copy` words whose subjects are interned
//! [`Key`]s. Names are interned where the entity they name is created — a
//! client, server or group by the application, a gauge's target by the gauge
//! — and never per observation: [`Key::new`] takes a process-wide lock. So a
//! [`Measurement`], a [`ProbeEvent`] and a [`GaugeReading`] are `Copy` too,
//! the pipeline finds an event's gauges in one hash lookup, and the
//! probe → gauge → model path makes no heap allocation per observation once
//! its buffers and windows have grown to size.

#![warn(missing_docs)]

pub mod bus;
pub mod consumer;
pub mod gauge;
pub mod probe;
pub mod window;

pub use archmodel::Key;
pub use bus::Bus;
pub use consumer::MonitoringPipeline;
pub use gauge::{Gauge, GaugeId, GaugeReading};
pub use probe::{Measurement, ProbeEvent, Topic, TopicKind};
pub use window::SlidingWindow;
