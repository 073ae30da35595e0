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
//! * [`gauge`] — gauges (average latency, load, bandwidth, liveness,
//!   reachability) and the gauge lifecycle with its creation/deletion costs,
//! * [`consumer`] — a ready-made pipeline wiring buses and gauges together,
//! * [`window`] — sliding-window aggregation.
//!
//! **A topic is a value.** `probe/latency/User3` is how a [`Topic`] *prints*;
//! what travels is `Topic { kind, subject, other }`, three words that are
//! `Copy`, `Eq` and `Hash`, whose subjects are interned [`Key`]s. Names are
//! interned where the entity they name is created — a client, server or
//! group by the application, a gauge's target by the gauge — and never per
//! observation: [`Key::new`] takes a process-wide lock. So a
//! [`Measurement`], a [`ProbeEvent`] and a [`GaugeReading`] are `Copy` too,
//! the gauge manager finds an event's gauges in one hash lookup, and the
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
pub use gauge::{
    AverageLatencyGauge, BandwidthGauge, Gauge, GaugeLifecycleConfig, GaugeManager, GaugeReading,
    GroupLivenessGauge, LoadGauge, ReachabilityGauge, ServerHealthGauge,
};
pub use probe::{Measurement, ProbeEvent, Topic, TopicKind};
pub use window::SlidingWindow;
