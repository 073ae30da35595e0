//! Gauges: interpreting probe measurements as model properties.
//!
//! Gauges consume lower-level probe measurements and report higher-level
//! model properties (§3.1): the average latency experienced by a client, a
//! server group's load, the bandwidth of a client's connection. Gauge
//! creation and deletion follow a gauge protocol and — as the paper measures —
//! dominate the time it takes to effect a repair (~30 s, §5.3). The
//! [`GaugeManager`] models that lifecycle cost and the proposed mitigation of
//! caching/relocating gauges instead of destroying and recreating them.

use crate::probe::{Measurement, ProbeEvent};
use crate::window::SlidingWindow;
use archmodel::Key;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A higher-level reading reported on the gauge bus, destined for a property
/// of the architectural model.
///
/// Target and property names are interned [`Key`]s: gauges intern them once
/// at construction, so the thousands of readings a control tick produces are
/// built and applied without any string hashing or cloning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeReading {
    /// Simulated time of the report (seconds).
    pub time: f64,
    /// The reporting gauge's name.
    pub gauge: String,
    /// The model element the reading applies to (component, connector, or
    /// role name).
    pub target: Key,
    /// The property to update, e.g. `"averageLatency"`.
    pub property: Key,
    /// The reported value.
    pub value: f64,
}

impl GaugeReading {
    /// The gauge-bus topic this reading is published under.
    pub fn topic(&self) -> String {
        format!("gauge/{}/{}", self.property, self.target)
    }
}

/// A gauge: consumes probe events, periodically reports model properties.
pub trait Gauge {
    /// The gauge's unique name.
    fn name(&self) -> &str;
    /// The probe-bus topic prefix this gauge is interested in. Must be
    /// stable for the gauge's lifetime (the manager indexes it) and should
    /// end on a topic-segment boundary (a full topic or a `/`-terminated
    /// prefix) for the indexed dispatch to see it — every built-in gauge
    /// uses a full topic.
    fn interest(&self) -> &str;
    /// Feeds one probe event to the gauge.
    fn consume(&mut self, event: &ProbeEvent);
    /// Produces the gauge's current readings at time `now`.
    fn report(&mut self, now: f64) -> Vec<GaugeReading>;
}

// Gauge names are `<kind prefix><subject>`; the prefixes are written here
// only, and composed and parsed by the functions below.
const LATENCY: &str = "latency-gauge/";
const LOAD: &str = "load-gauge/";
const BANDWIDTH: &str = "bandwidth-gauge/";
const SERVER: &str = "server-gauge/";
const REACHABILITY: &str = "reachability-gauge/";

/// The name of `client`'s [`AverageLatencyGauge`].
pub fn latency_gauge_name(client: &str) -> String {
    format!("{LATENCY}{client}")
}

/// The name of `group`'s [`LoadGauge`].
pub fn load_gauge_name(group: &str) -> String {
    format!("{LOAD}{group}")
}

/// The name of the [`BandwidthGauge`] of the `client` ↔ `group` pair.
pub fn bandwidth_gauge_name(client: &str, group: &str) -> String {
    format!("{BANDWIDTH}{client}/{group}")
}

/// The name of the [`ServerHealthGauge`] reporting onto model replica
/// `replica`.
pub fn server_gauge_name(replica: &str) -> String {
    format!("{SERVER}{replica}")
}

/// The name of `client`'s [`ReachabilityGauge`].
pub fn reachability_gauge_name(client: &str) -> String {
    format!("{REACHABILITY}{client}")
}

/// The group a [`LoadGauge`] of this name watches; `None` for any other
/// gauge's name.
pub fn load_gauge_group(name: &str) -> Option<&str> {
    name.strip_prefix(LOAD)
}

/// What a per-client gauge of this name watches: the client, and for a
/// bandwidth gauge the group it is measured against. `None` for any other
/// gauge's name.
pub fn gauge_subject(name: &str) -> Option<(&str, Option<&str>)> {
    if let Some(pair) = name.strip_prefix(BANDWIDTH) {
        let (client, group) = pair.split_once('/')?;
        return Some((client, Some(group)));
    }
    name.strip_prefix(LATENCY)
        .or_else(|| name.strip_prefix(REACHABILITY))
        .map(|client| (client, None))
}

/// Reports the sliding-window average request latency of one client as the
/// client's `averageLatency` property.
pub struct AverageLatencyGauge {
    name: String,
    interest: String,
    client: String,
    target: Key,
    property: Key,
    window: SlidingWindow,
}

impl AverageLatencyGauge {
    /// Creates a latency gauge for `client` averaging over `window_secs`.
    pub fn new(client: impl Into<String>, window_secs: f64) -> Self {
        let client = client.into();
        AverageLatencyGauge {
            name: latency_gauge_name(&client),
            interest: format!("probe/latency/{client}"),
            target: Key::new(&client),
            property: Key::new("averageLatency"),
            client,
            window: SlidingWindow::new(window_secs),
        }
    }
}

impl Gauge for AverageLatencyGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> &str {
        &self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if let Measurement::RequestLatency { client, seconds } = &event.measurement {
            if client == &self.client {
                self.window.push(event.time, *seconds);
            }
        }
    }

    fn report(&mut self, now: f64) -> Vec<GaugeReading> {
        self.window.advance(now);
        match self.window.mean() {
            Some(mean) => vec![GaugeReading {
                time: now,
                gauge: self.name.clone(),
                target: self.target,
                property: self.property,
                value: mean,
            }],
            None => Vec::new(),
        }
    }
}

/// Reports a server group's most recent queue length as its `load` property.
pub struct LoadGauge {
    name: String,
    interest: String,
    group: String,
    target: Key,
    property: Key,
    last: Option<f64>,
}

impl LoadGauge {
    /// Creates a load gauge for `group`.
    pub fn new(group: impl Into<String>) -> Self {
        let group = group.into();
        LoadGauge {
            name: load_gauge_name(&group),
            interest: format!("probe/load/{group}"),
            target: Key::new(&group),
            property: Key::new("load"),
            group,
            last: None,
        }
    }
}

impl Gauge for LoadGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> &str {
        &self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if let Measurement::QueueLength { group, length } = &event.measurement {
            if group == &self.group {
                self.last = Some(*length as f64);
            }
        }
    }

    fn report(&mut self, now: f64) -> Vec<GaugeReading> {
        match self.last {
            Some(value) => vec![GaugeReading {
                time: now,
                gauge: self.name.clone(),
                target: self.target,
                property: self.property,
                value,
            }],
            None => Vec::new(),
        }
    }
}

/// Reports the bandwidth between a client and its server group as the
/// `bandwidth` property of the client's role.
pub struct BandwidthGauge {
    name: String,
    interest: String,
    client: String,
    group: String,
    target: Key,
    property: Key,
    last: Option<f64>,
}

impl BandwidthGauge {
    /// Creates a bandwidth gauge for the `client` ↔ `group` pair, reporting
    /// onto the model element named `target` (typically the client's role).
    pub fn new(
        client: impl Into<String>,
        group: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        let client = client.into();
        let group = group.into();
        BandwidthGauge {
            name: bandwidth_gauge_name(&client, &group),
            interest: format!("probe/bandwidth/{client}/{group}"),
            target: Key::new(&target.into()),
            property: Key::new("bandwidth"),
            client,
            group,
            last: None,
        }
    }

    /// The client this gauge observes.
    pub fn client(&self) -> &str {
        &self.client
    }

    /// The server group this gauge observes.
    pub fn group(&self) -> &str {
        &self.group
    }
}

impl Gauge for BandwidthGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> &str {
        &self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if let Measurement::Bandwidth { client, group, bps } = &event.measurement {
            if client == &self.client && group == &self.group {
                self.last = Some(*bps);
            }
        }
    }

    fn report(&mut self, now: f64) -> Vec<GaugeReading> {
        match self.last {
            Some(value) => vec![GaugeReading {
                time: now,
                gauge: self.name.clone(),
                target: self.target,
                property: self.property,
                value,
            }],
            None => Vec::new(),
        }
    }
}

/// Reports the liveness of one runtime server as the `isAlive` property of
/// the model replica it backs (0 or 1). Created per model-replica/runtime
/// pair by the adaptation framework; failover repairs churn these gauges the
/// same way client moves churn bandwidth gauges.
pub struct ServerHealthGauge {
    name: String,
    interest: String,
    server: String,
    target: Key,
    property: Key,
    last: Option<f64>,
}

impl ServerHealthGauge {
    /// Creates a health gauge observing runtime server `server` and reporting
    /// onto the model element named `target` (the model replica's name).
    pub fn new(server: impl Into<String>, target: impl Into<String>) -> Self {
        let server = server.into();
        let target = target.into();
        ServerHealthGauge {
            name: server_gauge_name(&target),
            interest: format!("probe/liveness/server/{server}"),
            target: Key::new(&target),
            property: Key::new("isAlive"),
            server,
            last: None,
        }
    }

    /// The runtime server this gauge observes.
    pub fn server(&self) -> &str {
        &self.server
    }
}

impl Gauge for ServerHealthGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> &str {
        &self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if let Measurement::ServerLive { server, up } = &event.measurement {
            if server == &self.server {
                self.last = Some(if *up { 1.0 } else { 0.0 });
            }
        }
    }

    fn report(&mut self, now: f64) -> Vec<GaugeReading> {
        match self.last {
            Some(value) => vec![GaugeReading {
                time: now,
                gauge: self.name.clone(),
                target: self.target,
                property: self.property,
                value,
            }],
            None => Vec::new(),
        }
    }
}

/// Reports a server group's live and dead replica counts as the group's
/// `liveServers` and `deadServers` properties — what the `liveness`
/// invariant checks after a fault.
pub struct GroupLivenessGauge {
    name: String,
    interest: String,
    group: String,
    target: Key,
    live_property: Key,
    dead_property: Key,
    last: Option<(f64, f64)>,
}

impl GroupLivenessGauge {
    /// Creates a liveness gauge for `group`.
    pub fn new(group: impl Into<String>) -> Self {
        let group = group.into();
        GroupLivenessGauge {
            name: format!("liveness-gauge/{group}"),
            interest: format!("probe/liveness/group/{group}"),
            target: Key::new(&group),
            live_property: Key::new("liveServers"),
            dead_property: Key::new("deadServers"),
            group,
            last: None,
        }
    }
}

impl Gauge for GroupLivenessGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> &str {
        &self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if let Measurement::GroupLiveness { group, live, dead } = &event.measurement {
            if group == &self.group {
                self.last = Some((*live as f64, *dead as f64));
            }
        }
    }

    fn report(&mut self, now: f64) -> Vec<GaugeReading> {
        match self.last {
            Some((live, dead)) => vec![
                GaugeReading {
                    time: now,
                    gauge: self.name.clone(),
                    target: self.target,
                    property: self.live_property,
                    value: live,
                },
                GaugeReading {
                    time: now,
                    gauge: self.name.clone(),
                    target: self.target,
                    property: self.dead_property,
                    value: dead,
                },
            ],
            None => Vec::new(),
        }
    }
}

/// Reports whether a client can reach its current server group as the
/// `reachable` property of the client's role (0 or 1).
pub struct ReachabilityGauge {
    name: String,
    interest: String,
    client: String,
    target: Key,
    property: Key,
    last: Option<f64>,
}

impl ReachabilityGauge {
    /// Creates a reachability gauge for `client`, reporting onto the model
    /// element named `target` (typically the client's role).
    pub fn new(client: impl Into<String>, target: impl Into<String>) -> Self {
        let client = client.into();
        ReachabilityGauge {
            name: reachability_gauge_name(&client),
            interest: format!("probe/reachable/{client}"),
            target: Key::new(&target.into()),
            property: Key::new("reachable"),
            client,
            last: None,
        }
    }
}

impl Gauge for ReachabilityGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> &str {
        &self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if let Measurement::Reachability {
            client, reachable, ..
        } = &event.measurement
        {
            if client == &self.client {
                self.last = Some(if *reachable { 1.0 } else { 0.0 });
            }
        }
    }

    fn report(&mut self, now: f64) -> Vec<GaugeReading> {
        match self.last {
            Some(value) => vec![GaugeReading {
                time: now,
                gauge: self.name.clone(),
                target: self.target,
                property: self.property,
                value,
            }],
            None => Vec::new(),
        }
    }
}

/// Lifecycle costs of the gauge protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugeLifecycleConfig {
    /// Time between requesting a gauge and its first report being possible.
    /// The paper attributes most of the ~30 s repair time to gauge
    /// creation/deletion communication.
    pub creation_delay_secs: f64,
    /// Time to tear a gauge down.
    pub deletion_delay_secs: f64,
    /// When true, deleted gauges are kept in a cache and re-used by a later
    /// creation for the same name (the paper's proposed improvement); cached
    /// re-activation costs `reuse_delay_secs` instead of the creation delay.
    pub cache_gauges: bool,
    /// Re-activation cost for a cached gauge.
    pub reuse_delay_secs: f64,
}

impl Default for GaugeLifecycleConfig {
    fn default() -> Self {
        GaugeLifecycleConfig {
            creation_delay_secs: 12.0,
            deletion_delay_secs: 3.0,
            cache_gauges: false,
            reuse_delay_secs: 0.5,
        }
    }
}

struct ManagedGauge {
    gauge: Box<dyn Gauge>,
    active_at: f64,
}

/// Manages gauge creation, deletion, dispatch, and reporting, charging the
/// configured lifecycle costs.
///
/// Dispatch is served by an interest index rebuilt lazily after gauge churn:
/// an incoming topic is looked up under each of its segment-boundary
/// prefixes (plus the full topic and the empty catch-all), so delivering an
/// event costs a few hash lookups instead of a string comparison — and a
/// string allocation — against every deployed gauge.
pub struct GaugeManager {
    config: GaugeLifecycleConfig,
    gauges: Vec<ManagedGauge>,
    cache: Vec<Box<dyn Gauge>>,
    creations: u64,
    cache_hits: u64,
    deletions: u64,
    /// interest string → positions in `gauges`; rebuilt when stale.
    interest_index: HashMap<String, Vec<usize>>,
    index_stale: bool,
}

impl GaugeManager {
    /// Creates a manager with the given lifecycle configuration.
    pub fn new(config: GaugeLifecycleConfig) -> Self {
        GaugeManager {
            config,
            gauges: Vec::new(),
            cache: Vec::new(),
            creations: 0,
            cache_hits: 0,
            deletions: 0,
            interest_index: HashMap::new(),
            index_stale: false,
        }
    }

    fn rebuild_index(&mut self) {
        self.interest_index.clear();
        for (idx, managed) in self.gauges.iter().enumerate() {
            self.interest_index
                .entry(managed.gauge.interest().to_string())
                .or_default()
                .push(idx);
        }
        self.index_stale = false;
    }

    /// The lifecycle configuration in force.
    pub fn config(&self) -> GaugeLifecycleConfig {
        self.config
    }

    /// Deploys a gauge at time `now`. Returns the time at which the gauge
    /// becomes active (and therefore how long the deploying repair must
    /// wait).
    pub fn create(&mut self, now: f64, gauge: Box<dyn Gauge>) -> f64 {
        self.creations += 1;
        // Re-use a cached gauge with the same name if allowed.
        let cached_idx = self
            .config
            .cache_gauges
            .then(|| self.cache.iter().position(|g| g.name() == gauge.name()))
            .flatten();
        let (gauge, delay) = match cached_idx {
            Some(idx) => {
                self.cache_hits += 1;
                (self.cache.remove(idx), self.config.reuse_delay_secs)
            }
            None => (gauge, self.config.creation_delay_secs),
        };
        let active_at = now + delay;
        self.gauges.push(ManagedGauge { gauge, active_at });
        self.index_stale = true;
        active_at
    }

    /// Deletes the gauge with the given name at time `now`. Returns the time
    /// the deletion completes, or `None` if no such gauge exists.
    pub fn delete(&mut self, now: f64, name: &str) -> Option<f64> {
        let idx = self.gauges.iter().position(|g| g.gauge.name() == name)?;
        let removed = self.gauges.remove(idx);
        self.index_stale = true;
        self.deletions += 1;
        if self.config.cache_gauges {
            self.cache.push(removed.gauge);
        }
        Some(now + self.config.deletion_delay_secs)
    }

    /// Deploys `gauge` in place of any deployed gauge of the same name: the
    /// delete-then-create churn of a repair that re-points a gauge. Returns
    /// the time at which the new gauge becomes active.
    pub fn replace(&mut self, now: f64, gauge: Box<dyn Gauge>) -> f64 {
        self.delete(now, gauge.name());
        self.create(now, gauge)
    }

    /// Deletes every deployed gauge whose name satisfies `predicate`, in one
    /// sweep over the roster. Returns how many gauges were deleted.
    ///
    /// This is the batched relocation the group-level planner relies on: a
    /// `moveClientGroup` repair retires hundreds of bandwidth gauges at
    /// once, and a per-name [`delete`](Self::delete) loop would rescan the
    /// roster per gauge.
    pub fn delete_where(&mut self, _now: f64, mut predicate: impl FnMut(&str) -> bool) -> usize {
        let mut removed: Vec<Box<dyn Gauge>> = Vec::new();
        let mut kept = Vec::with_capacity(self.gauges.len());
        for managed in self.gauges.drain(..) {
            if predicate(managed.gauge.name()) {
                removed.push(managed.gauge);
            } else {
                kept.push(managed);
            }
        }
        self.gauges = kept;
        let deleted = removed.len();
        if deleted > 0 {
            self.index_stale = true;
        }
        self.deletions += deleted as u64;
        if self.config.cache_gauges {
            self.cache.extend(removed);
        }
        deleted
    }

    /// True if a gauge with this name is deployed (possibly still warming
    /// up).
    pub fn has_gauge(&self, name: &str) -> bool {
        self.gauges.iter().any(|g| g.gauge.name() == name)
    }

    /// Names of all deployed gauges (active or warming up).
    pub fn gauge_names(&self) -> Vec<String> {
        self.gauges
            .iter()
            .map(|g| g.gauge.name().to_string())
            .collect()
    }

    /// Names of gauges that are active (past their warm-up) at `now`.
    pub fn active_gauges(&self, now: f64) -> Vec<String> {
        self.gauges
            .iter()
            .filter(|g| g.active_at <= now)
            .map(|g| g.gauge.name().to_string())
            .collect()
    }

    /// Dispatches a probe event to every *active* interested gauge.
    ///
    /// Interests are matched through the index under every segment-boundary
    /// prefix of the topic; an interest ending mid-segment would be missed,
    /// but every built-in gauge subscribes to a full topic (and all of them
    /// re-filter by identity in `consume`, so dispatch granularity is a pure
    /// efficiency concern).
    pub fn dispatch(&mut self, event: &ProbeEvent) {
        if self.index_stale {
            self.rebuild_index();
        }
        let topic = event.topic();
        let notify =
            |gauges: &mut [ManagedGauge], index: &HashMap<String, Vec<usize>>, prefix: &str| {
                if let Some(interested) = index.get(prefix) {
                    for &idx in interested {
                        let managed = &mut gauges[idx];
                        if event.time >= managed.active_at {
                            managed.gauge.consume(event);
                        }
                    }
                }
            };
        notify(&mut self.gauges, &self.interest_index, "");
        for (pos, byte) in topic.bytes().enumerate() {
            if byte == b'/' {
                notify(&mut self.gauges, &self.interest_index, &topic[..=pos]);
            }
        }
        notify(&mut self.gauges, &self.interest_index, &topic);
    }

    /// Collects the readings of every active gauge at time `now`.
    pub fn collect(&mut self, now: f64) -> Vec<GaugeReading> {
        let mut out = Vec::new();
        for managed in &mut self.gauges {
            if managed.active_at <= now {
                out.extend(managed.gauge.report(now));
            }
        }
        out
    }

    /// Number of gauge creations requested.
    pub fn creation_count(&self) -> u64 {
        self.creations
    }

    /// Number of creations satisfied from the cache.
    pub fn cache_hit_count(&self) -> u64 {
        self.cache_hits
    }

    /// Number of gauge deletions.
    pub fn deletion_count(&self) -> u64 {
        self.deletions
    }
}

/// A consumer of gauge readings (top level of Figure 4). The architecture
/// manager is the principal consumer; [`RecordingConsumer`] is provided for
/// tests and for logging what the gauges reported.
pub trait GaugeConsumer {
    /// Handles one reading.
    fn consume(&mut self, reading: &GaugeReading);
}

/// The unit consumer discards readings — used when the caller batches the
/// readings a pipeline step returns instead of consuming them one by one.
impl GaugeConsumer for () {
    fn consume(&mut self, _reading: &GaugeReading) {}
}

/// A consumer that simply records everything it sees.
#[derive(Debug, Default)]
pub struct RecordingConsumer {
    readings: Vec<GaugeReading>,
}

impl RecordingConsumer {
    /// Creates an empty recording consumer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The readings recorded so far.
    pub fn readings(&self) -> &[GaugeReading] {
        &self.readings
    }
}

impl GaugeConsumer for RecordingConsumer {
    fn consume(&mut self, reading: &GaugeReading) {
        self.readings.push(reading.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_event(time: f64, client: &str, seconds: f64) -> ProbeEvent {
        ProbeEvent::new(
            time,
            "aide",
            Measurement::RequestLatency {
                client: client.into(),
                seconds,
            },
        )
    }

    #[test]
    fn average_latency_gauge_reports_window_mean() {
        let mut gauge = AverageLatencyGauge::new("User1", 30.0);
        gauge.consume(&latency_event(0.0, "User1", 1.0));
        gauge.consume(&latency_event(1.0, "User1", 3.0));
        gauge.consume(&latency_event(2.0, "User2", 100.0)); // other client: ignored
        let readings = gauge.report(5.0);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].property, "averageLatency");
        assert_eq!(readings[0].target, "User1");
        assert!((readings[0].value - 2.0).abs() < 1e-12);
        assert_eq!(readings[0].topic(), "gauge/averageLatency/User1");
    }

    #[test]
    fn latency_gauge_forgets_old_samples() {
        let mut gauge = AverageLatencyGauge::new("User1", 10.0);
        gauge.consume(&latency_event(0.0, "User1", 9.0));
        gauge.consume(&latency_event(100.0, "User1", 1.0));
        let readings = gauge.report(100.0);
        assert!((readings[0].value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_gauge_reports_nothing() {
        let mut gauge = AverageLatencyGauge::new("User1", 10.0);
        assert!(gauge.report(1.0).is_empty());
        let mut load = LoadGauge::new("ServerGrp1");
        assert!(load.report(1.0).is_empty());
    }

    #[test]
    fn load_gauge_reports_latest_queue_length() {
        let mut gauge = LoadGauge::new("ServerGrp1");
        gauge.consume(&ProbeEvent::new(
            1.0,
            "queue-probe",
            Measurement::QueueLength {
                group: "ServerGrp1".into(),
                length: 4,
            },
        ));
        gauge.consume(&ProbeEvent::new(
            2.0,
            "queue-probe",
            Measurement::QueueLength {
                group: "ServerGrp1".into(),
                length: 9,
            },
        ));
        let readings = gauge.report(3.0);
        assert_eq!(readings[0].value, 9.0);
        assert_eq!(readings[0].property, "load");
    }

    #[test]
    fn bandwidth_gauge_targets_the_role() {
        let mut gauge = BandwidthGauge::new("User3", "ServerGrp1", "User3.role");
        gauge.consume(&ProbeEvent::new(
            1.0,
            "remos",
            Measurement::Bandwidth {
                client: "User3".into(),
                group: "ServerGrp1".into(),
                bps: 9e6,
            },
        ));
        let readings = gauge.report(2.0);
        assert_eq!(readings[0].target, "User3.role");
        assert_eq!(readings[0].property, "bandwidth");
        assert_eq!(readings[0].value, 9e6);
        assert_eq!(gauge.client(), "User3");
        assert_eq!(gauge.group(), "ServerGrp1");
    }

    #[test]
    fn server_health_gauge_tracks_liveness_flips() {
        let mut gauge = ServerHealthGauge::new("S2", "ServerGrp1.Server2");
        assert!(gauge.report(0.0).is_empty());
        assert_eq!(gauge.server(), "S2");
        gauge.consume(&ProbeEvent::new(
            1.0,
            "heartbeat",
            Measurement::ServerLive {
                server: "S2".into(),
                up: true,
            },
        ));
        assert_eq!(gauge.report(1.0)[0].value, 1.0);
        gauge.consume(&ProbeEvent::new(
            2.0,
            "heartbeat",
            Measurement::ServerLive {
                server: "S9".into(), // other server: ignored
                up: false,
            },
        ));
        gauge.consume(&ProbeEvent::new(
            3.0,
            "heartbeat",
            Measurement::ServerLive {
                server: "S2".into(),
                up: false,
            },
        ));
        let readings = gauge.report(3.0);
        assert_eq!(readings[0].target, "ServerGrp1.Server2");
        assert_eq!(readings[0].property, "isAlive");
        assert_eq!(readings[0].value, 0.0);
    }

    #[test]
    fn group_liveness_gauge_reports_live_and_dead_counts() {
        let mut gauge = GroupLivenessGauge::new("ServerGrp1");
        assert!(gauge.report(0.0).is_empty());
        gauge.consume(&ProbeEvent::new(
            1.0,
            "heartbeat",
            Measurement::GroupLiveness {
                group: "ServerGrp1".into(),
                live: 1,
                dead: 2,
            },
        ));
        let readings = gauge.report(1.0);
        assert_eq!(readings.len(), 2);
        assert_eq!(readings[0].property, "liveServers");
        assert_eq!(readings[0].value, 1.0);
        assert_eq!(readings[1].property, "deadServers");
        assert_eq!(readings[1].value, 2.0);
        assert_eq!(readings[0].target, "ServerGrp1");
    }

    #[test]
    fn reachability_gauge_targets_the_role() {
        let mut gauge = ReachabilityGauge::new("User3", "User3.role");
        gauge.consume(&ProbeEvent::new(
            1.0,
            "remos",
            Measurement::Reachability {
                client: "User3".into(),
                group: "ServerGrp1".into(),
                reachable: false,
            },
        ));
        let readings = gauge.report(1.0);
        assert_eq!(readings[0].target, "User3.role");
        assert_eq!(readings[0].property, "reachable");
        assert_eq!(readings[0].value, 0.0);
    }

    #[test]
    fn gauge_manager_charges_creation_delay() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig::default());
        let active_at = mgr.create(10.0, Box::new(AverageLatencyGauge::new("User1", 30.0)));
        assert!((active_at - 22.0).abs() < 1e-12);
        // Before warm-up the gauge neither consumes nor reports.
        mgr.dispatch(&latency_event(11.0, "User1", 1.0));
        assert!(mgr.collect(11.0).is_empty());
        assert!(mgr.active_gauges(11.0).is_empty());
        // After warm-up it does.
        mgr.dispatch(&latency_event(23.0, "User1", 1.0));
        assert_eq!(mgr.collect(23.0).len(), 1);
        assert_eq!(mgr.active_gauges(23.0).len(), 1);
    }

    #[test]
    fn gauge_manager_cache_reduces_recreation_cost() {
        let config = GaugeLifecycleConfig {
            cache_gauges: true,
            ..GaugeLifecycleConfig::default()
        };
        let mut mgr = GaugeManager::new(config);
        mgr.create(0.0, Box::new(LoadGauge::new("ServerGrp1")));
        mgr.delete(20.0, "load-gauge/ServerGrp1").unwrap();
        // Re-creating the same gauge hits the cache and is far cheaper.
        let active_at = mgr.create(30.0, Box::new(LoadGauge::new("ServerGrp1")));
        assert!((active_at - 30.5).abs() < 1e-12);
        assert_eq!(mgr.cache_hit_count(), 1);
        assert_eq!(mgr.creation_count(), 2);
        assert_eq!(mgr.deletion_count(), 1);
    }

    #[test]
    fn uncached_manager_pays_full_cost_every_time() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig::default());
        mgr.create(0.0, Box::new(LoadGauge::new("ServerGrp1")));
        mgr.delete(20.0, "load-gauge/ServerGrp1").unwrap();
        let active_at = mgr.create(30.0, Box::new(LoadGauge::new("ServerGrp1")));
        assert!((active_at - 42.0).abs() < 1e-12);
        assert_eq!(mgr.cache_hit_count(), 0);
    }

    #[test]
    fn name_helpers_agree_with_the_constructors() {
        let gauges: [(Box<dyn Gauge>, String); 5] = [
            (
                Box::new(AverageLatencyGauge::new("User3", 30.0)),
                latency_gauge_name("User3"),
            ),
            (
                Box::new(LoadGauge::new("ServerGrp1")),
                load_gauge_name("ServerGrp1"),
            ),
            (
                Box::new(BandwidthGauge::new("User3", "ServerGrp1", "User3.role")),
                bandwidth_gauge_name("User3", "ServerGrp1"),
            ),
            (
                Box::new(ServerHealthGauge::new("S2", "ServerGrp1.Server2")),
                server_gauge_name("ServerGrp1.Server2"),
            ),
            (
                Box::new(ReachabilityGauge::new("User3", "User3.role")),
                reachability_gauge_name("User3"),
            ),
        ];
        for (gauge, name) in &gauges {
            assert_eq!(gauge.name(), name);
        }
        let subjects: Vec<_> = gauges.iter().map(|(_, n)| gauge_subject(n)).collect();
        assert_eq!(
            subjects,
            [
                Some(("User3", None)),
                None,
                Some(("User3", Some("ServerGrp1"))),
                None,
                Some(("User3", None)),
            ]
        );
        let groups: Vec<_> = gauges.iter().map(|(_, n)| load_gauge_group(n)).collect();
        assert_eq!(groups, [None, Some("ServerGrp1"), None, None, None]);
    }

    #[test]
    fn replace_deletes_the_namesake_before_creating() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig::default());
        mgr.replace(0.0, Box::new(LoadGauge::new("ServerGrp1")));
        assert_eq!((mgr.creation_count(), mgr.deletion_count()), (1, 0));
        let active_at = mgr.replace(20.0, Box::new(LoadGauge::new("ServerGrp1")));
        assert!((active_at - 32.0).abs() < 1e-12);
        assert_eq!((mgr.creation_count(), mgr.deletion_count()), (2, 1));
        assert_eq!(mgr.gauge_names(), ["load-gauge/ServerGrp1"]);
    }

    #[test]
    fn delete_unknown_gauge_returns_none() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig::default());
        assert!(mgr.delete(0.0, "nope").is_none());
        assert!(!mgr.has_gauge("nope"));
    }

    #[test]
    fn recording_consumer_captures_readings() {
        let mut consumer = RecordingConsumer::new();
        consumer.consume(&GaugeReading {
            time: 1.0,
            gauge: "g".into(),
            target: "User1".into(),
            property: "averageLatency".into(),
            value: 1.5,
        });
        assert_eq!(consumer.readings().len(), 1);
        assert_eq!(consumer.readings()[0].value, 1.5);
    }
}
