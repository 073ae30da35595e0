//! Gauges: interpreting probe measurements as model properties.
//!
//! Gauges consume lower-level probe measurements and report higher-level
//! model properties (§3.1): the average latency experienced by a client, a
//! server group's load, the bandwidth of a client's connection. Gauge
//! creation and deletion follow a gauge protocol and — as the paper measures —
//! dominate the time it takes to effect a repair (~30 s, §5.3). The
//! [`GaugeManager`] models that lifecycle cost.
//!
//! A gauge interns what it watches and what it reports onto when it is
//! created; from then on consuming an event is a [`Topic`] comparison and
//! reporting is a push of a `Copy` [`GaugeReading`] into the caller's buffer.

use crate::probe::{Measurement, ProbeEvent, Topic, TopicKind};
use crate::window::SlidingWindow;
use archmodel::Key;
use std::collections::HashMap;

/// A higher-level reading reported on the gauge bus, destined for a property
/// of the architectural model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeReading {
    /// Simulated time of the report (seconds).
    pub time: f64,
    /// The model element the reading applies to (component, connector, or
    /// role name).
    pub target: Key,
    /// The property to update, e.g. `"averageLatency"`.
    pub property: Key,
    /// The reported value.
    pub value: f64,
}

/// A gauge: consumes probe events, periodically reports model properties.
pub trait Gauge {
    /// The gauge's unique name.
    fn name(&self) -> &str;
    /// The one probe-bus topic this gauge is interested in. Must be stable
    /// for the gauge's lifetime (the manager indexes it).
    fn interest(&self) -> Topic;
    /// Feeds one probe event to the gauge.
    fn consume(&mut self, event: &ProbeEvent);
    /// Appends the gauge's current readings at time `now` to `out`.
    fn report(&mut self, now: f64, out: &mut Vec<GaugeReading>);
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
    interest: Topic,
    property: Key,
    window: SlidingWindow,
}

impl AverageLatencyGauge {
    /// Creates a latency gauge for `client` averaging over `window_secs`.
    pub fn new(client: impl Into<Key>, window_secs: f64) -> Self {
        let client = client.into();
        AverageLatencyGauge {
            name: latency_gauge_name(client.as_str()),
            interest: Topic {
                kind: TopicKind::Latency,
                subject: client,
                other: None,
            },
            property: Key::new("averageLatency"),
            window: SlidingWindow::new(window_secs),
        }
    }
}

impl Gauge for AverageLatencyGauge {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> Topic {
        self.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        if event.topic() == self.interest {
            self.window.push(event.time, event.measurement.value());
        }
    }

    fn report(&mut self, now: f64, out: &mut Vec<GaugeReading>) {
        self.window.advance(now);
        out.extend(self.window.mean().map(|value| GaugeReading {
            time: now,
            target: self.interest.subject,
            property: self.property,
            value,
        }));
    }
}

/// What every gauge but the latency gauge is underneath: the most recent
/// measurement on one topic, reported onto one model element. (It re-checks
/// the topic itself, whatever the manager's dispatch already filtered.)
struct Latest {
    name: String,
    interest: Topic,
    target: Key,
    property: Key,
    last: Option<Measurement>,
}

impl Latest {
    fn consume(&mut self, event: &ProbeEvent) {
        if event.topic() == self.interest {
            self.last = Some(event.measurement);
        }
    }

    fn reading(&self, now: f64, property: Key, value: f64) -> GaugeReading {
        GaugeReading {
            time: now,
            target: self.target,
            property,
            value,
        }
    }
}

/// Implements [`Gauge`] for a newtype over [`Latest`] that reports the
/// measurement's [`value`](Measurement::value) as its one property.
macro_rules! latest_value_gauge {
    ($gauge:ident) => {
        impl Gauge for $gauge {
            fn name(&self) -> &str {
                &self.0.name
            }

            fn interest(&self) -> Topic {
                self.0.interest
            }

            fn consume(&mut self, event: &ProbeEvent) {
                self.0.consume(event);
            }

            fn report(&mut self, now: f64, out: &mut Vec<GaugeReading>) {
                let latest = &self.0;
                out.extend(
                    latest
                        .last
                        .map(|m| latest.reading(now, latest.property, m.value())),
                );
            }
        }
    };
}

/// Reports a server group's most recent queue length as its `load` property.
pub struct LoadGauge(Latest);

impl LoadGauge {
    /// Creates a load gauge for `group`.
    pub fn new(group: impl Into<Key>) -> Self {
        let group = group.into();
        LoadGauge(Latest {
            name: load_gauge_name(group.as_str()),
            interest: Topic {
                kind: TopicKind::Load,
                subject: group,
                other: None,
            },
            target: group,
            property: Key::new("load"),
            last: None,
        })
    }
}

latest_value_gauge!(LoadGauge);

/// Reports the bandwidth between a client and its server group as the
/// `bandwidth` property of the client's role.
pub struct BandwidthGauge(Latest);

impl BandwidthGauge {
    /// Creates a bandwidth gauge for the `client` ↔ `group` pair, reporting
    /// onto the model element named `target` (typically the client's role).
    pub fn new(client: impl Into<Key>, group: impl Into<Key>, target: impl Into<Key>) -> Self {
        let (client, group) = (client.into(), group.into());
        BandwidthGauge(Latest {
            name: bandwidth_gauge_name(client.as_str(), group.as_str()),
            interest: Topic {
                kind: TopicKind::Bandwidth,
                subject: client,
                other: Some(group),
            },
            target: target.into(),
            property: Key::new("bandwidth"),
            last: None,
        })
    }
}

latest_value_gauge!(BandwidthGauge);

/// Reports the liveness of one runtime server as the `isAlive` property of
/// the model replica it backs (0 or 1). Created per model-replica/runtime
/// pair by the adaptation framework; failover repairs churn these gauges the
/// same way client moves churn bandwidth gauges.
pub struct ServerHealthGauge(Latest);

impl ServerHealthGauge {
    /// Creates a health gauge observing runtime server `server` and reporting
    /// onto the model element named `target` (the model replica's name).
    pub fn new(server: impl Into<Key>, target: impl Into<Key>) -> Self {
        let target = target.into();
        ServerHealthGauge(Latest {
            name: server_gauge_name(target.as_str()),
            interest: Topic {
                kind: TopicKind::ServerLiveness,
                subject: server.into(),
                other: None,
            },
            target,
            property: Key::new("isAlive"),
            last: None,
        })
    }
}

latest_value_gauge!(ServerHealthGauge);

/// Reports whether a client can reach its current server group as the
/// `reachable` property of the client's role (0 or 1).
pub struct ReachabilityGauge(Latest);

impl ReachabilityGauge {
    /// Creates a reachability gauge for `client`, reporting onto the model
    /// element named `target` (typically the client's role).
    pub fn new(client: impl Into<Key>, target: impl Into<Key>) -> Self {
        let client = client.into();
        ReachabilityGauge(Latest {
            name: reachability_gauge_name(client.as_str()),
            interest: Topic {
                kind: TopicKind::Reachable,
                subject: client,
                other: None,
            },
            target: target.into(),
            property: Key::new("reachable"),
            last: None,
        })
    }
}

latest_value_gauge!(ReachabilityGauge);

/// Reports a server group's live and dead replica counts as the group's
/// `liveServers` and `deadServers` properties — what the `liveness`
/// invariant checks after a fault.
pub struct GroupLivenessGauge {
    latest: Latest,
    dead_property: Key,
}

impl GroupLivenessGauge {
    /// Creates a liveness gauge for `group`.
    pub fn new(group: impl Into<Key>) -> Self {
        let group = group.into();
        GroupLivenessGauge {
            latest: Latest {
                name: format!("liveness-gauge/{group}"),
                interest: Topic {
                    kind: TopicKind::GroupLiveness,
                    subject: group,
                    other: None,
                },
                target: group,
                property: Key::new("liveServers"),
                last: None,
            },
            dead_property: Key::new("deadServers"),
        }
    }
}

impl Gauge for GroupLivenessGauge {
    fn name(&self) -> &str {
        &self.latest.name
    }

    fn interest(&self) -> Topic {
        self.latest.interest
    }

    fn consume(&mut self, event: &ProbeEvent) {
        self.latest.consume(event);
    }

    fn report(&mut self, now: f64, out: &mut Vec<GaugeReading>) {
        let latest = &self.latest;
        if let Some(Measurement::GroupLiveness { live, dead, .. }) = latest.last {
            out.push(latest.reading(now, latest.property, live as f64));
            out.push(latest.reading(now, self.dead_property, dead as f64));
        }
    }
}

/// Lifecycle costs of the gauge protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeLifecycleConfig {
    /// Time between requesting a gauge and its first report being possible.
    /// The paper attributes most of the ~30 s repair time to gauge
    /// creation/deletion communication.
    pub creation_delay_secs: f64,
    /// Time to tear a gauge down.
    pub deletion_delay_secs: f64,
}

impl Default for GaugeLifecycleConfig {
    fn default() -> Self {
        GaugeLifecycleConfig {
            creation_delay_secs: 12.0,
            deletion_delay_secs: 3.0,
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
/// delivering an event is one hash lookup of its [`Topic`], not a comparison
/// against every deployed gauge.
pub struct GaugeManager {
    config: GaugeLifecycleConfig,
    gauges: Vec<ManagedGauge>,
    /// interest → positions in `gauges`; rebuilt when stale.
    interest_index: HashMap<Topic, Vec<usize>>,
    index_stale: bool,
}

impl GaugeManager {
    /// Creates a manager with the given lifecycle configuration.
    pub fn new(config: GaugeLifecycleConfig) -> Self {
        GaugeManager {
            config,
            gauges: Vec::new(),
            interest_index: HashMap::new(),
            index_stale: false,
        }
    }

    fn rebuild_index(&mut self) {
        self.interest_index.clear();
        for (idx, managed) in self.gauges.iter().enumerate() {
            let interested = self.interest_index.entry(managed.gauge.interest());
            interested.or_default().push(idx);
        }
        self.index_stale = false;
    }

    /// Deploys a gauge at time `now`. Returns the time at which the gauge
    /// becomes active (and therefore how long the deploying repair must
    /// wait).
    pub fn create(&mut self, now: f64, gauge: Box<dyn Gauge>) -> f64 {
        let active_at = now + self.config.creation_delay_secs;
        self.gauges.push(ManagedGauge { gauge, active_at });
        self.index_stale = true;
        active_at
    }

    /// Deletes the gauge with the given name at time `now`. Returns the time
    /// the deletion completes, or `None` if no such gauge exists.
    pub fn delete(&mut self, now: f64, name: &str) -> Option<f64> {
        let idx = self.gauges.iter().position(|g| g.gauge.name() == name)?;
        self.gauges.remove(idx);
        self.index_stale = true;
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
        let before = self.gauges.len();
        self.gauges
            .retain(|managed| !predicate(managed.gauge.name()));
        let deleted = before - self.gauges.len();
        if deleted > 0 {
            self.index_stale = true;
        }
        deleted
    }

    /// Names of all deployed gauges (active or warming up).
    pub fn gauge_names(&self) -> Vec<String> {
        self.gauges
            .iter()
            .map(|g| g.gauge.name().to_string())
            .collect()
    }

    /// Dispatches a probe event to every *active* gauge interested in its
    /// topic (each of which re-filters by identity in `consume`, so dispatch
    /// granularity is a pure efficiency concern).
    pub fn dispatch(&mut self, event: &ProbeEvent) {
        if self.index_stale {
            self.rebuild_index();
        }
        for &idx in self
            .interest_index
            .get(&event.topic())
            .into_iter()
            .flatten()
        {
            let managed = &mut self.gauges[idx];
            if event.time >= managed.active_at {
                managed.gauge.consume(event);
            }
        }
    }

    /// Appends the readings of every active gauge at time `now` to `out`, in
    /// roster order.
    pub fn collect(&mut self, now: f64, out: &mut Vec<GaugeReading>) {
        for managed in &mut self.gauges {
            if managed.active_at <= now {
                managed.gauge.report(now, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_event(time: f64, client: &str, seconds: f64) -> ProbeEvent {
        ProbeEvent::new(
            time,
            Measurement::RequestLatency {
                client: client.into(),
                seconds,
            },
        )
    }

    fn heartbeat(time: f64, server: &str, up: bool) -> ProbeEvent {
        ProbeEvent::new(
            time,
            Measurement::ServerLive {
                server: server.into(),
                up,
            },
        )
    }

    fn report(gauge: &mut dyn Gauge, now: f64) -> Vec<GaugeReading> {
        let mut out = Vec::new();
        gauge.report(now, &mut out);
        out
    }

    fn collect(mgr: &mut GaugeManager, now: f64) -> Vec<GaugeReading> {
        let mut out = Vec::new();
        mgr.collect(now, &mut out);
        out
    }

    #[test]
    fn average_latency_gauge_reports_window_mean() {
        let mut gauge = AverageLatencyGauge::new("User1", 30.0);
        gauge.consume(&latency_event(0.0, "User1", 1.0));
        gauge.consume(&latency_event(1.0, "User1", 3.0));
        gauge.consume(&latency_event(2.0, "User2", 100.0)); // other client: ignored
        let readings = report(&mut gauge, 5.0);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].property, "averageLatency");
        assert_eq!(readings[0].target, "User1");
        assert!((readings[0].value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_gauge_forgets_old_samples() {
        let mut gauge = AverageLatencyGauge::new("User1", 10.0);
        gauge.consume(&latency_event(0.0, "User1", 9.0));
        gauge.consume(&latency_event(100.0, "User1", 1.0));
        let readings = report(&mut gauge, 100.0);
        assert!((readings[0].value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_gauge_reports_nothing() {
        let mut gauge = AverageLatencyGauge::new("User1", 10.0);
        assert!(report(&mut gauge, 1.0).is_empty());
        let mut load = LoadGauge::new("ServerGrp1");
        assert!(report(&mut load, 1.0).is_empty());
    }

    #[test]
    fn load_gauge_reports_latest_queue_length() {
        let mut gauge = LoadGauge::new("ServerGrp1");
        for (time, length) in [(1.0, 4), (2.0, 9)] {
            gauge.consume(&ProbeEvent::new(
                time,
                Measurement::QueueLength {
                    group: "ServerGrp1".into(),
                    length,
                },
            ));
        }
        // Another group's queue, and another kind of news about this group.
        gauge.consume(&ProbeEvent::new(
            3.0,
            Measurement::QueueLength {
                group: "ServerGrp2".into(),
                length: 50,
            },
        ));
        gauge.consume(&ProbeEvent::new(
            3.0,
            Measurement::ActiveServers {
                group: "ServerGrp1".into(),
                count: 3,
            },
        ));
        let readings = report(&mut gauge, 3.0);
        assert_eq!(readings[0].value, 9.0);
        assert_eq!(readings[0].property, "load");
    }

    #[test]
    fn bandwidth_gauge_targets_the_role() {
        let mut gauge = BandwidthGauge::new("User3", "ServerGrp1", "User3.role");
        for (group, bps) in [("ServerGrp1", 9e6), ("ServerGrp2", 1e3)] {
            gauge.consume(&ProbeEvent::new(
                1.0,
                Measurement::Bandwidth {
                    client: "User3".into(),
                    group: group.into(), // the other group: ignored
                    bps,
                },
            ));
        }
        let readings = report(&mut gauge, 2.0);
        assert_eq!(readings[0].target, "User3.role");
        assert_eq!(readings[0].property, "bandwidth");
        assert_eq!(readings[0].value, 9e6);
        assert_eq!(
            gauge.interest().to_string(),
            "probe/bandwidth/User3/ServerGrp1"
        );
    }

    #[test]
    fn server_health_gauge_tracks_liveness_flips() {
        let mut gauge = ServerHealthGauge::new("S2", "ServerGrp1.Server2");
        assert!(report(&mut gauge, 0.0).is_empty());
        assert_eq!(gauge.interest().to_string(), "probe/liveness/server/S2");
        gauge.consume(&heartbeat(1.0, "S2", true));
        assert_eq!(report(&mut gauge, 1.0)[0].value, 1.0);
        gauge.consume(&heartbeat(2.0, "S9", false)); // other server: ignored
        assert_eq!(report(&mut gauge, 2.0)[0].value, 1.0);
        gauge.consume(&heartbeat(3.0, "S2", false));
        let readings = report(&mut gauge, 3.0);
        assert_eq!(readings[0].target, "ServerGrp1.Server2");
        assert_eq!(readings[0].property, "isAlive");
        assert_eq!(readings[0].value, 0.0);
    }

    #[test]
    fn group_liveness_gauge_reports_live_and_dead_counts() {
        let mut gauge = GroupLivenessGauge::new("ServerGrp1");
        assert!(report(&mut gauge, 0.0).is_empty());
        gauge.consume(&ProbeEvent::new(
            1.0,
            Measurement::GroupLiveness {
                group: "ServerGrp1".into(),
                live: 1,
                dead: 2,
            },
        ));
        let readings = report(&mut gauge, 1.0);
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
            Measurement::Reachability {
                client: "User3".into(),
                group: "ServerGrp1".into(),
                reachable: false,
            },
        ));
        let readings = report(&mut gauge, 1.0);
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
        assert!(collect(&mut mgr, 11.0).is_empty());
        // After warm-up it does — but an observation made before it still
        // does not count, whenever it arrives.
        mgr.dispatch(&latency_event(21.0, "User1", 9.0));
        mgr.dispatch(&latency_event(23.0, "User1", 1.0));
        let readings = collect(&mut mgr, 23.0);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].value, 1.0);
    }

    #[test]
    fn dispatch_reaches_every_gauge_on_the_topic_and_no_other() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig {
            creation_delay_secs: 0.0,
            ..GaugeLifecycleConfig::default()
        });
        mgr.create(0.0, Box::new(ServerHealthGauge::new("S1", "Grp.Server1")));
        mgr.create(0.0, Box::new(ServerHealthGauge::new("S1", "Grp.Mirror")));
        mgr.create(0.0, Box::new(ServerHealthGauge::new("S2", "Grp.Server2")));
        mgr.create(0.0, Box::new(LoadGauge::new("S1")));
        mgr.dispatch(&heartbeat(1.0, "S1", true));
        let targets: Vec<Key> = collect(&mut mgr, 1.0).iter().map(|r| r.target).collect();
        assert_eq!(targets, ["Grp.Server1", "Grp.Mirror"]);
    }

    #[test]
    fn uncached_manager_pays_full_cost_every_time() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig::default());
        mgr.create(0.0, Box::new(LoadGauge::new("ServerGrp1")));
        mgr.delete(20.0, "load-gauge/ServerGrp1").unwrap();
        let active_at = mgr.create(30.0, Box::new(LoadGauge::new("ServerGrp1")));
        assert!((active_at - 42.0).abs() < 1e-12);
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
        assert_eq!(mgr.gauge_names(), ["load-gauge/ServerGrp1"]);
        let active_at = mgr.replace(20.0, Box::new(LoadGauge::new("ServerGrp1")));
        assert!((active_at - 32.0).abs() < 1e-12);
        assert_eq!(mgr.gauge_names(), ["load-gauge/ServerGrp1"]);
    }

    #[test]
    fn delete_unknown_gauge_returns_none() {
        let mut mgr = GaugeManager::new(GaugeLifecycleConfig::default());
        assert!(mgr.delete(0.0, "nope").is_none());
        assert!(mgr.gauge_names().is_empty());
    }
}
