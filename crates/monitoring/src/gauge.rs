//! Gauges: interpreting probe measurements as model properties.
//!
//! Gauges consume lower-level probe measurements and report higher-level
//! model properties (§3.1): the average latency experienced by a client, a
//! server group's load, the bandwidth of a client's connection. A [`Gauge`]
//! is one value type: what it watches (a [`Topic`]), the model element it
//! reports onto, and what it has seen — a sliding window for a latency gauge,
//! the last measurement for every other kind. The properties it reports
//! follow from its topic's kind.
//!
//! A gauge interns what it watches and what it reports onto when it is
//! created; from then on consuming an event is a [`Topic`] comparison and
//! reporting is a push of a `Copy` [`GaugeReading`] into the caller's buffer.

use crate::probe::{Measurement, ProbeEvent, Topic, TopicKind};
use crate::window::SlidingWindow;
use archmodel::style::props;
use archmodel::Key;
use std::fmt;
use std::sync::OnceLock;

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

/// A gauge's identity: its kind and the entity it is about — the client or
/// group it watches, or for a server-health gauge the model replica it
/// reports onto (a failover re-points that gauge at another runtime server
/// without making it another gauge) — plus, for a bandwidth gauge, the group
/// it measures against. `Display` is the gauge's name
/// (`latency-gauge/User3`, `bandwidth-gauge/User3/ServerGrp1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId {
    /// The kind of observation the gauge interprets.
    pub kind: TopicKind,
    /// The client, group or model replica the gauge is about.
    pub subject: Key,
    /// The server group of a bandwidth gauge; `None` for every other kind.
    pub other: Option<Key>,
}

/// The name prefix of a gauge of `kind`.
fn prefix(kind: TopicKind) -> &'static str {
    match kind {
        TopicKind::Latency => "latency-gauge/",
        TopicKind::Load => "load-gauge/",
        TopicKind::Bandwidth => "bandwidth-gauge/",
        TopicKind::ServerLiveness => "server-gauge/",
        TopicKind::GroupLiveness => "liveness-gauge/",
        TopicKind::Reachable => "reachability-gauge/",
    }
}

impl fmt::Display for GaugeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", prefix(self.kind), self.subject)?;
        match self.other {
            Some(other) => write!(f, "/{other}"),
            None => Ok(()),
        }
    }
}

/// The model properties gauges report, interned once per process.
struct Properties {
    average_latency: Key,
    load: Key,
    bandwidth: Key,
    is_alive: Key,
    reachable: Key,
    live_servers: Key,
    dead_servers: Key,
}

impl Properties {
    /// The property a gauge of `kind` reports (a group-liveness gauge's
    /// first; `deadServers` is its second).
    fn of(&self, kind: TopicKind) -> Key {
        match kind {
            TopicKind::Latency => self.average_latency,
            TopicKind::Load => self.load,
            TopicKind::Bandwidth => self.bandwidth,
            TopicKind::ServerLiveness => self.is_alive,
            TopicKind::GroupLiveness => self.live_servers,
            TopicKind::Reachable => self.reachable,
        }
    }
}

fn properties() -> &'static Properties {
    static PROPERTIES: OnceLock<Properties> = OnceLock::new();
    PROPERTIES.get_or_init(|| Properties {
        average_latency: Key::new(props::AVERAGE_LATENCY),
        load: Key::new(props::LOAD),
        bandwidth: Key::new(props::BANDWIDTH),
        is_alive: Key::new(props::IS_ALIVE),
        // The style declares no constant for it: only the detectors read it.
        reachable: Key::new("reachable"),
        live_servers: Key::new(props::LIVE_SERVERS),
        dead_servers: Key::new(props::DEAD_SERVERS),
    })
}

/// What a gauge has seen of its topic.
#[derive(Debug, Clone)]
enum Seen {
    /// A latency gauge: the samples inside its averaging window.
    Window(SlidingWindow),
    /// Every other kind: the most recent measurement.
    Last(Option<Measurement>),
}

/// A gauge: consumes the probe events of one topic and reports them as
/// properties of one model element.
#[derive(Debug, Clone)]
pub struct Gauge {
    id: GaugeId,
    interest: Topic,
    target: Key,
    seen: Seen,
}

impl Gauge {
    fn watching(kind: TopicKind, subject: Key, other: Option<Key>, target: Key) -> Gauge {
        // Intern what it will report where the gauge is created, not in the
        // first report.
        properties();
        let about = if kind == TopicKind::ServerLiveness {
            target
        } else {
            subject
        };
        Gauge {
            id: GaugeId {
                kind,
                subject: about,
                other,
            },
            interest: Topic {
                kind,
                subject,
                other,
            },
            target,
            seen: Seen::Last(None),
        }
    }

    /// Reports the mean request latency of `client` over the last
    /// `window_secs` as the client's `averageLatency`.
    pub fn latency(client: impl Into<Key>, window_secs: f64) -> Gauge {
        let client = client.into();
        Gauge {
            seen: Seen::Window(SlidingWindow::new(window_secs)),
            ..Gauge::watching(TopicKind::Latency, client, None, client)
        }
    }

    /// Reports `group`'s most recent queue length as its `load`.
    pub fn load(group: impl Into<Key>) -> Gauge {
        let group = group.into();
        Gauge::watching(TopicKind::Load, group, None, group)
    }

    /// Reports the bandwidth between `client` and `group` as the `bandwidth`
    /// of the model element named `target` (the client's role).
    pub fn bandwidth(
        client: impl Into<Key>,
        group: impl Into<Key>,
        target: impl Into<Key>,
    ) -> Gauge {
        let kind = TopicKind::Bandwidth;
        Gauge::watching(kind, client.into(), Some(group.into()), target.into())
    }

    /// Reports the liveness of runtime server `server` as the `isAlive` of
    /// the model replica named `replica` (0 or 1). Failover repairs churn
    /// these gauges the way client moves churn bandwidth gauges.
    pub fn server_health(server: impl Into<Key>, replica: impl Into<Key>) -> Gauge {
        Gauge::watching(
            TopicKind::ServerLiveness,
            server.into(),
            None,
            replica.into(),
        )
    }

    /// Reports whether `client` can reach its current server group as the
    /// `reachable` (0 or 1) of the model element named `target` (the
    /// client's role).
    pub fn reachability(client: impl Into<Key>, target: impl Into<Key>) -> Gauge {
        Gauge::watching(TopicKind::Reachable, client.into(), None, target.into())
    }

    /// Reports `group`'s live and dead replica counts as its `liveServers`
    /// and `deadServers` — what the `liveness` invariant checks after a
    /// fault.
    pub fn group_liveness(group: impl Into<Key>) -> Gauge {
        let group = group.into();
        Gauge::watching(TopicKind::GroupLiveness, group, None, group)
    }

    /// The gauge's identity.
    pub fn id(&self) -> GaugeId {
        self.id
    }

    /// The one probe-bus topic this gauge reads.
    pub fn interest(&self) -> Topic {
        self.interest
    }

    /// Feeds one probe event to the gauge; an event on another topic is
    /// ignored.
    pub fn consume(&mut self, event: &ProbeEvent) {
        if event.topic() != self.interest {
            return;
        }
        match &mut self.seen {
            Seen::Window(window) => window.push(event.time, event.measurement.value()),
            Seen::Last(last) => *last = Some(event.measurement),
        }
    }

    /// Appends the gauge's readings at time `now` to `out`: none before it
    /// has seen anything.
    pub fn report(&mut self, now: f64, out: &mut Vec<GaugeReading>) {
        let p = properties();
        let (target, property) = (self.target, p.of(self.interest.kind));
        let reading = |property, value| GaugeReading {
            time: now,
            target,
            property,
            value,
        };
        match &mut self.seen {
            Seen::Window(window) => {
                window.advance(now);
                out.extend(window.mean().map(|mean| reading(property, mean)));
            }
            Seen::Last(Some(Measurement::GroupLiveness { live, dead, .. })) => {
                out.push(reading(property, *live as f64));
                out.push(reading(p.dead_servers, *dead as f64));
            }
            Seen::Last(last) => out.extend(last.map(|m| reading(property, m.value()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::MonitoringPipeline;

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

    fn report(gauge: &mut Gauge, now: f64) -> Vec<GaugeReading> {
        let mut out = Vec::new();
        gauge.report(now, &mut out);
        out
    }

    #[test]
    fn average_latency_gauge_reports_window_mean() {
        let mut gauge = Gauge::latency("User1", 30.0);
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
        let mut gauge = Gauge::latency("User1", 10.0);
        gauge.consume(&latency_event(0.0, "User1", 9.0));
        gauge.consume(&latency_event(100.0, "User1", 1.0));
        let readings = report(&mut gauge, 100.0);
        assert!((readings[0].value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_gauge_reports_nothing() {
        let mut gauge = Gauge::latency("User1", 10.0);
        assert!(report(&mut gauge, 1.0).is_empty());
        let mut load = Gauge::load("ServerGrp1");
        assert!(report(&mut load, 1.0).is_empty());
    }

    #[test]
    fn load_gauge_reports_latest_queue_length() {
        let mut gauge = Gauge::load("ServerGrp1");
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
            Measurement::GroupLiveness {
                group: "ServerGrp1".into(),
                live: 3,
                dead: 0,
            },
        ));
        let readings = report(&mut gauge, 3.0);
        assert_eq!(readings[0].value, 9.0);
        assert_eq!(readings[0].property, "load");
    }

    #[test]
    fn bandwidth_gauge_targets_the_role() {
        let mut gauge = Gauge::bandwidth("User3", "ServerGrp1", "User3.role");
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
        let mut gauge = Gauge::server_health("S2", "ServerGrp1.Server2");
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
        let mut gauge = Gauge::group_liveness("ServerGrp1");
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
        let mut gauge = Gauge::reachability("User3", "User3.role");
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
    fn name_helpers_agree_with_the_constructors() {
        let names: Vec<String> = [
            Gauge::latency("User3", 30.0),
            Gauge::load("ServerGrp1"),
            Gauge::bandwidth("User3", "ServerGrp1", "User3.role"),
            Gauge::server_health("S2", "ServerGrp1.Server2"),
            Gauge::reachability("User3", "User3.role"),
            Gauge::group_liveness("ServerGrp1"),
        ]
        .iter()
        .map(|gauge| gauge.id().to_string())
        .collect();
        assert_eq!(
            names,
            [
                "latency-gauge/User3",
                "load-gauge/ServerGrp1",
                "bandwidth-gauge/User3/ServerGrp1",
                "server-gauge/ServerGrp1.Server2",
                "reachability-gauge/User3",
                "liveness-gauge/ServerGrp1",
            ]
        );
        // A failover re-points a health gauge without changing which it is.
        assert_eq!(
            Gauge::server_health("S6", "ServerGrp1.Server2").id(),
            Gauge::server_health("S2", "ServerGrp1.Server2").id()
        );
    }

    // ---- the lifecycle a deployed gauge goes through in the pipeline ----

    fn step(pipeline: &mut MonitoringPipeline, now: f64) -> Vec<GaugeReading> {
        let mut out = Vec::new();
        pipeline.step(now, &mut out);
        out
    }

    fn names(pipeline: &MonitoringPipeline) -> Vec<String> {
        pipeline.roster().map(|g| g.id().to_string()).collect()
    }

    #[test]
    fn gauge_manager_charges_creation_delay() {
        let mut pipeline = MonitoringPipeline::new();
        let active_at = pipeline.create(10.0, Gauge::latency("User1", 30.0));
        assert!((active_at - 22.0).abs() < 1e-12);
        // Before warm-up the gauge neither consumes nor reports.
        pipeline.publish(latency_event(11.0, "User1", 1.0));
        assert!(step(&mut pipeline, 11.0).is_empty());
        // After warm-up it does — but an observation made before it still
        // does not count, whenever it arrives.
        pipeline.publish(latency_event(21.0, "User1", 9.0));
        pipeline.publish(latency_event(23.0, "User1", 1.0));
        let readings = step(&mut pipeline, 23.0);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].value, 1.0);
    }

    #[test]
    fn dispatch_reaches_every_gauge_on_the_topic_and_no_other() {
        let mut pipeline = MonitoringPipeline::new();
        pipeline.create(0.0, Gauge::server_health("S1", "Grp.Server1"));
        pipeline.create(0.0, Gauge::server_health("S1", "Grp.Mirror"));
        pipeline.create(0.0, Gauge::server_health("S2", "Grp.Server2"));
        pipeline.create(0.0, Gauge::load("S1"));
        pipeline.publish(heartbeat(13.0, "S1", true));
        let targets: Vec<Key> = step(&mut pipeline, 13.0).iter().map(|r| r.target).collect();
        assert_eq!(targets, ["Grp.Server1", "Grp.Mirror"]);
    }

    #[test]
    fn uncached_manager_pays_full_cost_every_time() {
        let mut pipeline = MonitoringPipeline::new();
        let load = Gauge::load("ServerGrp1");
        pipeline.create(0.0, load.clone());
        assert!(pipeline.delete(load.id()).is_some());
        let active_at = pipeline.create(30.0, load);
        assert!((active_at - 42.0).abs() < 1e-12);
    }

    #[test]
    fn replace_deletes_the_namesake_before_creating() {
        let mut pipeline = MonitoringPipeline::new();
        pipeline.replace(0.0, Gauge::load("ServerGrp1"));
        assert_eq!(names(&pipeline), ["load-gauge/ServerGrp1"]);
        let active_at = pipeline.replace(20.0, Gauge::load("ServerGrp1"));
        assert!((active_at - 32.0).abs() < 1e-12);
        assert_eq!(names(&pipeline), ["load-gauge/ServerGrp1"]);
    }

    #[test]
    fn delete_unknown_gauge_returns_none() {
        let mut pipeline = MonitoringPipeline::new();
        assert!(pipeline.delete(Gauge::load("nope").id()).is_none());
        assert!(names(&pipeline).is_empty());
    }
}
