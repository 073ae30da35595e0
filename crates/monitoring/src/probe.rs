//! Probes: low-level observations of the target system.
//!
//! Probes are "deployed" in the target system or physical environment and
//! announce observations via the probe bus (§3.1). In the reproduction the
//! concrete probes live with the grid application (crate `gridapp`), which
//! reads simulator state; this module defines the observation vocabulary and
//! the [`Topic`]s observations are published under.
//!
//! Everything here is a `Copy` value. The entities an observation is about
//! are interned [`Key`]s, handed out once where the entity is created, so an
//! observation is built, routed and consumed without touching the heap; its
//! topic is *rendered* (`Display`) only when somebody wants to read it.

use archmodel::Key;
use std::fmt;

/// A single low-level observation emitted by a probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// A client finished a request/response exchange with the given
    /// end-to-end latency.
    RequestLatency {
        /// The client's name.
        client: Key,
        /// Observed latency in seconds.
        seconds: f64,
    },
    /// The pending-request queue length of a server group (the paper's
    /// measure of server load).
    QueueLength {
        /// The server group's name.
        group: Key,
        /// Number of requests waiting.
        length: usize,
    },
    /// Predicted bandwidth between a client and a server group, as returned
    /// by the Remos-like query.
    Bandwidth {
        /// The client's name.
        client: Key,
        /// The server group's name.
        group: Key,
        /// Bandwidth in bits per second.
        bps: f64,
    },
    /// Liveness of a single runtime server process (the heartbeat probe the
    /// fault-injection subsystem exercises).
    ServerLive {
        /// The runtime server's name (e.g. `"S2"`).
        server: Key,
        /// Whether the process answered its heartbeat.
        up: bool,
    },
    /// Aggregate liveness of a server group: how many of its assigned
    /// replicas are alive and how many are assigned but dead.
    GroupLiveness {
        /// The server group's name.
        group: Key,
        /// Assigned replicas that are alive.
        live: usize,
        /// Assigned replicas that have crashed and not been failed over.
        dead: usize,
    },
    /// Whether a client can currently reach its server group at a usable
    /// bandwidth (the reachability probe).
    Reachability {
        /// The client's name.
        client: Key,
        /// The server group probed.
        group: Key,
        /// True when the group answered at usable bandwidth.
        reachable: bool,
    },
}

/// What kind of observation a [`Topic`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopicKind {
    /// `probe/latency/<client>`
    Latency,
    /// `probe/load/<group>`
    Load,
    /// `probe/bandwidth/<client>/<group>`
    Bandwidth,
    /// `probe/liveness/server/<server>`
    ServerLiveness,
    /// `probe/liveness/group/<group>`
    GroupLiveness,
    /// `probe/reachable/<client>`
    Reachable,
}

/// A probe-bus topic: what is observed, about whom, and — for the one
/// observation that is about a pair — against whom. A topic is a value that
/// is compared and hashed as three words; its `Display` is the hierarchical
/// name (`probe/latency/User3`, `probe/bandwidth/User3/ServerGrp2`) a
/// wide-area event bus would route on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topic {
    /// The kind of observation.
    pub kind: TopicKind,
    /// The client, group or server observed.
    pub subject: Key,
    /// The server group a [`TopicKind::Bandwidth`] observation is measured
    /// against; `None` for every other kind.
    pub other: Option<Key>,
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            TopicKind::Latency => "latency",
            TopicKind::Load => "load",
            TopicKind::Bandwidth => "bandwidth",
            TopicKind::ServerLiveness => "liveness/server",
            TopicKind::GroupLiveness => "liveness/group",
            TopicKind::Reachable => "reachable",
        };
        write!(f, "probe/{kind}/{}", self.subject)?;
        match self.other {
            Some(other) => write!(f, "/{other}"),
            None => Ok(()),
        }
    }
}

impl Measurement {
    /// The bus topic this measurement is published under.
    pub fn topic(&self) -> Topic {
        let (kind, subject, other) = match *self {
            Measurement::RequestLatency { client, .. } => (TopicKind::Latency, client, None),
            Measurement::QueueLength { group, .. } => (TopicKind::Load, group, None),
            Measurement::Bandwidth { client, group, .. } => {
                (TopicKind::Bandwidth, client, Some(group))
            }
            Measurement::ServerLive { server, .. } => (TopicKind::ServerLiveness, server, None),
            Measurement::GroupLiveness { group, .. } => (TopicKind::GroupLiveness, group, None),
            Measurement::Reachability { client, .. } => (TopicKind::Reachable, client, None),
        };
        Topic {
            kind,
            subject,
            other,
        }
    }

    /// The numeric value carried by the measurement.
    pub fn value(&self) -> f64 {
        match *self {
            Measurement::RequestLatency { seconds, .. } => seconds,
            Measurement::QueueLength { length, .. } => length as f64,
            Measurement::Bandwidth { bps, .. } => bps,
            Measurement::GroupLiveness { live, .. } => live as f64,
            Measurement::ServerLive { up: flag, .. }
            | Measurement::Reachability {
                reachable: flag, ..
            } => {
                if flag {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// An observation announced on the probe bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeEvent {
    /// Simulated time of the observation (seconds).
    pub time: f64,
    /// The observation itself.
    pub measurement: Measurement,
}

impl ProbeEvent {
    /// Convenience constructor.
    pub fn new(time: f64, measurement: Measurement) -> Self {
        ProbeEvent { time, measurement }
    }

    /// The topic this event is published under.
    pub fn topic(&self) -> Topic {
        self.measurement.topic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topics_follow_the_naming_scheme() {
        let rendered = |m: Measurement| m.topic().to_string();
        assert_eq!(
            rendered(Measurement::RequestLatency {
                client: "User3".into(),
                seconds: 1.2
            }),
            "probe/latency/User3"
        );
        assert_eq!(
            rendered(Measurement::QueueLength {
                group: "ServerGrp1".into(),
                length: 7
            }),
            "probe/load/ServerGrp1"
        );
        assert_eq!(
            rendered(Measurement::Bandwidth {
                client: "User3".into(),
                group: "ServerGrp2".into(),
                bps: 1e6
            }),
            "probe/bandwidth/User3/ServerGrp2"
        );
        assert_eq!(
            rendered(Measurement::ServerLive {
                server: "S2".into(),
                up: false
            }),
            "probe/liveness/server/S2"
        );
        assert_eq!(
            rendered(Measurement::GroupLiveness {
                group: "ServerGrp1".into(),
                live: 1,
                dead: 2
            }),
            "probe/liveness/group/ServerGrp1"
        );
        assert_eq!(
            rendered(Measurement::Reachability {
                client: "User3".into(),
                group: "ServerGrp1".into(),
                reachable: true
            }),
            "probe/reachable/User3"
        );
    }

    #[test]
    fn topics_are_equal_exactly_when_they_render_alike() {
        let bandwidth = |client: &str, group: &str| {
            Measurement::Bandwidth {
                client: client.into(),
                group: group.into(),
                bps: 0.0,
            }
            .topic()
        };
        assert_eq!(
            bandwidth("User3", "ServerGrp1"),
            bandwidth("User3", "ServerGrp1")
        );
        assert_ne!(
            bandwidth("User3", "ServerGrp1"),
            bandwidth("User3", "ServerGrp2")
        );
        // A server and a group that share a name are still different topics.
        let server = Measurement::ServerLive {
            server: "X".into(),
            up: true,
        };
        let group = Measurement::GroupLiveness {
            group: "X".into(),
            live: 0,
            dead: 0,
        };
        assert_ne!(server.topic(), group.topic());
    }

    #[test]
    fn liveness_values_are_boolean_like() {
        assert_eq!(
            Measurement::ServerLive {
                server: "S1".into(),
                up: true
            }
            .value(),
            1.0
        );
        assert_eq!(
            Measurement::ServerLive {
                server: "S1".into(),
                up: false
            }
            .value(),
            0.0
        );
        assert_eq!(
            Measurement::GroupLiveness {
                group: "g".into(),
                live: 2,
                dead: 1
            }
            .value(),
            2.0
        );
        assert_eq!(
            Measurement::Reachability {
                client: "c".into(),
                group: "g".into(),
                reachable: false
            }
            .value(),
            0.0
        );
    }

    #[test]
    fn values_extracted_per_variant() {
        assert_eq!(
            Measurement::RequestLatency {
                client: "c".into(),
                seconds: 2.5
            }
            .value(),
            2.5
        );
        assert_eq!(
            Measurement::QueueLength {
                group: "g".into(),
                length: 4
            }
            .value(),
            4.0
        );
    }

    #[test]
    fn probe_event_topic_delegates_to_measurement() {
        let e = ProbeEvent::new(
            1.0,
            Measurement::RequestLatency {
                client: "User1".into(),
                seconds: 0.3,
            },
        );
        assert_eq!(e.topic().to_string(), "probe/latency/User1");
        assert_eq!(e.topic(), e.measurement.topic());
    }
}
