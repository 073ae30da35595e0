//! Concrete probes over the running grid application.
//!
//! The paper instruments the Java application with AIDE-generated probes that
//! report when particular methods are called (so gauges can compute latency,
//! bandwidth, and server load) and uses Remos as the bandwidth probe. Here the
//! probes read the simulated application directly and append
//! [`ProbeEvent`](monitoring::ProbeEvent)s for the monitoring pipeline to a
//! buffer the caller reuses from tick to tick. They walk the application's
//! own tables in name order and copy the interned names kept there, so
//! sampling allocates nothing.

use crate::app::{FlowSnapshot, GridApp};
use monitoring::{Measurement, ProbeEvent};
use simnet::SimTime;

/// The latency probe: reports one measurement per completed request since the
/// last sample (the AIDE-instrumented reply handler in the paper), stamped
/// with the time the request completed.
pub fn sample_latency_probe(app: &mut GridApp, out: &mut Vec<ProbeEvent>) {
    out.extend(app.drain_completions().map(|c| {
        ProbeEvent::new(
            c.time.as_secs(),
            Measurement::RequestLatency {
                client: c.client,
                seconds: c.latency_secs,
            },
        )
    }));
}

/// The server-load probe: reports the current queue length of every server
/// group.
pub fn sample_queue_probe(app: &GridApp, now: SimTime, out: &mut Vec<ProbeEvent>) {
    out.extend(app.sample_groups().map(|g| {
        ProbeEvent::new(
            now.as_secs(),
            Measurement::QueueLength {
                group: g.group,
                length: g.queued,
            },
        )
    }));
}

/// Bandwidth below which a group counts as unreachable for the reachability
/// probe (well under the 10 Kbps task-layer minimum; a cut link leaves ~1 bps).
pub const REACHABILITY_FLOOR_BPS: f64 = 1_000.0;

/// The liveness probe: a heartbeat per runtime server plus a live/dead
/// census per server group, so gauges can see crashes the moment they
/// happen instead of inferring them from queue growth.
pub fn sample_liveness_probe(app: &GridApp, now: SimTime, out: &mut Vec<ProbeEvent>) {
    out.extend(app.sample_servers().map(|(server, up)| {
        ProbeEvent::new(now.as_secs(), Measurement::ServerLive { server, up })
    }));
    out.extend(app.sample_groups().map(|g| {
        ProbeEvent::new(
            now.as_secs(),
            Measurement::GroupLiveness {
                group: g.group,
                live: g.live,
                dead: g.dead,
            },
        )
    }));
}

/// The Remos probes, served from the control tick's one [`FlowSnapshot`]
/// (shared with the figure metrics and the monitoring-delay model, so each
/// max-min fair-share query — the expensive part of sampling — runs once):
/// a bandwidth measurement per client whose query succeeded, then a
/// reachability measurement per client — whether it can currently reach its
/// server group at a usable bandwidth. A group with no live servers, or one
/// behind a cut link or a down router, is unreachable.
pub fn sample_flow_probes_from(snapshot: &FlowSnapshot, now: SimTime, out: &mut Vec<ProbeEvent>) {
    let t = now.as_secs();
    for &(client, group, flow) in snapshot.entries() {
        if let Some(bps) = flow {
            out.push(ProbeEvent::new(
                t,
                Measurement::Bandwidth { client, group, bps },
            ));
        }
    }
    for &(client, group, flow) in snapshot.entries() {
        let reachable = flow.is_some_and(|bps| bps >= REACHABILITY_FLOOR_BPS);
        out.push(ProbeEvent::new(
            t,
            Measurement::Reachability {
                client,
                group,
                reachable,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GridConfig;

    fn app_at(t: f64) -> GridApp {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        app.advance(SimTime::from_secs(t));
        app
    }

    /// What a sampler appends to an empty buffer.
    fn sampled(sample: impl FnOnce(&mut Vec<ProbeEvent>)) -> Vec<ProbeEvent> {
        let mut events = Vec::new();
        sample(&mut events);
        events
    }

    // ---- oracles: the samplers as they were when they went through the
    // application's name-based public API, one lookup per name ----

    /// The bandwidth probe: a Remos query per client against its *current*
    /// server group.
    fn sample_bandwidth_probe(app: &GridApp, now: SimTime) -> Vec<ProbeEvent> {
        app.client_names()
            .into_iter()
            .filter_map(|client| {
                let group = app.client_group(&client).ok()?;
                let bps = app.remos_get_flow(&client, group).ok()?;
                Some(ProbeEvent::new(
                    now.as_secs(),
                    Measurement::Bandwidth {
                        client: client.into(),
                        group,
                        bps,
                    },
                ))
            })
            .collect()
    }

    /// The reachability probe: whether each client can currently reach its
    /// server group at a usable bandwidth.
    fn sample_reachability_probe(app: &GridApp, now: SimTime) -> Vec<ProbeEvent> {
        app.client_names()
            .into_iter()
            .filter_map(|client| {
                let group = app.client_group(&client).ok()?;
                let reachable = app
                    .remos_get_flow(&client, group)
                    .map(|bps| bps >= REACHABILITY_FLOOR_BPS)
                    .unwrap_or(false);
                Some(ProbeEvent::new(
                    now.as_secs(),
                    Measurement::Reachability {
                        client: client.into(),
                        group,
                        reachable,
                    },
                ))
            })
            .collect()
    }

    /// Queue and liveness events through the public
    /// name-based API: `group_names()` / `server_names()` cloned, each name
    /// looked up again.
    fn sample_state_probes_by_name(app: &GridApp, now: SimTime) -> Vec<ProbeEvent> {
        let t = now.as_secs();
        let mut events = Vec::new();
        for group in app.group_names() {
            let length = app.queue_length(group).unwrap();
            events.push(ProbeEvent::new(
                t,
                Measurement::QueueLength { group, length },
            ));
        }
        for server in app.server_names() {
            let up = app.server_is_up(&server).unwrap();
            let server = server.into();
            events.push(ProbeEvent::new(t, Measurement::ServerLive { server, up }));
        }
        for group in app.group_names() {
            let (live, dead) = app.group_liveness(group);
            events.push(ProbeEvent::new(
                t,
                Measurement::GroupLiveness { group, live, dead },
            ));
        }
        events
    }

    #[test]
    fn latency_probe_drains_completions() {
        let mut app = app_at(30.0);
        let events = sampled(|out| sample_latency_probe(&mut app, out));
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| matches!(e.measurement, Measurement::RequestLatency { .. })));
        // Draining twice yields nothing new.
        assert!(sampled(|out| sample_latency_probe(&mut app, out)).is_empty());
    }

    #[test]
    fn queue_probe_reports_every_group() {
        let app = app_at(10.0);
        let events = sampled(|out| sample_queue_probe(&app, SimTime::from_secs(10.0), out));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn bandwidth_probe_reports_every_client() {
        let app = app_at(10.0);
        let events = sample_bandwidth_probe(&app, SimTime::from_secs(10.0));
        assert_eq!(events.len(), 6);
        for e in &events {
            if let Measurement::Bandwidth { bps, .. } = e.measurement {
                assert!(bps > 0.0);
            } else {
                panic!("wrong measurement kind");
            }
        }
    }

    #[test]
    fn liveness_probe_reports_servers_and_groups() {
        let mut app = app_at(10.0);
        let events = sampled(|out| sample_liveness_probe(&app, SimTime::from_secs(10.0), out));
        // Seven servers plus two groups on the paper testbed.
        assert_eq!(events.len(), 9);
        assert!(events.iter().all(|e| matches!(
            e.measurement,
            Measurement::ServerLive { up: true, .. } | Measurement::GroupLiveness { dead: 0, .. }
        )));
        // Crash two of Server Group 1's replicas: the census sees them.
        app.crash_server(SimTime::from_secs(11.0), "S2").unwrap();
        app.crash_server(SimTime::from_secs(11.0), "S3").unwrap();
        let events = sampled(|out| sample_liveness_probe(&app, SimTime::from_secs(12.0), out));
        let sg1 = events
            .iter()
            .find_map(|e| match e.measurement {
                Measurement::GroupLiveness { group, live, dead } if group == "ServerGrp1" => {
                    Some((live, dead))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(sg1, (1, 2));
        let s2_down = events.iter().any(|e| {
            matches!(e.measurement,
                Measurement::ServerLive { server, up: false } if server == "S2")
        });
        assert!(s2_down);
    }

    #[test]
    fn reachability_probe_flags_dead_groups() {
        let mut app = app_at(10.0);
        let events = sample_reachability_probe(&app, SimTime::from_secs(10.0));
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| matches!(
            e.measurement,
            Measurement::Reachability {
                reachable: true,
                ..
            }
        )));
        // Crash every Server Group 1 replica: its clients become unreachable.
        for server in ["S1", "S2", "S3"] {
            app.crash_server(SimTime::from_secs(11.0), server).unwrap();
        }
        let events = sample_reachability_probe(&app, SimTime::from_secs(12.0));
        assert!(events.iter().all(|e| matches!(
            e.measurement,
            Measurement::Reachability {
                reachable: false,
                ..
            }
        )));
    }

    #[test]
    fn flow_probes_match_the_separate_bandwidth_and_reachability_probes() {
        let mut app = app_at(10.0);
        app.crash_server(SimTime::from_secs(10.0), "S1").unwrap();
        let t = SimTime::from_secs(12.0);
        let combined = sampled(|out| sample_flow_probes_from(&app.flow_snapshot(), t, out));
        let mut separate = sample_bandwidth_probe(&app, t);
        separate.extend(sample_reachability_probe(&app, t));
        assert_eq!(combined, separate);
    }

    #[test]
    fn table_walking_samplers_match_the_name_based_api() {
        let mut app = app_at(10.0);
        // A runtime group that sorts before the built ones, a crash and a
        // recruit: name order differs from creation order, and every census
        // field is non-trivial.
        app.create_req_queue("ServerGrp0");
        let spare = app.find_server().unwrap();
        app.connect_server(spare, "ServerGrp0").unwrap();
        app.activate_server(spare).unwrap();
        app.crash_server(SimTime::from_secs(11.0), "S2").unwrap();
        app.move_client("User3", "ServerGrp0").unwrap();
        app.advance(SimTime::from_secs(14.0));
        let t = SimTime::from_secs(14.0);
        let walked = sampled(|out| {
            sample_queue_probe(&app, t, out);
            sample_liveness_probe(&app, t, out);
        });
        assert_eq!(walked, sample_state_probes_by_name(&app, t));
        assert_eq!(walked.len(), 3 + 7 + 3);
    }
}
