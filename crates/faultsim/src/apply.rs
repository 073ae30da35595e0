//! Executing compiled fault actions against a running application.

use crate::schedule::{FaultAction, TimedAction};
use gridapp::{AppError, GridApp};
use simnet::SimTime;
use tracestore::{EventKind, EventRef};

/// Applies one primitive fault mutation to the application at time `now`,
/// routing through the `simnet` fault hooks (link capacity, node liveness)
/// or the application's crash/restart operations.
pub fn apply_action(app: &mut GridApp, now: SimTime, action: &FaultAction) -> Result<(), AppError> {
    match action {
        FaultAction::SetLinkCapacity { link, capacity_bps } => {
            app.set_link_capacity(now, *link, *capacity_bps)
        }
        FaultAction::SetLinkOneWay {
            link,
            from,
            capacity_bps,
        } => app.set_link_oneway(now, *link, *from, *capacity_bps),
        FaultAction::SetNodeDown { node, down } => app.set_node_down(now, *node, *down),
        FaultAction::CrashServer { server } => app.crash_server(now, server),
        FaultAction::RestartServer { server } => app.restart_server(now, server),
    }
}

/// Applies one compiled [`TimedAction`] and, when the application carries an
/// enabled trace sink, records it: damage onsets become
/// [`EventKind::Fault`] events (the anchors MTTR and near-fault queries key
/// on), lifting actions become [`EventKind::Info`]. The subject is the
/// affected element (`"R2-R3"`, `"R4"`, `"S2"`), the detail is the
/// schedule's human-readable label.
pub fn apply_timed(app: &mut GridApp, timed: &TimedAction) -> Result<(), AppError> {
    let now = SimTime::from_secs(timed.at_secs);
    apply_action(app, now, &timed.action)?;
    if app.trace_sink().enabled() {
        let kind = if timed.is_onset {
            EventKind::Fault
        } else {
            EventKind::Info
        };
        let subject = action_subject(app, &timed.action);
        app.trace_sink()
            .append(EventRef::new(timed.at_secs, kind, &subject, &timed.label));
    }
    Ok(())
}

/// The affected element's name: link endpoints joined with `-`, the node
/// name, or the server name.
fn action_subject(app: &GridApp, action: &FaultAction) -> String {
    let topology = &app.testbed().topology;
    let node_name = |id| {
        topology
            .node(id)
            .map(|n| n.name.clone())
            .unwrap_or_else(|_| format!("{id:?}"))
    };
    match action {
        FaultAction::SetLinkCapacity { link, .. } | FaultAction::SetLinkOneWay { link, .. } => {
            match topology.link(*link) {
                Ok(l) => format!("{}-{}", node_name(l.a), node_name(l.b)),
                Err(_) => format!("{link:?}"),
            }
        }
        FaultAction::SetNodeDown { node, .. } => node_name(*node),
        FaultAction::CrashServer { server } | FaultAction::RestartServer { server } => {
            server.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultEvent, FaultSchedule, LinkRef};
    use gridapp::{GridConfig, SERVER_GROUP_1};

    fn secs(v: f64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn compiled_schedule_applies_end_to_end() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        let schedule = FaultSchedule {
            events: vec![
                FaultEvent::ServerCrash {
                    server: "S2".into(),
                    at_secs: 10.0,
                },
                FaultEvent::LinkCut {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 20.0,
                },
                FaultEvent::NodeDown {
                    node: "R4".into(),
                    at_secs: 30.0,
                },
                FaultEvent::NodeUp {
                    node: "R4".into(),
                    at_secs: 40.0,
                },
                FaultEvent::ServerRestart {
                    server: "S2".into(),
                    at_secs: 50.0,
                },
                FaultEvent::LinkRestore {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 60.0,
                },
            ],
        };
        let compiled = schedule.compile(app.testbed(), 42).unwrap();
        for timed in &compiled.actions {
            apply_action(&mut app, secs(timed.at_secs), &timed.action).unwrap();
        }
        // Everything was lifted again by the end.
        assert!(app.server_is_up("S2").unwrap());
        assert_eq!(app.group_liveness(SERVER_GROUP_1), (3, 0));
        assert!(app.remos_get_flow("User3", SERVER_GROUP_1).unwrap() > 1.0e5);
        // All six mutations reached the network except the two
        // server-process events (which are application-level).
        assert_eq!(app.network_mutation_count(), 4);
    }
}
