//! Declarative fault schedules and their deterministic compilation.
//!
//! A [`FaultSchedule`] is a serializable list of symbolic [`FaultEvent`]s —
//! links are named by their endpoints (`"R2"`–`"R3"`), servers and nodes by
//! their testbed names. [`FaultSchedule::compile`] resolves the symbols
//! against a concrete [`Testbed`] and expands compound events (flapping,
//! correlated cascades with seeded jitter) into a time-sorted list of
//! primitive [`TimedAction`]s, so a `(schedule, seed)` pair always replays
//! the same timeline.

use gridapp::Testbed;
use serde::Serialize;
use simnet::{LinkId, NodeId, SimRng};

/// A link named by its two endpoints (e.g. routers `"R2"` and `"R3"`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkRef {
    /// One endpoint's node name.
    pub a: String,
    /// The other endpoint's node name.
    pub b: String,
}

impl LinkRef {
    /// Convenience constructor.
    pub fn between(a: impl Into<String>, b: impl Into<String>) -> Self {
        LinkRef {
            a: a.into(),
            b: b.into(),
        }
    }
}

/// One symbolic fault in a schedule. Times are in simulated seconds from the
/// start of the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultEvent {
    /// Reduce a link to `factor` of its nominal capacity (0 = cut, 1 =
    /// healthy) at `at_secs`.
    LinkDegrade {
        /// The link to degrade.
        link: LinkRef,
        /// When to apply the degradation.
        at_secs: f64,
        /// Fraction of the nominal capacity left (clamped to `0..=1`).
        factor: f64,
    },
    /// Cut a link (capacity to zero) at `at_secs`.
    LinkCut {
        /// The link to cut.
        link: LinkRef,
        /// When to cut it.
        at_secs: f64,
    },
    /// Degrade only the `link.a` → `link.b` direction of a link to `factor`
    /// of its nominal capacity at `at_secs`, leaving the opposite direction
    /// intact — an asymmetric (grey) partition. A factor at or above 1
    /// restores symmetric operation.
    LinkDegradeOneWay {
        /// The link to degrade; traffic *from* `a` *towards* `b` is capped.
        link: LinkRef,
        /// When to apply the degradation.
        at_secs: f64,
        /// Fraction of the nominal capacity left in the degraded direction
        /// (clamped to `0..=1`; `1` lifts the degrade).
        factor: f64,
    },
    /// Restore a link to its nominal capacity at `at_secs`.
    LinkRestore {
        /// The link to restore.
        link: LinkRef,
        /// When to restore it.
        at_secs: f64,
    },
    /// Crash a server process at `at_secs` (it keeps its group assignment
    /// but serves nothing until failed over or restarted).
    ServerCrash {
        /// The runtime server name (e.g. `"S2"`).
        server: String,
        /// When it crashes.
        at_secs: f64,
    },
    /// Restart a crashed server process at `at_secs`.
    ServerRestart {
        /// The runtime server name.
        server: String,
        /// When it restarts.
        at_secs: f64,
    },
    /// Take a whole node (machine or router) down at `at_secs`: every
    /// adjacent link stops carrying traffic.
    NodeDown {
        /// The node's name (e.g. `"R3"`).
        node: String,
        /// When it goes down.
        at_secs: f64,
    },
    /// Bring a node back up at `at_secs`.
    NodeUp {
        /// The node's name.
        node: String,
        /// When it returns.
        at_secs: f64,
    },
    /// Flap a link: starting at `from_secs` the link is cut for `duty` of
    /// every `period_secs` cycle, then restored. No cycle starts at or after
    /// `until_secs`, and every down-interval is capped there, so the link is
    /// guaranteed restored by `until_secs` at the latest (the final restore
    /// fires at the end of the last down-interval).
    Flap {
        /// The link that flaps.
        link: LinkRef,
        /// When the flapping starts.
        from_secs: f64,
        /// When the flapping stops (link restored).
        until_secs: f64,
        /// Length of one down/up cycle in seconds.
        period_secs: f64,
        /// Fraction of each cycle the link spends down (clamped to `0..=1`).
        duty: f64,
    },
    /// A correlated multi-element outage: every child event fires at
    /// `at_secs` plus its own (relative) `at_secs` plus a seeded jitter drawn
    /// uniformly from `[0, jitter_secs)` — modelling faults that share a
    /// cause but do not land at exactly the same instant.
    Correlated {
        /// Base time of the outage.
        at_secs: f64,
        /// Maximum per-child jitter (seconds).
        jitter_secs: f64,
        /// The child events (their `at_secs` are offsets from `at_secs`;
        /// nesting further `Correlated` events is not allowed).
        events: Vec<FaultEvent>,
        /// Optional per-child severity factors, one per child event. A
        /// shared cause rarely damages every element equally: each factor
        /// multiplies the remaining-capacity fraction of the corresponding
        /// *degradation* child (`LinkDegrade` / `LinkDegradeOneWay`), so
        /// `0.5` halves what the child leaves standing (clamped to `0..=1`);
        /// non-degradation children ignore their factor. `None` keeps the
        /// historical uniform severity. The list must match the number of
        /// children.
        factors: Option<Vec<f64>>,
    },
}

/// Errors raised while compiling a schedule against a testbed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A node name did not resolve.
    UnknownNode(String),
    /// A link reference did not resolve to a direct link.
    UnknownLink(String, String),
    /// A server name did not resolve.
    UnknownServer(String),
    /// An event carried an invalid parameter (negative time, bad duty, …).
    Invalid(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownNode(n) => write!(f, "unknown node: {n}"),
            FaultError::UnknownLink(a, b) => write!(f, "no direct link between {a} and {b}"),
            FaultError::UnknownServer(s) => write!(f, "unknown server: {s}"),
            FaultError::Invalid(m) => write!(f, "invalid fault event: {m}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A primitive, resolved fault mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Set a link's raw capacity (bits/second).
    SetLinkCapacity {
        /// The resolved link.
        link: LinkId,
        /// The new capacity.
        capacity_bps: f64,
    },
    /// Cap one direction of a link (a capacity at or above nominal lifts
    /// the cap).
    SetLinkOneWay {
        /// The resolved link.
        link: LinkId,
        /// The node the degraded direction leaves from.
        from: NodeId,
        /// The directional capacity cap.
        capacity_bps: f64,
    },
    /// Mark a node down or back up.
    SetNodeDown {
        /// The resolved node.
        node: NodeId,
        /// Down (`true`) or up (`false`).
        down: bool,
    },
    /// Crash a server process.
    CrashServer {
        /// The runtime server name.
        server: String,
    },
    /// Restart a crashed server process.
    RestartServer {
        /// The runtime server name.
        server: String,
    },
}

/// A resolved fault mutation with its firing time and a human-readable
/// label (recorded in the run trace).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedAction {
    /// When the action fires (simulated seconds).
    pub at_secs: f64,
    /// Whether the action inflicts damage (an *onset*) as opposed to lifting
    /// it; onsets anchor the MTTR computation.
    pub is_onset: bool,
    /// Human-readable description for the trace.
    pub label: String,
    /// The mutation itself.
    pub action: FaultAction,
}

/// A declarative fault schedule: a list of symbolic events.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultSchedule {
    /// The symbolic events, compiled in order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (the `none` profile).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the schedule injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compiles the schedule against a testbed. Symbolic names resolve to
    /// node/link ids, compound events expand, and the result is sorted by
    /// firing time (ties broken by emission order). The same
    /// `(schedule, seed)` pair always produces the same timeline.
    pub fn compile(
        &self,
        testbed: &Testbed,
        seed: u64,
    ) -> Result<CompiledFaultSchedule, FaultError> {
        let root = SimRng::seed_from_u64(seed);
        let mut actions: Vec<TimedAction> = Vec::new();
        for (index, event) in self.events.iter().enumerate() {
            compile_event(event, 0.0, 1.0, testbed, &root, index as u64, &mut actions)?;
        }
        // Stable sort: simultaneous actions keep their emission order.
        actions.sort_by(|x, y| x.at_secs.total_cmp(&y.at_secs));
        let onsets: Vec<f64> = {
            let mut o: Vec<f64> = actions
                .iter()
                .filter(|a| a.is_onset)
                .map(|a| a.at_secs)
                .collect();
            o.dedup();
            o
        };
        Ok(CompiledFaultSchedule { actions, onsets })
    }
}

fn resolve_link(testbed: &Testbed, link: &LinkRef) -> Result<(LinkId, f64), FaultError> {
    let a = testbed
        .topology
        .node_by_name(&link.a)
        .ok_or_else(|| FaultError::UnknownNode(link.a.clone()))?;
    let b = testbed
        .topology
        .node_by_name(&link.b)
        .ok_or_else(|| FaultError::UnknownNode(link.b.clone()))?;
    let id = testbed
        .topology
        .link_between(a, b)
        .ok_or_else(|| FaultError::UnknownLink(link.a.clone(), link.b.clone()))?;
    let nominal = testbed
        .topology
        .link(id)
        .map_err(|_| FaultError::UnknownLink(link.a.clone(), link.b.clone()))?
        .capacity_bps;
    Ok((id, nominal))
}

fn check_time(at: f64) -> Result<(), FaultError> {
    if !at.is_finite() || at < 0.0 {
        return Err(FaultError::Invalid(format!("event time {at} is not valid")));
    }
    Ok(())
}

fn check_server(testbed: &Testbed, server: &str) -> Result<(), FaultError> {
    testbed
        .server_host(server)
        .map(|_| ())
        .ok_or_else(|| FaultError::UnknownServer(server.to_string()))
}

fn compile_event(
    event: &FaultEvent,
    offset: f64,
    severity: f64,
    testbed: &Testbed,
    root: &SimRng,
    stream: u64,
    out: &mut Vec<TimedAction>,
) -> Result<(), FaultError> {
    match event {
        FaultEvent::LinkDegrade {
            link,
            at_secs,
            factor,
        } => {
            check_time(*at_secs)?;
            let (id, nominal) = resolve_link(testbed, link)?;
            let factor = (factor * severity).clamp(0.0, 1.0);
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: factor < 1.0,
                label: format!(
                    "link {}-{} degraded to {:.0}% capacity",
                    link.a,
                    link.b,
                    factor * 100.0
                ),
                action: FaultAction::SetLinkCapacity {
                    link: id,
                    capacity_bps: nominal * factor,
                },
            });
        }
        FaultEvent::LinkDegradeOneWay {
            link,
            at_secs,
            factor,
        } => {
            check_time(*at_secs)?;
            let (id, nominal) = resolve_link(testbed, link)?;
            let from = testbed
                .topology
                .node_by_name(&link.a)
                .ok_or_else(|| FaultError::UnknownNode(link.a.clone()))?;
            let factor = (factor * severity).clamp(0.0, 1.0);
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: factor < 1.0,
                label: format!(
                    "link {}-{} degraded to {:.0}% capacity towards {}",
                    link.a,
                    link.b,
                    factor * 100.0,
                    link.b
                ),
                action: FaultAction::SetLinkOneWay {
                    link: id,
                    from,
                    capacity_bps: nominal * factor,
                },
            });
        }
        FaultEvent::LinkCut { link, at_secs } => {
            check_time(*at_secs)?;
            let (id, _) = resolve_link(testbed, link)?;
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: true,
                label: format!("link {}-{} cut", link.a, link.b),
                action: FaultAction::SetLinkCapacity {
                    link: id,
                    capacity_bps: 0.0,
                },
            });
        }
        FaultEvent::LinkRestore { link, at_secs } => {
            check_time(*at_secs)?;
            let (id, nominal) = resolve_link(testbed, link)?;
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: false,
                label: format!("link {}-{} restored", link.a, link.b),
                action: FaultAction::SetLinkCapacity {
                    link: id,
                    capacity_bps: nominal,
                },
            });
        }
        FaultEvent::ServerCrash { server, at_secs } => {
            check_time(*at_secs)?;
            check_server(testbed, server)?;
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: true,
                label: format!("server {server} crashed"),
                action: FaultAction::CrashServer {
                    server: server.clone(),
                },
            });
        }
        FaultEvent::ServerRestart { server, at_secs } => {
            check_time(*at_secs)?;
            check_server(testbed, server)?;
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: false,
                label: format!("server {server} restarted"),
                action: FaultAction::RestartServer {
                    server: server.clone(),
                },
            });
        }
        FaultEvent::NodeDown { node, at_secs } => {
            check_time(*at_secs)?;
            let id = testbed
                .topology
                .node_by_name(node)
                .ok_or_else(|| FaultError::UnknownNode(node.clone()))?;
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: true,
                label: format!("node {node} down"),
                action: FaultAction::SetNodeDown {
                    node: id,
                    down: true,
                },
            });
        }
        FaultEvent::NodeUp { node, at_secs } => {
            check_time(*at_secs)?;
            let id = testbed
                .topology
                .node_by_name(node)
                .ok_or_else(|| FaultError::UnknownNode(node.clone()))?;
            out.push(TimedAction {
                at_secs: offset + at_secs,
                is_onset: false,
                label: format!("node {node} up"),
                action: FaultAction::SetNodeDown {
                    node: id,
                    down: false,
                },
            });
        }
        FaultEvent::Flap {
            link,
            from_secs,
            until_secs,
            period_secs,
            duty,
        } => {
            check_time(*from_secs)?;
            check_time(*until_secs)?;
            if *period_secs <= 0.0 || !period_secs.is_finite() {
                return Err(FaultError::Invalid(format!(
                    "flap period {period_secs} must be positive"
                )));
            }
            if until_secs <= from_secs {
                return Err(FaultError::Invalid(
                    "flap must end after it starts".to_string(),
                ));
            }
            let (id, nominal) = resolve_link(testbed, link)?;
            let duty = duty.clamp(0.0, 1.0);
            let mut t = *from_secs;
            while t < *until_secs {
                out.push(TimedAction {
                    at_secs: offset + t,
                    is_onset: true,
                    label: format!("link {}-{} flapped down", link.a, link.b),
                    action: FaultAction::SetLinkCapacity {
                        link: id,
                        capacity_bps: 0.0,
                    },
                });
                let up_at = (t + duty * period_secs).min(*until_secs);
                out.push(TimedAction {
                    at_secs: offset + up_at,
                    is_onset: false,
                    label: format!("link {}-{} flapped up", link.a, link.b),
                    action: FaultAction::SetLinkCapacity {
                        link: id,
                        capacity_bps: nominal,
                    },
                });
                t += period_secs;
            }
        }
        FaultEvent::Correlated {
            at_secs,
            jitter_secs,
            events,
            factors,
        } => {
            check_time(*at_secs)?;
            if *jitter_secs < 0.0 || !jitter_secs.is_finite() {
                return Err(FaultError::Invalid(format!(
                    "jitter {jitter_secs} must be non-negative"
                )));
            }
            if let Some(factors) = factors {
                if factors.len() != events.len() {
                    return Err(FaultError::Invalid(format!(
                        "{} per-child factors for {} children",
                        factors.len(),
                        events.len()
                    )));
                }
                if let Some(bad) = factors.iter().find(|f| !f.is_finite() || **f < 0.0) {
                    return Err(FaultError::Invalid(format!(
                        "per-child factor {bad} must be finite and non-negative"
                    )));
                }
            }
            for (child_index, child) in events.iter().enumerate() {
                if matches!(child, FaultEvent::Correlated { .. }) {
                    return Err(FaultError::Invalid(
                        "correlated events cannot nest".to_string(),
                    ));
                }
                // An independent jitter sub-stream per (event, child) pair:
                // consuming one child's jitter never perturbs another's.
                let mut rng = root.derive(stream).derive(child_index as u64);
                let jitter = if *jitter_secs > 0.0 {
                    rng.uniform_range(0.0, *jitter_secs)
                } else {
                    0.0
                };
                let child_severity = factors.as_ref().map(|f| f[child_index]).unwrap_or(1.0);
                compile_event(
                    child,
                    offset + at_secs + jitter,
                    child_severity,
                    testbed,
                    root,
                    stream,
                    out,
                )?;
            }
        }
    }
    Ok(())
}

/// A schedule compiled against a concrete testbed: primitive actions sorted
/// by firing time, plus the onset instants used by the resilience metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledFaultSchedule {
    /// The primitive mutations, sorted by `at_secs`.
    pub actions: Vec<TimedAction>,
    /// Times at which damage was inflicted (sorted, deduplicated per
    /// consecutive run).
    pub onsets: Vec<f64>,
}

impl CompiledFaultSchedule {
    /// Whether the timeline contains any action.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The first moment damage is inflicted, if any.
    pub fn first_onset_secs(&self) -> Option<f64> {
        self.onsets.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> Testbed {
        Testbed::build().unwrap()
    }

    #[test]
    fn link_cut_and_restore_compile_to_capacity_mutations() {
        let tb = testbed();
        let schedule = FaultSchedule {
            events: vec![
                FaultEvent::LinkCut {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 100.0,
                },
                FaultEvent::LinkRestore {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 300.0,
                },
            ],
        };
        let compiled = schedule.compile(&tb, 42).unwrap();
        assert_eq!(compiled.actions.len(), 2);
        assert_eq!(compiled.onsets, vec![100.0]);
        assert_eq!(compiled.first_onset_secs(), Some(100.0));
        assert_eq!(compiled.actions.last().map(|a| a.at_secs), Some(300.0));
        match &compiled.actions[0].action {
            FaultAction::SetLinkCapacity { link, capacity_bps } => {
                assert_eq!(*link, tb.link_c34_sg1);
                assert_eq!(*capacity_bps, 0.0);
            }
            other => panic!("unexpected action: {other:?}"),
        }
        match &compiled.actions[1].action {
            FaultAction::SetLinkCapacity { capacity_bps, .. } => {
                assert_eq!(*capacity_bps, gridapp::LINK_CAPACITY_BPS);
            }
            other => panic!("unexpected action: {other:?}"),
        }
    }

    #[test]
    fn degrade_scales_the_nominal_capacity_and_clamps_the_factor() {
        let tb = testbed();
        let schedule = FaultSchedule {
            events: vec![FaultEvent::LinkDegrade {
                link: LinkRef::between("R2", "R3"),
                at_secs: 10.0,
                factor: 0.25,
            }],
        };
        let compiled = schedule.compile(&tb, 0).unwrap();
        match &compiled.actions[0].action {
            FaultAction::SetLinkCapacity { capacity_bps, .. } => {
                assert!((capacity_bps - gridapp::LINK_CAPACITY_BPS * 0.25).abs() < 1.0);
            }
            other => panic!("unexpected action: {other:?}"),
        }
        assert!(compiled.actions[0].is_onset);
        // A factor of 1.0 is a restore, not an onset.
        let healthy = FaultSchedule {
            events: vec![FaultEvent::LinkDegrade {
                link: LinkRef::between("R2", "R3"),
                at_secs: 10.0,
                factor: 3.0,
            }],
        };
        assert!(!healthy.compile(&tb, 0).unwrap().actions[0].is_onset);
    }

    #[test]
    fn oneway_degrade_compiles_to_a_directional_cap_and_lifts_at_factor_one() {
        let tb = testbed();
        let schedule = FaultSchedule {
            events: vec![
                FaultEvent::LinkDegradeOneWay {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 50.0,
                    factor: 0.1,
                },
                FaultEvent::LinkDegradeOneWay {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 150.0,
                    factor: 1.0,
                },
            ],
        };
        let compiled = schedule.compile(&tb, 42).unwrap();
        assert_eq!(compiled.actions.len(), 2);
        // Only the degrade (factor < 1) is an onset; the factor-1 event is
        // the restore.
        assert_eq!(compiled.onsets, vec![50.0]);
        let r2 = tb.topology.node_by_name("R2").unwrap();
        match &compiled.actions[0].action {
            FaultAction::SetLinkOneWay {
                link,
                from,
                capacity_bps,
            } => {
                assert_eq!(*link, tb.link_c34_sg1);
                assert_eq!(*from, r2, "degraded direction leaves the R2 side");
                assert!((capacity_bps - gridapp::LINK_CAPACITY_BPS * 0.1).abs() < 1.0);
            }
            other => panic!("unexpected action: {other:?}"),
        }
        match &compiled.actions[1].action {
            FaultAction::SetLinkOneWay { capacity_bps, .. } => {
                assert_eq!(*capacity_bps, gridapp::LINK_CAPACITY_BPS);
            }
            other => panic!("unexpected action: {other:?}"),
        }
        assert!(compiled.actions[0].label.contains("towards R3"));
        // Unknown endpoints are rejected like every other link event.
        let bad = FaultSchedule {
            events: vec![FaultEvent::LinkDegradeOneWay {
                link: LinkRef::between("R9", "R3"),
                at_secs: 1.0,
                factor: 0.5,
            }],
        };
        assert_eq!(
            bad.compile(&tb, 0),
            Err(FaultError::UnknownNode("R9".into()))
        );
    }

    #[test]
    fn oneway_degrade_applies_end_to_end_and_hits_one_direction_only() {
        use gridapp::{GridApp, GridConfig, SERVER_GROUP_1};
        use simnet::SimTime;
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        let schedule = FaultSchedule {
            events: vec![FaultEvent::LinkDegradeOneWay {
                // Degrade R3 → R2: replies from Server Group 1 towards the
                // squeezed clients crawl, while requests travelling R2 → R3
                // keep the full link.
                link: LinkRef::between("R3", "R2"),
                at_secs: 10.0,
                factor: 0.001,
            }],
        };
        let compiled = schedule.compile(app.testbed(), 42).unwrap();
        for timed in &compiled.actions {
            crate::apply_action(&mut app, SimTime::from_secs(timed.at_secs), &timed.action)
                .unwrap();
        }
        // remos (server → client direction) sees the degraded direction.
        let towards_client = app.remos_get_flow("User3", SERVER_GROUP_1).unwrap();
        assert!(
            towards_client < 0.01 * gridapp::LINK_CAPACITY_BPS,
            "degraded direction: {towards_client}"
        );
        // The mutation is in the audit trail.
        assert_eq!(
            app.network_mutation_trace().count(simnet::TraceKind::Fault),
            1
        );
    }

    #[test]
    fn flap_expands_into_alternating_cut_restore_pairs() {
        let tb = testbed();
        let schedule = FaultSchedule {
            events: vec![FaultEvent::Flap {
                link: LinkRef::between("R2", "R3"),
                from_secs: 100.0,
                until_secs: 200.0,
                period_secs: 40.0,
                duty: 0.5,
            }],
        };
        let compiled = schedule.compile(&tb, 7).unwrap();
        // Cycles at 100, 140, 180: three cuts, three restores.
        assert_eq!(compiled.actions.len(), 6);
        assert_eq!(compiled.onsets.len(), 3);
        let times: Vec<f64> = compiled.actions.iter().map(|a| a.at_secs).collect();
        assert_eq!(times, vec![100.0, 120.0, 140.0, 160.0, 180.0, 200.0]);
        // The last action restores the link.
        match &compiled.actions[5].action {
            FaultAction::SetLinkCapacity { capacity_bps, .. } => {
                assert!(*capacity_bps > 0.0);
            }
            other => panic!("unexpected action: {other:?}"),
        }
    }

    #[test]
    fn correlated_events_jitter_deterministically_with_the_seed() {
        let tb = testbed();
        let schedule = FaultSchedule {
            events: vec![FaultEvent::Correlated {
                at_secs: 100.0,
                jitter_secs: 20.0,
                events: vec![
                    FaultEvent::NodeDown {
                        node: "R3".into(),
                        at_secs: 0.0,
                    },
                    FaultEvent::ServerCrash {
                        server: "S1".into(),
                        at_secs: 0.0,
                    },
                ],
                factors: None,
            }],
        };
        let a = schedule.compile(&tb, 42).unwrap();
        let b = schedule.compile(&tb, 42).unwrap();
        assert_eq!(a, b, "same seed, same timeline");
        let c = schedule.compile(&tb, 43).unwrap();
        assert_ne!(
            a.actions.iter().map(|x| x.at_secs).collect::<Vec<_>>(),
            c.actions.iter().map(|x| x.at_secs).collect::<Vec<_>>(),
            "different seed, different jitter"
        );
        for action in &a.actions {
            assert!(
                (100.0..120.0).contains(&action.at_secs),
                "jitter stays within the window: {}",
                action.at_secs
            );
        }
    }

    #[test]
    fn compile_rejects_bad_references_and_parameters() {
        let tb = testbed();
        let unknown_node = FaultSchedule {
            events: vec![FaultEvent::NodeDown {
                node: "R9".into(),
                at_secs: 1.0,
            }],
        };
        assert_eq!(
            unknown_node.compile(&tb, 0),
            Err(FaultError::UnknownNode("R9".into()))
        );
        let no_link = FaultSchedule {
            events: vec![FaultEvent::LinkCut {
                link: LinkRef::between("R1", "R5"),
                at_secs: 1.0,
            }],
        };
        assert_eq!(
            no_link.compile(&tb, 0),
            Err(FaultError::UnknownLink("R1".into(), "R5".into()))
        );
        let unknown_server = FaultSchedule {
            events: vec![FaultEvent::ServerCrash {
                server: "S99".into(),
                at_secs: 1.0,
            }],
        };
        assert_eq!(
            unknown_server.compile(&tb, 0),
            Err(FaultError::UnknownServer("S99".into()))
        );
        let negative_time = FaultSchedule {
            events: vec![FaultEvent::ServerCrash {
                server: "S1".into(),
                at_secs: -1.0,
            }],
        };
        assert!(matches!(
            negative_time.compile(&tb, 0),
            Err(FaultError::Invalid(_))
        ));
        let bad_flap = FaultSchedule {
            events: vec![FaultEvent::Flap {
                link: LinkRef::between("R2", "R3"),
                from_secs: 10.0,
                until_secs: 5.0,
                period_secs: 1.0,
                duty: 0.5,
            }],
        };
        assert!(matches!(
            bad_flap.compile(&tb, 0),
            Err(FaultError::Invalid(_))
        ));
        let nested = FaultSchedule {
            events: vec![FaultEvent::Correlated {
                at_secs: 1.0,
                jitter_secs: 0.0,
                events: vec![FaultEvent::Correlated {
                    at_secs: 0.0,
                    jitter_secs: 0.0,
                    events: vec![],
                    factors: None,
                }],
                factors: None,
            }],
        };
        assert!(matches!(
            nested.compile(&tb, 0),
            Err(FaultError::Invalid(_))
        ));
    }

    #[test]
    fn per_child_factors_scale_degradation_children_individually() {
        let tb = testbed();
        let base = |factors: Option<Vec<f64>>| FaultSchedule {
            events: vec![FaultEvent::Correlated {
                at_secs: 50.0,
                jitter_secs: 0.0,
                events: vec![
                    FaultEvent::LinkDegrade {
                        link: LinkRef::between("R1", "R3"),
                        at_secs: 0.0,
                        factor: 0.8,
                    },
                    FaultEvent::LinkDegrade {
                        link: LinkRef::between("R2", "R3"),
                        at_secs: 0.0,
                        factor: 0.8,
                    },
                    // A non-degradation child ignores its factor.
                    FaultEvent::ServerCrash {
                        server: "S1".into(),
                        at_secs: 0.0,
                    },
                ],
                factors,
            }],
        };
        let uniform = base(None).compile(&tb, 9).unwrap();
        let weighted = base(Some(vec![0.5, 0.25, 0.0])).compile(&tb, 9).unwrap();
        // Same timeline shape (the factors never consume randomness), so the
        // jitterless firing times are identical.
        assert_eq!(uniform.actions.len(), weighted.actions.len());
        let caps = |compiled: &CompiledFaultSchedule| -> Vec<f64> {
            compiled
                .actions
                .iter()
                .filter_map(|a| match &a.action {
                    FaultAction::SetLinkCapacity { capacity_bps, .. } => Some(*capacity_bps),
                    _ => None,
                })
                .collect()
        };
        let nominal = gridapp::LINK_CAPACITY_BPS;
        assert_eq!(caps(&uniform), vec![nominal * 0.8, nominal * 0.8]);
        let weighted_caps = caps(&weighted);
        assert!(
            (weighted_caps[0] - nominal * 0.4).abs() < 1.0,
            "{weighted_caps:?}"
        );
        assert!(
            (weighted_caps[1] - nominal * 0.2).abs() < 1.0,
            "{weighted_caps:?}"
        );
        // The crash child is unaffected by its (zero) factor.
        assert!(weighted
            .actions
            .iter()
            .any(|a| matches!(&a.action, FaultAction::CrashServer { server } if server == "S1")));
        // Replays are bit-identical.
        assert_eq!(
            weighted,
            base(Some(vec![0.5, 0.25, 0.0])).compile(&tb, 9).unwrap()
        );
    }

    #[test]
    fn per_child_factors_are_validated() {
        let tb = testbed();
        let wrong_arity = FaultSchedule {
            events: vec![FaultEvent::Correlated {
                at_secs: 1.0,
                jitter_secs: 0.0,
                events: vec![FaultEvent::ServerCrash {
                    server: "S1".into(),
                    at_secs: 0.0,
                }],
                factors: Some(vec![0.5, 0.5]),
            }],
        };
        assert!(matches!(
            wrong_arity.compile(&tb, 0),
            Err(FaultError::Invalid(_))
        ));
        let negative = FaultSchedule {
            events: vec![FaultEvent::Correlated {
                at_secs: 1.0,
                jitter_secs: 0.0,
                events: vec![FaultEvent::LinkDegrade {
                    link: LinkRef::between("R2", "R3"),
                    at_secs: 0.0,
                    factor: 0.5,
                }],
                factors: Some(vec![-1.0]),
            }],
        };
        assert!(matches!(
            negative.compile(&tb, 0),
            Err(FaultError::Invalid(_))
        ));
    }

    #[test]
    fn empty_schedule_compiles_to_nothing() {
        let compiled = FaultSchedule::none().compile(&testbed(), 42).unwrap();
        assert!(compiled.is_empty());
        assert!(compiled.first_onset_secs().is_none());
        assert!(FaultSchedule::none().is_empty());
    }

    #[test]
    fn schedules_serialise() {
        let schedule = FaultSchedule {
            events: vec![FaultEvent::ServerCrash {
                server: "S2".into(),
                at_secs: 120.0,
            }],
        };
        let content = serde::Serialize::to_content(&schedule);
        match content {
            serde::Content::Map(fields) => assert_eq!(fields[0].0, "events"),
            other => panic!("unexpected content: {other:?}"),
        }
    }
}
