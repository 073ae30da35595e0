//! The one monitoring path: who is watched, how flows are probed, and the
//! gauge roster that follows from both.
//!
//! The model layer rests on gauges keeping the architectural model a mirror
//! of the runtime. [`Monitor`] owns everything that decides what the gauges
//! see — the [`MonitoringPipeline`], the run's one [`ClassIndex`] and the
//! [`RepTable`] drawn over it — and fixes its [`Policy`] once, at
//! construction, from what it can observe: the strategy's `group_planner`
//! flag and the size of the deployment. The per-tick flow snapshot, the
//! gauges deployed at start-up, the gauges re-homed after `moveClient` and
//! `moveClientGroup`, and the class census are all read off that one answer,
//! so a snapshot entry without a gauge (or a gauge without an entry) cannot
//! be constructed.

use crate::framework::FrameworkConfig;
use gridapp::{
    sample_flow_probes_from, sample_latency_probe, sample_liveness_probe, sample_queue_probe,
    FlowSnapshot, GridApp,
};
use monitoring::{Gauge, GaugeId, GaugeReading, Key, MonitoringPipeline, ProbeEvent, TopicKind};
use planner::{ClassIndex, Rep, RepTable};
use rustc_hash::{FxHashMap, FxHashSet};
use simnet::SimTime;
use std::collections::BTreeSet;
use translator::GaugeRef;

/// Sliding window of the per-client latency gauges (seconds).
const LATENCY_WINDOW_SECS: f64 = 30.0;

/// Who carries per-client gauges, and how their flows are probed.
enum Policy {
    /// Every client is watched and probed exactly, per machine
    /// ([`GridApp::flow_snapshot`], the reference).
    Exact,
    /// Every client is watched; one class-shared probe per `(class, group)`
    /// pair is fanned out to the pair's members (the group planner's
    /// deployments below fleet scale).
    Shared(RepTable),
    /// Only the `(class, group)` representatives are watched, each carrying
    /// its pair's class-shared probe: at fleet scale one gauge set per
    /// network-position class covers its symmetric members, and the
    /// constraint checker treats the un-gauged members' missing properties
    /// as evaluation errors, not violations.
    Representatives(RepTable),
}

/// The monitoring half of the control loop.
pub(crate) struct Monitor {
    pipeline: MonitoringPipeline,
    policy: Policy,
    /// Monitoring traffic is prioritised (QoS) and never delayed.
    qos: bool,
    /// One tick's probe events and the readings due by it; both reused.
    events: Vec<ProbeEvent>,
    readings: Vec<GaugeReading>,
}

impl Monitor {
    /// The monitor of `app` under `config`: representatives at fleet scale
    /// (for every strategy — control runs need cheap monitoring too), every
    /// client below it, class-shared probes wherever a class index exists.
    pub(crate) fn new(app: &GridApp, config: &FrameworkConfig) -> Monitor {
        let index = || ClassIndex::build(app.testbed());
        let policy = if app.testbed().is_fleet_scale() {
            Policy::Representatives(RepTable::new(index()))
        } else if config.group_planner {
            Policy::Shared(RepTable::new(index()))
        } else {
            Policy::Exact
        };
        Monitor::with_policy(policy, config)
    }

    fn with_policy(policy: Policy, config: &FrameworkConfig) -> Monitor {
        Monitor {
            pipeline: MonitoringPipeline::new(),
            policy,
            qos: config.monitoring_qos,
            events: Vec::new(),
            readings: Vec::new(),
        }
    }

    /// The run's class index; `None` when flows are probed exactly.
    pub(crate) fn index(&self) -> Option<&ClassIndex> {
        match &self.policy {
            Policy::Exact => None,
            Policy::Shared(table) | Policy::Representatives(table) => Some(table.index()),
        }
    }

    /// The tick's shared network snapshot: one entry per watched client.
    pub(crate) fn flow_snapshot(&mut self, app: &GridApp) -> FlowSnapshot {
        match &mut self.policy {
            Policy::Exact => app.flow_snapshot(),
            Policy::Shared(table) => table.member_flow_snapshot(app),
            Policy::Representatives(table) => table.flow_snapshot(app),
        }
    }

    /// The watched `(client, group)` entries, in gauge-creation order: all of
    /// them, or — given the clients of a move — those the move can have
    /// changed. Every client: name order (the application's own
    /// assignments), or the move's own order. Representatives: `(class,
    /// client)` order, of the moved clients' classes, each found by key.
    fn watched(&mut self, app: &GridApp, moved: Option<&[Key]>) -> Vec<(Key, Key)> {
        match &mut self.policy {
            Policy::Exact | Policy::Shared(_) => match moved {
                None => app.assignments().collect(),
                Some(clients) => clients
                    .iter()
                    .filter_map(|&client| app.assignment(client).ok())
                    .collect(),
            },
            Policy::Representatives(table) => {
                let touched: Option<BTreeSet<usize>> = moved.map(|clients| {
                    clients
                        .iter()
                        .filter_map(|&client| table.index().client_class_of(client))
                        .collect()
                });
                let mut reps: Vec<&Rep> = table
                    .reps(app)
                    .iter()
                    .filter(|rep| touched.as_ref().is_none_or(|t| t.contains(&rep.class)))
                    .collect();
                reps.sort_by_key(|rep| rep.class);
                reps.into_iter()
                    .map(|rep| (rep.client, rep.group))
                    .collect()
            }
        }
    }

    fn latency_gauge(client: Key) -> Gauge {
        Gauge::latency(client, LATENCY_WINDOW_SECS)
    }

    fn bandwidth_gauge(client: Key, group: Key) -> Gauge {
        Gauge::bandwidth(client, group, format!("{client}.role"))
    }

    fn reachability_gauge(client: Key) -> Gauge {
        Gauge::reachability(client, format!("{client}.role"))
    }

    /// Deploys the gauge roster: latency, bandwidth and reachability per
    /// watched client, load and liveness per group, and one health gauge per
    /// model replica in `server_map`, watching the runtime server it maps to.
    pub(crate) fn deploy(&mut self, now: SimTime, app: &GridApp, server_map: &FxHashMap<Key, Key>) {
        let t = now.as_secs();
        let watched = self.watched(app, None);
        let groups = app.group_names();
        let pipeline = &mut self.pipeline;
        for &(client, _) in &watched {
            pipeline.create(t, Self::latency_gauge(client));
        }
        for &group in &groups {
            pipeline.create(t, Gauge::load(group));
        }
        for &(client, group) in &watched {
            pipeline.create(t, Self::bandwidth_gauge(client, group));
        }
        // Liveness and reachability gauges: the monitoring the
        // fault-injection subsystem exercises.
        for &group in &groups {
            pipeline.create(t, Gauge::group_liveness(group));
        }
        for &(client, _) in &watched {
            pipeline.create(t, Self::reachability_gauge(client));
        }
        // Sorted for a deterministic creation order.
        let mut replicas: Vec<(Key, Key)> = server_map.iter().map(|(&r, &s)| (r, s)).collect();
        replicas.sort();
        for (replica, runtime) in replicas {
            pipeline.create(t, Gauge::server_health(runtime, replica));
        }
    }

    /// Reconciles the per-client gauges with the watched set after `moved`
    /// changed group — the gauge churn that dominates repair time. A moved
    /// client's bandwidth gauge is retired (it measured the old group), as
    /// is every gauge of a client that stopped being watched; whatever a
    /// watched client of the move's scope then lacks is created. One sweep
    /// over the roster, however many clients moved.
    pub(crate) fn rehome(&mut self, now: SimTime, app: &GridApp, moved: &[Key]) {
        let t = now.as_secs();
        let watched = self.watched(app, Some(moved));
        let in_scope: FxHashSet<Key> = watched.iter().map(|&(client, _)| client).collect();
        let moved: FxHashSet<Key> = moved.iter().copied().collect();
        // Kept in client-name order by the table, and current: `watched`
        // just asked it.
        let reps: Option<&[Rep]> = match &mut self.policy {
            Policy::Representatives(table) => Some(table.reps(app)),
            Policy::Exact | Policy::Shared(_) => None,
        };
        let is_watched = |client: Key| {
            reps.is_none_or(|reps| reps.binary_search_by(|rep| rep.client.cmp(&client)).is_ok())
        };
        let mut deployed: FxHashSet<GaugeId> = FxHashSet::default();
        self.pipeline.delete_where(|id| {
            if !watches_a_client(id) {
                return false;
            }
            let client = id.subject;
            let stale = !is_watched(client) || (id.other.is_some() && moved.contains(&client));
            if !stale && in_scope.contains(&client) {
                deployed.insert(id);
            }
            stale
        });
        for &(client, group) in &watched {
            let gauges = [
                Self::latency_gauge(client),
                Self::bandwidth_gauge(client, group),
                Self::reachability_gauge(client),
            ];
            for gauge in gauges {
                if deployed.insert(gauge.id()) {
                    self.pipeline.create(t, gauge);
                }
            }
        }
    }

    /// Creates (or replaces) the health gauge of model replica `replica`,
    /// now backed by runtime server `runtime` — part of the gauge churn of
    /// failover repairs.
    pub(crate) fn watch_server(&mut self, now: SimTime, replica: Key, runtime: Key) {
        let gauge = Gauge::server_health(runtime, replica);
        self.pipeline.replace(now.as_secs(), gauge);
    }

    /// Deletes the health gauge of a retired model replica.
    pub(crate) fn unwatch_server(&mut self, replica: Key) {
        self.pipeline.delete(GaugeId {
            kind: TopicKind::ServerLiveness,
            subject: replica,
            other: None,
        });
    }

    /// Executes a repair's `createGauge(gauge)`: a load gauge is replaced in
    /// place; every other gauge is costed by the repair but deployed by
    /// [`rehome`](Self::rehome).
    pub(crate) fn recreate(&mut self, now: SimTime, gauge: GaugeRef) {
        if let GaugeRef::Load(group) = gauge {
            self.pipeline.replace(now.as_secs(), Gauge::load(group));
        }
    }

    /// The delivery delay monitoring traffic currently suffers: it shares the
    /// (congested) network, so its messages slow down with the worst
    /// client's available bandwidth (§5.3). A monitoring payload of ≈25 KB is
    /// assumed.
    fn delay(&self, flows: &FlowSnapshot) -> f64 {
        if self.qos {
            return 0.0;
        }
        let min_bw = flows.min_flow_bps().unwrap_or(f64::INFINITY);
        if !min_bw.is_finite() || min_bw <= 0.0 {
            return 0.0;
        }
        (200_000.0 / min_bw).clamp(0.0, 20.0)
    }

    /// One control period of monitoring: probes observe the system and
    /// publish on the probe bus, gauges interpret them, and the readings due
    /// by `t` are returned in roster order (from a buffer the next call
    /// reuses). Every flow-derived consumer (delay model, bandwidth +
    /// reachability gauges, and the figure metrics the caller sampled) reads
    /// the same snapshot — one Remos pass per tick.
    pub(crate) fn observe(
        &mut self,
        app: &mut GridApp,
        flows: &FlowSnapshot,
        t: SimTime,
    ) -> &[GaugeReading] {
        let delay = self.delay(flows);
        self.pipeline.set_monitoring_delay(delay);
        sample(app, flows, t, &mut self.events);
        for event in self.events.drain(..) {
            self.pipeline.publish(event);
        }
        self.readings.clear();
        self.pipeline.step(t.as_secs(), &mut self.readings);
        &self.readings
    }
}

/// Whether a gauge follows one client through its moves: its latency,
/// bandwidth and reachability gauges do.
fn watches_a_client(id: GaugeId) -> bool {
    matches!(
        id.kind,
        TopicKind::Latency | TopicKind::Bandwidth | TopicKind::Reachable
    )
}

/// Every probe's observations of one control period, appended to `out`.
fn sample(app: &mut GridApp, flows: &FlowSnapshot, t: SimTime, out: &mut Vec<ProbeEvent>) {
    sample_latency_probe(app, out);
    sample_queue_probe(app, t, out);
    sample_flow_probes_from(flows, t, out);
    sample_liveness_probe(app, t, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_model;
    use crate::task::PerformanceProfile;
    use gridapp::{GridConfig, TestbedSpec, SERVER_GROUP_2};

    /// 28 clients in 8 client classes of uneven size, like `planner`'s
    /// test-only `small_aggregated`: cheap enough for a debug build.
    fn small_aggregated() -> GridConfig {
        GridConfig::with_testbed(TestbedSpec {
            clients_r1: 12,
            clients_r2: 6,
            clients_r5: 10,
            sg1_active: 4,
            sg1_spares: 1,
            sg2_active: 3,
            sg2_spares: 1,
            clients_per_agg: 4,
            ..TestbedSpec::large_scale()
        })
    }

    /// Asserts the per-client gauges deployed are exactly those of the
    /// watched set — latency, bandwidth against the current group, and
    /// reachability for every [`RepTable::reps`] entry of a fresh table —
    /// each deployed once.
    fn assert_roster_is_the_watched_set(monitor: &mut Monitor, app: &GridApp, step: &str) {
        let mut roster: Vec<String> = monitor
            .pipeline
            .roster()
            .map(Gauge::id)
            .filter(|&id| watches_a_client(id))
            .map(|id| id.to_string())
            .collect();
        roster.sort();
        let mut watched: Vec<String> = RepTable::new(ClassIndex::build(app.testbed()))
            .reps(app)
            .iter()
            .flat_map(|rep| {
                [
                    Monitor::latency_gauge(rep.client),
                    Monitor::bandwidth_gauge(rep.client, rep.group),
                    Monitor::reachability_gauge(rep.client),
                ]
            })
            .map(|gauge| gauge.id().to_string())
            .collect();
        watched.sort();
        assert_eq!(roster, watched, "{step}");
    }

    #[test]
    fn a_failed_over_replica_reads_alive_again() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        let config = FrameworkConfig::qos_monitoring();
        let mut monitor = Monitor::new(&app, &config);
        let replica = Key::new("ServerGrp1.Server1");
        let server_map = FxHashMap::from_iter([(replica, Key::new("S1"))]);
        monitor.deploy(SimTime::ZERO, &app, &server_map);
        let is_alive = |monitor: &mut Monitor, app: &mut GridApp, secs: f64| {
            let t = SimTime::from_secs(secs);
            app.advance(t);
            let flows = monitor.flow_snapshot(app);
            let readings = monitor.observe(app, &flows, t);
            let health = |r: &&GaugeReading| r.target == replica && r.property == "isAlive";
            readings.iter().find(health).map(|r| r.value)
        };
        assert_eq!(is_alive(&mut monitor, &mut app, 15.0), Some(1.0));
        app.crash_server(SimTime::from_secs(16.0), "S1").unwrap();
        assert_eq!(is_alive(&mut monitor, &mut app, 20.0), Some(0.0));
        // Failover: the replica is now backed by the spare S4. The gauge it
        // replaces shares the new one's name but watches the corpse; left
        // deployed it would pin `isAlive` at 0 for good.
        monitor.watch_server(SimTime::from_secs(20.0), replica, Key::new("S4"));
        assert_eq!(is_alive(&mut monitor, &mut app, 25.0), None, "warming up");
        assert_eq!(is_alive(&mut monitor, &mut app, 35.0), Some(1.0));
    }

    #[test]
    fn roster_follows_the_representatives_through_client_moves() {
        let mut app = GridApp::build(small_aggregated()).unwrap();
        let config = FrameworkConfig::adaptive();
        // Watch representatives whatever the deployment's size: the
        // fleet-scale roster on a testbed a debug build can afford.
        let table = RepTable::new(ClassIndex::build(app.testbed()));
        let mut monitor = Monitor::with_policy(Policy::Representatives(table), &config);
        monitor.deploy(SimTime::ZERO, &app, &FxHashMap::default());
        assert_roster_is_the_watched_set(&mut monitor, &app, "deployed");

        let index = ClassIndex::build(app.testbed());
        let class = &index.client_classes()[0];
        assert!(class.members.len() >= 3, "{class:?}");

        // `moveClient` of a class representative: the next member becomes
        // the representative of those left behind and must be watched.
        let rep = class.representative;
        app.move_client(rep.as_str(), SERVER_GROUP_2).unwrap();
        monitor.rehome(SimTime::from_secs(10.0), &app, &[rep]);
        assert_roster_is_the_watched_set(&mut monitor, &app, "after moveClient");

        // `moveClientGroup` of the rest after it: the class is whole again,
        // and the interim representative keeps no gauge.
        let rest = &class.members[1..];
        app.move_clients(rest, SERVER_GROUP_2).unwrap();
        monitor.rehome(SimTime::from_secs(20.0), &app, rest);
        assert_roster_is_the_watched_set(&mut monitor, &app, "after moveClientGroup");

        // Half of another class, its representative staying put: the first
        // mover is newly watched and the one left behind is not re-deployed.
        let other = &index.client_classes()[1];
        let half = other.members.iter().skip(1).step_by(2);
        let half: Vec<Key> = half.copied().collect();
        app.move_clients(&half, SERVER_GROUP_2).unwrap();
        monitor.rehome(SimTime::from_secs(30.0), &app, &half);
        assert_roster_is_the_watched_set(&mut monitor, &app, "after a half-class move");
    }

    #[test]
    fn every_published_measurement_kind_has_a_consumer() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        let (_, server_map) = build_model(&app, &PerformanceProfile::default()).unwrap();
        let mut monitor = Monitor::new(&app, &FrameworkConfig::adaptive());
        monitor.deploy(SimTime::ZERO, &app, &server_map);
        let read: FxHashSet<TopicKind> = monitor
            .pipeline
            .roster()
            .map(|gauge| gauge.interest().kind)
            .collect();
        let mut published = FxHashSet::default();
        let mut events = Vec::new();
        for tick in 1..=8 {
            let t = SimTime::from_secs(5.0 * tick as f64);
            app.advance(t);
            if tick == 4 {
                app.crash_server(t, "S1").unwrap();
            }
            let flows = monitor.flow_snapshot(&app);
            sample(&mut app, &flows, t, &mut events);
            published.extend(events.drain(..).map(|event| event.topic().kind));
        }
        let unread: Vec<_> = published.difference(&read).collect();
        assert!(unread.is_empty(), "no gauge reads {unread:?}");
        assert_eq!(published.len(), 6, "every kind is published: {published:?}");
    }
}
