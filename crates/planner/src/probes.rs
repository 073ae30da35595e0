//! Class-shared Remos probing.
//!
//! [`GridApp::flow_snapshot`](gridapp::GridApp::flow_snapshot) runs one
//! max-min probe per client machine × server of the client's group — ~1 s of
//! wall clock per control tick at 2,000 clients. The class-shared snapshot
//! probes once per **network-position class** instead: one client-class
//! representative against one representative per server class present in the
//! group. On the classic presets every class is a singleton, so the shared
//! snapshot is bit-identical to the per-client one (the property tests
//! assert it); on aggregated testbeds it cuts probe sampling by roughly the
//! class size.
//!
//! Position symmetry is static, so one replica answers for its whole server
//! class whatever it is doing: a shared probe can understate a group while
//! that replica is mid-reply and its idle class-mates are not.
//!
//! There is one implementation of it, [`RepTable`]: it probes the
//! representative of every `(class, group)` pair and reports either those
//! probes alone ([`RepTable::flow_snapshot`], what a deployment that only
//! watches representatives reads) or each of them fanned out to the pair's
//! members ([`RepTable::member_flow_snapshot`], one entry per client). The
//! walking versions of both survive as references in this module's tests.
//!
//! Probes go by host id: a client class carries its representative's
//! machine, [`GroupProbes`] lists the machines of the servers that answer for
//! a group, and every probe is one
//! [`GridApp::host_bandwidth`](gridapp::GridApp::host_bandwidth) between
//! two of them — no client or server name is looked up per probe.
//!
//! Nothing here is re-derived more often than it can change. Which servers
//! answer for a group depends only on the application's state at the instant
//! of the snapshot, so [`GroupProbes`] lists their machines once per group
//! per snapshot, not once per client class. Which client stands for a
//! `(class, group)` pair — and which members stand behind it — depends only
//! on the client→group assignment, so [`RepTable`] keeps the answer and
//! rebuilds it when [`GridApp::assignment_generation`] says a move happened
//! — not by walking every client on every control tick.

use crate::classes::{ClassIndex, ClientClass};
use gridapp::{FlowSnapshot, GridApp, Key};
use rustc_hash::{FxHashMap, FxHashSet};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// The class-level `remos_get_flow` of one snapshot instant: predicted
/// bandwidth between a client class and a server group, taken as the best
/// available bandwidth from one representative per server class present in
/// the group to the client class's representative machine.
pub(crate) struct GroupProbes<'a> {
    app: &'a GridApp,
    index: &'a ClassIndex,
    /// Per group asked about so far, the machines of the servers a shared
    /// probe must ask.
    servers: BTreeMap<String, Vec<NodeId>>,
}

impl<'a> GroupProbes<'a> {
    /// Probes against `app` as it stands; nothing may mutate it while the
    /// value lives, which the borrow enforces.
    pub(crate) fn new(app: &'a GridApp, index: &'a ClassIndex) -> Self {
        GroupProbes {
            app,
            index,
            servers: BTreeMap::new(),
        }
    }

    /// The machines of `group`'s live active servers, in server name order,
    /// keeping one per server class and every server outside the index.
    /// Empty exactly when the group has no live active server.
    fn servers_to_ask(&self, group: &str) -> Vec<NodeId> {
        let mut answered: BTreeSet<usize> = BTreeSet::new();
        let servers = self.app.active_server_hosts(group);
        servers
            .filter(|(server, _)| {
                // `false`: an equivalent member of this class already answers.
                let class = self.index.server_class_of(*server);
                class.is_none_or(|class| answered.insert(class))
            })
            .map(|(_, host)| host)
            .collect()
    }

    /// The flow `class` would see from `group`. `None` mirrors the per-client
    /// query's failure when the group has no live active server.
    pub(crate) fn flow(&mut self, class: &ClientClass, group: &str) -> Option<f64> {
        if !self.servers.contains_key(group) {
            let servers = self.servers_to_ask(group);
            self.servers.insert(group.to_string(), servers);
        }
        let servers = &self.servers[group];
        if servers.is_empty() {
            return None;
        }
        let mut best: f64 = 0.0;
        for &server in servers {
            best = best.max(self.app.host_bandwidth(server, class.host));
        }
        Some(best)
    }
}

/// The client monitored on behalf of one `(client class, current group)`
/// pair: the lexicographically first member of the class homed on that group
/// — the class representative while the class is homogeneous, and the first
/// mover after a partial group migration.
///
/// Both names are the application's own interned [`Key`]s (see
/// [`GridApp::assignment`]), so a snapshot row is built from a `Rep` by copy.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// The monitored client.
    pub client: Key,
    /// The group it currently sends to.
    pub group: Key,
    /// Its client class.
    pub class: usize,
}

/// Class-shared monitoring state: the class index plus the [`Rep`] of every
/// `(class, group)` pair in client-name order. One probe per representative
/// serves the pair's members; whether only the representatives or every
/// member is reported is the caller's choice of snapshot
/// ([`flow_snapshot`](RepTable::flow_snapshot) or
/// [`member_flow_snapshot`](RepTable::member_flow_snapshot)), not a second
/// implementation.
///
/// The table is rebuilt only when the application's
/// [`assignment_generation`](GridApp::assignment_generation) differs from
/// the one it was built at, so one table must always be asked about the same
/// application.
#[derive(Debug, Clone)]
pub struct RepTable {
    index: ClassIndex,
    reps: Vec<Rep>,
    built_at: Option<u64>,
    rebuilds: u64,
    /// Every client in name order with the slot of its representative in
    /// `reps`: filed by the first fan-out after a rebuild, dropped by the
    /// next rebuild.
    members: Option<Vec<(Key, usize)>>,
}

impl RepTable {
    /// An empty table over `index`; the first query builds it.
    pub fn new(index: ClassIndex) -> RepTable {
        RepTable {
            index,
            reps: Vec::new(),
            built_at: None,
            rebuilds: 0,
            members: None,
        }
    }

    /// The class index the table is drawn over.
    pub fn index(&self) -> &ClassIndex {
        &self.index
    }

    /// How many times the table has been (re)built: once, plus once per
    /// query that followed a client move.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The representatives as of `app`'s current assignment, in client-name
    /// order.
    pub fn reps(&mut self, app: &GridApp) -> &[Rep] {
        let generation = app.assignment_generation();
        if self.built_at != Some(generation) {
            self.rebuild(app);
            self.built_at = Some(generation);
            self.rebuilds += 1;
        }
        &self.reps
    }

    /// One walk of the application's assignments, which come in client-name
    /// order: the first client met on a `(class, group)` pair is its
    /// representative, and each client's class is one lookup by key.
    fn rebuild(&mut self, app: &GridApp) {
        self.members = None;
        self.reps.clear();
        let mut seen: FxHashSet<(usize, Key)> = FxHashSet::default();
        for (client, group) in app.assignments() {
            let Some(class) = self.index.client_class_of(client) else {
                continue;
            };
            if seen.insert((class, group)) {
                self.reps.push(Rep {
                    client,
                    group,
                    class,
                });
            }
        }
    }

    /// Files every indexed client, in name order, under its representative's
    /// slot. Runs once per table rebuild, so the per-tick fan-out never
    /// walks the assignments.
    fn file_members(&self, app: &GridApp) -> Vec<(Key, usize)> {
        let slots: FxHashMap<(usize, Key), usize> = self
            .reps
            .iter()
            .enumerate()
            .map(|(slot, rep)| ((rep.class, rep.group), slot))
            .collect();
        let filed = app.assignments().filter_map(|(client, group)| {
            let class = self.index.client_class_of(client)?;
            Some((client, slots[&(class, group)]))
        });
        filed.collect()
    }

    /// The class-shared flow of every representative, probed in table order.
    fn rep_flows(&mut self, app: &GridApp) -> Vec<Option<f64>> {
        self.reps(app);
        let mut probes = GroupProbes::new(app, &self.index);
        self.reps
            .iter()
            .map(|rep| probes.flow(&self.index.client_classes()[rep.class], rep.group.as_str()))
            .collect()
    }

    /// The representative-level flow snapshot: instead of one entry per
    /// client (50k gauge updates per tick), one entry per [`Rep`], carrying
    /// the class-shared flow of its `(class, group)` pair.
    pub fn flow_snapshot(&mut self, app: &GridApp) -> FlowSnapshot {
        let flows = self.rep_flows(app);
        let entries = self
            .reps
            .iter()
            .zip(flows)
            .map(|(rep, flow)| (rep.client, rep.group, flow))
            .collect();
        FlowSnapshot::from_entries(entries)
    }

    /// The class-shared equivalent of
    /// [`GridApp::flow_snapshot`](gridapp::GridApp::flow_snapshot): the same
    /// probes as [`flow_snapshot`](Self::flow_snapshot), with each
    /// `(class, group)` flow fanned out to the pair's members — one entry
    /// per client in client-name order.
    pub fn member_flow_snapshot(&mut self, app: &GridApp) -> FlowSnapshot {
        let flows = self.rep_flows(app);
        if self.members.is_none() {
            self.members = Some(self.file_members(app));
        }
        let entries = self
            .members
            .iter()
            .flatten()
            .map(|&(client, slot)| (client, self.reps[slot].group, flows[slot]))
            .collect();
        FlowSnapshot::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridapp::{GridConfig, TestbedSpec, SERVER_GROUP_1, SERVER_GROUP_2};
    use proptest::prelude::*;
    use simnet::SimTime;

    /// One [`GroupProbes::flow`] query on its own, from scratch: the
    /// class-level `remos_get_flow` the references below are built on.
    fn class_remos(
        app: &GridApp,
        index: &ClassIndex,
        class: &ClientClass,
        group: &str,
    ) -> Option<f64> {
        GroupProbes::new(app, index).flow(class, group)
    }

    /// The reference for [`RepTable::flow_snapshot`]: walks every client in
    /// name order, keeps the first one seen per `(class, group)` pair, and
    /// asks [`class_remos`] from scratch for each.
    fn walking_rep_flow_snapshot(app: &GridApp, index: &ClassIndex) -> FlowSnapshot {
        let mut entries = Vec::new();
        let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
        for client in app.client_names() {
            let group = match app.client_group(&client) {
                Ok(group) => group,
                Err(_) => continue,
            };
            let Some(class) = index
                .client_class_of(Key::new(&client))
                .and_then(|id| index.client_class(id))
            else {
                continue;
            };
            if !seen.insert((class.id, group.clone())) {
                continue; // this (class, group) already has a representative
            }
            let flow = class_remos(app, index, class, &group);
            entries.push((client.into(), group.into(), flow));
        }
        FlowSnapshot::from_entries(entries)
    }

    /// The reference for [`RepTable::member_flow_snapshot`], and production's
    /// class-shared snapshot until the fan-out replaced it: walks every
    /// client in name order and memoises one [`GroupProbes::flow`] per
    /// `(class, group)` pair at the pair's first member.
    fn class_flow_snapshot(app: &GridApp, index: &ClassIndex) -> FlowSnapshot {
        let mut memo: FxHashMap<(usize, String), Option<f64>> = FxHashMap::default();
        let mut probes = GroupProbes::new(app, index);
        let mut entries = Vec::new();
        for client in app.client_names() {
            let group = match app.client_group(&client) {
                Ok(group) => group,
                Err(_) => continue,
            };
            let class = index
                .client_class_of(Key::new(&client))
                .and_then(|id| index.client_class(id))
                .expect("the index is built from the app's own testbed");
            let flow = *memo
                .entry((class.id, group.clone()))
                .or_insert_with(|| probes.flow(class, &group));
            entries.push((client.into(), group.into(), flow));
        }
        FlowSnapshot::from_entries(entries)
    }

    /// Production's class-shared per-client snapshot, from a fresh table.
    fn fan_out(app: &GridApp, index: &ClassIndex) -> FlowSnapshot {
        RepTable::new(index.clone()).member_flow_snapshot(app)
    }

    /// `snapshot` with the probe queries and solves it cost.
    fn metered(app: &GridApp, snapshot: impl FnOnce() -> FlowSnapshot) -> (FlowSnapshot, u64, u64) {
        let (queries, solves) = (app.probe_query_count(), app.probe_solve_count());
        let snapshot = snapshot();
        (
            snapshot,
            app.probe_query_count() - queries,
            app.probe_solve_count() - solves,
        )
    }

    /// A small aggregated testbed: 28 clients in 8 client classes of uneven
    /// size (R2 and R5 each end on a two-member class), 3 server classes.
    fn small_aggregated() -> TestbedSpec {
        TestbedSpec {
            clients_r1: 12,
            clients_r2: 6,
            clients_r5: 10,
            sg1_active: 4,
            sg1_spares: 1,
            sg2_active: 3,
            sg2_spares: 1,
            clients_per_agg: 4,
            ..TestbedSpec::large_scale()
        }
    }

    /// Applies one drawn mutation to `app` at `now`; `pick` selects what it
    /// acts on.
    fn mutate(app: &mut GridApp, index: &ClassIndex, now: SimTime, op: u8, pick: usize) {
        let classes = index.client_classes();
        let class = &classes[pick % classes.len()];
        let members = &class.members;
        let group = [SERVER_GROUP_1, SERVER_GROUP_2][(pick / classes.len()) % 2];
        let servers = app.server_names();
        let server = &servers[pick % servers.len()];
        match op {
            0 => {
                let member = &members[pick % members.len()];
                app.move_client(member.as_str(), group).unwrap();
            }
            1 => {
                app.move_clients(members, group).unwrap();
            }
            2 => {
                // Half a class: the odd members, so the first mover is not
                // the class representative.
                let half: Vec<Key> = members.iter().skip(1).step_by(2).copied().collect();
                app.move_clients(&half, group).unwrap();
            }
            3 => {
                app.move_clients(&[], group).unwrap();
            }
            4 => {
                // Already on target: re-home a class where its
                // representative already is.
                let current = app.client_group(class.representative.as_str()).unwrap();
                app.move_clients(members, &current).unwrap();
            }
            5 => app.crash_server(now, server).unwrap(),
            6 => app.restart_server(now, server).unwrap(),
            _ => unreachable!("ops are drawn below 7"),
        }
    }

    /// Runs `ops` against a fresh deployment of `spec`, comparing the table's
    /// snapshot with the walking reference after every step — and its member
    /// fan-out with [`class_flow_snapshot`] taken on a twin deployment driven
    /// in lockstep, so both meet the same per-epoch probe memo and the probe
    /// query and solve counts can be compared as well as the entries.
    fn table_follows_the_walk(spec: TestbedSpec, seed: u64, ops: &[(u8, usize)]) {
        let config = GridConfig {
            seed,
            ..GridConfig::with_testbed(spec)
        };
        let mut app = GridApp::build(config).unwrap();
        let mut twin = GridApp::build(config).unwrap();
        let index = ClassIndex::build(app.testbed());
        let mut table = RepTable::new(index.clone());
        let mut now = 0.0;
        for &(op, pick) in ops {
            now += 0.5 + (pick % 7) as f64;
            for app in [&mut app, &mut twin] {
                app.advance(SimTime::from_secs(now));
                mutate(app, &index, SimTime::from_secs(now), op, pick);
            }
            assert_eq!(
                metered(&app, || table.member_flow_snapshot(&app)),
                metered(&twin, || class_flow_snapshot(&twin, &index)),
                "fan-out after op {op} pick {pick}"
            );
            let walked = walking_rep_flow_snapshot(&app, &index);
            assert_eq!(
                table.flow_snapshot(&app),
                walked,
                "after op {op} pick {pick}"
            );
            // A second snapshot with nothing moved in between reads the kept
            // table.
            let rebuilds = table.rebuilds();
            assert_eq!(table.flow_snapshot(&app), walked);
            assert_eq!(table.rebuilds(), rebuilds);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn rep_table_matches_the_walk_on_a_small_aggregated_testbed(
            seed in 0u64..10_000,
            ops in proptest::collection::vec((0u8..7, 0usize..10_000), 1..16),
        ) {
            table_follows_the_walk(small_aggregated(), seed, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn rep_table_matches_the_walk_on_large_scale(
            seed in 0u64..10_000,
            ops in proptest::collection::vec((0u8..7, 0usize..10_000), 1..8),
        ) {
            table_follows_the_walk(TestbedSpec::large_scale(), seed, &ops);
        }
    }

    #[test]
    fn rep_table_rebuilds_only_after_a_client_move() {
        let mut app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale())).unwrap();
        let index = ClassIndex::build(app.testbed());
        let mut table = RepTable::new(index.clone());
        assert_eq!(table.rebuilds(), 0);
        for tick in 1..=20 {
            app.advance(SimTime::from_secs(tick as f64 * 0.5));
            table.flow_snapshot(&app);
        }
        assert_eq!(table.rebuilds(), 1, "advancing moves no client");

        // A failed move changes no assignment and must not invalidate.
        let generation = app.assignment_generation();
        assert!(app.move_client("Nobody", SERVER_GROUP_2).is_err());
        assert!(app.move_client("User1", "NoSuchGroup").is_err());
        assert!(app
            .move_clients(&[Key::new("Nobody")], SERVER_GROUP_2)
            .is_err());
        assert!(app
            .move_clients(&[Key::new("User1")], "NoSuchGroup")
            .is_err());
        assert_eq!(app.assignment_generation(), generation);
        table.flow_snapshot(&app);
        assert_eq!(table.rebuilds(), 1);

        let class = &index.client_classes()[3];
        app.move_clients(&class.members, SERVER_GROUP_2).unwrap();
        let snapshot = table.flow_snapshot(&app);
        assert_eq!(table.rebuilds(), 2, "the move is seen by the next snapshot");
        assert!(snapshot
            .entries()
            .iter()
            .any(|(client, group, _)| *client == class.representative && group == SERVER_GROUP_2));
        for tick in 21..=25 {
            app.advance(SimTime::from_secs(tick as f64 * 0.5));
            table.flow_snapshot(&app);
        }
        assert_eq!(table.rebuilds(), 2);
    }

    #[test]
    fn classic_snapshot_is_bit_identical_to_per_client_probing() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        app.advance(SimTime::from_secs(20.0));
        let index = ClassIndex::build(app.testbed());
        assert_eq!(fan_out(&app, &index), app.flow_snapshot());
        // Also under a squeeze and with a crashed replica.
        app.set_competition_sg1(SimTime::from_secs(21.0), 9.99e6);
        app.crash_server(SimTime::from_secs(22.0), "S1").unwrap();
        app.advance(SimTime::from_secs(30.0));
        assert_eq!(fan_out(&app, &index), app.flow_snapshot());
    }

    #[test]
    fn dead_group_mirrors_the_per_client_failure() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        for server in ["S1", "S2", "S3"] {
            app.crash_server(SimTime::from_secs(5.0), server).unwrap();
        }
        let index = ClassIndex::build(app.testbed());
        let snapshot = fan_out(&app, &index);
        for (client, group, flow) in snapshot.entries() {
            if group == SERVER_GROUP_1 {
                assert!(flow.is_none(), "{client} still sees a flow");
            }
        }
        assert_eq!(snapshot, app.flow_snapshot());
    }

    #[test]
    fn rep_snapshot_has_one_entry_per_class_and_group() {
        let mut app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale())).unwrap();
        app.advance(SimTime::from_secs(10.0));
        let index = ClassIndex::build(app.testbed());
        let rep = RepTable::new(index.clone()).flow_snapshot(&app);
        // Everyone starts on SG1: one entry per client class, keyed by its
        // representative, carrying the class-shared flow.
        assert_eq!(rep.entries().len(), index.client_classes().len());
        let full = fan_out(&app, &index);
        for (client, group, flow) in rep.entries() {
            let class = index
                .client_class(index.client_class_of(*client).unwrap())
                .unwrap();
            assert_eq!(*client, class.representative);
            let exact = full
                .entries()
                .iter()
                .find(|(c, _, _)| c == client)
                .map(|&(_, _, f)| f)
                .unwrap();
            assert_eq!((group.as_str(), *flow), (SERVER_GROUP_1, exact));
        }
    }

    #[test]
    fn large_scale_snapshot_cuts_probe_solves_by_the_class_size() {
        let mut app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale())).unwrap();
        app.advance(SimTime::from_secs(10.0));
        let index = ClassIndex::build(app.testbed());

        let before = app.probe_solve_count();
        let shared = fan_out(&app, &index);
        let shared_solves = app.probe_solve_count() - before;

        // Perturb the network so the epoch memo cannot serve the second
        // snapshot from the first one's probes.
        app.set_competition_sg2(SimTime::from_secs(10.5), 1.0e6);
        let before = app.probe_solve_count();
        let full = app.flow_snapshot();
        let full_solves = app.probe_solve_count() - before;

        assert_eq!(shared.entries().len(), full.entries().len());
        assert!(
            full_solves >= 4 * shared_solves.max(1),
            "expected ≥4× fewer probe solves, got {full_solves} vs {shared_solves}"
        );
    }
}
