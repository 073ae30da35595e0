//! The bulk reassignment planner.
//!
//! Where the paper's repair engine picks *one* violation and runs a
//! per-element tactic, the group planner looks at the whole violation report
//! and emits a single batched plan of group tactics:
//!
//! * **moveClientGroup** — every squeezed client of a network-position class
//!   is re-homed in one pass (one routing-table update, one gauge-churn
//!   batch), where per-client `moveClient` repairs would pay the full ~30 s
//!   handshake per client;
//! * **drainServer** — replicas of a vacated or overloaded group wedged
//!   transmitting replies over a collapsed path are recycled in place, so
//!   the group's capacity returns with the plan instead of hours later;
//! * **rebalanceGroups** — spare recruitment plus a water-filling pass that
//!   moves client classes from over-pressured groups (clients per live
//!   replica) to under-pressured ones, subject to the class's predicted
//!   bandwidth clearing the task-layer minimum.
//!
//! The planner is a pure function of its [`PlannerInput`] (plus the static
//! [`ClassIndex`]), all iteration is over ordered maps, and it answers with
//! the same [`RepairPlan`] the per-element engine produces (model operations
//! the framework commits) plus the batched runtime operations — so planned
//! repairs replay bit-identically for any worker count.

use crate::classes::{ClassIndex, ClientClass};
use crate::probes::GroupProbes;
use archmodel::constraint::CheckReport;
use archmodel::style::ClientServerStyle;
use archmodel::{ModelOp, System};
use gridapp::{GridApp, Key};
use repair::operators::add_server;
use repair::tactic::client_of_violation;
use repair::{RepairDamping, RepairPlan};
use rustc_hash::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};
use translator::{GaugeRef, RuntimeOp};

/// Task-layer thresholds the planner plans against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerThresholds {
    /// Minimum acceptable client bandwidth (bits per second).
    pub min_bandwidth_bps: f64,
    /// Queue length above which a group counts as overloaded.
    pub max_server_load: f64,
    /// The latency bound; replies stuck longer than this count as wedged.
    pub max_latency_secs: f64,
}

/// One server group's state as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupSnapshot {
    /// The group's load (pending-request queue length) per the model.
    pub load: f64,
    /// Live, active replicas currently serving the group.
    pub live_servers: usize,
    /// Replicas wedged transmitting a reply older than the latency bound.
    pub stuck_servers: usize,
}

/// Everything the planner consumes for one planning decision. Assembled from
/// the live application by [`PlannerInput::gather`]; unit tests construct it
/// directly.
///
/// Every name is an interned [`Key`] — the application's and the class
/// index's own — so the input holds no copy of a client's name and a lookup
/// hashes or compares one word. `Key`'s order is its string's, so the
/// ordered fields iterate in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerInput {
    /// Current time (seconds) — the damping clock.
    pub now_secs: f64,
    /// The thresholds in force.
    pub thresholds: PlannerThresholds,
    /// Per-group state, in name order.
    pub groups: BTreeMap<Key, GroupSnapshot>,
    /// Spare servers available for recruitment (pool is global, as in
    /// `findServer`).
    pub spare_servers: usize,
    /// Class-level Remos predictions: `(client class, group)` → flow, `None`
    /// when the group is unreachable (no live replica). Only looked up,
    /// never walked.
    pub class_bandwidth: FxHashMap<(usize, Key), Option<f64>>,
    /// Clients named by latency/bandwidth violations, sorted and deduplicated.
    pub violating_clients: Vec<Key>,
    /// Groups named by serverLoad violations, sorted and deduplicated.
    pub overloaded_groups: Vec<Key>,
    /// Every client's current group, by client. Looked up per class member
    /// and summed per group, never walked into an output.
    pub client_groups: FxHashMap<Key, Key>,
}

impl PlannerInput {
    /// Assembles the planner's view from the running application, the
    /// current model, and a violation report. Its allocations scale with
    /// groups and classes, not clients: the clients' names and groups are
    /// the keys the application already holds, copied into one table, and a
    /// violating client is the model's own key.
    pub fn gather(
        app: &GridApp,
        index: &ClassIndex,
        model: &System,
        report: &CheckReport,
        thresholds: PlannerThresholds,
        now_secs: f64,
    ) -> PlannerInput {
        let mut violating: Vec<Key> = Vec::new();
        let mut overloaded: Vec<Key> = Vec::new();
        for violation in &report.violations {
            match violation.invariant.as_str() {
                "latency" | "bandwidth" => violating.extend(client_of_violation(model, violation)),
                "serverLoad" => overloaded.push(violation.subject_name),
                _ => {}
            }
        }
        for names in [&mut violating, &mut overloaded] {
            names.sort_unstable();
            names.dedup();
        }
        let mut groups = BTreeMap::new();
        for group in app.group_names() {
            let load = model
                .component_by_key(group)
                .and_then(|id| model.component(id).ok())
                .and_then(|c| c.properties.get_f64(archmodel::style::props::LOAD))
                .unwrap_or(0.0);
            let snapshot = GroupSnapshot {
                load,
                live_servers: app.active_server_hosts(group).count(),
                stuck_servers: app
                    .stuck_sending_servers(group, thresholds.max_latency_secs)
                    .len(),
            };
            groups.insert(group, snapshot);
        }
        let mut class_bandwidth = FxHashMap::default();
        class_bandwidth.reserve(index.client_classes().len() * groups.len());
        let mut probes = GroupProbes::new(app, index);
        for class in index.client_classes() {
            for &group in groups.keys() {
                let flow = probes.flow(class, group);
                class_bandwidth.insert((class.id, group), flow);
            }
        }
        PlannerInput {
            now_secs,
            thresholds,
            groups,
            spare_servers: app.spare_servers().count(),
            class_bandwidth,
            violating_clients: violating,
            overloaded_groups: overloaded,
            client_groups: app.assignments().collect(),
        }
    }

    fn bandwidth(&self, class: usize, group: Key) -> f64 {
        let flow = self.class_bandwidth.get(&(class, group));
        flow.copied().flatten().unwrap_or(0.0)
    }

    /// The group `client` currently sends to.
    fn group_of(&self, client: &Key) -> Option<Key> {
        self.client_groups.get(client).copied()
    }
}

/// One planned class move.
#[derive(Debug, Clone)]
struct ClassMove {
    from: Key,
    to: Key,
    members: Vec<Key>,
}

/// The group-level planner: per-subject damping state over the class index
/// its caller lends to every [`plan`](GroupPlanner::plan).
pub struct GroupPlanner {
    damping: Option<RepairDamping>,
}

impl GroupPlanner {
    /// Creates a planner with an optional damping window (seconds) per
    /// planned subject.
    pub fn new(damping_secs: Option<f64>) -> GroupPlanner {
        GroupPlanner {
            damping: damping_secs.map(RepairDamping::new),
        }
    }

    /// Whether `report` holds a violation the planner plans for — the ones
    /// [`PlannerInput::gather`] reads. Any other report (liveness,
    /// underutilised) is the per-element engine's alone: gathering the
    /// planner's input costs one class-level probe table, which is not worth
    /// paying for a guaranteed abstention.
    pub fn claims(report: &CheckReport) -> bool {
        report
            .violations
            .iter()
            .any(|v| matches!(v.invariant.as_str(), "latency" | "bandwidth" | "serverLoad"))
    }

    fn allows(&self, key: &str, now: f64) -> bool {
        self.damping.as_ref().is_none_or(|d| d.allows(key, now))
    }

    /// Produces a batched plan for the violations in `input` — the model
    /// operations to commit, as the [`RepairPlan`] a per-element repair would
    /// be, and the batched runtime operations to execute — or `None` when no
    /// group tactic applies (the caller falls back to per-element repair).
    /// Pure in its inputs apart from the damping clock.
    ///
    /// The ops are written against the borrowed live `model`, not applied to
    /// a copy of it: each class move is resolved as applying it would
    /// resolve it (`ClientServerStyle::resolve_move`), and each recruit gets
    /// the first server name neither the model nor this plan holds. Neither
    /// `moveClientGroup` nor `addServer` can break the style
    /// (`archmodel/tests/style_ops.rs`), so the one style check of a planned
    /// repair is the commit's, on the live model.
    ///
    /// Clients stay the class index's interned [`Key`]s throughout: a class
    /// move's sources, members and the classes' homes are keys looked up in
    /// the input, and the member lists become the `moveClientGroup` model ops
    /// and runtime batches as they are, so no client's name is copied.
    pub fn plan(
        &mut self,
        index: &ClassIndex,
        model: &System,
        input: &PlannerInput,
    ) -> Option<(RepairPlan, Vec<RuntimeOp>)> {
        let thresholds = input.thresholds;
        let mut damping_keys: Vec<String> = Vec::new();
        let mut tactics: Vec<String> = Vec::new();
        let mut notes: Vec<String> = Vec::new();

        // -- moveClientGroup: re-home every squeezed class in one pass. ----
        let mut moves: Vec<ClassMove> = Vec::new();
        let mut moved_classes: BTreeSet<usize> = BTreeSet::new();
        let mut violating_classes: BTreeSet<usize> = BTreeSet::new();
        for &client in &input.violating_clients {
            if let Some(id) = index.client_class_of(client) {
                violating_classes.insert(id);
            }
        }
        for &id in &violating_classes {
            let class = index.client_class(id)?;
            let sources: BTreeSet<Key> = class
                .members
                .iter()
                .filter(|m| input.violating_clients.binary_search(m).is_ok())
                .filter_map(|m| input.group_of(m))
                .collect();
            for from in sources {
                // Precondition (the class-level fixBandwidth guard): the
                // class's flow to its current group is below the minimum.
                if input.bandwidth(id, from) >= thresholds.min_bandwidth_bps {
                    continue;
                }
                // findGoodSGrp over the classes' alternatives, skipping
                // groups that are themselves overloaded.
                let mut best: Option<(Key, f64)> = None;
                for (&group, snapshot) in &input.groups {
                    if group == from || snapshot.load > thresholds.max_server_load {
                        continue;
                    }
                    let bw = input.bandwidth(id, group);
                    if bw <= thresholds.min_bandwidth_bps {
                        continue;
                    }
                    if best.is_none_or(|(_, b)| bw > b) {
                        best = Some((group, bw));
                    }
                }
                let Some((to, bw)) = best else { continue };
                let key = format!("move/class{id}/{from}");
                if !self.allows(&key, input.now_secs) {
                    continue;
                }
                let members: Vec<Key> = class
                    .members
                    .iter()
                    .copied()
                    .filter(|m| input.group_of(m) == Some(from))
                    .collect();
                if members.is_empty() {
                    continue;
                }
                damping_keys.push(key);
                notes.push(format!(
                    "class {id} ({} clients) {from} -> {to} at {bw:.0} bps",
                    members.len()
                ));
                moves.push(ClassMove { from, to, members });
                moved_classes.insert(id);
            }
        }
        if !moves.is_empty() {
            tactics.push("moveClientGroup".to_string());
        }
        let bandwidth_moves = moves.len();

        // -- drainServer: recycle replicas wedged on a collapsed path. -----
        let mut drain_groups: BTreeSet<Key> = BTreeSet::new();
        for mv in &moves {
            if input
                .groups
                .get(&mv.from)
                .is_some_and(|g| g.stuck_servers > 0)
            {
                drain_groups.insert(mv.from);
            }
        }

        // -- rebalanceGroups: recruit spares, then water-fill classes. -----
        let mut recruits: Vec<(Key, usize)> = Vec::new();
        let mut spares_left = input.spare_servers;
        for &group in &input.overloaded_groups {
            let Some(snapshot) = input.groups.get(&group) else {
                continue;
            };
            let key = format!("load/{group}");
            if !self.allows(&key, input.now_secs) {
                continue;
            }
            let mut acted = false;
            if spares_left > 0 {
                // One spare per multiple of the overload bound, capped per
                // plan: recruitment is the slow serial part of a repair
                // (find/connect/activate per replica), and the damping
                // window lets the next plan recruit more if the backlog
                // persists.
                const RECRUIT_BATCH_MAX: usize = 6;
                let need = ((snapshot.load / thresholds.max_server_load.max(1.0)) as usize)
                    .clamp(1, RECRUIT_BATCH_MAX);
                let recruit = need.min(spares_left);
                spares_left -= recruit;
                notes.push(format!("recruited {recruit} spares into {group}"));
                recruits.push((group, recruit));
                acted = true;
            }
            if snapshot.stuck_servers > 0 {
                drain_groups.insert(group);
                acted = true;
            }
            if acted {
                damping_keys.push(key);
            }
        }
        if !recruits.is_empty() {
            tactics.push("rebalanceGroups".to_string());
        }

        // Water-filling: while one overloaded group carries far more clients
        // per live replica than the best under-loaded receiver, move its
        // smallest whole class across (bandwidth permitting).
        let mut counts: BTreeMap<Key, usize> = input.groups.keys().map(|&g| (g, 0)).collect();
        for &group in input.client_groups.values() {
            *counts.entry(group).or_insert(0) += 1;
        }
        for mv in &moves {
            if let Some(count) = counts.get_mut(&mv.from) {
                *count = count.saturating_sub(mv.members.len());
            }
            *counts.entry(mv.to).or_insert(0) += mv.members.len();
        }
        let mut live: BTreeMap<Key, usize> = input
            .groups
            .iter()
            .map(|(&g, s)| (g, s.live_servers))
            .collect();
        for &(group, k) in &recruits {
            *live.entry(group).or_insert(0) += k;
        }
        let pressure = |counts: &BTreeMap<Key, usize>, live: &BTreeMap<Key, usize>, g: &Key| {
            counts.get(g).copied().unwrap_or(0) as f64
                / live.get(g).copied().unwrap_or(0).max(1) as f64
        };
        // The one group every member of each class is homed on, if there is
        // one — `client_groups` does not change while planning, so the first
        // round that needs a candidate works it out for all eight.
        let mut homes: Option<Vec<Option<Key>>> = None;
        let mut rebalanced = 0usize;
        for _ in 0..8 {
            // Highest-pressure overloaded group vs lowest-pressure healthy
            // receiver, names breaking ties.
            let hi = input
                .overloaded_groups
                .iter()
                .copied()
                .filter(|g| self.allows(&format!("rebalance/{g}"), input.now_secs))
                .max_by(|a, b| {
                    pressure(&counts, &live, a)
                        .total_cmp(&pressure(&counts, &live, b))
                        .then_with(|| b.cmp(a))
                });
            let Some(hi) = hi else { break };
            let lo = input
                .groups
                .iter()
                .filter(|(&g, s)| g != hi && s.load <= thresholds.max_server_load)
                .map(|(&g, _)| g)
                .min_by(|a, b| {
                    pressure(&counts, &live, a)
                        .total_cmp(&pressure(&counts, &live, b))
                        .then_with(|| a.cmp(b))
                });
            let Some(lo) = lo else { break };
            if pressure(&counts, &live, &hi) <= 1.5 * pressure(&counts, &live, &lo) + 1.0 {
                break;
            }
            // Smallest whole class still homed on `hi` whose bandwidth to
            // `lo` clears the minimum.
            let homes = homes.get_or_insert_with(|| {
                // (A class has at least one member: `ClassIndex::build`.)
                let home_of = |c: &ClientClass| {
                    let home = input.group_of(c.members.first()?);
                    home.filter(|_| c.members.iter().all(|m| input.group_of(m) == home))
                };
                index.client_classes().iter().map(home_of).collect()
            });
            let candidate = index
                .client_classes()
                .iter()
                .zip(homes.iter())
                .filter(|(c, home)| !moved_classes.contains(&c.id) && **home == Some(hi))
                .map(|(c, _)| c)
                .filter(|c| input.bandwidth(c.id, lo) > thresholds.min_bandwidth_bps)
                .min_by_key(|c| (c.members.len(), c.id));
            let Some(class) = candidate else { break };
            *counts.entry(hi).or_insert(0) -= class.members.len();
            *counts.entry(lo).or_insert(0) += class.members.len();
            notes.push(format!(
                "rebalanced class {} ({} clients) {hi} -> {lo}",
                class.id,
                class.members.len()
            ));
            moves.push(ClassMove {
                from: hi,
                to: lo,
                members: class.members.clone(),
            });
            moved_classes.insert(class.id);
            damping_keys.push(format!("rebalance/{hi}"));
            rebalanced += 1;
        }
        if rebalanced > 0 && !tactics.iter().any(|t| t == "rebalanceGroups") {
            tactics.push("rebalanceGroups".to_string());
        }
        if !drain_groups.is_empty() {
            tactics.push("drainServer".to_string());
            for group in &drain_groups {
                notes.push(format!("drained wedged replicas of {group}"));
            }
        }

        if moves.is_empty() && recruits.is_empty() && drain_groups.is_empty() {
            return None;
        }

        // Each class move resolves against the live model as applying it would.
        for mv in &moves {
            ClientServerStyle::resolve_move(model, &mv.members, mv.to).ok()?;
        }

        // -- Batched runtime ops. ------------------------------------------
        let mut runtime_ops = Vec::new();
        if let Some(first) = moves.first() {
            runtime_ops.push(RuntimeOp::RemosGetFlow {
                client: first.members[0],
                server: first.to,
            });
        }
        // All classes headed to the same group share one routing update: a
        // `moveClientGroup` re-binds queue routing entries in a single
        // message, so the batch pays one handshake per *target*, not one per
        // class (clients keep their class-internal order, classes keep plan
        // order). Each batch is one list of its clients' keys.
        let mut batch_sizes: BTreeMap<Key, usize> = BTreeMap::new();
        for mv in &moves {
            *batch_sizes.entry(mv.to).or_default() += mv.members.len();
        }
        for (to_group, size) in batch_sizes {
            let mut clients = Vec::with_capacity(size);
            for mv in moves.iter().filter(|mv| mv.to == to_group) {
                clients.extend_from_slice(&mv.members);
            }
            runtime_ops.push(RuntimeOp::MoveClientGroup { clients, to_group });
        }
        if !moves.is_empty() {
            // One gauge-churn batch covers every moved client's bandwidth
            // gauge: the monitoring layer relocates them in a single sweep.
            let gauge = GaugeRef::PlannerBatch;
            runtime_ops.push(RuntimeOp::DeleteGauge { gauge });
            runtime_ops.push(RuntimeOp::CreateGauge { gauge });
        }
        for &group in &drain_groups {
            runtime_ops.push(RuntimeOp::DrainStuckServers {
                group,
                min_age_secs: thresholds.max_latency_secs,
            });
        }

        // -- Realise the plan: the style's operators, against the live model.
        // One `moveClientGroup` model op per class move, which takes the
        // move's member list: the recorded change-set (and `finish_repair`'s
        // commit replay over it) is proportional to moved *classes*, not
        // members — at 50k clients the per-member op list alone dominated the
        // bulk-repair commit. The op itself skips members missing from the
        // model.
        let moved_clients: usize = moves.iter().map(|m| m.members.len()).sum();
        let mut ops: Vec<ModelOp> = moves
            .into_iter()
            .map(|mv| ModelOp::MoveClientGroup {
                clients: mv.members,
                to_group: mv.to,
            })
            .collect();
        for &(group, k) in &recruits {
            for _ in 0..k {
                add_server(model, &mut ops, group.as_str()).ok()?;
            }
        }
        let mut names = ops.iter().filter_map(|op| match *op {
            ModelOp::AddServer { server, .. } => Some(server),
            _ => None,
        });
        for &(group, k) in &recruits {
            for server in names.by_ref().take(k) {
                runtime_ops.push(RuntimeOp::FindServer {
                    group,
                    bandwidth_threshold_bps: thresholds.min_bandwidth_bps,
                });
                runtime_ops.push(RuntimeOp::ConnectServer { server, group });
                runtime_ops.push(RuntimeOp::ActivateServer { server });
            }
            let gauge = GaugeRef::Load(group);
            runtime_ops.push(RuntimeOp::DeleteGauge { gauge });
            runtime_ops.push(RuntimeOp::CreateGauge { gauge });
        }

        if let Some(damping) = &mut self.damping {
            for key in &damping_keys {
                damping.record(key, input.now_secs);
            }
        }
        let invariant = if bandwidth_moves > 0 {
            "bandwidth"
        } else {
            "serverLoad"
        };
        let plan = RepairPlan {
            invariant: invariant.to_string(),
            subject: format!(
                "{} classes / {moved_clients} clients / {} groups",
                moved_classes.len(),
                input.groups.len()
            ),
            ops,
            tactics,
            description: notes.join("; "),
        };
        Some((plan, runtime_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassIndex;
    use gridapp::{Testbed, TestbedSpec};

    fn thresholds() -> PlannerThresholds {
        PlannerThresholds {
            min_bandwidth_bps: 10_000.0,
            max_server_load: 6.0,
            max_latency_secs: 2.0,
        }
    }

    fn sg1(input: &mut PlannerInput) -> &mut GroupSnapshot {
        let group = input.groups.get_mut(&Key::new("ServerGrp1"));
        group.expect("the fixture has ServerGrp1")
    }

    /// A paper-shaped model plus input in which User3/User4 are squeezed on
    /// ServerGrp1 while ServerGrp2 is healthy.
    fn squeeze_fixture() -> (System, ClassIndex, PlannerInput) {
        let model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
        let testbed = Testbed::build().unwrap();
        let index = ClassIndex::build(&testbed);
        let mut client_groups = FxHashMap::default();
        for i in 1..=6 {
            // The example system round-robins clients over the two groups;
            // mirror that so the model and the input agree.
            let group = if i % 2 == 1 {
                "ServerGrp1"
            } else {
                "ServerGrp2"
            };
            client_groups.insert(Key::new(&format!("User{i}")), Key::new(group));
        }
        let mut groups = BTreeMap::new();
        groups.insert(
            Key::new("ServerGrp1"),
            GroupSnapshot {
                load: 1.0,
                live_servers: 3,
                stuck_servers: 2,
            },
        );
        groups.insert(
            Key::new("ServerGrp2"),
            GroupSnapshot {
                load: 0.0,
                live_servers: 3,
                stuck_servers: 0,
            },
        );
        let mut class_bandwidth = FxHashMap::default();
        for class in index.client_classes() {
            let squeezed = class.members.iter().any(|m| *m == "User3");
            class_bandwidth.insert(
                (class.id, Key::new("ServerGrp1")),
                Some(if squeezed { 5_000.0 } else { 5.0e6 }),
            );
            class_bandwidth.insert((class.id, Key::new("ServerGrp2")), Some(3.0e6));
        }
        let input = PlannerInput {
            now_secs: 100.0,
            thresholds: thresholds(),
            groups,
            spare_servers: 2,
            class_bandwidth,
            violating_clients: vec![Key::new("User3")],
            overloaded_groups: Vec::new(),
            client_groups,
        };
        (model, index, input)
    }

    #[test]
    fn squeezed_class_is_moved_in_one_batch_with_a_drain() {
        let (model, index, input) = squeeze_fixture();
        let mut planner = GroupPlanner::new(Some(60.0));
        let (plan, runtime_ops) = planner
            .plan(&index, &model, &input)
            .expect("a plan is produced");
        assert!(plan.tactics.contains(&"moveClientGroup".to_string()));
        assert!(plan.tactics.contains(&"drainServer".to_string()));
        let batch = runtime_ops
            .iter()
            .find_map(|op| match op {
                RuntimeOp::MoveClientGroup { clients, to_group } => {
                    Some((clients.clone(), *to_group))
                }
                _ => None,
            })
            .expect("a batched move is planned");
        assert_eq!(batch.0, vec![Key::new("User3")]);
        assert_eq!(batch.1, "ServerGrp2");
        assert!(runtime_ops.iter().any(
            |op| matches!(op, RuntimeOp::DrainStuckServers { group, .. } if group == "ServerGrp1")
        ));
        // The model ops re-attach the moved client.
        let mut repaired = model.clone();
        for op in &plan.ops {
            archmodel::apply_op(&mut repaired, op).unwrap();
        }
        let user3 = repaired.component_by_name("User3").unwrap();
        let group = ClientServerStyle::group_of_client(&repaired, user3).unwrap();
        assert_eq!(repaired.component(group).unwrap().name, "ServerGrp2");
    }

    #[test]
    fn damping_suppresses_an_immediate_replan() {
        let (model, index, input) = squeeze_fixture();
        let mut planner = GroupPlanner::new(Some(60.0));
        assert!(planner.plan(&index, &model, &input).is_some());
        let mut soon = input.clone();
        soon.now_secs = 130.0;
        assert!(
            planner.plan(&index, &model, &soon).is_none(),
            "inside the window"
        );
        let mut later = input;
        later.now_secs = 200.0;
        assert!(
            planner.plan(&index, &model, &later).is_some(),
            "window elapsed"
        );
    }

    #[test]
    fn overloaded_group_recruits_spares_scaled_to_the_backlog() {
        let (model, index, mut input) = squeeze_fixture();
        input.violating_clients.clear();
        input.overloaded_groups = vec![Key::new("ServerGrp1")];
        sg1(&mut input).load = 20.0;
        sg1(&mut input).stuck_servers = 0;
        let mut planner = GroupPlanner::new(None);
        let (plan, runtime_ops) = planner
            .plan(&index, &model, &input)
            .expect("a plan is produced");
        assert!(plan.tactics.contains(&"rebalanceGroups".to_string()));
        let activations = runtime_ops
            .iter()
            .filter(|op| matches!(op, RuntimeOp::ActivateServer { .. }))
            .count();
        // load 20 / max 6 → 3 needed, but only 2 spares exist.
        assert_eq!(activations, 2);
        let gauge = GaugeRef::Load(Key::new("ServerGrp1"));
        assert!(runtime_ops.contains(&RuntimeOp::DeleteGauge { gauge }));
    }

    #[test]
    fn recruits_take_the_first_names_neither_the_model_nor_the_plan_holds() {
        let (model, index, mut input) = squeeze_fixture();
        input.violating_clients.clear();
        input.overloaded_groups = vec![Key::new("ServerGrp1")];
        sg1(&mut input).load = 20.0;
        let mut planner = GroupPlanner::new(None);
        let (plan, _) = planner.plan(&index, &model, &input).expect("a plan");
        let add = |server: &str| ModelOp::AddServer {
            group: "ServerGrp1".into(),
            server: server.into(),
        };
        assert_eq!(
            plan.ops,
            vec![add("ServerGrp1.Server4"), add("ServerGrp1.Server5")]
        );
    }

    #[test]
    fn an_op_the_live_model_would_refuse_abstains_the_plan() {
        let (_, index, input) = squeeze_fixture();
        // The squeezed class's target group is missing from the model.
        let one_group = ClientServerStyle::example_system("storage", 1, 3, 6).unwrap();
        let mut planner = GroupPlanner::new(None);
        assert!(planner.plan(&index, &one_group, &input).is_none());
        // So is an overloaded group's, which would recruit.
        let (model, index, mut input) = squeeze_fixture();
        input.violating_clients.clear();
        input.overloaded_groups = vec![Key::new("ServerGrp3")];
        input.groups.insert(
            Key::new("ServerGrp3"),
            GroupSnapshot {
                load: 20.0,
                live_servers: 1,
                stuck_servers: 0,
            },
        );
        assert!(planner.plan(&index, &model, &input).is_none());
    }

    #[test]
    fn water_filling_moves_the_smallest_whole_class_off_the_overloaded_group() {
        let (model, index, mut input) = squeeze_fixture();
        input.violating_clients.clear();
        input.overloaded_groups = vec![Key::new("ServerGrp1")];
        sg1(&mut input).load = 20.0;
        sg1(&mut input).stuck_servers = 0;
        input.spare_servers = 0;
        // Everyone but User1 crowds ServerGrp1: 5 clients per 3 replicas
        // against 1 per 3, and one class move (4 against 2) settles it.
        for (client, group) in input.client_groups.iter_mut() {
            *group = if *client == "User1" {
                Key::new("ServerGrp2")
            } else {
                Key::new("ServerGrp1")
            };
        }
        let mut planner = GroupPlanner::new(None);
        let (plan, runtime_ops) = planner
            .plan(&index, &model, &input)
            .expect("a plan is produced");
        assert_eq!(plan.tactics, vec!["rebalanceGroups".to_string()]);
        let moves: Vec<_> = runtime_ops
            .iter()
            .filter_map(|op| match op {
                RuntimeOp::MoveClientGroup { clients, to_group } => Some((clients, to_group)),
                _ => None,
            })
            .collect();
        // The lowest-id class wholly on ServerGrp1, not User1's (already on
        // the receiver) and not one split across both groups.
        let class = index
            .client_classes()
            .iter()
            .find(|c| c.members.iter().all(|m| *m != "User1"))
            .unwrap();
        assert_eq!(moves, vec![(&class.members, &Key::new("ServerGrp2"))]);
    }

    #[test]
    fn healthy_input_produces_no_plan() {
        let (model, index, mut input) = squeeze_fixture();
        input.violating_clients.clear();
        input.overloaded_groups.clear();
        let mut planner = GroupPlanner::new(None);
        assert!(planner.plan(&index, &model, &input).is_none());
    }

    #[test]
    fn squeezed_class_with_no_reachable_target_stays_put() {
        let (model, index, mut input) = squeeze_fixture();
        for (_, value) in input.class_bandwidth.iter_mut() {
            *value = Some(1_000.0); // everything below the minimum
        }
        let mut planner = GroupPlanner::new(None);
        assert!(planner.plan(&index, &model, &input).is_none());
    }

    #[test]
    fn plans_are_deterministic() {
        let (model, index, input) = squeeze_fixture();
        let mut a = GroupPlanner::new(Some(60.0));
        let mut b = GroupPlanner::new(Some(60.0));
        assert_eq!(
            a.plan(&index, &model, &input),
            b.plan(&index, &model, &input)
        );
    }

    #[test]
    fn large_scale_squeeze_moves_whole_aggregation_classes() {
        // A synthetic large-scale-shaped input: every class behind the R2
        // aggregation switches is squeezed on ServerGrp1.
        let testbed = Testbed::from_spec(&TestbedSpec::large_scale()).unwrap();
        let index = ClassIndex::build(&testbed);
        // Model with the right component names for the moved members: use
        // a generated system with 2 groups and 2000 clients.
        let model = ClientServerStyle::example_system("web", 2, 3, 2000).unwrap();
        let mut client_groups = FxHashMap::default();
        for i in 1..=2000 {
            let group = if i % 2 == 1 {
                "ServerGrp1"
            } else {
                "ServerGrp2"
            };
            client_groups.insert(Key::new(&format!("User{i}")), Key::new(group));
        }
        // The squeezed classes: clients 801..=1200 (behind R2).
        let squeezed: BTreeSet<usize> = (801..=1200)
            .filter_map(|i| index.client_class_of(Key::new(&format!("User{i}"))))
            .collect();
        let mut groups = BTreeMap::new();
        groups.insert(
            Key::new("ServerGrp1"),
            GroupSnapshot {
                load: 2.0,
                live_servers: 48,
                stuck_servers: 30,
            },
        );
        groups.insert(
            Key::new("ServerGrp2"),
            GroupSnapshot {
                load: 0.0,
                live_servers: 32,
                stuck_servers: 0,
            },
        );
        let mut class_bandwidth = FxHashMap::default();
        for class in index.client_classes() {
            let bw1 = if squeezed.contains(&class.id) {
                4_000.0
            } else {
                2.0e6
            };
            class_bandwidth.insert((class.id, Key::new("ServerGrp1")), Some(bw1));
            class_bandwidth.insert((class.id, Key::new("ServerGrp2")), Some(3.0e6));
        }
        let violating: Vec<Key> = (801..=1200)
            .map(|i| Key::new(&format!("User{i}")))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let input = PlannerInput {
            now_secs: 50.0,
            thresholds: thresholds(),
            groups,
            spare_servers: 14,
            class_bandwidth,
            violating_clients: violating,
            overloaded_groups: Vec::new(),
            client_groups,
        };
        let mut planner = GroupPlanner::new(Some(60.0));
        let (plan, runtime_ops) = planner
            .plan(&index, &model, &input)
            .expect("bulk plan produced");
        let moved: usize = runtime_ops
            .iter()
            .filter_map(|op| match op {
                RuntimeOp::MoveClientGroup { clients, .. } => Some(clients.len()),
                _ => None,
            })
            .sum();
        // Half of each squeezed class is on ServerGrp1 in this fixture; every
        // one of those clients moves in a single plan.
        assert_eq!(moved, 200);
        assert!(runtime_ops.iter().any(
            |op| matches!(op, RuntimeOp::DrainStuckServers { group, .. } if group == "ServerGrp1")
        ));
        // One gauge-churn batch, not one per client.
        let churns = runtime_ops
            .iter()
            .filter(|op| matches!(op, RuntimeOp::DeleteGauge { .. }))
            .count();
        assert_eq!(churns, 1);
        // A second planner run with the same input produces the same plan.
        let mut other = GroupPlanner::new(Some(60.0));
        assert_eq!(
            other.plan(&index, &model, &input),
            Some((plan, runtime_ops))
        );
    }
}
