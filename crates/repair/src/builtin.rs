//! The paper's repair strategies and tactics (Figure 5).
//!
//! The latency invariant `averageLatency <= maxLatency` triggers the
//! `fixLatency` strategy, which consists of two tactics:
//!
//! * `fixServerLoad` — if the client's server group is overloaded (queue
//!   length above `maxServerLoad`), add a server to every overloaded group;
//! * `fixBandwidth` — if the client's connection bandwidth has dropped below
//!   `minBandwidth`, move the client to the server group with the best
//!   bandwidth (`findGoodSGrp`), aborting with `NoServerGroupFound` if none
//!   qualifies.
//!
//! A third repair (mentioned but not shown in the paper) reduces the number
//! of servers in an underutilised group: `reduceServers`.

use crate::operators::{add_server, move_client, remove_server};
use crate::strategy::RepairStrategy;
use crate::tactic::{
    client_component, NotApplicable, RepairError, Tactic, TacticContext, TacticResult,
};
use archmodel::constraint::{ConstraintScope, ConstraintSet, Invariant, Violation};
use archmodel::style::{
    props, ClientServerStyle, StyleTypes, CLIENT_ROLE_T, CLIENT_T, SERVER_GROUP_T,
};
use archmodel::{ComponentId, ElementRef, Key, System};

/// Default threshold for server-group load (pending requests). The paper: a
/// queue of more than six waiting requests indicates overload.
pub const DEFAULT_MAX_SERVER_LOAD: f64 = 6.0;
/// Default minimum acceptable client bandwidth. The paper: 10 Kbps.
pub const DEFAULT_MIN_BANDWIDTH_BPS: f64 = 10_000.0;

fn system_threshold(model: &System, name: &str, default: f64) -> f64 {
    model.properties.get_f64(name).unwrap_or(default)
}

/// The server groups connected to `client` whose load exceeds the
/// `maxServerLoad` threshold, in id order. A group's type is compared by
/// interned key and its connectors with the client's own, so nothing is
/// allocated unless a group is overloaded.
fn overloaded_groups_of(model: &System, client: ComponentId) -> Vec<Key> {
    let max_load = system_threshold(model, props::MAX_SERVER_LOAD, DEFAULT_MAX_SERVER_LOAD);
    let group_t = StyleTypes::get().server_group;
    let groups = model.components().filter(|(_, c)| c.ctype == group_t);
    let overloaded =
        groups.filter(|(_, c)| c.properties.get_f64(props::LOAD).unwrap_or(0.0) > max_load);
    let connected = overloaded.filter(|(id, _)| model.connected(client, *id));
    connected.map(|(_, c)| c.name).collect()
}

/// The bandwidth currently recorded on the client's role, if known.
fn client_role_bandwidth(model: &System, client: ComponentId) -> Option<f64> {
    let role_t = StyleTypes::get().client_role;
    for role_id in model.roles_of_component(client) {
        let role = model.role(role_id).ok()?;
        if role.rtype == role_t {
            if let Some(bw) = role.properties.get_f64(props::BANDWIDTH) {
                return Some(bw);
            }
        }
    }
    None
}

/// A tactic's answer when its precondition does not hold.
fn not_applicable(reason: NotApplicable) -> Result<TacticResult, RepairError> {
    Ok(TacticResult::NotApplicable(reason))
}

/// `fixServerLoad` (Figure 5, lines 16–26): add a server to every overloaded
/// server group connected to the client.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixServerLoadTactic;

impl Tactic for FixServerLoadTactic {
    fn name(&self) -> &str {
        "fixServerLoad"
    }

    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
        let Some((client, _)) = client_component(ctx.model, ctx.violation) else {
            return not_applicable(NotApplicable::NoClient);
        };
        let overloaded = overloaded_groups_of(ctx.model, client);
        if overloaded.is_empty() {
            return not_applicable(NotApplicable::NoOverloadedGroup);
        }
        // Only groups for which the runtime can actually recruit a spare
        // server can be repaired this way.
        let repairable: Vec<Key> = overloaded
            .iter()
            .filter(|g| ctx.query.find_spare_server(g.as_str()).is_some())
            .copied()
            .collect();
        if repairable.is_empty() {
            return not_applicable(NotApplicable::NoSpareServer(overloaded.into()));
        }
        let mut ops = Vec::new();
        let mut added = Vec::new();
        for group in &repairable {
            added.push(add_server(ctx.model, &mut ops, group.as_str())?);
        }
        Ok(TacticResult::Applied {
            ops,
            description: format!("added servers {added:?} to overloaded groups {repairable:?}"),
        })
    }
}

/// `fixBandwidth` (Figure 5, lines 28–42): if the client's bandwidth is below
/// `minBandwidth`, move it to the server group with the best bandwidth.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixBandwidthTactic;

impl Tactic for FixBandwidthTactic {
    fn name(&self) -> &str {
        "fixBandwidth"
    }

    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
        let Some((client_id, client)) = client_component(ctx.model, ctx.violation) else {
            return not_applicable(NotApplicable::NoClient);
        };
        let min_bandwidth =
            system_threshold(ctx.model, props::MIN_BANDWIDTH, DEFAULT_MIN_BANDWIDTH_BPS);
        // Precondition (lines 30–31): the role bandwidth must be below the
        // minimum for this tactic to apply.
        let Some(bps) = client_role_bandwidth(ctx.model, client_id) else {
            return not_applicable(NotApplicable::NoBandwidthObservation);
        };
        if bps >= min_bandwidth {
            let min_bps = min_bandwidth;
            return not_applicable(NotApplicable::BandwidthAboveMinimum { bps, min_bps });
        }
        // findGoodSGrp (lines 35–36).
        let client = client.as_str();
        let Some(good_group) = ctx.query.find_good_server_group(client, min_bandwidth) else {
            return Err(RepairError::NoServerGroupFound);
        };
        // Moving to the group the client already uses would be a no-op.
        let current = ClientServerStyle::group_of_client(ctx.model, client_id)
            .and_then(|g| ctx.model.component(g).ok())
            .map(|g| g.name);
        if let Some(current) = current.filter(|g| *g == good_group) {
            return not_applicable(NotApplicable::AlreadyConnected(current));
        }
        let mut ops = Vec::new();
        move_client(ctx.model, &mut ops, client, &good_group)?;
        Ok(TacticResult::Applied {
            ops,
            description: format!("moved {client} to {good_group}"),
        })
    }
}

/// The third repair (not shown in the paper's Figure 5): remove a server from
/// an underutilised server group to keep the set of active servers minimal.
#[derive(Debug, Clone, Copy)]
pub struct ReduceServersTactic {
    /// A group is underutilised when its load is at or below this value.
    pub low_load_threshold: f64,
    /// Never shrink a group below this many servers.
    pub min_servers: usize,
}

impl Default for ReduceServersTactic {
    fn default() -> Self {
        ReduceServersTactic {
            low_load_threshold: 1.0,
            min_servers: 1,
        }
    }
}

impl Tactic for ReduceServersTactic {
    fn name(&self) -> &str {
        "reduceServers"
    }

    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
        // When the violation identifies a server group (the `underutilised`
        // invariant is scoped per group), only that group is considered;
        // subject-free violations keep the historical whole-model scan.
        let subject_group = group_of_violation(ctx.model, ctx.violation);
        let group_t = StyleTypes::get().server_group;
        // Find an underutilised group with more than the minimum number of
        // servers.
        let mut candidate: Option<(Key, Key)> = None;
        for (id, comp) in ctx.model.components() {
            if comp.ctype != group_t || subject_group.is_some_and(|(_, g)| comp.name != g) {
                continue;
            }
            let load = comp
                .properties
                .get_f64(props::LOAD)
                .unwrap_or(f64::INFINITY);
            if load > self.low_load_threshold {
                continue;
            }
            // Never shrink below the provisioned baseline: the group keeps
            // at least its deployment-time replica count (`baseReplicas`),
            // so cost reduction only retires capacity that repairs recruited
            // on top.
            let floor = comp
                .properties
                .get_f64(props::BASE_REPLICAS)
                .map(|b| b.max(0.0) as usize)
                .unwrap_or(self.min_servers)
                .max(self.min_servers);
            let children: Vec<_> = ctx.model.children(id).collect();
            if children.len() <= floor {
                continue;
            }
            // Remove the most recently added server.
            if let Some(last) = children.last() {
                if let Ok(server) = ctx.model.component(*last) {
                    candidate = Some((comp.name, server.name));
                    break;
                }
            }
        }
        let Some((group, server)) = candidate else {
            return not_applicable(NotApplicable::NoRemovableServer);
        };
        let mut ops = Vec::new();
        remove_server(ctx.model, &mut ops, server.as_str())?;
        Ok(TacticResult::Applied {
            ops,
            description: format!("removed {server} from underutilised group {group}"),
        })
    }
}

/// Resolves the server group a violation refers to (liveness constraints are
/// scoped per server group), with its interned name.
fn group_of_violation(model: &System, violation: &Violation) -> Option<(ComponentId, Key)> {
    match violation.subject? {
        ElementRef::Component(id) => {
            let comp = model.component(id).ok()?;
            (comp.ctype == StyleTypes::get().server_group).then_some((id, comp.name))
        }
        _ => None,
    }
}

/// The model replicas of `group` whose `isAlive` gauge reading says the
/// backing runtime process has crashed.
fn dead_replicas_of(model: &System, group: ComponentId) -> Vec<String> {
    let mut dead = Vec::new();
    for child in model.children(group) {
        if let Ok(server) = model.component(child) {
            if server.properties.get_f64(props::IS_ALIVE) == Some(0.0) {
                dead.push(server.name.to_string());
            }
        }
    }
    dead
}

/// `failoverServerGroup` — the failure-recovery tactic behind the
/// `failover-server-group` strategy: when the violated server group has
/// assigned-but-dead replicas, remove the corpses from the model (which
/// deactivates and disconnects the dead runtime servers) and recruit an
/// equal number of spare servers in their place.
#[derive(Debug, Default, Clone, Copy)]
pub struct FailoverServerGroupTactic;

impl Tactic for FailoverServerGroupTactic {
    fn name(&self) -> &str {
        "failoverServerGroup"
    }

    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
        let Some((group_id, group)) = group_of_violation(ctx.model, ctx.violation) else {
            return not_applicable(NotApplicable::NoGroup);
        };
        let dead = dead_replicas_of(ctx.model, group_id);
        if dead.is_empty() {
            return not_applicable(NotApplicable::NoDeadReplicas(group));
        }
        let members = ctx.model.children(group_id).count();
        let spares = ctx.query.spare_server_count(group.as_str());
        let replacements = dead.len().min(spares);
        if replacements == 0 && members == dead.len() {
            // Removing every replica with nothing to recruit would leave the
            // group empty; let the reroute tactic move the clients instead.
            return not_applicable(NotApplicable::FullyDead(group));
        }
        let mut ops = Vec::new();
        for corpse in &dead {
            remove_server(ctx.model, &mut ops, corpse)?;
        }
        let mut recruited = Vec::new();
        for _ in 0..replacements {
            recruited.push(add_server(ctx.model, &mut ops, group.as_str())?);
        }
        Ok(TacticResult::Applied {
            ops,
            description: format!(
                "failed {group} over: retired dead replicas {dead:?}, recruited {recruited:?}"
            ),
        })
    }
}

/// `rerouteClientsOffDeadLink` — the failure-recovery tactic behind the
/// `reroute-clients-off-dead-link` strategy: when the violated server group
/// has no live replicas left (total outage, or unreachable behind a cut
/// link), move every client it serves to the reachable group with the best
/// bandwidth. Aborts with `NoServerGroupFound` when no client can be placed.
#[derive(Debug, Default, Clone, Copy)]
pub struct RerouteClientsTactic;

impl Tactic for RerouteClientsTactic {
    fn name(&self) -> &str {
        "rerouteClientsOffDeadLink"
    }

    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
        let Some((group_id, group)) = group_of_violation(ctx.model, ctx.violation) else {
            return not_applicable(NotApplicable::NoGroup);
        };
        let live = ctx
            .model
            .component(group_id)
            .ok()
            .and_then(|c| c.properties.get_f64(props::LIVE_SERVERS))
            .unwrap_or(f64::INFINITY);
        if live >= 1.0 {
            return not_applicable(NotApplicable::StillLive { group, live });
        }
        let clients: Vec<Key> = ClientServerStyle::clients_of_group(ctx.model, group_id)
            .into_iter()
            .filter_map(|id| ctx.model.component(id).ok().map(|c| c.name))
            .collect();
        if clients.is_empty() {
            return not_applicable(NotApplicable::ServesNoClients(group));
        }
        let min_bandwidth =
            system_threshold(ctx.model, props::MIN_BANDWIDTH, DEFAULT_MIN_BANDWIDTH_BPS);
        let mut ops = Vec::new();
        let mut moved = Vec::new();
        for client in &clients {
            let client = client.as_str();
            let Some(target) = ctx.query.find_good_server_group(client, min_bandwidth) else {
                continue;
            };
            if group == target {
                continue;
            }
            move_client(ctx.model, &mut ops, client, &target)?;
            moved.push(format!("{client}->{target}"));
        }
        if moved.is_empty() {
            return Err(RepairError::NoServerGroupFound);
        }
        Ok(TacticResult::Applied {
            ops,
            description: format!("rerouted clients off dead group {group}: {moved:?}"),
        })
    }
}

/// Builds the paper's `fixLatency` strategy: try `fixServerLoad` first, then
/// `fixBandwidth` (the paper's experiment prioritised server-load repairs).
pub fn fix_latency_strategy() -> RepairStrategy {
    RepairStrategy::new("fixLatency")
        .with_tactic(Box::new(FixServerLoadTactic))
        .with_tactic(Box::new(FixBandwidthTactic))
}

/// Builds a variant of `fixLatency` that tries the bandwidth repair first —
/// used by the tactic-ordering ablation (§7 discusses choosing the tactic
/// that contributes most to the latency).
pub fn fix_latency_bandwidth_first_strategy() -> RepairStrategy {
    RepairStrategy::new("fixLatency-bandwidthFirst")
        .with_tactic(Box::new(FixBandwidthTactic))
        .with_tactic(Box::new(FixServerLoadTactic))
}

/// Builds the cost-reduction strategy for underutilised groups.
pub fn reduce_servers_strategy() -> RepairStrategy {
    RepairStrategy::new("reduceServers").with_tactic(Box::new(ReduceServersTactic::default()))
}

/// Builds the composite failure-recovery strategy for `liveness` violations:
/// fail the group over to spares when possible, otherwise reroute its
/// clients to a reachable group.
pub fn recover_liveness_strategy() -> RepairStrategy {
    RepairStrategy::new("recoverLiveness")
        .with_tactic(Box::new(FailoverServerGroupTactic))
        .with_tactic(Box::new(RerouteClientsTactic))
}

/// The constraint set of the paper's example: the latency invariant per
/// client (line 1 of Figure 5), plus observability constraints for load and
/// bandwidth used by dashboards and the ablations.
pub fn default_constraints() -> ConstraintSet {
    ConstraintSet::new()
        .with(
            Invariant::parse(
                "latency",
                ConstraintScope::EachComponent(CLIENT_T.into()),
                "self.averageLatency <= maxLatency",
            )
            .expect("latency invariant parses"),
        )
        .with(
            Invariant::parse(
                "serverLoad",
                ConstraintScope::EachComponent(SERVER_GROUP_T.into()),
                "self.load <= maxServerLoad",
            )
            .expect("load invariant parses"),
        )
        .with(
            Invariant::parse(
                "bandwidth",
                ConstraintScope::EachRole(CLIENT_ROLE_T.into()),
                "self.bandwidth >= minBandwidth",
            )
            .expect("bandwidth invariant parses"),
        )
        .with(
            Invariant::parse(
                "liveness",
                ConstraintScope::EachComponent(SERVER_GROUP_T.into()),
                "self.deadServers <= maxDeadServers",
            )
            .expect("liveness invariant parses"),
        )
}

/// The `underutilised` invariant behind the restart-aware cost-reduction
/// pass: a server group must either carry load or be at its provisioned
/// replica count. It fires when a group idles with *more* replicas than it
/// was deployed with — the state failover and load repairs leave behind once
/// a crashed server has returned as a spare — and routes to
/// [`reduce_servers_strategy`], which retires the surplus one replica per
/// repair down to the `baseReplicas` floor. Opt-in (not part of
/// [`default_constraints`]): cost reduction is a policy choice, and adding
/// it changes repair traces.
pub fn underutilised_invariant() -> Invariant {
    Invariant::parse(
        "underutilised",
        ConstraintScope::EachComponent(SERVER_GROUP_T.into()),
        "self.load > underutilisedLoad or self.replicationCount <= self.baseReplicas",
    )
    .expect("underutilised invariant parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StaticQuery;
    use crate::strategy::StrategyOutcome;
    use archmodel::constraint::Violation;
    use archmodel::{ElementRef, ModelOp};
    use proptest::prelude::{Strategy, TestRng};
    use std::collections::BTreeMap;

    /// Paper-like model: 2 groups, 3 servers each, 6 clients; User3 violates
    /// the latency bound. Group loads and role bandwidths are configurable.
    fn scenario(group1_load: i64, user3_bandwidth: f64) -> (System, Violation) {
        let mut model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        model
            .component_mut(g1)
            .unwrap()
            .properties
            .set(props::LOAD, group1_load);
        let g2 = model.component_by_name("ServerGrp2").unwrap();
        model
            .component_mut(g2)
            .unwrap()
            .properties
            .set(props::LOAD, 0i64);
        // User3 is on ServerGrp1 (round robin: 1→G1, 2→G2, 3→G1, ...).
        let user3 = model.component_by_name("User3").unwrap();
        model
            .component_mut(user3)
            .unwrap()
            .properties
            .set(props::AVERAGE_LATENCY, 5.0);
        for role_id in model.roles_of_component(user3).collect::<Vec<_>>() {
            model
                .role_mut(role_id)
                .unwrap()
                .properties
                .set(props::BANDWIDTH, user3_bandwidth);
        }
        let violation = Violation {
            invariant: "latency".into(),
            subject: Some(ElementRef::Component(user3)),
            subject_name: "User3".into(),
            detail: "self.averageLatency <= maxLatency".into(),
        };
        (model, violation)
    }

    /// Adds a replica to `group` of `model`, as a committed `addServer()`.
    fn recruit(model: &mut System, group: &str) {
        let mut ops = Vec::new();
        add_server(model, &mut ops, group).unwrap();
        archmodel::apply_op(model, &ops[0]).unwrap();
    }

    #[test]
    fn overloaded_group_triggers_add_server() {
        let (model, violation) = scenario(20, 1e6);
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4"]);
        let outcome = fix_latency_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Repaired {
                applied_tactics,
                description,
                ops,
            } => {
                assert_eq!(applied_tactics, vec!["fixServerLoad".to_string()]);
                assert!(description.contains("ServerGrp1"));
                assert!(!ops.is_empty());
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn low_bandwidth_triggers_move_when_load_is_fine() {
        let (model, violation) = scenario(2, 3_000.0);
        let query = StaticQuery::new()
            .with_bandwidth("User3", "ServerGrp1", 3_000.0)
            .with_bandwidth("User3", "ServerGrp2", 2_000_000.0);
        let outcome = fix_latency_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Repaired {
                applied_tactics,
                description,
                ..
            } => {
                assert_eq!(applied_tactics, vec!["fixBandwidth".to_string()]);
                assert!(description.contains("ServerGrp2"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn overload_without_spares_falls_through_to_bandwidth() {
        let (model, violation) = scenario(20, 3_000.0);
        // No spare servers anywhere, but ServerGrp2 has good bandwidth.
        let query = StaticQuery::new().with_bandwidth("User3", "ServerGrp2", 5_000_000.0);
        let outcome = fix_latency_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Repaired {
                applied_tactics, ..
            } => assert_eq!(applied_tactics, vec!["fixBandwidth".to_string()]),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn no_good_group_aborts_with_no_server_group_found() {
        let (model, violation) = scenario(2, 3_000.0);
        // Bandwidth everywhere is terrible.
        let query = StaticQuery::new().with_bandwidth("User3", "ServerGrp2", 1_000.0);
        let outcome = fix_latency_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Aborted { reason } => assert!(reason.contains("NoServerGroupFound")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn healthy_client_yields_no_applicable_tactic() {
        let (model, violation) = scenario(2, 5_000_000.0);
        let query = StaticQuery::new();
        let outcome = fix_latency_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::NoApplicableTactic { reasons } => assert_eq!(reasons.len(), 2),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn moving_to_the_same_group_is_not_a_repair() {
        let (model, violation) = scenario(2, 3_000.0);
        // Best group is the one the client is already on.
        let query = StaticQuery::new().with_bandwidth("User3", "ServerGrp1", 9e6);
        let outcome = fix_latency_strategy().run(&model, &violation, &query);
        assert!(matches!(
            outcome,
            StrategyOutcome::NoApplicableTactic { .. }
        ));
    }

    #[test]
    fn bandwidth_first_ordering_prefers_move() {
        let (model, violation) = scenario(20, 3_000.0);
        let query = StaticQuery::new()
            .with_spares("ServerGrp1", &["S4"])
            .with_bandwidth("User3", "ServerGrp2", 5e6);
        let outcome = fix_latency_bandwidth_first_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Repaired {
                applied_tactics, ..
            } => assert_eq!(applied_tactics, vec!["fixBandwidth".to_string()]),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn reduce_servers_removes_from_idle_group() {
        let (mut model, _) = scenario(0, 1e6);
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        model
            .component_mut(g1)
            .unwrap()
            .properties
            .set(props::LOAD, 0i64);
        let violation = Violation {
            invariant: "underutilised".into(),
            subject: None,
            subject_name: "storage".into(),
            detail: Key::new(""),
        };
        let outcome = reduce_servers_strategy().run(&model, &violation, &StaticQuery::new());
        match outcome {
            StrategyOutcome::Repaired { description, .. } => {
                assert!(description.contains("removed"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn reduce_servers_never_empties_a_group() {
        let mut model = System::new("tiny");
        let g = ClientServerStyle::add_server_group(&mut model, "G1", 1).unwrap();
        ClientServerStyle::add_clients(&mut model, [("U1", "G1")]).unwrap();
        model
            .component_mut(g)
            .unwrap()
            .properties
            .set(props::LOAD, 0i64);
        let violation = Violation {
            invariant: "underutilised".into(),
            subject: None,
            subject_name: "tiny".into(),
            detail: Key::new(""),
        };
        let outcome = reduce_servers_strategy().run(&model, &violation, &StaticQuery::new());
        assert!(matches!(
            outcome,
            StrategyOutcome::NoApplicableTactic { .. }
        ));
    }

    #[test]
    fn underutilised_invariant_fires_only_above_the_provisioned_baseline() {
        use archmodel::constraint::ConstraintSet;
        let (mut model, _) = scenario(0, 1e6);
        model.properties.set(props::UNDERUTILISED_LOAD, 1.0);
        for group in ["ServerGrp1", "ServerGrp2"] {
            let id = model.component_by_name(group).unwrap();
            let properties = &mut model.component_mut(id).unwrap().properties;
            properties.set(props::LOAD, 0i64);
            properties.set(props::BASE_REPLICAS, 3.0);
        }
        let set = ConstraintSet::new().with(underutilised_invariant());
        // At the provisioned count, an idle group is fine.
        let report = set.check(&model);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(set.check_errors(&model).is_empty(), "{report:?}");
        // A surplus replica on an idle group violates.
        recruit(&mut model, "ServerGrp1");
        let report = set.check(&model);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].subject_name, "ServerGrp1");
        // A busy group with a surplus replica does not.
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        model
            .component_mut(g1)
            .unwrap()
            .properties
            .set(props::LOAD, 5i64);
        assert!(set.check(&model).violations.is_empty());
    }

    #[test]
    fn reduce_servers_respects_the_subject_group_and_base_floor() {
        let (mut model, _) = scenario(0, 1e6);
        for group in ["ServerGrp1", "ServerGrp2"] {
            let id = model.component_by_name(group).unwrap();
            let properties = &mut model.component_mut(id).unwrap().properties;
            properties.set(props::LOAD, 0i64);
            properties.set(props::BASE_REPLICAS, 3.0);
        }
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        let violation = Violation {
            invariant: "underutilised".into(),
            subject: Some(ElementRef::Component(g1)),
            subject_name: "ServerGrp1".into(),
            detail: Key::new(""),
        };
        // Both groups idle at their baseline: the floor forbids any removal,
        // even though the historical min_servers (1) would allow it.
        let outcome = reduce_servers_strategy().run(&model, &violation, &StaticQuery::new());
        assert!(matches!(
            outcome,
            StrategyOutcome::NoApplicableTactic { .. }
        ));
        // Grow *ServerGrp2* beyond its baseline: the subject-scoped tactic
        // still leaves ServerGrp1 alone.
        recruit(&mut model, "ServerGrp2");
        let outcome = reduce_servers_strategy().run(&model, &violation, &StaticQuery::new());
        assert!(matches!(
            outcome,
            StrategyOutcome::NoApplicableTactic { .. }
        ));
        // A surplus on the subject group itself is retired.
        recruit(&mut model, "ServerGrp1");
        match reduce_servers_strategy().run(&model, &violation, &StaticQuery::new()) {
            StrategyOutcome::Repaired { description, .. } => {
                assert!(description.contains("ServerGrp1"), "{description}");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn default_constraints_detect_latency_violation() {
        let (model, _) = scenario(2, 1e6);
        let report = default_constraints().check(&model);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].subject_name, "User3");
    }

    /// Model in which `dead` of ServerGrp1's three replicas have crashed
    /// (isAlive = 0) and the liveness census properties are set accordingly.
    fn crashed_scenario(dead: usize) -> (System, Violation) {
        let mut model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
        let g1 = model.component_by_name("ServerGrp1").unwrap();
        let children: Vec<_> = model.children(g1).collect();
        for (i, child) in children.iter().enumerate() {
            let alive = if i < dead { 0.0 } else { 1.0 };
            model
                .component_mut(*child)
                .unwrap()
                .properties
                .set(props::IS_ALIVE, alive);
        }
        let live = (children.len() - dead) as f64;
        let grp = model.component_mut(g1).unwrap();
        grp.properties.set(props::LIVE_SERVERS, live);
        grp.properties.set(props::DEAD_SERVERS, dead as f64);
        model.properties.set(props::MAX_DEAD_SERVERS, 0.0);
        let violation = Violation {
            invariant: "liveness".into(),
            subject: Some(ElementRef::Component(g1)),
            subject_name: "ServerGrp1".into(),
            detail: "self.deadServers <= maxDeadServers".into(),
        };
        (model, violation)
    }

    #[test]
    fn liveness_invariant_fires_on_dead_replicas() {
        let (model, _) = crashed_scenario(2);
        let report = default_constraints().check(&model);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "liveness" && v.subject_name == "ServerGrp1"));
        let (healthy, _) = crashed_scenario(0);
        let report = default_constraints().check(&healthy);
        assert!(!report.violations.iter().any(|v| v.invariant == "liveness"));
    }

    #[test]
    fn failover_replaces_dead_replicas_with_spares() {
        let (model, violation) = crashed_scenario(2);
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4", "S7"]);
        let outcome = recover_liveness_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Repaired {
                applied_tactics,
                description,
                ops,
            } => {
                assert_eq!(applied_tactics, vec!["failoverServerGroup".to_string()]);
                assert!(description.contains("retired dead replicas"));
                // Two removals (2 ops each) and two recruits (3 ops each).
                assert!(!ops.is_empty());
                // Applying the plan keeps the replication count at three.
                let mut repaired = model.clone();
                for op in &ops {
                    archmodel::apply_op(&mut repaired, op).unwrap();
                }
                let g1 = repaired.component_by_name("ServerGrp1").unwrap();
                assert_eq!(repaired.children(g1).count(), 3);
                assert!(ClientServerStyle::validate(&repaired).is_empty());
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn failover_with_one_spare_replaces_what_it_can() {
        let (model, violation) = crashed_scenario(2);
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4"]);
        match recover_liveness_strategy().run(&model, &violation, &query) {
            StrategyOutcome::Repaired { ops, .. } => {
                let mut repaired = model.clone();
                for op in &ops {
                    archmodel::apply_op(&mut repaired, op).unwrap();
                }
                let g1 = repaired.component_by_name("ServerGrp1").unwrap();
                // Two corpses retired, one spare recruited: 1 + 1 replicas.
                assert_eq!(repaired.children(g1).count(), 2);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn total_outage_without_spares_reroutes_the_clients() {
        let (model, violation) = crashed_scenario(3);
        // No spares, but ServerGrp2 is reachable at good bandwidth.
        let mut query = StaticQuery::new();
        for client in ["User1", "User3", "User5"] {
            query = query.with_bandwidth(client, "ServerGrp2", 5e6);
        }
        let outcome = recover_liveness_strategy().run(&model, &violation, &query);
        match outcome {
            StrategyOutcome::Repaired {
                applied_tactics,
                description,
                ops,
            } => {
                assert_eq!(
                    applied_tactics,
                    vec!["rerouteClientsOffDeadLink".to_string()]
                );
                assert!(description.contains("rerouted"));
                let mut repaired = model.clone();
                for op in &ops {
                    archmodel::apply_op(&mut repaired, op).unwrap();
                }
                // The odd-numbered clients (on ServerGrp1) all moved.
                let g2 = repaired.component_by_name("ServerGrp2").unwrap();
                assert_eq!(ClientServerStyle::clients_of_group(&repaired, g2).len(), 6);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn total_outage_with_nowhere_to_go_aborts() {
        let (model, violation) = crashed_scenario(3);
        let outcome = recover_liveness_strategy().run(&model, &violation, &StaticQuery::new());
        match outcome {
            StrategyOutcome::Aborted { reason } => {
                assert!(reason.contains("NoServerGroupFound"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn healthy_group_leaves_recovery_not_applicable() {
        let (model, violation) = crashed_scenario(0);
        let outcome = recover_liveness_strategy().run(&model, &violation, &StaticQuery::new());
        match outcome {
            StrategyOutcome::NoApplicableTactic { reasons } => {
                assert_eq!(reasons.len(), 2);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn failover_recruit_takes_the_name_of_the_corpse_it_retired() {
        let (model, violation) = crashed_scenario(1);
        let query = StaticQuery::new().with_spares("ServerGrp1", &["S4"]);
        let strategy = recover_liveness_strategy();
        let outcome = strategy.run(&model, &violation, &query);
        assert_eq!(outcome, strategy.run_eager(&model, &violation, &query));
        let StrategyOutcome::Repaired { ops, .. } = outcome else {
            panic!("unexpected outcome: {outcome:?}");
        };
        let corpse = "ServerGrp1.Server1".to_string();
        assert_eq!(
            ops,
            [
                ModelOp::RemoveServer {
                    server: corpse.clone()
                },
                ModelOp::AddServer {
                    group: "ServerGrp1".into(),
                    server: corpse,
                },
            ]
        );
    }

    /// A style-valid fleet with everything the built-in tactics read, drawn
    /// from `rng`, and the runtime answers to plan it against:
    /// * 1–3 groups of 1–3 replicas; a group may have lost `Server1` (a gap
    ///   a recruit fills first) or grown a surplus replica;
    /// * 1–9 clients homed round-robin, each with a recorded latency and
    ///   most with a recorded role bandwidth;
    /// * per group a load, dead replicas (`isAlive = 0`, every replica in a
    ///   quarter of the groups) with the
    ///   `liveServers` / `deadServers` census, half the time a
    ///   `baseReplicas`, and 0–2 spares;
    /// * a predicted bandwidth for about half the (client, group) pairs.
    fn oracle_fleet(rng: &mut TestRng) -> (System, StaticQuery) {
        let mut pick = |n: usize| (0..n).generate(rng);
        let mut model = System::new("oracle");
        model.properties.set(props::MAX_LATENCY, 2.0);
        model.properties.set(props::MAX_SERVER_LOAD, 6i64);
        model.properties.set(props::MIN_BANDWIDTH, 10_000.0);
        model.properties.set(props::MAX_DEAD_SERVERS, 0.0);
        model.properties.set(props::UNDERUTILISED_LOAD, 1.0);
        let groups: Vec<String> = (1..=1 + pick(3)).map(|g| format!("ServerGrp{g}")).collect();
        for group in &groups {
            let servers = 1 + pick(3);
            ClientServerStyle::add_server_group(&mut model, group, servers).unwrap();
            match pick(3) {
                1 if servers > 1 => {
                    let server = format!("{group}.Server1");
                    let op = ModelOp::RemoveServer { server };
                    archmodel::apply_op(&mut model, &op).unwrap();
                }
                2 => recruit(&mut model, group),
                _ => {}
            }
        }
        let clients = 1 + pick(9);
        let homes =
            (0..clients).map(|c| (format!("User{}", c + 1), groups[c % groups.len()].clone()));
        ClientServerStyle::add_clients(&mut model, homes).unwrap();
        let mut query = StaticQuery::new();
        for group in &groups {
            let id = model.component_by_name(group).unwrap();
            let replicas: Vec<_> = model.children(id).collect();
            // A quarter of the groups are wholly dead.
            let (outage, mut dead) = (pick(4) == 0, 0);
            for replica in &replicas {
                let alive = !outage && pick(3) > 0;
                dead += usize::from(!alive);
                let properties = &mut model.component_mut(*replica).unwrap().properties;
                properties.set(props::IS_ALIVE, if alive { 1.0 } else { 0.0 });
            }
            let properties = &mut model.component_mut(id).unwrap().properties;
            properties.set(props::LOAD, [0.0, 1.0, 3.0, 8.0, 20.0][pick(5)]);
            properties.set(props::LIVE_SERVERS, (replicas.len() - dead) as f64);
            properties.set(props::DEAD_SERVERS, dead as f64);
            if pick(2) == 1 {
                properties.set(props::BASE_REPLICAS, (1 + pick(3)) as f64);
            }
            let spares = &["S1", "S2"][..pick(3)];
            if !spares.is_empty() {
                query = query.with_spares(group, spares);
            }
        }
        for c in 1..=clients {
            let client = format!("User{c}");
            let id = model.component_by_name(&client).unwrap();
            let latency = [0.5, 5.0][pick(2)];
            let properties = &mut model.component_mut(id).unwrap().properties;
            properties.set(props::AVERAGE_LATENCY, latency);
            if let Some(bps) = [None, Some(500.0), Some(5e6)][pick(3)] {
                for role in model.roles_of_component(id).collect::<Vec<_>>() {
                    let properties = &mut model.role_mut(role).unwrap().properties;
                    properties.set(props::BANDWIDTH, bps);
                }
            }
            for group in &groups {
                if pick(2) == 1 {
                    query = query.with_bandwidth(&client, group, [2_000.0, 5e6][pick(2)]);
                }
            }
        }
        assert_eq!(ClientServerStyle::validate(&model), Vec::new());
        (model, query)
    }

    /// Every violation a built-in strategy can be asked to repair on
    /// `model`: latency per client, bandwidth per client role, liveness and
    /// underutilised per group, and one underutilised with no subject.
    fn oracle_violations(model: &System) -> Vec<Violation> {
        let violation = |invariant: &str, subject, subject_name: String| Violation {
            invariant: invariant.into(),
            subject,
            subject_name: subject_name.into(),
            detail: Key::new(""),
        };
        let mut out = vec![violation("underutilised", None, model.name.clone())];
        for (id, client) in model.components_of_type(CLIENT_T) {
            let subject = Some(ElementRef::Component(id));
            out.push(violation("latency", subject, client.name.to_string()));
        }
        for (id, role) in model.roles() {
            if role.rtype == CLIENT_ROLE_T {
                let subject = Some(ElementRef::Role(id));
                out.push(violation("bandwidth", subject, role.name.to_string()));
            }
        }
        for (id, group) in model.components_of_type(SERVER_GROUP_T) {
            for invariant in ["liveness", "underutilised"] {
                let subject = Some(ElementRef::Component(id));
                out.push(violation(invariant, subject, group.name.to_string()));
            }
        }
        out
    }

    /// The four built-in strategies; each of the five built-in tactics
    /// alone, so that a tactic its strategy tries second is reached on its
    /// own too; and a `reduceServers` with no floor, which on a group with
    /// no `baseReplicas` removes the last server.
    fn oracle_strategies() -> Vec<RepairStrategy> {
        let mut strategies = vec![
            fix_latency_strategy(),
            fix_latency_bandwidth_first_strategy(),
            reduce_servers_strategy(),
            recover_liveness_strategy(),
        ];
        let tactics: [Box<dyn Tactic>; 5] = [
            Box::new(FixServerLoadTactic),
            Box::new(FixBandwidthTactic),
            Box::new(ReduceServersTactic::default()),
            Box::new(FailoverServerGroupTactic),
            Box::new(RerouteClientsTactic),
        ];
        for tactic in tactics {
            strategies.push(RepairStrategy::new(tactic.name().to_string()).with_tactic(tactic));
        }
        let floorless = ReduceServersTactic {
            min_servers: 0,
            ..ReduceServersTactic::default()
        };
        strategies
            .push(RepairStrategy::new("reduceServers-noFloor").with_tactic(Box::new(floorless)));
        strategies
    }

    /// Planning against the borrowed model is the eager-clone oracle
    /// (`RepairStrategy::run_eager`, which validates the whole model the
    /// script leaves): every strategy of [`oracle_strategies`], on every
    /// violation of 96 generated fleets, ends in the same outcome with the
    /// same ops and the same reasons. Every repair's ops apply to a copy
    /// and leave it style-valid.
    #[test]
    fn builtin_strategies_match_the_eager_clone_oracle() {
        let strategies = oracle_strategies();
        let mut repairs: BTreeMap<String, usize> = BTreeMap::new();
        let mut style_aborts = 0;
        for case in 0..96 {
            let mut rng = TestRng::deterministic("builtin_strategies_oracle", case);
            let (model, query) = oracle_fleet(&mut rng);
            for violation in oracle_violations(&model) {
                for strategy in &strategies {
                    let got = strategy.run(&model, &violation, &query);
                    let want = strategy.run_eager(&model, &violation, &query);
                    let context = format!(
                        "{} for {} of {} (case {case})",
                        strategy.name(),
                        violation.invariant,
                        violation.subject_name
                    );
                    assert_eq!(got, want, "{context}");
                    match got {
                        StrategyOutcome::Repaired {
                            ops,
                            applied_tactics,
                            ..
                        } => {
                            let mut after = model.clone();
                            for op in &ops {
                                archmodel::apply_op(&mut after, op).unwrap();
                            }
                            let found = ClientServerStyle::validate(&after);
                            assert_eq!(found, Vec::new(), "{context}");
                            *repairs.entry(applied_tactics[0].clone()).or_default() += 1;
                        }
                        StrategyOutcome::Aborted { reason } if reason.contains("style") => {
                            style_aborts += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        // Every tactic repairs, and the floor-less removal trips the check.
        assert_eq!(repairs.len(), 5, "{repairs:?}");
        assert!(repairs.values().all(|n| *n >= 20), "{repairs:?}");
        assert!(style_aborts >= 20, "only {style_aborts} style aborts");
    }
}
