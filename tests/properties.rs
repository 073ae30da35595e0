//! Property-based tests over the core data structures and invariants, using
//! proptest: the constraint-expression evaluator, max-min fairness, the
//! repair operators' recorded scripts, and the M/M/c analysis.
// The max-min reference takes its capacities in std's `HashMap`.
#![allow(clippy::disallowed_types)]

use archmodel::style::{props, ClientServerStyle};
use archmodel::{apply_op, parse, Key, ModelOp, Program, System};
use proptest::prelude::*;
use simnet::flow::{max_min_fair_rates, FlowDemand, FlowKey};
use simnet::LinkId;
use std::collections::HashMap;

fn arbitrary_model(groups: usize, servers: usize, clients: usize) -> System {
    ClientServerStyle::example_system("prop", groups.max(1), servers.max(1), clients.max(1))
        .expect("example system builds")
}

/// `model` with the recorded script `ops` applied, each of which must apply.
fn replayed(model: &System, ops: &[ModelOp]) -> System {
    let mut out = model.clone();
    for op in ops {
        apply_op(&mut out, op).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The latency invariant evaluates consistently with a direct comparison
    /// for any latency/bound pair.
    #[test]
    fn latency_constraint_matches_direct_comparison(
        latency in 0.0f64..50.0,
        bound in 0.1f64..10.0,
    ) {
        let mut model = arbitrary_model(1, 1, 1);
        model.properties.set(props::MAX_LATENCY, bound);
        let client = model.component_by_name("User1").unwrap();
        model
            .component_mut(client)
            .unwrap()
            .properties
            .set(props::AVERAGE_LATENCY, latency);
        let expr = parse("User1.averageLatency <= maxLatency").unwrap();
        let holds = Program::compile(&expr, &[]).eval_bool(&model, &[]).unwrap();
        prop_assert_eq!(holds, latency <= bound);
    }

    /// Arithmetic in the constraint language agrees with Rust arithmetic.
    #[test]
    fn expression_arithmetic_agrees_with_rust(a in -1000i64..1000, b in -1000i64..1000, c in 1i64..100) {
        let model = System::new("empty");
        let text = format!("{a} + {b} * {c} == {}", a + b * c);
        let expr = parse(&text).unwrap();
        prop_assert!(Program::compile(&expr, &[]).eval_bool(&model, &[]).unwrap());
    }

    /// Max-min fair allocation never oversubscribes a link and never starves
    /// a flow.
    #[test]
    fn max_min_fairness_is_feasible_and_positive(
        caps in proptest::collection::vec(1.0e3f64..1.0e7, 1..5),
        paths in proptest::collection::vec(proptest::collection::vec(0usize..5, 1..4), 1..12),
    ) {
        let capacities: HashMap<LinkId, f64> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| (LinkId(i), *c))
            .collect();
        let flows: Vec<FlowDemand> = paths
            .iter()
            .enumerate()
            .map(|(i, path)| FlowDemand {
                key: FlowKey(i as u64),
                links: path
                    .iter()
                    .map(|l| LinkId(l % caps.len()))
                    .collect(),
                weight: 1.0,
            })
            .collect();
        let rates = max_min_fair_rates(&capacities, &flows);
        // Every flow gets a positive rate.
        for flow in &flows {
            prop_assert!(rates[&flow.key] > 0.0);
        }
        // No link is oversubscribed (beyond a small numerical slack).
        for (link, cap) in &capacities {
            let used: f64 = flows
                .iter()
                .filter(|f| f.links.contains(link))
                .map(|f| rates[&f.key])
                .sum();
            prop_assert!(used <= cap * 1.001 + flows.len() as f64,
                "link {:?} oversubscribed: {} > {}", link, used, cap);
        }
    }

    /// The operators record an op exactly when applying it after the ops
    /// before it succeeds, whatever the script: each call's op is applied to
    /// a lockstep copy of the model as it is recorded, and a call that fails
    /// (a group, server or client the script's model does not have then)
    /// names an op that does not apply and records nothing. Replaying the
    /// recorded ops onto the model (what committing a repair does) ends
    /// where the lockstep copy is. Servers an earlier `addServer` of the
    /// same script added are removed too.
    #[test]
    fn transactions_are_atomic(
        script in proptest::collection::vec((0usize..4, 0usize..5, 0usize..3), 1..12),
    ) {
        let model = arbitrary_model(2, 2, 4);
        let mut lockstep = model.clone();
        let mut ops = Vec::new();
        for (operator, pick, group) in script {
            let group = format!("ServerGrp{}", group + 1);
            let client = format!("User{}", pick + 1);
            let server = format!("{group}.Server{}", pick + 1);
            let recorded = ops.len();
            let (ok, named) = match operator {
                0 => {
                    let server = format!("{group}.Server1");
                    let ok = repair::add_server(&model, &mut ops, &group).is_ok();
                    (ok, ModelOp::AddServer { group, server })
                }
                1 => {
                    let ok = repair::remove_server(&model, &mut ops, &server).is_ok();
                    (ok, ModelOp::RemoveServer { server })
                }
                2 => {
                    let ok = repair::move_client(&model, &mut ops, &client, &group).is_ok();
                    (ok, ModelOp::MoveClient { client, to_group: group })
                }
                // The group planner's class move: resolved, then recorded.
                _ => {
                    let clients = vec![Key::from(client), Key::new("User1")];
                    let ok = ClientServerStyle::resolve_move(&model, &clients, &group).is_ok();
                    let op = ModelOp::MoveClientGroup { clients, to_group: group };
                    if ok {
                        ops.push(op.clone());
                    }
                    (ok, op)
                }
            };
            prop_assert_eq!(ops.len(), recorded + usize::from(ok));
            let op = if ok { &ops[recorded] } else { &named };
            prop_assert_eq!(apply_op(&mut lockstep, op).is_ok(), ok, "{:?}", op);
        }
        let mut live = model.clone();
        for op in &ops {
            apply_op(&mut live, op).unwrap();
        }
        prop_assert_eq!(&live, &lockstep);
        prop_assert!(live.integrity_errors().is_empty());
    }

    /// Applying the `addServer` operator any number of times keeps the style
    /// valid and the replication count consistent.
    #[test]
    fn add_server_preserves_style(n in 1usize..6) {
        let model = arbitrary_model(1, 2, 3);
        let mut ops = Vec::new();
        for _ in 0..n {
            repair::add_server(&model, &mut ops, "ServerGrp1").unwrap();
        }
        let working = replayed(&model, &ops);
        prop_assert!(ClientServerStyle::validate(&working).is_empty());
        prop_assert!(ClientServerStyle::script_violations(&model, &ops).is_empty());
        let grp = working.component_by_name("ServerGrp1").unwrap();
        prop_assert_eq!(
            working.component(grp).unwrap().properties.get_i64(props::REPLICATION_COUNT),
            Some((2 + n) as i64)
        );
    }

    /// Moving a client between any two groups keeps exactly one attachment
    /// for that client and never breaks the style.
    #[test]
    fn move_client_preserves_single_attachment(moves in proptest::collection::vec(0usize..2, 1..6)) {
        let model = arbitrary_model(2, 2, 2);
        let mut ops = Vec::new();
        for target in &moves {
            let group = format!("ServerGrp{}", target + 1);
            repair::move_client(&model, &mut ops, "User1", &group).unwrap();
        }
        let working = replayed(&model, &ops);
        prop_assert!(ClientServerStyle::validate(&working).is_empty());
        let user = working.component_by_name("User1").unwrap();
        prop_assert_eq!(working.roles_of_component(user).count(), 1);
        let expected_group = format!("ServerGrp{}", moves.last().unwrap() + 1);
        let actual = ClientServerStyle::group_of_client(&working, user)
            .and_then(|g| working.component(g).ok())
            .map(|g| g.name.to_string())
            .unwrap();
        prop_assert_eq!(actual, expected_group);
    }

    /// Replaying a recorded change-set onto an identical copy reproduces the
    /// same model (scripts are deterministic and name-addressed).
    #[test]
    fn changesets_replay_identically(n in 1usize..5) {
        let base = arbitrary_model(2, 2, 4);
        let mut ops = Vec::new();
        for i in 0..n {
            let group = if i % 2 == 0 { "ServerGrp1" } else { "ServerGrp2" };
            repair::add_server(&base, &mut ops, group).unwrap();
        }
        repair::move_client(&base, &mut ops, "User2", "ServerGrp2").unwrap();
        prop_assert_eq!(replayed(&base, &ops), replayed(&base, &ops));
    }

    /// M/M/c: adding a server never increases the expected response time, and
    /// the queue is stable iff utilisation is below one.
    #[test]
    fn mmc_monotone_in_servers(arrival in 0.5f64..20.0, service in 0.5f64..10.0, servers in 1usize..10) {
        let q1 = analysis::MmcQueue::new(arrival, service, servers);
        let q2 = analysis::MmcQueue::new(arrival, service, servers + 1);
        prop_assert_eq!(q1.is_stable(), q1.utilization() < 1.0);
        if let (Some(r1), Some(r2)) = (q1.expected_response_time(), q2.expected_response_time()) {
            prop_assert!(r2 <= r1 + 1e-9);
        }
    }
}
