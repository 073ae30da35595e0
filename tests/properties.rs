//! Property-based tests over the core data structures and invariants, using
//! proptest: the constraint-expression evaluator, max-min fairness, the
//! transactional change-set machinery, and the M/M/c analysis.

use archmodel::style::{props, ClientServerStyle};
use archmodel::{apply_op, parse, ModelOp, Program, System, Transaction};
use proptest::prelude::*;
use simnet::flow::{max_min_fair_rates, FlowDemand, FlowKey};
use simnet::LinkId;
use std::collections::HashMap;

fn arbitrary_model(groups: usize, servers: usize, clients: usize) -> System {
    ClientServerStyle::example_system("prop", groups.max(1), servers.max(1), clients.max(1))
        .expect("example system builds")
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

    /// Replaying a transaction's recorded ops onto the model it started from
    /// (what committing a repair does) leaves that model equal to the
    /// working copy, whatever the operator script — and an operator that
    /// fails (a server or client the model does not have) records nothing.
    #[test]
    fn transactions_are_atomic(
        script in proptest::collection::vec((0usize..4, 0usize..5, 0usize..2), 1..12),
    ) {
        let mut live = arbitrary_model(2, 2, 4);
        let mut tx = Transaction::new(&live);
        for (operator, pick, group) in script {
            let group = format!("ServerGrp{}", group + 1);
            let client = format!("User{}", pick + 1);
            let recorded = tx.len();
            let applied = match operator {
                0 => repair::add_server(&mut tx, &group).is_ok(),
                1 => repair::remove_server(&mut tx, &format!("{group}.Server{}", pick + 1)).is_ok(),
                2 => repair::move_client(&mut tx, &client, &group).is_ok(),
                _ => {
                    let clients = vec![client, "User1".to_string()];
                    tx.apply(ModelOp::MoveClientGroup { clients, to_group: group }).is_ok()
                }
            };
            prop_assert_eq!(tx.len(), recorded + usize::from(applied));
        }
        for op in tx.ops() {
            apply_op(&mut live, op).unwrap();
        }
        prop_assert_eq!(&live, tx.working());
        prop_assert!(live.integrity_errors().is_empty());
    }

    /// Applying the `addServer` operator any number of times keeps the style
    /// valid and the replication count consistent.
    #[test]
    fn add_server_preserves_style(n in 1usize..6) {
        let model = arbitrary_model(1, 2, 3);
        let mut tx = Transaction::new(&model);
        for _ in 0..n {
            repair::add_server(&mut tx, "ServerGrp1").unwrap();
        }
        let working = tx.working();
        prop_assert!(ClientServerStyle::validate(working).is_empty());
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
        let mut tx = Transaction::new(&model);
        for target in &moves {
            let group = format!("ServerGrp{}", target + 1);
            repair::move_client(&mut tx, "User1", &group).unwrap();
        }
        let working = tx.working();
        prop_assert!(ClientServerStyle::validate(working).is_empty());
        let user = working.component_by_name("User1").unwrap();
        prop_assert_eq!(working.roles_of_component(user).len(), 1);
        let expected_group = format!("ServerGrp{}", moves.last().unwrap() + 1);
        let actual = ClientServerStyle::group_of_client(working, user)
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
        let mut tx = Transaction::new(&base);
        for i in 0..n {
            repair::add_server(&mut tx, if i % 2 == 0 { "ServerGrp1" } else { "ServerGrp2" }).unwrap();
        }
        repair::move_client(&mut tx, "User2", "ServerGrp2").unwrap();
        let ops = tx.ops().to_vec();
        let mut copy_a = base.clone();
        let mut copy_b = base.clone();
        for op in &ops {
            apply_op(&mut copy_a, op).unwrap();
            apply_op(&mut copy_b, op).unwrap();
        }
        prop_assert_eq!(copy_a, copy_b);
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
