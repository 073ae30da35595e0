//! The group planner's copy budget: heap bytes requested while planning one
//! batched repair on a 2,000-client model — every class behind the `R2`
//! aggregation switches squeezed on `ServerGrp1`, which is also overloaded
//! with spares to recruit, so the plan holds both `moveClientGroup` and
//! `addServer` ops — against the bytes of one `model.clone()`.
//!
//! The planner writes its ops against the borrowed live model: it resolves
//! each class move as applying it would and names each recruit, but applies
//! nothing and copies nothing. While it applied the ops to a working copy of
//! the model and validated that copy against the style, this plan requested
//! 2,039,830 bytes against 1,760,923 per copy (1.16); it requested 109,076
//! once it stopped (0.06). The dense-arena model's copy was 812,633 bytes,
//! and the plan requested 71,302 (0.09) once it stopped cloning a group name
//! per client and kept a class move's ports and roles in one id set. It
//! requests 71,206 against a copy's 807,129 since recruits are named by
//! `addServer()` over the op list, with no list of names beside it, and a
//! copy keeps no room for a script's new elements. Once a name was one word
//! a copy was 645,161 bytes, and the plan, which then copied each moved
//! client's name twice (into its model op and into its target's batch,
//! grown by doubling), requested 71,206 (0.110). It requested 57,048 (0.088)
//! once a class move's member list became its model op and each target's
//! batch was reserved once. It requests 44,007 (0.068) since its input and
//! its ops name clients by the class index's interned keys: no `String` is
//! copied per member. A copy does not fit under the ceiling.

use archmodel::style::ClientServerStyle;
use archmodel::{apply_op, ModelOp};
use gridapp::{Key, Testbed, TestbedSpec};
use planner::{ClassIndex, GroupPlanner, GroupSnapshot, PlannerInput, PlannerThresholds};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

#[path = "../../repair/tests/common/bytes.rs"]
mod bytes;
use bytes::bytes_requested;

/// Model copies one batched plan may cost.
const CEILING_COPIES: f64 = 0.1;

fn input(index: &ClassIndex) -> PlannerInput {
    let group = |i: usize| {
        if i % 2 == 1 {
            "ServerGrp1"
        } else {
            "ServerGrp2"
        }
    };
    let user = |i: usize| Key::new(&format!("User{i}"));
    let client_groups = (1..=2000).map(|i| (user(i), Key::new(group(i)))).collect();
    let squeezed: Vec<usize> = (801..=1200)
        .filter_map(|i| index.client_class_of(user(i)))
        .collect();
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
    let snapshot = |load, live_servers, stuck_servers| GroupSnapshot {
        load,
        live_servers,
        stuck_servers,
    };
    let mut violating: Vec<Key> = (801..=1200).map(user).collect();
    violating.sort();
    PlannerInput {
        now_secs: 50.0,
        thresholds: PlannerThresholds {
            min_bandwidth_bps: 10_000.0,
            max_server_load: 6.0,
            max_latency_secs: 2.0,
        },
        groups: BTreeMap::from([
            (Key::new("ServerGrp1"), snapshot(20.0, 3, 2)),
            (Key::new("ServerGrp2"), snapshot(0.0, 3, 0)),
        ]),
        spare_servers: 14,
        class_bandwidth,
        violating_clients: violating,
        overloaded_groups: vec![Key::new("ServerGrp1")],
        client_groups,
    }
}

#[test]
fn planning_a_batched_repair_copies_nothing() {
    let model = ClientServerStyle::example_system("fleet", 2, 3, 2000).unwrap();
    let index = ClassIndex::build(&Testbed::from_spec(&TestbedSpec::large_scale()).unwrap());
    let input = input(&index);
    let mut planner = GroupPlanner::new(None);

    let one_copy = bytes_requested(|| drop(model.clone()));
    let mut planned = None;
    let planning = bytes_requested(|| planned = planner.plan(&index, &model, &input));
    let (plan, _) = planned.expect("a batched plan");
    let count = |kind: fn(&ModelOp) -> bool| plan.ops.iter().filter(|op| kind(op)).count();
    let moves = count(|op| matches!(op, ModelOp::MoveClientGroup { .. }));
    let recruits = count(|op| matches!(op, ModelOp::AddServer { .. }));
    assert!(moves > 1 && recruits == 3, "{:?}", plan.tactics);

    // What the commit does with the ops: they apply, and the style holds.
    let mut committed = model.clone();
    for op in &plan.ops {
        apply_op(&mut committed, op).unwrap();
    }
    assert_eq!(ClientServerStyle::validate(&committed), Vec::new());

    let copies = planning as f64 / one_copy as f64;
    println!("{planning} bytes planning / {one_copy} bytes per model copy = {copies:.3}");
    assert!(
        copies <= CEILING_COPIES,
        "planning one batched repair requested {planning} bytes, {copies:.3} times the \
         {one_copy} of one model copy: the ceiling is {CEILING_COPIES}"
    );
}
