//! The planning path's copy budget: heap bytes requested while planning one
//! per-element repair — `fixLatency` on a 2,000-client model, the client's
//! group overloaded and a spare available, so `fixServerLoad` applies —
//! against the bytes of one `model.clone()`. Bytes requested are a
//! deterministic work counter, the same on every host.
//!
//! A repair copies nothing: the applicable tactic writes its script against
//! the borrowed model, and the strategy checks the script against the style
//! without applying it. While the strategy replayed the script on a copy of
//! its own the ratio was 2.04 (3,875,520 bytes against 1,895,875), and 1.04
//! once it stopped. Once the model was a dense arena a copy was 812,681
//! bytes and the plan, which still wrote its script in a working copy,
//! requested 821,930 (1.01). Written against the borrowed model, the plan
//! requests 947 bytes against a copy's 807,177 (0.001); a copy no longer
//! keeps room for a script's new elements. With one-word names a copy is
//! 645,201 bytes and the plan still requests 947 (0.001). A copy does not
//! fit under the ceiling.
use archmodel::constraint::Violation;
use archmodel::style::{props, ClientServerStyle};
use archmodel::ElementRef;
use repair::{fix_latency_strategy, StaticQuery, StrategyOutcome};

#[path = "common/bytes.rs"]
mod bytes;
use bytes::bytes_requested;

/// Model copies one planned repair may cost.
const CEILING_COPIES: f64 = 0.1;

#[test]
fn planning_a_repair_copies_nothing() {
    let mut model = ClientServerStyle::example_system("fleet", 2, 3, 2000).unwrap();
    let group = model.component_by_name("ServerGrp1").unwrap();
    let properties = &mut model.component_mut(group).unwrap().properties;
    properties.set(props::LOAD, 20.0);
    let user = model.component_by_name("User1").unwrap();
    let violation = Violation {
        invariant: "latency".into(),
        subject: Some(ElementRef::Component(user)),
        subject_name: "User1".into(),
        detail: "self.averageLatency <= maxLatency".into(),
    };
    let query = StaticQuery::new().with_spares("ServerGrp1", &["S4"]);
    let strategy = fix_latency_strategy();

    let one_copy = bytes_requested(|| drop(model.clone()));
    let mut outcome = None;
    let planning = bytes_requested(|| outcome = Some(strategy.run(&model, &violation, &query)));
    match outcome {
        Some(StrategyOutcome::Repaired {
            applied_tactics, ..
        }) => assert_eq!(applied_tactics, ["fixServerLoad"]),
        other => panic!("unexpected outcome: {other:?}"),
    }

    let copies = planning as f64 / one_copy as f64;
    println!("{planning} bytes planning / {one_copy} bytes per model copy = {copies:.2}");
    assert!(
        copies < CEILING_COPIES,
        "planning one repair requested {planning} bytes, {copies:.2} times the {one_copy} of \
         one model copy: the ceiling is {CEILING_COPIES}"
    );
}
