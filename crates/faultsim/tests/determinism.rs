//! Property tests: a `(fault profile, seed)` pair replays bit-identically.
//!
//! Two simulations built from the same seed, driven through the same
//! compiled fault timeline, must produce bit-identical completion traces and
//! queue series — the determinism contract the sweep matrix and the CI
//! byte-compare gate rely on.

use faultsim::{apply_action, fault_profile_by_name, fault_profile_names};
use gridapp::{GridApp, GridConfig, SERVER_GROUP_1, SERVER_GROUP_2};
use proptest::prelude::*;
use simnet::SimTime;

/// Runs the application for `duration` seconds with the compiled profile
/// applied at its nominal times, sampling metrics every 5 s, and returns a
/// bit-exact fingerprint of everything observable.
fn run_fingerprint(profile: &str, seed: u64, duration: f64) -> Vec<(String, u64)> {
    let config = GridConfig {
        seed,
        ..GridConfig::default()
    };
    let mut app = GridApp::build(config).unwrap();
    let schedule = fault_profile_by_name(profile, duration).unwrap();
    let compiled = schedule.compile(app.testbed(), seed).unwrap();
    let mut next_action = 0usize;
    let mut t = 0.0;
    let mut fingerprint: Vec<(String, u64)> = Vec::new();
    while t < duration {
        t = (t + 5.0).min(duration);
        while next_action < compiled.actions.len() && compiled.actions[next_action].at_secs <= t {
            let timed = &compiled.actions[next_action];
            apply_action(&mut app, SimTime::from_secs(timed.at_secs), &timed.action).unwrap();
            next_action += 1;
        }
        app.advance(SimTime::from_secs(t));
        let flows = app.flow_snapshot();
        app.sample_metrics_with_flows(SimTime::from_secs(t), &flows);
        for completion in app.drain_completions() {
            let client = completion.client.to_string();
            fingerprint.push((client, completion.latency_secs.to_bits()));
        }
        for group in [SERVER_GROUP_1, SERVER_GROUP_2] {
            fingerprint.push((
                format!("queue/{group}"),
                app.queue_length(group).unwrap() as u64,
            ));
        }
    }
    fingerprint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fault_runs_replay_bit_identically(
        seed in 0u64..10_000,
        profile in 0usize..fault_profile_names().len(),
    ) {
        let name = fault_profile_names()[profile];
        let a = run_fingerprint(name, seed, 150.0);
        let b = run_fingerprint(name, seed, 150.0);
        prop_assert_eq!(a, b, "profile {} diverged under seed {}", name, seed);
    }
}

/// The compiled timeline itself is a pure function of (schedule, seed).
#[test]
fn compiled_timelines_are_pure_functions_of_schedule_and_seed() {
    let app = GridApp::build(GridConfig::default()).unwrap();
    for &name in fault_profile_names() {
        let schedule = fault_profile_by_name(name, 900.0).unwrap();
        let a = schedule.compile(app.testbed(), 1234).unwrap();
        let b = schedule.compile(app.testbed(), 1234).unwrap();
        assert_eq!(a, b, "{name} compiled differently across calls");
    }
}

/// Injected faults actually change behaviour (the subsystem is not a no-op):
/// the single-link-cut profile must alter the completion trace.
#[test]
fn faults_change_the_observable_trace() {
    let clean = run_fingerprint("none", 42, 150.0);
    let cut = run_fingerprint("single-link-cut", 42, 150.0);
    assert_ne!(clean, cut, "a cut link must perturb the run");
}
