//! Property-based equivalence of aggregate-enabled and aggregate-disabled
//! simulation on the 2,000-client preset.
//!
//! The aggregate-flow allocator folds every network-position class of
//! symmetric clients into one demand row. Its contract is *observational
//! invisibility*: every completion, queue length, probe, trace entry, and
//! report number must be bit-identical to the exploded per-client solve —
//! under fault churn, under repairs, and across the permanent lazy splits
//! that per-element repairs force. These tests replay random fault/repair
//! scenarios with `GridConfig::aggregate_flows` on and off and compare
//! everything observable.

use arch_adapt::experiment::{run_with_schedule_and_faults, ExperimentConfig, RunResult};
use arch_adapt::framework::FrameworkConfig;
use faultsim::{apply_action, fault_profile_by_name, fault_profile_names};
use gridapp::{ExperimentSchedule, GridApp, GridConfig, TestbedSpec, SERVER_GROUP_2};
use proptest::prelude::*;
use simnet::SimTime;

/// Runs the bare application for `duration` seconds under a compiled fault
/// profile, forcing two permanent lazy splits via per-client moves at ~1/3
/// of the run, and returns a bit-exact fingerprint of everything observable
/// plus the final aggregation statistics.
fn app_fingerprint(
    aggregate: bool,
    profile: &str,
    seed: u64,
    duration: f64,
) -> (Vec<(String, u64)>, simnet::AggregationStats) {
    let config = GridConfig {
        seed,
        aggregate_flows: aggregate,
        ..GridConfig::with_testbed(TestbedSpec::large_scale())
    };
    let mut app = GridApp::build(config).unwrap();
    let schedule = fault_profile_by_name(profile, duration).unwrap();
    let compiled = schedule.compile(app.testbed(), seed).unwrap();
    let mut next_action = 0usize;
    let mut split_done = false;
    let mut t = 0.0;
    let mut fingerprint: Vec<(String, u64)> = Vec::new();
    while t < duration {
        t = (t + 10.0).min(duration);
        while next_action < compiled.actions.len() && compiled.actions[next_action].at_secs <= t {
            let timed = &compiled.actions[next_action];
            apply_action(&mut app, SimTime::from_secs(timed.at_secs), &timed.action).unwrap();
            next_action += 1;
        }
        if !split_done && t >= duration / 3.0 {
            // A per-element repair mid-run: moving individual clients out
            // of their classes permanently splits them from their
            // aggregates (and must not change a single bit downstream).
            app.move_client("User7", SERVER_GROUP_2).unwrap();
            app.move_client("User13", SERVER_GROUP_2).unwrap();
            split_done = true;
        }
        app.sample_metrics(SimTime::from_secs(t));
        for completion in app.drain_completions() {
            let client = completion.client.to_string();
            fingerprint.push((client, completion.latency_secs.to_bits()));
        }
        for group in app.group_names() {
            fingerprint.push((
                format!("queue/{group}"),
                app.queue_length(&group).unwrap() as u64,
            ));
        }
        fingerprint.push(("unserved".to_string(), app.unserved_demand_secs().to_bits()));
    }
    (fingerprint, app.aggregation_stats())
}

/// Runs the full adaptation framework (per-element `adaptive` strategy, so
/// repairs move individual clients and force lazy splits) under the
/// Figure 7 workload and a fault profile.
fn framework_run(aggregate: bool, profile: &str, seed: u64, duration: f64) -> RunResult {
    let grid = GridConfig {
        seed,
        aggregate_flows: aggregate,
        ..GridConfig::with_testbed(TestbedSpec::large_scale())
    };
    let schedule = ExperimentSchedule::figure7(&grid);
    let faults = fault_profile_by_name(profile, duration).unwrap();
    run_with_schedule_and_faults(
        "equivalence",
        ExperimentConfig {
            grid,
            framework: FrameworkConfig::adaptive(),
            duration_secs: duration,
        },
        Some(&schedule),
        Some(&faults),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn aggregate_and_exploded_apps_agree_bit_for_bit_under_fault_churn(
        seed in 0u64..10_000,
        profile in 1usize..fault_profile_names().len(),
    ) {
        let name = fault_profile_names()[profile];
        let (agg, agg_stats) = app_fingerprint(true, name, seed, 60.0);
        let (exploded, exploded_stats) = app_fingerprint(false, name, seed, 60.0);
        prop_assert_eq!(agg, exploded, "profile {} diverged under seed {}", name, seed);
        // The aggregated run really had classes registered and really
        // split: the two forced per-client moves guarantee at least two
        // permanent splits (organic splits — a machine carrying two
        // concurrent flows — add more). The exploded run has no classes,
        // so its split set and row count must stay empty.
        prop_assert!(
            agg_stats.permanent_splits >= 2,
            "forced moves did not split: {:?}", agg_stats
        );
        prop_assert_eq!(exploded_stats.permanent_splits, 0);
        prop_assert_eq!(exploded_stats.rows, 0, "exploded run must not aggregate");
    }

    #[test]
    fn aggregate_and_exploded_framework_traces_are_bit_identical(
        seed in 0u64..10_000,
        profile in 1usize..fault_profile_names().len(),
    ) {
        let name = fault_profile_names()[profile];
        let a = framework_run(true, name, seed, 60.0);
        let b = framework_run(false, name, seed, 60.0);
        prop_assert_eq!(&a.trace, &b.trace, "traces diverged: profile {} seed {}", name, seed);
        prop_assert_eq!(&a.metrics, &b.metrics, "metrics diverged: profile {} seed {}", name, seed);
        prop_assert_eq!(&a.summary, &b.summary, "summaries diverged: profile {} seed {}", name, seed);
        prop_assert_eq!(
            a.unserved_demand_secs.to_bits(),
            b.unserved_demand_secs.to_bits(),
            "unserved demand diverged: profile {} seed {}", name, seed
        );
    }
}
