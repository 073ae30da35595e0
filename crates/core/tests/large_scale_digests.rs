//! The 2,000-client preset reproduces, bit for bit, what it produced when
//! the network still folded symmetric transfers into class-aggregate demand
//! rows.
//!
//! The digests below were recorded at the last commit that had the
//! aggregate path, with it switched on. No golden pins `large-scale` under
//! per-client moves or under the per-element `adaptive` strategy, so these
//! runs are what holds the one-row-per-transfer allocator to the old output
//! there: every completion, queue length and unserved-demand reading of the
//! bare application under three fault profiles, and the full trace and
//! summary of one framework run.

use arch_adapt::experiment::{run_observed, ExperimentConfig, RunResult};
use arch_adapt::framework::FrameworkConfig;
use arch_adapt::RunLog;
use faultsim::{apply_action, fault_profile_by_name};
use gridapp::{ExperimentSchedule, GridApp, GridConfig, TestbedSpec, SERVER_GROUP_2};
use simnet::SimTime;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the bare application for `duration` seconds under a compiled fault
/// profile, moving two individual clients at ~1/3 of the run, and returns a
/// bit-exact fingerprint of everything observable.
fn app_fingerprint(profile: &str, seed: u64, duration: f64) -> Vec<(String, u64)> {
    let config = GridConfig {
        seed,
        ..GridConfig::with_testbed(TestbedSpec::large_scale())
    };
    let mut app = GridApp::build(config).unwrap();
    let schedule = fault_profile_by_name(profile, duration).unwrap();
    let compiled = schedule.compile(app.testbed(), seed).unwrap();
    let mut next_action = 0usize;
    let mut moved = false;
    let mut t = 0.0;
    let mut fingerprint: Vec<(String, u64)> = Vec::new();
    while t < duration {
        t = (t + 10.0).min(duration);
        while next_action < compiled.actions.len() && compiled.actions[next_action].at_secs <= t {
            let timed = &compiled.actions[next_action];
            apply_action(&mut app, SimTime::from_secs(timed.at_secs), &timed.action).unwrap();
            next_action += 1;
        }
        if !moved && t >= duration / 3.0 {
            // A per-element repair mid-run: two clients leave their
            // network-position classes for the other server group.
            app.move_client("User7", SERVER_GROUP_2).unwrap();
            app.move_client("User13", SERVER_GROUP_2).unwrap();
            moved = true;
        }
        app.advance(SimTime::from_secs(t));
        let flows = app.flow_snapshot();
        app.sample_metrics_with_flows(SimTime::from_secs(t), &flows);
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
    fingerprint
}

fn fingerprint_digest(fingerprint: &[(String, u64)]) -> u64 {
    fingerprint.iter().fold(FNV_OFFSET, |h, (name, bits)| {
        fnv1a(fnv1a(h, name.as_bytes()), &bits.to_le_bytes())
    })
}

/// Runs the full adaptation framework (per-element `adaptive` strategy, so
/// repairs move individual clients) under the Figure 7 workload and a fault
/// profile.
fn framework_run(profile: &str, seed: u64, duration: f64) -> RunResult {
    let grid = GridConfig {
        seed,
        ..GridConfig::with_testbed(TestbedSpec::large_scale())
    };
    let schedule = ExperimentSchedule::figure7(&grid);
    let faults = fault_profile_by_name(profile, duration).unwrap();
    run_observed(
        "equivalence",
        ExperimentConfig {
            grid,
            framework: FrameworkConfig::adaptive(),
            duration_secs: duration,
        },
        Some(&schedule),
        Some(&faults),
        Default::default(),
    )
    .unwrap()
}

/// Name of the type whose `{:?}` text the digest below was recorded over:
/// the event trace the run log replaced, a list of `<name>Entry { time,
/// kind, message, correlation }` records with `time` a `SimTime` newtype.
const RECORDED_TYPE: &str = "Trace";

/// The log's legacy lines, printed as that type printed them.
fn legacy_trace_debug(log: &RunLog) -> String {
    let entries: Vec<String> = log
        .legacy_lines()
        .map(|line| {
            format!(
                "{RECORDED_TYPE}Entry {{ time: SimTime({:?}), kind: {:?}, message: {:?}, \
                 correlation: {:?} }}",
                line.time.as_secs(),
                line.kind,
                line.to_string(),
                line.correlation
            )
        })
        .collect();
    format!("{RECORDED_TYPE} {{ entries: [{}] }}", entries.join(", "))
}

#[test]
fn large_scale_apps_reproduce_the_digests_recorded_with_aggregate_rows() {
    for (profile, seed, recorded) in [
        ("none", 42, 0x4ab4_ea70_864b_3288u64),
        ("single-link-cut", 4242, 0x2e5b_d8d4_efbd_cdf3),
        ("cascade", 977, 0x0d16_cec3_2666_d160),
    ] {
        let fingerprint = app_fingerprint(profile, seed, 60.0);
        assert!(
            fingerprint.len() > 1_000,
            "profile {profile} seed {seed}: only {} observations",
            fingerprint.len()
        );
        let digest = fingerprint_digest(&fingerprint);
        assert_eq!(
            digest, recorded,
            "profile {profile} seed {seed} diverged ({digest:#018x})"
        );
    }
}

#[test]
fn large_scale_framework_run_reproduces_the_digest_recorded_with_aggregate_rows() {
    // Long enough for the Figure 7 squeeze (120 s) to draw a client move.
    let run = framework_run("single-link-cut", 42, 180.0);
    assert!(run.summary.client_moves > 0, "no per-element repair ran");
    // The one runtime style check, made on the live model after every
    // commit, never fired: each committed script kept the style.
    let style_breaks = run
        .trace
        .legacy_lines()
        .filter(|line| line.to_string().ends_with("style violations after commit"))
        .count();
    assert_eq!(style_breaks, 0, "a commit broke the style");
    // `{:?}` prints an `f64` as its shortest round-trip decimal, so equal
    // text is equal bits.
    let trace = fnv1a(FNV_OFFSET, legacy_trace_debug(&run.trace).as_bytes());
    let digest = fnv1a(
        fnv1a(trace, format!("{:?}", run.summary).as_bytes()),
        &run.unserved_demand_secs.to_bits().to_le_bytes(),
    );
    assert_eq!(
        digest, 0xcb6c_57c7_1b69_7af8,
        "trace + summary diverged ({digest:#018x})"
    );
}
