//! Smoke tests mirroring the `examples/` binaries' core logic (with
//! shortened simulated durations), so the examples cannot silently rot even
//! when nothing runs them. CI additionally builds the example binaries
//! themselves via `cargo build --examples` and drives the sweep example
//! end-to-end in the sweep-smoke job.

use analysis::{provision, MmcQueue, ProvisioningInput};
use arch_adapt::experiment::Comparison;
use arch_adapt::report::{render_comparison, render_run, run_to_json};
use arch_adapt::{AdaptationFramework, FrameworkConfig};
use archmodel::constraint::{ConstraintScope, ConstraintSet, Invariant};
use archmodel::style::{props, ClientServerStyle};
use gridapp::{ExperimentSchedule, GridConfig};
use repair::{add_server, RepairStrategy, StaticQuery, StrategyOutcome};
use tracestore::EventKind;

/// `examples/quickstart.rs`: build the adaptive framework, drive the Figure 7
/// workload, and read back stats, client placement, and the trace.
#[test]
fn quickstart_flow_runs_and_reports() {
    let grid = GridConfig::default();
    let mut framework =
        AdaptationFramework::new(grid, FrameworkConfig::adaptive()).expect("framework builds");
    let schedule = ExperimentSchedule::figure7(&grid);
    framework.run_with_faults(240.0, Some(&schedule), None);

    let stats = framework.repair_stats();
    assert!(stats.completed <= stats.started);
    let clients = framework.app().client_names();
    assert!(!clients.is_empty());
    for client in &clients {
        assert!(
            framework.app().client_group(client).is_ok(),
            "{client} has no server group"
        );
    }
    // The trace is readable (entries may or may not contain violations after
    // only a short run; the accessor itself must work).
    assert!(framework.trace().legacy_lines().count() > 0);
}

/// `examples/control_vs_adaptive.rs`: run both experiments under the same
/// seed, render the figure series, and export machine-readable JSON.
#[test]
fn control_vs_adaptive_flow_renders_and_serialises() {
    let grid = GridConfig::default();
    let schedule = ExperimentSchedule::figure7(&grid);
    let comparison =
        Comparison::run_with(grid, FrameworkConfig::adaptive(), Some(&schedule), 150.0)
            .expect("experiments run");
    let text = render_run(&comparison.control);
    assert!(text.contains("Average latency"));
    assert!(render_comparison(&comparison).contains("control"));

    let json = serde_json::json!({
        "control": run_to_json(&comparison.control),
        "adaptive": run_to_json(&comparison.adaptive),
    });
    let pretty = serde_json::to_string_pretty(&json).expect("serialises");
    let parsed: serde_json::Value = serde_json::from_str(&pretty).expect("parses back");
    assert_eq!(parsed["control"]["label"], "control");
    assert_eq!(parsed["adaptive"]["label"], "adaptive");
}

/// `examples/sweep.rs`: run a (tiny) sweep matrix, render the table, and
/// serialise the report the way the example writes its JSON file.
#[test]
fn sweep_flow_runs_renders_and_serialises() {
    let spec = arch_adapt::sweep::SweepSpec {
        topologies: vec!["paper".into()],
        workloads: vec!["step".into()],
        strategies: vec!["adaptive".into()],
        durations_secs: vec![60.0],
        seeds: vec![42],
        fault_profiles: vec!["none".into()],
        collect_metrics: false,
        detectors: false,
    };
    let report = arch_adapt::sweep::run_sweep(&spec, 2).expect("sweep runs");
    let table = arch_adapt::report::render_sweep(&report);
    assert!(table.contains("Scenario sweep"));
    let parsed: serde_json::Value =
        serde_json::from_str(&report.to_json_string()).expect("parses back");
    assert_eq!(parsed["spec"]["workloads"][0], "step");
}

/// `examples/fault_recovery.rs`: inject the mid-run server-crash profile
/// into a shortened control/adaptive pair; the adaptive run must fail the
/// group over and end up strictly better than the control run after its
/// last repair settles.
#[test]
fn fault_recovery_flow_detects_and_recovers() {
    let duration = 400.0;
    let grid = GridConfig::default();
    let schedule =
        faultsim::fault_profile_by_name("server-crash-midrun", duration).expect("profile resolves");
    let comparison = Comparison::run_observed(
        grid,
        FrameworkConfig::adaptive(),
        None,
        Some(&schedule),
        duration,
        Default::default(),
    )
    .expect("experiments run");

    // The control run observes the crash but cannot repair it.
    assert_eq!(comparison.control.summary.repairs_completed, 0);
    // The adaptive run repairs it through the liveness strategy.
    assert!(comparison.adaptive.summary.repairs_completed >= 1);
    assert!(comparison
        .adaptive
        .trace
        .legacy_lines()
        .any(|l| l.kind == EventKind::RepairStart && l.to_string().contains("liveness")));
    assert!(comparison.adaptive.trace.count(EventKind::Fault) >= 2);

    // Post-repair the adaptive run's violations are strictly below the
    // control run's over the same window. The run carries the fault timeline
    // it applied.
    let onsets = comparison.adaptive.faults.onsets.clone();
    assert!(!onsets.is_empty(), "fault runs record their onsets");
    let recovery_point = comparison
        .adaptive
        .repair_intervals
        .iter()
        .map(|&(_, end)| end)
        .fold(onsets[0], f64::max)
        + 20.0;
    let bound = grid.max_latency_secs;
    let control_after =
        comparison
            .control
            .metrics
            .fraction_latency_above(bound, recovery_point, duration);
    let adaptive_after =
        comparison
            .adaptive
            .metrics
            .fraction_latency_above(bound, recovery_point, duration);
    assert!(
        adaptive_after < control_after,
        "adaptive {adaptive_after:.3} must beat control {control_after:.3} post-repair"
    );

    // The resilience metrics see the difference too.
    let measure = |metrics: &gridapp::Metrics| {
        faultsim::Resilience::of(&metrics.pooled_latency(), duration, bound, 10.0, &onsets)
    };
    let control = measure(&comparison.control.metrics);
    let adaptive = measure(&comparison.adaptive.metrics);
    assert!(
        adaptive.availability > control.availability,
        "adaptive availability {:.3} must beat control {:.3}",
        adaptive.availability,
        control.availability
    );
    assert!(adaptive.downtime_secs < control.downtime_secs);
}

/// `examples/custom_strategy.rs`: detect an overload violation with a parsed
/// invariant and repair it with a custom strategy built from the public
/// tactic API.
#[test]
fn custom_strategy_flow_detects_and_repairs() {
    let mut model = ClientServerStyle::example_system("storage", 2, 3, 6).expect("model builds");
    let grp1 = model.component_by_name("ServerGrp1").unwrap();
    model
        .component_mut(grp1)
        .unwrap()
        .properties
        .set(props::LOAD, 14i64);

    let constraints = ConstraintSet::new().with(
        Invariant::parse(
            "serverLoad",
            ConstraintScope::EachComponent("ServerGroupT".into()),
            "self.load <= maxServerLoad",
        )
        .unwrap(),
    );
    let report = constraints.check(&model);
    assert_eq!(report.violations.len(), 1);
    let violation = &report.violations[0];
    assert_eq!(violation.subject_name, "ServerGrp1");

    // A one-tactic strategy that adds a server to the violated group.
    struct AddOneServer;
    impl repair::Tactic for AddOneServer {
        fn name(&self) -> &str {
            "addOneServer"
        }
        fn attempt(
            &self,
            ctx: &repair::TacticContext<'_>,
        ) -> Result<repair::TacticResult, repair::RepairError> {
            if ctx.query.find_spare_server("ServerGrp1").is_none() {
                return Ok(repair::TacticResult::NotApplicable(
                    repair::NotApplicable::Other("no spares".into()),
                ));
            }
            let mut ops = Vec::new();
            let added = add_server(ctx.model, &mut ops, "ServerGrp1")?;
            Ok(repair::TacticResult::Applied {
                ops,
                description: format!("added {added}"),
            })
        }
    }
    let strategy = RepairStrategy::new("scaleUp").with_tactic(Box::new(AddOneServer));
    let query = StaticQuery::new().with_spares("ServerGrp1", &["S4", "S7"]);
    match strategy.run(&model, violation, &query) {
        StrategyOutcome::Repaired { ops, .. } => {
            assert!(!ops.is_empty());
            for op in &ops {
                archmodel::apply_op(&mut model, op).unwrap();
            }
            let grp1 = model.component_by_name("ServerGrp1").unwrap();
            assert_eq!(model.children(grp1).count(), 4);
            assert!(ClientServerStyle::validate(&model).is_empty());
        }
        other => panic!("expected a repair, got {other:?}"),
    }
}

/// `examples/provisioning_analysis.rs`: the queueing analysis produces the
/// paper's provisioning decision and sensible sweeps.
#[test]
fn provisioning_flow_matches_paper_inputs() {
    let baseline = ProvisioningInput::default();
    let plan = provision(&baseline, 16).expect("baseline is feasible");
    assert!(plan.servers >= 1);
    assert!(plan.predicted_response_time <= baseline.max_latency);
    assert!(plan.bandwidth.min_bandwidth_bps > 0.0);

    // More load never needs fewer servers.
    let mut last = 0usize;
    for arrival in [2.0, 6.0, 12.0, 18.0] {
        let input = ProvisioningInput {
            arrival_rate: arrival,
            ..baseline
        };
        let plan = provision(&input, 64).expect("feasible within 64 servers");
        assert!(
            plan.servers >= last,
            "λ={arrival}: {} < {last}",
            plan.servers
        );
        last = plan.servers;
    }

    // M/M/c at the stress load: unstable below 5 effective servers at
    // λ=12, μ=2.5; stable and improving above.
    let unstable = MmcQueue::new(12.0, 2.5, 4);
    assert!(!unstable.is_stable());
    let stable = MmcQueue::new(12.0, 2.5, 6);
    assert!(stable.is_stable());
    assert!(stable.expected_response_time().is_some());
}
