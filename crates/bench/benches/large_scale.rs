//! Large-scale gates: the 2,000-client control loop and the fleet presets.
//!
//! 1. The incremental constraint checker matches full sweeps at every check
//!    of a 60 s 2,000-client adaptive run.
//! 2. The 300 s control-vs-plannedRepair comparison at 2,000 clients: the
//!    planner's bulk tactics must land strictly below control.
//! 3. The same comparison at 50,000 and 100,000 clients, each run once and
//!    wall-timed against the fleet gates.
//!
//! The program panics on a failed gate. Class-shared probing's ≥4× cut in
//! probe solves is the planner test
//! `large_scale_snapshot_cuts_probe_solves_by_the_class_size`; the
//! allocator's equivalence on fleet flow sets is the release test
//! `crates/gridapp/tests/fleet_alloc_equivalence.rs`; the perf trajectory is
//! `gridbench`'s (`fleet2k_plan`, `fleet50k_build`).

use arch_adapt::experiment::{run_observed, Comparison, ExperimentConfig};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};

fn large_grid() -> GridConfig {
    GridConfig::with_testbed(TestbedSpec::large_scale())
}

/// Asserts the incremental constraint checker is report-identical to a full
/// sweep at every check of a 60 s large-scale adaptive run: with
/// `verify_constraint_check` on, the framework re-runs the full sweep after
/// every incremental check and panics on any divergence in violations,
/// errors, or pair accounting.
fn assert_incremental_check_equivalence() {
    let grid = large_grid();
    let schedule = ExperimentSchedule::by_name("step", &grid, 60.0).expect("step schedule exists");
    let config = FrameworkConfig {
        verify_constraint_check: true,
        ..FrameworkConfig::adaptive()
    };
    run_observed(
        "incremental-check-gate",
        ExperimentConfig {
            grid,
            framework: config,
            duration_secs: 60.0,
        },
        Some(&schedule),
        None,
        Default::default(),
    )
    .expect("verified large-scale run completes");
    println!(
        "[large-scale] incremental constraint checks matched full sweeps at every \
         check of a 60 s adaptive run"
    );
}

fn main() {
    assert_incremental_check_equivalence();

    // The 300 s comparison under the group-level planner: at 2,000 clients
    // the per-element strategies tie with control (~0.88 violation fraction
    // both), while the planner's bulk tactics must land strictly below
    // control.
    let grid = large_grid();
    let schedule = ExperimentSchedule::by_name("step", &grid, 300.0).expect("step schedule exists");
    let planned_config = FrameworkConfig::by_name("plannedRepair").expect("preset exists");
    let started = std::time::Instant::now();
    let planned = Comparison::run_with(grid, planned_config, Some(&schedule), 300.0)
        .expect("planned large-scale comparison runs");
    let planned_wall = started.elapsed().as_secs_f64();
    let planned_fraction = planned.adaptive.summary.fraction_latency_above_bound;
    let control_fraction = planned.control.summary.fraction_latency_above_bound;
    assert!(
        planned_fraction < control_fraction,
        "plannedRepair ({planned_fraction:.3}) must beat control ({control_fraction:.3}) at scale"
    );
    println!(
        "[large-scale] 300 s plannedRepair comparison: {planned_wall:.1} s wall \
         (control violations {control_fraction:.3}, planned {planned_fraction:.3}, \
         {} repairs, {} client moves)",
        planned.adaptive.summary.repairs_completed, planned.adaptive.summary.client_moves,
    );

    // The fleet-scale gate: the 50,000-client 300 s control-vs-plannedRepair
    // comparison must stay within 6x the wall time of the 2,000-client one.
    // Class-shared probes and the indexed model keep per-tick and per-repair
    // cost a function of class count rather than client count, so 25x the
    // clients must cost far less than 25x the wall clock (measured: ~2.3x;
    // the bound leaves 2.6x headroom for a noisy host).
    let fleet_grid = GridConfig::with_testbed(TestbedSpec::large_scale_50k());
    let fleet_clients = TestbedSpec::large_scale_50k().num_clients();
    let schedule =
        ExperimentSchedule::by_name("step", &fleet_grid, 300.0).expect("step schedule exists");
    let fleet_config = FrameworkConfig::by_name("plannedRepair").expect("preset exists");
    let started = std::time::Instant::now();
    let fleet = Comparison::run_with(fleet_grid, fleet_config, Some(&schedule), 300.0)
        .expect("fleet-scale comparison runs");
    let fleet_wall = started.elapsed().as_secs_f64();
    assert!(
        fleet_wall < 6.0 * planned_wall,
        "the {fleet_clients}-client comparison ({fleet_wall:.1} s) must stay within 6x \
         the 2,000-client one ({planned_wall:.1} s): 25x the clients must not cost \
         25x the wall clock"
    );
    println!(
        "[large-scale] 300 s fleet-scale ({fleet_clients} clients) plannedRepair comparison: \
         {fleet_wall:.1} s wall (2,000-client: {planned_wall:.1} s; {} repairs, {} client moves)",
        fleet.adaptive.summary.repairs_completed, fleet.adaptive.summary.client_moves,
    );

    // The 100,000-client gate: the doubled fleet must complete its 300 s
    // plannedRepair comparison in bounded wall time. Per-tick costs are
    // class-count-bound, but the class count itself grows with the fleet
    // (1,563 reps vs 783 at 50k) and the workload generator still draws
    // per-client arrivals, so the honest gate is a sub-quadratic bound
    // relative to the 50k run rather than parity with the 2,000-client one.
    let fleet100k_grid = GridConfig::with_testbed(TestbedSpec::large_scale_100k());
    let fleet100k_clients = TestbedSpec::large_scale_100k().num_clients();
    let schedule =
        ExperimentSchedule::by_name("step", &fleet100k_grid, 300.0).expect("step schedule exists");
    let fleet100k_config = FrameworkConfig::by_name("plannedRepair").expect("preset exists");
    let started = std::time::Instant::now();
    let fleet100k = Comparison::run_with(fleet100k_grid, fleet100k_config, Some(&schedule), 300.0)
        .expect("100k comparison runs");
    let fleet100k_wall = started.elapsed().as_secs_f64();
    assert!(
        fleet100k_wall < 8.0 * fleet_wall,
        "the {fleet100k_clients}-client comparison ({fleet100k_wall:.1} s) must stay within \
         8x the {fleet_clients}-client one ({fleet_wall:.1} s): 2x the clients must not \
         cost a quadratic blowup"
    );
    println!(
        "[large-scale] 300 s 100k-fleet ({fleet100k_clients} clients) plannedRepair comparison: \
         {fleet100k_wall:.1} s wall (50k fleet: {fleet_wall:.1} s; {} repairs, {} client moves)",
        fleet100k.adaptive.summary.repairs_completed, fleet100k.adaptive.summary.client_moves,
    );
}
