//! The four workloads and the inputs each one generates from `--seed`. The
//! program under test receives only the generated `GridConfig`,
//! `ExperimentSchedule` and `SweepSpec` values.

use arch_adapt::{FrameworkConfig, SweepSpec};
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet2kPlan,
    Fleet50kBuild,
    SweepWrite,
    StoreQuery,
}

/// Simulated seconds of a fleet comparison arm.
pub const FLEET_DURATION_SECS: f64 = 300.0;
/// Simulated seconds of every sweep comparison (the paper's 30 minutes).
pub const SWEEP_DURATION_SECS: f64 = 1800.0;
/// Seeds per sweep cell: `S` and `S + 1`. Three were planned; the driver's
/// total-time cap fits two, and the fleet runs are never shortened instead.
pub const SWEEP_SEEDS: u64 = 2;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fleet2kPlan,
        Workload::Fleet50kBuild,
        Workload::SweepWrite,
        Workload::StoreQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet2kPlan => "fleet2k_plan",
            Workload::Fleet50kBuild => "fleet50k_build",
            Workload::SweepWrite => "sweep_write",
            Workload::StoreQuery => "store_query",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it stresses and which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fleet2kPlan => {
                "2,000 clients, 300 s, plannedRepair: phase.plan is ~90% of the run and \
                 construction is milliseconds, so planner and repair do the work"
            }
            Workload::Fleet50kBuild => {
                "50,000 clients, 300 s: framework construction is half the wall and \
                 phase.advance most of the rest, while the planner barely matters"
            }
            Workload::SweepWrite => {
                "paper-scale 1800 s matrix with sink, metrics and detectors on: per-event \
                 overhead on tiny models plus the tracestore append path"
            }
            Workload::StoreQuery => {
                "the same store read back: open plus the six canned queries, so a faster \
                 append format that slows reads shows here"
            }
        }
    }

    /// The testbed of a fleet workload; `None` for the sweep workloads.
    pub fn fleet_testbed(self) -> Option<TestbedSpec> {
        match self {
            Workload::Fleet2kPlan => Some(TestbedSpec::large_scale()),
            Workload::Fleet50kBuild => Some(TestbedSpec::large_scale_50k()),
            Workload::SweepWrite | Workload::StoreQuery => None,
        }
    }
}

/// Input generation of a fleet workload: part of set-up, timed by the caller.
pub fn fleet_inputs(
    testbed: TestbedSpec,
    seed: u64,
) -> (GridConfig, ExperimentSchedule, FrameworkConfig) {
    let grid = GridConfig {
        seed,
        ..GridConfig::with_testbed(testbed)
    };
    let schedule = ExperimentSchedule::step(&grid, FLEET_DURATION_SECS);
    (grid, schedule, FrameworkConfig::planned_repair())
}

/// The sweep matrix with every observer on: classic presets × workloads ×
/// fault profiles at the paper's run length.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec::default_matrix()
        .to_builder()
        .durations_secs([SWEEP_DURATION_SECS])
        .seeds((0..SWEEP_SEEDS).map(|i| seed + i))
        .metrics(true)
        .detectors(true)
        .build()
        .expect("the default matrix names only registered presets")
}
