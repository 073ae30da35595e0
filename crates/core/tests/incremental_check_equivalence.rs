//! Property-based equivalence of incremental and full constraint checking.
//!
//! The incremental checker re-evaluates only (invariant, element) pairs whose
//! property read-set intersects the model's change journal, replaying every
//! other pair's cached outcome. Its contract is byte-identity: violations,
//! errors, and their order must match a full sweep at every single check —
//! under workload churn, fault churn, per-element repairs (whose committed
//! change sets are structural reconfigurations), and checks that see several
//! ticks' changes at once (none runs while a repair is pending, so the
//! journal accumulates until it completes).
//!
//! `FrameworkConfig::verify_constraint_check` is the oracle: with it on, the
//! framework runs a full sweep after every incremental check and panics on
//! any divergence, so a clean run *is* the per-check assertion. The tests
//! additionally assert the oracle observes without perturbing: a verified
//! run's trace, metrics, and summary equal the unverified run's bit for bit.

use arch_adapt::experiment::{run_observed, ExperimentConfig, RunResult};
use arch_adapt::framework::FrameworkConfig;
use faultsim::{fault_profile_by_name, fault_profile_names};
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};
use proptest::prelude::*;

/// Runs the full adaptation framework under the Figure 7 workload and a
/// fault profile, with the incremental-vs-full oracle on or off.
fn framework_run(
    verify: bool,
    strategy: &str,
    cost_reduction: bool,
    profile: &str,
    seed: u64,
    duration: f64,
) -> RunResult {
    let grid = GridConfig {
        seed,
        ..GridConfig::with_testbed(TestbedSpec::paper())
    };
    let schedule = ExperimentSchedule::figure7(&grid);
    let faults = fault_profile_by_name(profile, duration).unwrap();
    let framework = FrameworkConfig {
        verify_constraint_check: verify,
        cost_reduction,
        ..FrameworkConfig::by_name(strategy).unwrap()
    };
    run_observed(
        "incremental-equivalence",
        ExperimentConfig {
            grid,
            framework,
            duration_secs: duration,
        },
        Some(&schedule),
        Some(&faults),
        Default::default(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn incremental_checks_match_full_sweeps_under_churn(
        seed in 0u64..10_000,
        profile in 0usize..fault_profile_names().len(),
        strategy_idx in 0usize..3,
        cost_reduction_bit in 0u8..2,
    ) {
        let strategy = ["adaptive", "plannedRepair", "bandwidth-first"][strategy_idx];
        let cost_reduction = cost_reduction_bit == 1;
        let name = fault_profile_names()[profile];
        // The oracle inside the framework asserts byte-identity of the
        // incremental report against a full sweep at every check; a
        // completed run means every check along the way agreed.
        let verified = framework_run(true, strategy, cost_reduction, name, seed, 180.0);
        // And verification is purely observational: nothing downstream of
        // the constraint check may differ.
        let plain = framework_run(false, strategy, cost_reduction, name, seed, 180.0);
        prop_assert_eq!(
            &verified.trace, &plain.trace,
            "oracle perturbed the trace: {} {} seed {}", strategy, name, seed
        );
        prop_assert_eq!(&verified.metrics, &plain.metrics);
        prop_assert_eq!(&verified.summary, &plain.summary);
        prop_assert_eq!(
            verified.unserved_demand_secs.to_bits(),
            plain.unserved_demand_secs.to_bits()
        );
    }
}
