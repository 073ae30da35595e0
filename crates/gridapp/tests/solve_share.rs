//! The share of allocation epochs that run a max-min solve, on the
//! `large-scale` preset (2,000 clients, seed 42, 60 s of the default
//! workload). An epoch that retires exactly the transfer whose start opened
//! the epoch before it restores the rates from before that start instead of
//! solving: a request transfer that starts and drains while nothing else
//! changes. Both counts are deterministic work counters, the same on every
//! host, so a change that loses the restore (or restores less often) fails
//! here with no wall-clock noise.

use gridapp::{GridApp, GridConfig, TestbedSpec};
use simnet::SimTime;

/// Solved epochs over all epochs may not exceed this. Measured: 0.838
/// (33,378 of 39,813); without the restore every epoch solves.
const CEILING: f64 = 0.86;

#[test]
fn solved_epochs_stay_under_a_measured_share() {
    let config = GridConfig::with_testbed(TestbedSpec::large_scale());
    assert_eq!(config.seed, 42);
    let mut app = GridApp::build(config).expect("large-scale testbed builds");
    for tick in 1..=12 {
        app.advance(SimTime::from_secs(5.0 * tick as f64));
    }
    let (epochs, solves) = (app.rate_epoch_count(), app.rate_solve_count());
    let share = solves as f64 / epochs as f64;
    println!("{solves} of {epochs} epochs solved ({share:.3})");
    assert!(epochs > 10_000, "only {epochs} epochs");
    assert!(
        share <= CEILING,
        "{solves} of {epochs} epochs solved: {share:.3} exceeds the ceiling of {CEILING}"
    );
}
