//! Figure 7 — the bandwidth-competition and server-load generation schedule.
//!
//! Prints the schedule's value at every phase of the run (the stepping
//! functions of Figure 7).

use gridapp::{ExperimentSchedule, GridConfig, LINK_CAPACITY_BPS};

fn main() {
    let config = GridConfig::default();
    let schedule = ExperimentSchedule::figure7(&config);
    println!("[fig07] Figure 7 workload schedule (values in force at sample times)");
    println!(
        "  {:>8} {:>22} {:>22} {:>14} {:>16}",
        "t (s)", "avail BW C3/4<->SG1", "avail BW C3/4<->SG2", "req rate (1/s)", "response (bytes)"
    );
    for t in [
        0.0, 60.0, 120.0, 300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0,
    ] {
        println!(
            "  {:>8.0} {:>22.0} {:>22.0} {:>14.1} {:>16.0}",
            t,
            LINK_CAPACITY_BPS - schedule.competition_sg1.value_at(t),
            LINK_CAPACITY_BPS - schedule.competition_sg2.value_at(t),
            schedule.request_rate.value_at(t),
            schedule.response_bytes.value_at(t),
        );
    }
    println!("  phase changes at: {:?}", schedule.change_points());
}
