//! Quickstart: monitor a grid application, detect a constraint violation, and
//! let the framework repair it.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use arch_adapt::{AdaptationFramework, FrameworkConfig};
use gridapp::{ExperimentSchedule, GridConfig};

fn main() {
    // The application under management: six clients served by a group of
    // three replicated servers, deployed on the paper's testbed topology.
    let grid = GridConfig::default();

    // The adaptation framework: probes and gauges feed an architectural
    // model; the `fixLatency` strategy repairs latency violations.
    let mut framework =
        AdaptationFramework::new(grid, FrameworkConfig::adaptive()).expect("framework builds");

    // Drive ten minutes of the paper's workload: after a two-minute quiescent
    // phase, the bandwidth between clients C3/C4 and Server Group 1 collapses.
    let schedule = ExperimentSchedule::figure7(&grid);
    framework.run_with_faults(600.0, Some(&schedule), None);

    // What happened?
    let stats = framework.repair_stats();
    println!("repairs started:   {}", stats.started);
    println!("repairs completed: {}", stats.completed);
    println!("client moves:      {}", stats.client_moves);
    println!("servers activated: {}", stats.servers_activated);
    if let Some(mean) = stats.mean_duration_secs {
        println!("mean repair time:  {mean:.1} s");
    }
    println!();
    println!("client → server group after adaptation:");
    for client in framework.app().client_names() {
        println!(
            "  {client} -> {}",
            framework.app().client_group(&client).unwrap()
        );
    }
    println!();
    println!("trace (violations and repairs):");
    for entry in framework.trace().entries() {
        use simnet::TraceKind::*;
        if matches!(
            entry.kind,
            Violation | RepairStart | RepairEnd | RepairAborted
        ) {
            println!(
                "  [{:8.1}s] {:?}: {}",
                entry.time.as_secs(),
                entry.kind,
                entry.message
            );
        }
    }
}
