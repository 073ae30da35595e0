//! The paper's evaluation (§5): run the 30-minute control experiment
//! (Figures 8–10) and the adaptive experiment (Figures 11–13) under the same
//! seeded Figure 7 workload, and print the figure series plus the headline
//! comparison.
//!
//! Run with:
//! ```text
//! cargo run --release --example control_vs_adaptive            # full 1800 s
//! cargo run --release --example control_vs_adaptive -- 600     # shorter run
//! ```

use arch_adapt::experiment::{parse_duration_secs, Comparison};
use arch_adapt::report::{render_comparison, render_run, run_to_json};
use arch_adapt::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig};

fn main() {
    let arg = std::env::args().nth(1);
    let duration =
        parse_duration_secs(arg.as_deref(), gridapp::RUN_DURATION_SECS).unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!("usage: control_vs_adaptive [duration-secs]");
            std::process::exit(2);
        });

    eprintln!("running control and adaptive experiments for {duration:.0} s of simulated time...");
    let grid = GridConfig::default();
    let schedule = ExperimentSchedule::figure7(&grid);
    let comparison =
        Comparison::run_with(grid, FrameworkConfig::adaptive(), Some(&schedule), duration)
            .expect("experiments run");

    println!("{}", render_run(&comparison.control));
    println!("{}", render_run(&comparison.adaptive));
    println!("{}", render_comparison(&comparison));

    // Machine-readable output for external plotting.
    let json = serde_json::json!({
        "control": run_to_json(&comparison.control),
        "adaptive": run_to_json(&comparison.adaptive),
    });
    std::fs::write(
        "control_vs_adaptive.json",
        serde_json::to_string_pretty(&json).expect("serialises"),
    )
    .expect("writes results file");
    eprintln!("wrote control_vs_adaptive.json");
}
