//! Ablation (§5.3) — repair-effect delay and oscillation.
//!
//! The paper observes oscillation (clients moving back and forth between
//! server groups) when repairs are issued before the previous repair's effect
//! is visible, and calls for a repair engine that accounts for settle time.
//! This bench compares the adaptive run with and without repair damping.

use arch_adapt::framework::FrameworkConfig;
use bench::run_figure7;

fn main() {
    let duration = 900.0;
    let configs = [
        ("no damping (repair immediately on violation)", None),
        ("60 s settle window (default)", Some(60.0)),
        ("180 s settle window", Some(180.0)),
    ];
    println!("[ablation-damping] adaptive run, {duration:.0} s, varying the repair settle window");
    println!(
        "  {:46} {:>8} {:>8} {:>10} {:>12}",
        "configuration", "repairs", "moves", "%>bound", "mean rep (s)"
    );
    for (label, damping) in configs {
        let framework = FrameworkConfig {
            damping_secs: damping,
            ..FrameworkConfig::adaptive()
        };
        let run = run_figure7("adaptive", framework, duration);
        println!(
            "  {:46} {:>8} {:>8} {:>9.1}% {:>12.1}",
            label,
            run.summary.repairs_completed,
            run.summary.client_moves,
            run.summary.fraction_latency_above_bound * 100.0,
            run.summary.mean_repair_duration_secs.unwrap_or(0.0)
        );
    }
}
