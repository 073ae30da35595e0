//! Ablation (§7) — repair-selection policies.
//!
//! The paper's experiment repaired the first client that reported an error
//! and prioritised server-load repairs; §7 proposes repairing the client with
//! the worst latency first and choosing the tactic that contributes most to
//! the latency. This bench compares those policies.

use arch_adapt::framework::FrameworkConfig;
use bench::run_figure7;
use repair::SelectionPolicy;

fn main() {
    let duration = 900.0;
    println!("[ablation-selection] adaptive run, {duration:.0} s, varying repair selection");
    println!(
        "  {:52} {:>8} {:>8} {:>8} {:>10}",
        "configuration", "repairs", "moves", "servers", "%>bound"
    );
    let configs = [
        (
            "first reported violation, load repair first (paper)",
            SelectionPolicy::FirstReported,
            false,
        ),
        (
            "worst-latency client first, load repair first",
            SelectionPolicy::WorstLatency,
            false,
        ),
        (
            "first reported violation, bandwidth repair first",
            SelectionPolicy::FirstReported,
            true,
        ),
        (
            "worst-latency client first, bandwidth repair first",
            SelectionPolicy::WorstLatency,
            true,
        ),
    ];
    for (label, selection, bandwidth_first) in configs {
        let framework = FrameworkConfig {
            selection,
            bandwidth_first,
            ..FrameworkConfig::adaptive()
        };
        let run = run_figure7("adaptive", framework, duration);
        println!(
            "  {:52} {:>8} {:>8} {:>8} {:>9.1}%",
            label,
            run.summary.repairs_completed,
            run.summary.client_moves,
            run.summary.servers_activated,
            run.summary.fraction_latency_above_bound * 100.0
        );
    }
}
