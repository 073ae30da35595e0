//! Ablation (§5.3) — monitoring traffic shares the network.
//!
//! "The same network is being used to monitor the system as to run it...
//! this produces a lag in the time when the bandwidth actually rises and the
//! time it is noticed and repaired. One way to address this is to use network
//! QoS techniques to prioritise monitoring traffic." This bench compares the
//! adaptive run with congestion-coupled monitoring against QoS-prioritised
//! monitoring, and against the gauge-caching repair-cost improvement.

use arch_adapt::framework::FrameworkConfig;
use bench::run_figure7;
use criterion::{criterion_group, criterion_main, Criterion};
use translator::RepairCostModel;

fn print_monitoring_ablation() {
    let duration = 900.0;
    println!("[ablation-monitoring] adaptive run, {duration:.0} s");
    println!(
        "  {:56} {:>8} {:>10} {:>14}",
        "configuration", "repairs", "%>bound", "1st repair (s)"
    );
    let configs: Vec<(&str, FrameworkConfig)> = vec![
        (
            "monitoring shares the congested network (paper)",
            FrameworkConfig::adaptive(),
        ),
        (
            "monitoring prioritised with QoS",
            FrameworkConfig {
                monitoring_qos: true,
                ..FrameworkConfig::adaptive()
            },
        ),
        (
            "QoS monitoring + gauge caching (both §5.3 fixes)",
            FrameworkConfig {
                monitoring_qos: true,
                cost_model: RepairCostModel::with_gauge_caching(),
                ..FrameworkConfig::adaptive()
            },
        ),
    ];
    for (label, framework) in configs {
        let run = run_figure7("adaptive", framework, duration);
        let first_repair = run.repair_intervals.first().map(|(s, _)| *s);
        println!(
            "  {:56} {:>8} {:>9.1}% {:>14}",
            label,
            run.summary.repairs_completed,
            run.summary.fraction_latency_above_bound * 100.0,
            first_repair
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "-".to_string())
        );
    }
}

fn bench_monitoring(c: &mut Criterion) {
    print_monitoring_ablation();
    let mut group = c.benchmark_group("ablation_monitoring");
    group.sample_size(10);
    group.bench_function("qos_monitoring_short", |b| {
        b.iter(|| {
            run_figure7(
                "adaptive",
                FrameworkConfig {
                    monitoring_qos: true,
                    ..FrameworkConfig::adaptive()
                },
                180.0,
            )
            .summary
        })
    });
    group.finish();
}

criterion_group!(benches, bench_monitoring);
criterion_main!(benches);
