//! §5.3 — "the time that it takes to effect a repair averages 30 seconds;
//! most of this time is spent in communicating to create and delete gauges."
//!
//! Reproduces the repair-time figure and its decomposition for the two repair
//! kinds (client move, add server), and the paper's proposed mitigations
//! (gauge caching/relocation, Remos pre-querying) as ablations. Also measures
//! the end-to-end repair durations observed during an adaptive run.

use arch_adapt::framework::FrameworkConfig;
use archmodel::style::ClientServerStyle;
use bench::run_figure7;
use criterion::{criterion_group, criterion_main, Criterion};
use repair::{add_server, move_client};
use translator::{translate, RepairCostModel};

fn repair_scripts() -> (Vec<translator::RuntimeOp>, Vec<translator::RuntimeOp>) {
    let model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
    let mut move_script = Vec::new();
    move_client(&model, &mut move_script, "User3", "ServerGrp2").unwrap();
    let move_ops = translate(&model, &move_script, 10_000.0).unwrap();
    let mut add_script = Vec::new();
    add_server(&model, &mut add_script, "ServerGrp1").unwrap();
    let add_ops = translate(&model, &add_script, 10_000.0).unwrap();
    (move_ops, add_ops)
}

fn print_repair_time_table() {
    let (move_ops, add_ops) = repair_scripts();
    let configs = [
        (
            "paper prototype (no gauge caching)",
            RepairCostModel::paper_defaults(),
        ),
        (
            "with gauge caching/relocation",
            RepairCostModel::with_gauge_caching(),
        ),
        (
            "without Remos pre-query",
            RepairCostModel {
                remos_prequeried: false,
                ..RepairCostModel::paper_defaults()
            },
        ),
    ];
    println!("[repair-time] repair duration decomposition (seconds)");
    println!(
        "  {:40} {:>14} {:>14} {:>12}",
        "configuration", "move client", "add server", "gauge share"
    );
    for (label, model) in configs {
        println!(
            "  {:40} {:>14.1} {:>14.1} {:>11.0}%",
            label,
            model.total_duration(&move_ops),
            model.total_duration(&add_ops),
            model.gauge_share(&move_ops) * 100.0
        );
    }

    // Observed end-to-end repair durations during an adaptive run.
    let run = run_figure7("adaptive", FrameworkConfig::adaptive(), 900.0);
    println!(
        "[repair-time] observed during a 900 s adaptive run: {} repairs, mean {:.1} s, intervals {:?}",
        run.summary.repairs_completed,
        run.summary.mean_repair_duration_secs.unwrap_or(0.0),
        run.repair_intervals
    );
}

fn bench_repair_time(c: &mut Criterion) {
    print_repair_time_table();
    let model = ClientServerStyle::example_system("storage", 2, 3, 6).unwrap();
    c.bench_function("repair_time/plan_translate_cost", |b| {
        b.iter(|| {
            let mut script = Vec::new();
            move_client(&model, &mut script, "User3", "ServerGrp2").unwrap();
            let ops = translate(&model, &script, 10_000.0).unwrap();
            RepairCostModel::paper_defaults().total_duration(&ops)
        })
    });
}

criterion_group!(benches, bench_repair_time);
criterion_main!(benches);
