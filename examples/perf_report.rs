//! Control-plane cost profile: where does one control tick spend its time?
//!
//! Runs one control-vs-adaptive comparison with a metrics registry attached
//! to each run and prints the MAPE-loop phase breakdown (wall-clock spans:
//! advance / gauge dispatch / constraint check / plan / translate / execute /
//! commit-replay) plus the largest deterministic counter deltas between the
//! adaptive and the control run. Two rows enclose others: `phase.tick` is the
//! whole control period, and `phase.advance` contains `phase.flow_snapshot`
//! (the tick's Remos pass), so `advance − flow_snapshot` is the runtime
//! layer's own event loop.
//!
//! Run with:
//! ```text
//! cargo run --release --example perf_report
//! cargo run --release --example perf_report -- --topology large-scale-50k \
//!     --workload step --strategy plannedRepair --duration 120 --seed 42 \
//!     --out perf_report.json --top 12
//! cargo run --release --example perf_report -- --detectors
//! ```
//!
//! The JSON output carries wall-clock timings and is **nondeterministic** —
//! never byte-compare it. The counter sections inside it are deterministic.

use arch_adapt::experiment::{Comparison, Observers};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};

fn phase_table(label: &str, report: &obs::PerfReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("-- {label}: MAPE phase breakdown --\n"));
    out.push_str(&format!(
        "  {:<28} {:>9} {:>12} {:>10} {:>10} {:>10}\n",
        "phase", "count", "total(ms)", "mean(us)", "p95(us)", "max(us)"
    ));
    for row in report
        .by_total_time()
        .iter()
        .filter(|r| r.name.starts_with("phase."))
    {
        out.push_str(&format!(
            "  {:<28} {:>9} {:>12.2} {:>10.1} {:>10.1} {:>10.1}\n",
            row.name, row.count, row.total_ms, row.mean_us, row.p95_us, row.max_us
        ));
    }
    out.push_str("  (phase.tick encloses every row; phase.advance encloses phase.flow_snapshot)\n");
    out
}

fn main() {
    let mut topology = "large-scale-50k".to_string();
    let mut workload = "step".to_string();
    let mut strategy = "plannedRepair".to_string();
    let mut duration_secs = 120.0;
    let mut seed = 42u64;
    let mut out_path = "perf_report.json".to_string();
    let mut top = 12usize;
    let mut detectors = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--topology" | "--preset" => {
                topology = args.next().expect("--topology takes a preset name")
            }
            "--workload" => workload = args.next().expect("--workload takes a generator name"),
            "--strategy" => strategy = args.next().expect("--strategy takes a preset name"),
            "--duration" => {
                duration_secs = args
                    .next()
                    .expect("--duration takes seconds")
                    .parse()
                    .expect("duration is a number");
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed takes an integer")
                    .parse()
                    .expect("seed is an integer");
            }
            "--out" => out_path = args.next().expect("--out takes a file path"),
            "--top" => {
                top = args
                    .next()
                    .expect("--top takes a count")
                    .parse()
                    .expect("top is an integer");
            }
            "--detectors" => detectors = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_report [--topology|--preset T] [--workload W] [--strategy S] \
                     [--duration SECS] [--seed N] [--out FILE] [--top N] [--detectors]"
                );
                eprintln!(
                    "topology presets: {}",
                    gridapp::testbed_preset_names().join(", ")
                );
                std::process::exit(2);
            }
        }
    }

    let testbed = TestbedSpec::by_name(&topology).unwrap_or_else(|| {
        eprintln!(
            "unknown topology preset: {topology} (valid: {})",
            gridapp::testbed_preset_names().join(", ")
        );
        std::process::exit(2);
    });
    let grid = GridConfig {
        seed,
        ..GridConfig::with_testbed(testbed)
    };
    let schedule =
        ExperimentSchedule::by_name(&workload, &grid, duration_secs).unwrap_or_else(|| {
            eprintln!(
                "unknown workload generator: {workload} (valid: {})",
                gridapp::workload_names().join(", ")
            );
            std::process::exit(2);
        });
    let mut framework = FrameworkConfig::by_name(&strategy).unwrap_or_else(|| {
        eprintln!(
            "unknown strategy preset: {strategy} (valid: {})",
            arch_adapt::strategy_names().join(", ")
        );
        std::process::exit(2);
    });
    if detectors {
        // Puts the online anomaly detectors in the profiled loop: the
        // `phase.detect` span and `detect.*` counters then show their cost.
        framework.detectors = Some(detect::DetectorConfig::default());
    }

    eprintln!(
        "profiling {topology}/{workload}/{strategy} for {duration_secs:.0} simulated seconds \
         (seed {seed})..."
    );
    let started = std::time::Instant::now();
    let (control_registry, control_metrics) = obs::shared_registry();
    let (adaptive_registry, adaptive_metrics) = obs::shared_registry();
    let metered = |metrics| Observers {
        metrics,
        ..Observers::default()
    };
    let comparison = Comparison::run_observed(
        grid,
        framework,
        Some(&schedule),
        None,
        duration_secs,
        [metered(control_metrics), metered(adaptive_metrics)],
    )
    .expect("comparison runs");
    let elapsed = started.elapsed();

    let control_phases = control_registry.perf_report();
    let adaptive_phases = adaptive_registry.perf_report();
    let control_counters = control_registry.snapshot();
    let adaptive_counters = adaptive_registry.snapshot();

    println!(
        "== Control-plane cost profile: {topology}/{workload}/{strategy}, {duration_secs:.0} s, \
         seed {seed} =="
    );
    print!("{}", phase_table("control", &control_phases));
    print!("{}", phase_table("adaptive", &adaptive_phases));

    // The largest counter movements between the two runs: what the adaptive
    // control plane did that the control run did not.
    let control_by_name: std::collections::BTreeMap<&str, u64> = control_counters
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    let mut deltas: Vec<(&str, i64, u64, u64)> = adaptive_counters
        .counters
        .iter()
        .map(|(name, adaptive)| {
            let control = control_by_name.get(name.as_str()).copied().unwrap_or(0);
            (
                name.as_str(),
                *adaptive as i64 - control as i64,
                control,
                *adaptive,
            )
        })
        .collect();
    deltas.sort_by(|a, b| b.1.abs().cmp(&a.1.abs()).then_with(|| a.0.cmp(b.0)));
    println!("-- top {top} counter deltas (adaptive - control) --");
    println!(
        "  {:<32} {:>14} {:>14} {:>12}",
        "counter", "control", "adaptive", "delta"
    );
    for (name, delta, control, adaptive) in deltas.iter().take(top) {
        println!("  {name:<32} {control:>14} {adaptive:>14} {delta:>+12}");
    }

    let json = serde_json::json!({
        "note": "phase timings are wall-clock and nondeterministic; counter sections are deterministic",
        "topology": topology,
        "workload": workload,
        "strategy": strategy,
        "duration_secs": duration_secs,
        "seed": seed,
        "control": serde_json::json!({
            "phases": control_phases,
            "counters": control_counters,
        }),
        "adaptive": serde_json::json!({
            "phases": adaptive_phases,
            "counters": adaptive_counters,
        }),
    });
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&json).expect("serialises"),
    )
    .expect("writes report file");
    eprintln!(
        "profiled {} adaptive repairs in {:.2} s wall; wrote {}",
        comparison.adaptive.summary.repairs_completed,
        elapsed.as_secs_f64(),
        out_path
    );
}
