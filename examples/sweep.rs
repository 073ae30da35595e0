//! Scenario sweep: run the control-vs-adaptive comparison across a matrix of
//! topology presets × workload generators × repair strategies × seeds, in
//! parallel, and emit the aggregated `SweepReport` as JSON.
//!
//! Run with:
//! ```text
//! cargo run --release --example sweep                       # default matrix
//! cargo run --release --example sweep -- --smoke            # tiny CI matrix
//! cargo run --release --example sweep -- --workers 4 --out report.json
//! cargo run --release --example sweep -- --smoke --faults single-link-cut
//! cargo run --release --example sweep -- --faults none,server-crash-midrun
//! cargo run --release --example sweep -- --smoke --trace-store traces/
//! cargo run --release --example sweep -- --smoke --metrics
//! cargo run --release --example sweep -- --smoke --detectors --trace-store traces/
//! ```
//!
//! The JSON report is byte-identical for the same matrix regardless of the
//! worker count — CI runs the smoke matrix twice and diffs the files as a
//! determinism gate. With `--trace-store DIR` every run's full event stream
//! (gauge readings, violations, repairs, faults, transfers) is additionally
//! persisted to a `tracestore::TraceStore` at `DIR`, also byte-identical at
//! any worker count; explore it with the `query` example.

use arch_adapt::report::render_sweep;
use arch_adapt::sweep::{run_sweep, run_sweep_traced, SweepSpec};

fn list(value: &str) -> Vec<String> {
    value.split(',').map(|s| s.trim().to_string()).collect()
}

/// Rejects the command line: `message`, the usage text, exit status 2.
fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: sweep [--smoke] [--scale] [--topologies T1,T2,...] [--workloads W1,W2,...] \
         [--strategies S1,S2,...] [--durations D1,D2,...] [--seeds N1,N2,...] [--workers N] \
         [--out FILE] [--trace-store DIR] [--faults P1,P2,...] [--metrics] [--detectors]"
    );
    eprintln!(
        "topology presets: {}",
        gridapp::testbed_preset_names().join(", ")
    );
    eprintln!(
        "workload generators: {}",
        gridapp::workload_names().join(", ")
    );
    eprintln!(
        "strategy presets: {}",
        arch_adapt::strategy_names().join(", ")
    );
    eprintln!(
        "fault profiles: {}",
        faultsim::fault_profile_names().join(", ")
    );
    std::process::exit(2);
}

/// The value following `flag` on the command line.
fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next()
        .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
}

/// Every item of `flag`'s comma-separated value, parsed as a number.
fn numbers<T: std::str::FromStr>(flag: &str, value: &str) -> Vec<T> {
    let parse = |item: &String| {
        item.parse()
            .unwrap_or_else(|_| usage_exit(&format!("{flag}: '{item}' is not a valid number")))
    };
    list(value).iter().map(parse).collect()
}

fn main() {
    let mut preset: fn() -> SweepSpec = SweepSpec::default_matrix;
    let mut topologies: Option<Vec<String>> = None;
    let mut workloads: Option<Vec<String>> = None;
    let mut strategies: Option<Vec<String>> = None;
    let mut durations: Option<Vec<f64>> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut faults: Option<Vec<String>> = None;
    let mut metrics = false;
    let mut detectors = false;
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out_path = "sweep_report.json".to_string();
    let mut store_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--smoke" => preset = SweepSpec::smoke,
            "--scale" => preset = SweepSpec::scale_matrix,
            "--topologies" => topologies = Some(list(&value_of(flag, &mut args))),
            "--workloads" => workloads = Some(list(&value_of(flag, &mut args))),
            "--strategies" => strategies = Some(list(&value_of(flag, &mut args))),
            "--durations" => durations = Some(numbers(flag, &value_of(flag, &mut args))),
            "--seeds" => seeds = Some(numbers(flag, &value_of(flag, &mut args))),
            "--workers" => {
                let value = value_of(flag, &mut args);
                workers = match value.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage_exit(&format!("{flag}: '{value}' is not a positive integer")),
                };
            }
            "--out" => out_path = value_of(flag, &mut args),
            "--trace-store" => store_path = Some(value_of(flag, &mut args)),
            "--faults" => faults = Some(list(&value_of(flag, &mut args))),
            "--metrics" => metrics = true,
            "--detectors" => detectors = true,
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }

    // Assemble the spec through the builder: start from the chosen preset,
    // overlay each axis the flags replaced, and let `build` validate every
    // name (its error lists the valid names for the offending axis).
    let mut builder = preset().to_builder();
    if let Some(topologies) = topologies {
        builder = builder.topologies(topologies);
    }
    if let Some(workloads) = workloads {
        builder = builder.workloads(workloads);
    }
    if let Some(strategies) = strategies {
        builder = builder.strategies(strategies);
    }
    if let Some(durations) = durations {
        builder = builder.durations_secs(durations);
    }
    if let Some(seeds) = seeds {
        builder = builder.seeds(seeds);
    }
    if let Some(faults) = faults {
        builder = builder.fault_profiles(faults);
    }
    if metrics {
        builder = builder.metrics(true);
    }
    if detectors {
        builder = builder.detectors(true);
    }
    let spec = match builder.build() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("invalid sweep spec: {e}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "sweeping {} cells x {} seeds = {} comparison units on {} worker(s)...",
        spec.cells().len(),
        spec.seeds.len(),
        spec.total_units(),
        workers
    );
    let started = std::time::Instant::now();
    let report = match &store_path {
        Some(dir) => {
            run_sweep_traced(&spec, workers, std::path::Path::new(dir)).expect("traced sweep runs")
        }
        None => run_sweep(&spec, workers).expect("sweep runs"),
    };
    let elapsed = started.elapsed();

    println!("{}", render_sweep(&report));
    std::fs::write(&out_path, report.to_json_string()).expect("writes report file");
    eprintln!(
        "swept {} units ({} simulated seconds) in {:.2} s wall; wrote {}",
        report.total_units,
        report.spec.durations_secs.iter().sum::<f64>() * (report.total_units * 2) as f64
            / report.spec.durations_secs.len() as f64,
        elapsed.as_secs_f64(),
        out_path
    );
    if let Some(dir) = store_path {
        eprintln!("trace store written to {dir}");
    }
}
