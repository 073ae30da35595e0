//! Observability overhead — the cost of leaving the meters on.
//!
//! Runs the same small sweep matrix unmetered (the default `NullRegistry`,
//! every instrumentation site short-circuits on `enabled()`) and metered
//! (a live `MetricsRegistry` per run: counters, gauges, and wall-clock span
//! histograms all recording), interleaved, and gates the metered minimum at
//! ≤10% over the unmetered minimum. Minima are compared — not means — so a
//! scheduler hiccup in one sample cannot fail the gate; interleaving keeps
//! thermal/frequency drift from biasing either side.

use arch_adapt::sweep::{run_sweep, SweepSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_spec(collect_metrics: bool) -> SweepSpec {
    SweepSpec {
        topologies: vec!["paper".into(), "congested-core".into()],
        workloads: vec!["step".into()],
        strategies: vec!["adaptive".into()],
        durations_secs: vec![60.0],
        seeds: vec![42],
        fault_profiles: vec!["none".into()],
        collect_metrics,
        detectors: false,
    }
}

fn run_once(spec: &SweepSpec) -> Duration {
    let started = Instant::now();
    black_box(run_sweep(black_box(spec), 1).expect("sweep runs"));
    started.elapsed()
}

/// The ≤10% overhead gate on interleaved minima.
fn main() {
    let unmetered_spec = bench_spec(false);
    let metered_spec = bench_spec(true);
    // Warm both paths once (allocator caches, lazy path trees).
    run_once(&unmetered_spec);
    run_once(&metered_spec);
    let mut unmetered_min = Duration::MAX;
    let mut metered_min = Duration::MAX;
    for _ in 0..3 {
        unmetered_min = unmetered_min.min(run_once(&unmetered_spec));
        metered_min = metered_min.min(run_once(&metered_spec));
    }
    let ratio = metered_min.as_secs_f64() / unmetered_min.as_secs_f64();
    println!(
        "[obs_overhead] unmetered min {:.1} ms, metered min {:.1} ms, ratio {ratio:.3}x",
        unmetered_min.as_secs_f64() * 1e3,
        metered_min.as_secs_f64() * 1e3,
    );
    assert!(
        ratio <= 1.10,
        "metered sweep is {ratio:.3}x the unmetered sweep — the metrics layer must cost ≤10%"
    );
}
