//! Detector overhead — the cost of leaving the anomaly detectors on.
//!
//! Runs the same small sweep matrix with the detectors off (the default:
//! `FrameworkConfig::detectors` is `None`, the tick skips the detect phase
//! entirely) and on (a `DetectorBank` per run: ring-buffer ingestion,
//! incremental window statistics, EWMA-residual and CUSUM scoring on every
//! gauge reading), interleaved, and gates the detector-on minimum at ≤10%
//! over the detector-off minimum. Minima are compared — not means — so a
//! scheduler hiccup in one sample cannot fail the gate; interleaving keeps
//! thermal/frequency drift from biasing either side.

use arch_adapt::sweep::{run_sweep, SweepSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_spec(detectors: bool) -> SweepSpec {
    SweepSpec {
        topologies: vec!["paper".into(), "congested-core".into()],
        workloads: vec!["step".into()],
        strategies: vec!["adaptive".into()],
        durations_secs: vec![60.0],
        seeds: vec![42],
        fault_profiles: vec!["none".into()],
        collect_metrics: false,
        detectors,
    }
}

fn run_once(spec: &SweepSpec) -> Duration {
    let started = Instant::now();
    black_box(run_sweep(black_box(spec), 1).expect("sweep runs"));
    started.elapsed()
}

/// The ≤10% overhead gate on interleaved minima.
fn main() {
    let off_spec = bench_spec(false);
    let on_spec = bench_spec(true);
    // Warm both paths once (allocator caches, lazy path trees).
    run_once(&off_spec);
    run_once(&on_spec);
    let mut off_min = Duration::MAX;
    let mut on_min = Duration::MAX;
    for _ in 0..3 {
        off_min = off_min.min(run_once(&off_spec));
        on_min = on_min.min(run_once(&on_spec));
    }
    let ratio = on_min.as_secs_f64() / off_min.as_secs_f64();
    println!(
        "[detect_overhead] detector-off min {:.1} ms, detector-on min {:.1} ms, ratio {ratio:.3}x",
        off_min.as_secs_f64() * 1e3,
        on_min.as_secs_f64() * 1e3,
    );
    assert!(
        ratio <= 1.10,
        "detector-on sweep is {ratio:.3}x the detector-off sweep — the detect layer must cost ≤10%"
    );
}
