//! Fault recovery — MTTR of the failover tactic.
//!
//! Injects the `server-crash-midrun` profile (two of Server Group 1's three
//! replicas crash) into a shortened adaptive run and measures the wall-clock
//! cost of the simulation plus the recovered MTTR. Every sample asserts that
//! the failover repair actually recovered the service: the MTTR must exist
//! and stay well under the remaining run time, and the crash must be
//! repaired through the `failoverServerGroup` tactic (visible as completed
//! repairs after the onset).

use arch_adapt::experiment::{run_observed, ExperimentConfig};
use arch_adapt::FrameworkConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use faultsim::{fault_profile_by_name, Resilience};
use gridapp::GridConfig;
use std::hint::black_box;

const DURATION_SECS: f64 = 600.0;

fn mttr_of_failover(seed: u64) -> f64 {
    let grid = GridConfig {
        seed,
        ..GridConfig::default()
    };
    let schedule =
        fault_profile_by_name("server-crash-midrun", DURATION_SECS).expect("profile resolves");
    let result = run_observed(
        "adaptive",
        ExperimentConfig {
            grid,
            framework: FrameworkConfig::adaptive(),
            duration_secs: DURATION_SECS,
        },
        None,
        Some(&schedule),
        Default::default(),
    )
    .expect("run succeeds");
    let resilience = Resilience::of(
        &result.metrics.pooled_latency(),
        DURATION_SECS,
        grid.max_latency_secs,
        10.0,
        &result.faults.onsets,
    );
    assert!(
        result.summary.repairs_completed >= 1,
        "the crash must trigger at least one repair"
    );
    let mttr = resilience
        .mttr_secs
        .expect("the failover tactic must recover the service");
    assert!(
        mttr < DURATION_SECS * 0.6,
        "recovery must finish well before the run ends: MTTR {mttr:.0} s"
    );
    mttr
}

fn bench_fault_recovery(c: &mut Criterion) {
    println!(
        "[fault_recovery] MTTR of the failover tactic at seed 42: {:.0} s (simulated)",
        mttr_of_failover(42)
    );
    let mut group = c.benchmark_group("fault_recovery");
    group.sample_size(10);
    group.bench_function("failover_mttr_600s", |b| {
        b.iter(|| mttr_of_failover(black_box(42)))
    });
    group.finish();
}

criterion_group!(benches, bench_fault_recovery);
criterion_main!(benches);
