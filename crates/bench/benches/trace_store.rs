//! Trace store throughput — the persistent run-trace registry.
//!
//! Benchmarks the observation layer on synthetic event streams: appending a
//! run's worth of events to the segment store, replaying a run from disk,
//! and the query engine's indexed (per-kind) path against its full-scan
//! path. Also measures the end-to-end overhead a traced sweep pays over an
//! untraced one on the same matrix — with the default `NullSink`, the
//! adaptation loop skips event construction entirely, so the traced run's
//! extra cost is buffering plus the single-threaded store write.

use arch_adapt::sweep::{run_sweep, run_sweep_traced, SweepSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tracestore::{EventKind, Query, TraceEvent, TraceStore};

const KINDS: [EventKind; 9] = [
    EventKind::Gauge,
    EventKind::Violation,
    EventKind::RepairStart,
    EventKind::RepairEnd,
    EventKind::RepairAborted,
    EventKind::Reconfiguration,
    EventKind::Fault,
    EventKind::Transfer,
    EventKind::Info,
];

/// A deterministic synthetic stream shaped like real run telemetry: mostly
/// gauge readings and transfers, with a sprinkling of lifecycle events.
fn synthetic_events(n: usize) -> Vec<TraceEvent> {
    (0..n)
        .map(|i| {
            let kind = if i % 10 < 6 {
                EventKind::Gauge
            } else if i % 10 < 9 {
                EventKind::Transfer
            } else {
                KINDS[i % KINDS.len()]
            };
            TraceEvent::new(
                i as f64 / 10.0,
                kind,
                &format!("User{}", i % 500),
                "bandwidth",
            )
            .with_value((i % 977) as f64 * 1e3)
            .with_correlation(i as u64)
        })
        .collect()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("bench-trace-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn bench_store(c: &mut Criterion) {
    const N: usize = 100_000;
    let events = synthetic_events(N);

    let mut group = c.benchmark_group("trace_store");
    group.sample_size(10);

    group.bench_function("append_100k", |b| {
        b.iter(|| {
            let dir = scratch("append");
            let mut store = TraceStore::open(&dir).unwrap();
            store.append_run("bench/run", black_box(&events)).unwrap();
            let total = store.total_events();
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
            total
        })
    });

    let dir = scratch("read");
    {
        let mut store = TraceStore::open(&dir).unwrap();
        store.append_run("bench/run", &events).unwrap();
    }
    let store = TraceStore::open(&dir).unwrap();

    group.bench_function("replay_100k", |b| {
        b.iter(|| store.read_run(black_box("bench/run")).unwrap().len())
    });

    // The indexed path seeks only the matching kind's offsets; the
    // predicate path decodes everything. Both are correct — the gap is the
    // point of the per-kind index.
    group.bench_function("query_indexed_faults", |b| {
        let query = Query::new().kind(EventKind::Fault);
        b.iter(|| query.execute(black_box(&store)).unwrap().len())
    });
    group.bench_function("query_predicate_faults", |b| {
        let query = Query::new().predicate("kind == \"fault\"").unwrap();
        b.iter(|| query.execute(black_box(&store)).unwrap().len())
    });

    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_traced_sweep_overhead(c: &mut Criterion) {
    let spec = SweepSpec {
        topologies: vec!["paper".into()],
        workloads: vec!["step".into()],
        strategies: vec!["adaptive".into()],
        durations_secs: vec![120.0],
        seeds: vec![42],
        fault_profiles: vec!["single-link-cut".into()],
        collect_metrics: false,
        detectors: false,
    };
    let mut group = c.benchmark_group("traced_sweep_overhead");
    group.sample_size(10);
    group.bench_function("untraced", |b| {
        b.iter(|| run_sweep(black_box(&spec), 1).unwrap().total_units)
    });
    group.bench_function("traced", |b| {
        b.iter(|| {
            let dir = scratch("sweep");
            let report = run_sweep_traced(black_box(&spec), 1, &dir).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            report.total_units
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store, bench_traced_sweep_overhead);
criterion_main!(benches);
