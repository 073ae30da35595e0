//! Figure 7 — the bandwidth-competition and server-load generation schedule.
//!
//! Prints the schedule's value at every phase of the run (the stepping
//! functions of Figure 7) and benchmarks schedule evaluation and application.

use bench::SHORT_RUN_SECS;
use criterion::{criterion_group, criterion_main, Criterion};
use gridapp::{ExperimentSchedule, GridApp, GridConfig, LINK_CAPACITY_BPS};
use simnet::SimTime;
use std::hint::black_box;

fn print_figure7() {
    let config = GridConfig::default();
    let schedule = ExperimentSchedule::figure7(&config);
    println!("[fig07] Figure 7 workload schedule (values in force at sample times)");
    println!(
        "  {:>8} {:>22} {:>22} {:>14} {:>16}",
        "t (s)", "avail BW C3/4<->SG1", "avail BW C3/4<->SG2", "req rate (1/s)", "response (bytes)"
    );
    for t in [
        0.0, 60.0, 120.0, 300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0,
    ] {
        println!(
            "  {:>8.0} {:>22.0} {:>22.0} {:>14.1} {:>16.0}",
            t,
            LINK_CAPACITY_BPS - schedule.competition_sg1.value_at(t),
            LINK_CAPACITY_BPS - schedule.competition_sg2.value_at(t),
            schedule.request_rate.value_at(t),
            schedule.response_bytes.value_at(t),
        );
    }
    println!("  phase changes at: {:?}", schedule.change_points());
}

fn bench_workload(c: &mut Criterion) {
    print_figure7();
    let config = GridConfig::default();
    let schedule = ExperimentSchedule::figure7(&config);

    c.bench_function("fig07/schedule_evaluation", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for t in 0..1800 {
                acc += schedule.competition_sg1.value_at(black_box(t as f64));
                acc += schedule.request_rate.value_at(black_box(t as f64));
            }
            acc
        })
    });

    let mut group = c.benchmark_group("fig07");
    group.sample_size(10);
    group.bench_function("apply_schedule_to_app", |b| {
        b.iter(|| {
            let mut app = GridApp::build(config).expect("app builds");
            for &t in &[0.0, 120.0] {
                app.advance(SimTime::from_secs(t));
                schedule.apply(&mut app, t);
            }
            app.advance(SimTime::from_secs(black_box(SHORT_RUN_SECS)));
            app.in_flight()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_workload);
criterion_main!(benches);
