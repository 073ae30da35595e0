//! The monitoring path's allocation budget: heap allocations made inside one
//! control period's sample → publish → step, per gauge reading delivered, on
//! the paper preset (seed 42, the `step` schedule with its client-move repair,
//! 300 s). `core::Monitor` is crate-private, so this does through public API
//! what `Monitor::observe` does: the four samplers into one reused buffer, a
//! [`MonitoringPipeline`] carrying the full roster of all six gauge kinds, the
//! congestion-coupled delay (it changes between ticks, so both delay lines
//! hold messages back and block at their heads), and the `delete_where` +
//! `create` churn of the repair that moves the squeezed clients. The first
//! tick — when the buffers and the interest index are first sized — is not
//! counted. Like `alloc_budget.rs` beside it, the count is a deterministic
//! work counter: the same on every host.
//!
//! Measured with this file (adapted to the API of the day) on the commit
//! before topics became values and subjects were interned: 35,179 allocations
//! for 1,734 gauge readings, 20.29 per reading — an owned probe name and owned
//! subject names per event, a `format!`ted topic per publish, a clone of the
//! message into its subscriber's queue, a second `format!` and four or five
//! string hashes per dispatch, a fresh `Vec` and a cloned gauge name per
//! report, and the same again on the gauge bus (≈21 per reading across
//! `sweep_write`, ≈17 across `fleet2k_plan`). Since then: 73 allocations, 0.04
//! per reading — the interest index rebuilt once after the churn (one short
//! `Vec` per watched topic), and growth of the two delay lines and of the
//! latency windows when the squeeze makes the delay, and with it the backlog,
//! longer.

use gridapp::{
    sample_flow_probes_from, sample_latency_probe, sample_liveness_probe, sample_queue_probe,
    ExperimentSchedule, GridApp, GridConfig, SERVER_GROUP_2,
};
use monitoring::{Gauge, MonitoringPipeline, TopicKind};
use simnet::SimTime;
use std::collections::BTreeSet;

mod common;
use common::counted;

/// Allocations per delivered gauge reading the path may make in steady
/// state: amortised buffer and window growth only. One `String` per event
/// reads ≈2; a version that still cloned the name lists per sample read 1.65.
const CEILING_PER_READING: f64 = 0.5;

/// The roster `Monitor::deploy` creates, in its order.
fn deploy(app: &GridApp) -> MonitoringPipeline {
    let mut pipeline = MonitoringPipeline::new();
    let watched: Vec<_> = app.flow_snapshot().entries().to_vec();
    let groups = app.group_names();
    for &(client, _, _) in &watched {
        pipeline.create(0.0, Gauge::latency(client, 30.0));
    }
    for &group in &groups {
        pipeline.create(0.0, Gauge::load(group));
    }
    for &(client, group, _) in &watched {
        let role = format!("{client}.role");
        pipeline.create(0.0, Gauge::bandwidth(client, group, role));
    }
    for &group in &groups {
        pipeline.create(0.0, Gauge::group_liveness(group));
    }
    for &(client, _, _) in &watched {
        let role = format!("{client}.role");
        pipeline.create(0.0, Gauge::reachability(client, role));
    }
    for server in app.server_names() {
        let replica = format!("replica-of-{server}");
        pipeline.create(0.0, Gauge::server_health(server, replica));
    }
    pipeline
}

#[test]
fn observing_allocates_next_to_nothing_per_gauge_reading() {
    const DURATION_SECS: f64 = 300.0;
    const MOVED: [&str; 2] = ["User3", "User4"];
    let config = GridConfig::default();
    assert_eq!(config.seed, 42);
    let mut app = GridApp::build(config).expect("paper testbed builds");
    let schedule = ExperimentSchedule::step(&config, DURATION_SECS);
    let mut changes = schedule.change_points().into_iter().peekable();
    schedule.apply(&mut app, 0.0);
    let mut pipeline = deploy(&app);

    let mut events = Vec::new();
    let mut delivered = Vec::new();
    let (mut allocations, mut readings) = (0, 0);
    let mut delays = BTreeSet::new();
    let mut t = 0.0;
    while t < DURATION_SECS {
        t += 5.0;
        while let Some(point) = changes.next_if(|&p| p <= t) {
            schedule.apply(&mut app, point);
            // The repair the adaptive run makes once the squeeze lands, and
            // the gauge churn `Monitor::rehome` makes for it.
            let retired = pipeline.delete_where(|id| {
                id.kind == TopicKind::Bandwidth && MOVED.iter().any(|&client| id.subject == client)
            });
            assert_eq!(retired, MOVED.len());
            for client in MOVED {
                app.move_client(client, SERVER_GROUP_2).expect("moves");
                let role = format!("{client}.role");
                pipeline.create(point, Gauge::bandwidth(client, SERVER_GROUP_2, role));
            }
        }
        let now = SimTime::from_secs(t);
        app.advance(now);
        let flows = app.flow_snapshot();
        // `Monitor::delay`: a ≈25 KB monitoring payload behind the worst
        // client's available bandwidth.
        let delay = flows
            .min_flow_bps()
            .map_or(0.0, |bps| (200_000.0 / bps).clamp(0.0, 20.0));
        delays.insert(delay.to_bits());
        pipeline.set_monitoring_delay(delay);
        delivered.clear();
        let allocated = counted(|| {
            sample_latency_probe(&mut app, &mut events);
            sample_queue_probe(&app, now, &mut events);
            sample_flow_probes_from(&flows, now, &mut events);
            sample_liveness_probe(&app, now, &mut events);
            for event in events.drain(..) {
                pipeline.publish(event);
            }
            pipeline.step(t, &mut delivered);
        });
        if t > 5.0 {
            allocations += allocated;
            readings += delivered.len();
        }
    }

    assert!(delays.len() > 2, "the delay never varied: {delays:?}");
    assert!(readings > 1_000, "only {readings} readings delivered");
    let per_reading = allocations as f64 / readings as f64;
    println!("{allocations} allocations / {readings} gauge readings = {per_reading:.2}");
    assert!(
        per_reading <= CEILING_PER_READING,
        "{allocations} allocations inside sample → publish → step for {readings} gauge \
         readings: {per_reading:.2} per reading exceeds the ceiling of {CEILING_PER_READING}"
    );
}
