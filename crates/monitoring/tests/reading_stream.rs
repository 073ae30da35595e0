//! The reading stream is the specification: a scripted run of a bare
//! [`MonitoringPipeline`] carrying all six gauge kinds, every delivered
//! `(time, target, property, value)` compared with
//! `fixtures/reading_stream.txt`.
//!
//! The fixture was recorded on the commit *before* topics became values and
//! subjects were interned (string topics, a cloning prefix-filtered bus, the
//! segment-prefix dispatch walk), with this file differing only in the two
//! adapter functions below ([`event`] passed a probe name, [`step`] passed the
//! unit consumer and returned the `Vec` the old `step` allocated). Since gauges
//! became one value type, the lines that construct gauges and print the
//! roster differ too, and the replica-count events every tick published for
//! no gauge are gone with their probe (they were due at the same instant as
//! their neighbours, so no other message's delivery moved). The script covers
//! what the rewrites could plausibly have moved:
//!
//! * the delay goes 0 → 8 s → 0 → 3 s → 0 across ticks, so a message due
//!   earlier sits behind one due later and must wait (head-of-line blocking);
//! * latency events are stamped before the tick that publishes them, so the
//!   `event.time >= active_at` warm-up filter drops some that *arrive* after
//!   the gauge went active;
//! * a `delete_where` + `create` (with warm-up) mid-run, and two `replace`s,
//!   one of which re-points a health gauge at another runtime server;
//! * events for a subject nobody watches;
//! * two gauges on one topic.
//!
//! Regenerate (only for an intended observable change):
//! `cargo test -p monitoring --test reading_stream -- --ignored regenerate_fixture`

use monitoring::{
    Gauge, GaugeId, GaugeReading, Measurement, MonitoringPipeline, ProbeEvent, TopicKind,
};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/reading_stream.txt"
);

// ---- adapter ---------------------------------------------------------------

fn event(time: f64, measurement: Measurement) -> ProbeEvent {
    ProbeEvent::new(time, measurement)
}

fn step(pipeline: &mut MonitoringPipeline, now: f64) -> Vec<GaugeReading> {
    let mut delivered = Vec::new();
    pipeline.step(now, &mut delivered);
    delivered
}

// ---- the script ------------------------------------------------------------

fn delay_at(t: f64) -> f64 {
    match t as u32 {
        30..=44 => 8.0,
        60..=74 => 3.0,
        _ => 0.0,
    }
}

fn publish_tick(pipeline: &mut MonitoringPipeline, t: f64) {
    // Latency events carry their completion time, which is before the tick.
    for (client, base) in [("User1", 0.5), ("User2", 1.5), ("User9", 9.0)] {
        for back in [3.0, 1.0] {
            pipeline.publish(event(
                t - back,
                Measurement::RequestLatency {
                    client: client.into(),
                    seconds: base + (t - back) / 100.0,
                },
            ));
        }
    }
    pipeline.publish(event(
        t,
        Measurement::QueueLength {
            group: "ServerGrp1".into(),
            length: (t as usize) % 7,
        },
    ));
    for (client, group) in [
        ("User1", "ServerGrp1"),
        ("User2", "ServerGrp1"),
        ("User2", "ServerGrp2"),
    ] {
        pipeline.publish(event(
            t,
            Measurement::Bandwidth {
                client: client.into(),
                group: group.into(),
                bps: 1e6 + t * client.len() as f64 + group.len() as f64,
            },
        ));
    }
    for client in ["User1", "User2"] {
        pipeline.publish(event(
            t,
            Measurement::Reachability {
                client: client.into(),
                group: "ServerGrp1".into(),
                reachable: !(t as u32).is_multiple_of(15),
            },
        ));
    }
    for (server, up) in [("S1", t < 55.0), ("S6", true)] {
        pipeline.publish(event(
            t,
            Measurement::ServerLive {
                server: server.into(),
                up,
            },
        ));
    }
    pipeline.publish(event(
        t,
        Measurement::GroupLiveness {
            group: "ServerGrp1".into(),
            live: if t < 55.0 { 3 } else { 2 },
            dead: if t < 55.0 { 0 } else { 1 },
        },
    ));
}

fn render() -> String {
    let mut pipeline = MonitoringPipeline::new();
    for client in ["User1", "User2"] {
        pipeline.create(0.0, Gauge::latency(client, 30.0));
    }
    pipeline.create(0.0, Gauge::load("ServerGrp1"));
    for client in ["User1", "User2"] {
        let role = format!("{client}.role");
        pipeline.create(0.0, Gauge::bandwidth(client, "ServerGrp1", role));
    }
    pipeline.create(0.0, Gauge::group_liveness("ServerGrp1"));
    pipeline.create(0.0, Gauge::reachability("User1", "User1.role"));
    // Two gauges on one topic.
    pipeline.create(0.0, Gauge::server_health("S1", "ServerGrp1.Server1"));
    pipeline.create(0.0, Gauge::server_health("S1", "ServerGrp1.Mirror"));

    let mut out = String::new();
    let mut t = 0.0;
    while t < 120.0 {
        t += 5.0;
        pipeline.set_monitoring_delay(delay_at(t));
        match t as u32 {
            50 => {
                // User2 moved: its bandwidth gauge is retired and one against
                // the new group warms up.
                let retired = GaugeId {
                    kind: TopicKind::Bandwidth,
                    subject: "User2".into(),
                    other: Some("ServerGrp1".into()),
                };
                let deleted = pipeline.delete_where(|id| id == retired);
                let active_at =
                    pipeline.create(t, Gauge::bandwidth("User2", "ServerGrp2", "User2.role"));
                writeln!(out, "churn {t:?} deleted={deleted} active_at={active_at:?}").unwrap();
            }
            70 => {
                let load = pipeline.replace(t, Gauge::load("ServerGrp1"));
                // Failover: the replica is now backed by S6.
                let health = pipeline.replace(t, Gauge::server_health("S6", "ServerGrp1.Server1"));
                writeln!(out, "replace {t:?} load={load:?} health={health:?}").unwrap();
            }
            _ => {}
        }
        publish_tick(&mut pipeline, t);
        let delivered = step(&mut pipeline, t);
        writeln!(
            out,
            "step {t:?} delay={:?} delivered={}",
            delay_at(t),
            delivered.len()
        )
        .unwrap();
        for reading in delivered {
            writeln!(
                out,
                "{:?} {} {} {:?}",
                reading.time, reading.target, reading.property, reading.value
            )
            .unwrap();
        }
    }
    let roster: Vec<String> = pipeline.roster().map(|g| g.id().to_string()).collect();
    writeln!(out, "roster {roster:?}").unwrap();
    out
}

#[test]
fn the_reading_stream_matches_the_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let actual = render();
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "line {} differs", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

#[test]
#[ignore = "rewrites the fixture"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, render()).expect("fixture is writable");
}
