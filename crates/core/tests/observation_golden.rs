//! Pins every observation stream of the control loop to a checked-in
//! fixture generated at the commit *before* the `Observer` refactor: the
//! legacy event trace (text, kind, correlation, order) — once a `Vec` of
//! formatted lines, now rendered from the typed run log by
//! `RunLog::legacy_lines` —, the trace-sink events (fields, and their
//! position in the full stream, so intra-tick emission order is pinned too),
//! and the final deterministic counters.
//! Gauge / transfer / metric events are too many to list; they are pinned by
//! a per-kind count and an FNV-1a digest of their rendered lines.
//!
//! Regenerate (only when an observable change is intended):
//!
//! ```text
//! cargo test -p arch_adapt --test observation_golden -- --ignored regenerate_fixture
//! ```

use arch_adapt::experiment::{run_observed, ExperimentConfig, Observers};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig};
use std::fmt::Write as _;
use tracestore::{EventKind, TraceEvent};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/observation_seed42.txt"
);

/// The kinds summarised by count + digest instead of listed.
const BULK_KINDS: [EventKind; 3] = [EventKind::Gauge, EventKind::Transfer, EventKind::Metric];

fn opt<T: std::fmt::Debug>(value: Option<T>) -> String {
    value.map_or("-".to_string(), |v| format!("{v:?}"))
}

fn event_line(event: &TraceEvent) -> String {
    format!(
        "{:?} {} subject={} detail={} value={} corr={}",
        event.time_secs,
        event.kind,
        event.subject,
        event.detail,
        opt(event.value),
        opt(event.correlation)
    )
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One seed-42 paper-testbed run with a `BufferSink` and a `MetricsRegistry`
/// attached, rendered as fixture text.
fn render_run(
    title: &str,
    workload: &str,
    strategy: &str,
    fault_profile: Option<&str>,
    detectors: bool,
    duration_secs: f64,
) -> String {
    let grid = GridConfig::default();
    assert_eq!(grid.seed, 42, "the fixture is a seed-42 artifact");
    let framework = FrameworkConfig {
        detectors: detectors.then(detect::DetectorConfig::default),
        ..FrameworkConfig::by_name(strategy).expect("strategy resolves")
    };
    let schedule =
        ExperimentSchedule::by_name(workload, &grid, duration_secs).expect("workload resolves");
    let faults = fault_profile.map(|name| {
        faultsim::fault_profile_by_name(name, duration_secs).expect("profile resolves")
    });
    let (buffer, sink) = tracestore::shared_buffer();
    let (registry, metrics) = obs::shared_registry();
    let result = run_observed(
        strategy,
        ExperimentConfig {
            grid,
            framework,
            duration_secs,
        },
        Some(&schedule),
        faults.as_ref(),
        Observers { sink, metrics },
    )
    .expect("run succeeds");

    let mut out = format!("== {title} ==\n-- legacy trace: time kind correlation message --\n");
    for line in result.trace.legacy_lines() {
        writeln!(
            out,
            "{:?} {:?} {} {line}",
            line.time.as_secs(),
            line.kind,
            opt(line.correlation),
        )
        .unwrap();
    }
    out.push_str("-- sink events: #stream-index time kind subject detail value correlation --\n");
    let mut bulk = [(0u64, 0xcbf2_9ce4_8422_2325u64); BULK_KINDS.len()];
    for (index, event) in buffer.take().iter().enumerate() {
        let line = event_line(event);
        match BULK_KINDS.iter().position(|k| *k == event.kind) {
            Some(slot) => {
                bulk[slot].0 += 1;
                bulk[slot].1 = fnv1a(bulk[slot].1, format!("#{index} {line}\n").as_bytes());
            }
            None => writeln!(out, "#{index} {line}").unwrap(),
        }
    }
    out.push_str("-- bulk kinds: kind count fnv1a(lines) --\n");
    for (kind, (count, digest)) in BULK_KINDS.iter().zip(bulk) {
        writeln!(out, "{kind} {count} {digest:016x}").unwrap();
    }
    out.push_str("-- final deterministic counters and gauges --\n");
    let snapshot = registry.snapshot();
    for (name, value) in snapshot.counters.iter() {
        writeln!(out, "counter {name} {value}").unwrap();
    }
    for (name, value) in snapshot.gauges.iter() {
        writeln!(out, "gauge {name} {value:?}").unwrap();
    }
    writeln!(out, "detect {:?}", result.detect).unwrap();
    writeln!(out, "repair_stats {:?}", result.repair_stats).unwrap();
    out
}

fn render_fixture() -> String {
    let mut out = String::from(
        "# Observation streams of two seed-42 paper-testbed runs, generated at the commit\n\
         # before the Observer refactor. Regenerate: see crates/core/tests/observation_golden.rs\n",
    );
    out.push_str(&render_run(
        "paper / step / adaptive / no faults / detectors off / 300 s",
        "step",
        "adaptive",
        None,
        false,
        300.0,
    ));
    out.push_str(&render_run(
        "paper / figure7 / plannedRepair / single-link-cut / detectors on / 600 s",
        "figure7",
        "plannedRepair",
        Some("single-link-cut"),
        true,
        600.0,
    ));
    out
}

#[test]
fn observation_streams_match_the_seed42_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture is checked in");
    let actual = render_fixture();
    for (number, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "fixture line {} drifted", number + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "the streams grew or shrank"
    );
}

#[test]
#[ignore = "rewrites the checked-in fixture; run only when an observable change is intended"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, render_fixture()).expect("fixture is writable");
}
