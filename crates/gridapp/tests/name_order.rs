//! Pins the application's name-ordered behaviour where build order and name
//! order differ: a 28-client testbed names its clients `User1 … User28`, so
//! name order is `User1, User10, …, User19, User2, User20, …` — something the
//! six-client paper preset cannot show. Two 300 s step-schedule runs issue
//! the operators the two repair styles issue — `adaptive`'s per-element
//! `moveClient` and `plannedRepair`'s `moveClientGroup` (which migrates
//! queued requests, scanning the source queues in name order) — around one
//! `crash_server` / `restart_server` / `drain_server` and one runtime
//! `create_req_queue("ServerGrp0")`, a group that sorts *before* the two
//! built-in ones. The completion sequence, the per-tick queue lengths, the
//! name tables and the deterministic counters are compared with a fixture
//! recorded on the commit before `GridApp` went from name-keyed maps to
//! name-ordered dense ids.
//!
//! Regenerate (only when an observable change is intended):
//!
//! ```text
//! cargo test -p gridapp --test name_order -- --ignored regenerate_fixture
//! ```

use gridapp::{
    ExperimentSchedule, GridApp, GridConfig, Key, TestbedSpec, SERVER_GROUP_1, SERVER_GROUP_2,
};
use simnet::SimTime;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/name_order_seed42.txt"
);
const DURATION_SECS: f64 = 300.0;
const EARLY_GROUP: &str = "ServerGrp0";

/// Which operator re-points clients.
#[derive(Clone, Copy, PartialEq)]
enum Style {
    /// `moveClient`, one call per client.
    Adaptive,
    /// `moveClientGroup`, one call per batch.
    PlannedRepair,
}

/// 28 clients in uneven position classes, like `small_aggregated` in
/// `core/src/monitor.rs`, and eleven servers (`S1, S10, S11, S2, …`; group 2
/// is `S10, S8, S9` in name order): cheap enough for a debug build.
fn config() -> GridConfig {
    GridConfig::with_testbed(TestbedSpec {
        clients_r1: 12,
        clients_r2: 6,
        clients_r5: 10,
        sg1_active: 5,
        sg1_spares: 2,
        sg2_active: 3,
        sg2_spares: 1,
        clients_per_agg: 4,
        ..TestbedSpec::large_scale()
    })
}

fn move_all(app: &mut GridApp, style: Style, clients: &[Key], to: &str) {
    match style {
        Style::Adaptive => {
            for client in clients {
                app.move_client(client.as_str(), to).expect("client moves");
            }
        }
        Style::PlannedRepair => {
            let moved = app.move_clients(clients, to).expect("batch moves");
            assert_eq!(moved, clients.len());
        }
    }
}

fn render_run(title: &str, style: Style) -> String {
    let config = config();
    assert_eq!(config.seed, 42, "the fixture is a seed-42 artifact");
    let mut app = GridApp::build(config).expect("testbed builds");
    let schedule = ExperimentSchedule::step(&config, DURATION_SECS);
    let mut changes = schedule.change_points().into_iter().peekable();
    schedule.apply(&mut app, 0.0);

    let mut out = format!("== {title} ==\n");
    let mut t = 0.0;
    while t < DURATION_SECS {
        t += 5.0;
        while let Some(point) = changes.next_if(|&p| p <= t) {
            schedule.apply(&mut app, point);
        }
        let now = SimTime::from_secs(t);
        match t as u32 {
            60 => app.crash_server(now, "S1").expect("S1 exists"),
            80 => {
                // What a repair sees: the clients whose flow collapsed, in
                // snapshot (name) order.
                app.advance(now);
                let squeezed: Vec<Key> = app
                    .flow_snapshot()
                    .entries()
                    .iter()
                    .filter(|(_, _, flow)| flow.is_some_and(|bps| bps < config.min_bandwidth_bps))
                    .map(|&(client, _, _)| client)
                    .collect();
                writeln!(out, "squeezed {squeezed:?}").unwrap();
                move_all(&mut app, style, &squeezed, SERVER_GROUP_2);
            }
            85 => {
                app.advance(now);
                app.create_req_queue(EARLY_GROUP);
                let spare = app.find_server().expect("a spare exists");
                app.connect_server(spare, EARLY_GROUP).expect("connects");
                app.activate_server(spare).expect("activates");
                writeln!(out, "recruited {spare} for {EARLY_GROUP}").unwrap();
                // Build order, which is not name order.
                let movers = ["User2", "User10", "User1", "User21"].map(Key::new);
                move_all(&mut app, style, &movers, EARLY_GROUP);
            }
            90 => {
                // Back to group 1 from both other groups at once, while both
                // still hold queued work: a batch move pulls it out of
                // `ServerGrp0` before `ServerGrp2`.
                app.advance(now);
                let movers = ["User21", "User13", "User1", "User14"].map(Key::new);
                move_all(&mut app, style, &movers, SERVER_GROUP_1);
            }
            100 => app.restart_server(now, "S1").expect("S1 exists"),
            150 => app.drain_server(now, "S2").expect("S2 exists"),
            _ => {}
        }
        app.advance(now);
        for done in app.drain_completions() {
            writeln!(
                out,
                "done {:?} {} {} {:?}",
                done.time.as_secs(),
                done.client,
                done.group,
                done.latency_secs
            )
            .unwrap();
        }
        let flows = app.flow_snapshot();
        app.sample_metrics_with_flows(now, &flows);
        write!(out, "tick {t:?}").unwrap();
        for group in app.group_names() {
            write!(out, " {group}={}", app.queue_length(group).unwrap()).unwrap();
        }
        writeln!(out, " in_flight={}", app.in_flight()).unwrap();
    }

    writeln!(out, "clients {:?}", app.client_names()).unwrap();
    writeln!(out, "groups {:?}", app.group_names()).unwrap();
    writeln!(out, "servers {:?}", app.server_names()).unwrap();
    for client in app.client_names() {
        writeln!(
            out,
            "assigned {client} {}",
            app.client_group(&client).unwrap()
        )
        .unwrap();
    }
    for group in app.group_names() {
        writeln!(
            out,
            "group {group} active={:?} liveness={:?}",
            app.active_servers(group),
            app.group_liveness(group)
        )
        .unwrap();
    }
    for server in app.server_names() {
        writeln!(out, "served {server} {}", app.served_by(&server)).unwrap();
    }
    let spares: Vec<Key> = app.spare_servers().collect();
    writeln!(out, "spares {spares:?}").unwrap();
    writeln!(out, "metrics clients {:?}", app.metrics().clients()).unwrap();
    writeln!(out, "metrics groups {:?}", app.metrics().groups()).unwrap();
    writeln!(out, "unserved_demand_secs {:?}", app.unserved_demand_secs()).unwrap();
    writeln!(out, "rate_epochs {}", app.rate_epoch_count()).unwrap();
    writeln!(out, "due_queue {:?}", app.due_queue_stats()).unwrap();
    writeln!(out, "probe_solves {}", app.probe_solve_count()).unwrap();
    writeln!(out, "assignment_generation {}", app.assignment_generation()).unwrap();
    out
}

fn render_fixture() -> String {
    let mut out = String::from(
        "# Two seed-42 runs of a 28-client testbed, recorded before GridApp's dense-id rewrite.\n\
         # Regenerate: see crates/gridapp/tests/name_order.rs\n",
    );
    out.push_str(&render_run(
        "28 clients / step / adaptive operators (moveClient) / 300 s",
        Style::Adaptive,
    ));
    out.push_str(&render_run(
        "28 clients / step / plannedRepair operators (moveClientGroup) / 300 s",
        Style::PlannedRepair,
    ));
    out
}

#[test]
fn two_digit_names_keep_their_order_and_their_completion_sequence() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture is checked in");
    let actual = render_fixture();
    for (n, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "fixture line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

#[test]
#[ignore = "rewrites the fixture; run only when an observable change is intended"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, render_fixture()).expect("fixture is writable");
}
