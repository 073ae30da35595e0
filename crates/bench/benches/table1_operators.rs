//! Table 1 — the environment-manager operators and queries.
//!
//! Exercises every runtime operator against a live application and benchmarks
//! its execution, printing the operator/query inventory the table lists.

use criterion::{criterion_group, criterion_main, Criterion};
use gridapp::{GridApp, GridConfig, Key, SERVER_GROUP_1, SERVER_GROUP_2};
use simnet::SimTime;
use std::hint::black_box;

fn print_table1() {
    println!("[table1] Environment manager operators and queries");
    for (op, description) in [
        (
            "createReqQueue()",
            "adds a logical request queue to the request-queue machine",
        ),
        (
            "findServer([cli_ip, bw_thresh])",
            "finds a spare server, preferring one on the group's own router",
        ),
        (
            "moveClient(ReqQ newQ)",
            "moves a client to the new request queue",
        ),
        (
            "connectServer(Server srv, ReqQ to)",
            "configures a server to pull requests from the given queue",
        ),
        ("activateServer()", "the server begins pulling requests"),
        ("deactivateServer()", "the server stops pulling requests"),
        (
            "remos_get_flow(clIP, svIP)",
            "predicted bandwidth between two machines",
        ),
    ] {
        println!("  {op:36} {description}");
    }
}

fn warmed_app() -> GridApp {
    let mut app = GridApp::build(GridConfig::default()).expect("app builds");
    app.advance(SimTime::from_secs(60.0));
    app
}

fn bench_operators(c: &mut Criterion) {
    print_table1();
    let mut group = c.benchmark_group("table1");
    // The control loop names elements by interned key; so do the benches.
    let (user3, sg1, sg2) = (
        Key::new("User3"),
        Key::new(SERVER_GROUP_1),
        Key::new(SERVER_GROUP_2),
    );

    group.bench_function("remos_get_flow", |b| {
        let app = warmed_app();
        b.iter(|| app.remos_get_flow(black_box(user3), sg1).unwrap())
    });

    group.bench_function("find_server", |b| {
        let app = warmed_app();
        b.iter(|| app.find_server_for_group(black_box(sg1)))
    });

    group.bench_function("move_client_round_trip", |b| {
        let mut app = warmed_app();
        b.iter(|| {
            app.move_client(user3, sg2).unwrap();
            app.move_client(user3, sg1).unwrap();
        })
    });

    group.bench_function("activate_deactivate_server", |b| {
        let mut app = warmed_app();
        let s4 = Key::new("S4");
        app.connect_server(s4, sg1).unwrap();
        b.iter(|| {
            app.activate_server(s4).unwrap();
            app.deactivate_server(s4).unwrap();
        })
    });

    group.bench_function("create_req_queue", |b| {
        let mut app = warmed_app();
        let sg3 = Key::new("ServerGrp3");
        b.iter(|| app.create_req_queue(black_box(sg3)))
    });
    group.finish();
}

criterion_group!(benches, bench_operators);
criterion_main!(benches);
