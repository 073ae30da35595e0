//! Table 1 — the environment-manager operators and queries.
//!
//! Prints the operator/query inventory the table lists, then runs every
//! runtime operator once against a live application.

use gridapp::{GridApp, GridConfig, Key, SERVER_GROUP_1, SERVER_GROUP_2};
use simnet::SimTime;

fn main() {
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

    // The control loop names elements by interned key; so does this target.
    let (user3, sg1, sg2) = (
        Key::new("User3"),
        Key::new(SERVER_GROUP_1),
        Key::new(SERVER_GROUP_2),
    );
    let mut app = GridApp::build(GridConfig::default()).expect("app builds");
    app.advance(SimTime::from_secs(60.0));
    app.remos_get_flow(user3, sg1).unwrap();
    app.move_client(user3, sg2).unwrap();
    app.move_client(user3, sg1).unwrap();
    let spare = app.find_server_for_group(sg1).expect("a spare is free");
    app.connect_server(spare, sg1).unwrap();
    app.activate_server(spare).unwrap();
    app.deactivate_server(spare).unwrap();
    app.create_req_queue(Key::new("ServerGrp3"));
}
