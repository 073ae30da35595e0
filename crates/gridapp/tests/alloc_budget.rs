//! The event loop's allocation budget: heap allocations made inside
//! `GridApp::advance` per completed request, on the paper preset (seed 42, the
//! `step` schedule with its client-move repair, 300 s, the default disabled
//! `NullSink`). The count is a deterministic work counter — the same on every
//! host — so a change that re-introduces a per-event clone fails here with no
//! wall-clock noise.
//!
//! Measured with this file on the commit before `GridApp` went from
//! name-keyed maps to name-ordered dense ids: 52,590 allocations for 1,788
//! completed requests, 29.41 per request (about 36 in `sweep_write`, whose
//! 1800 s arms run with the sink on). With dense ids: 4,070, 2.28 per request,
//! of which two were the `String`s of each `CompletedRequest`. Since
//! `CompletedRequest` carries the interned names kept beside each entity: 240,
//! 0.13 per request, all of it growth of long-lived buffers (the latency
//! series, the request table, the completion list until it has reached one
//! tick's worth — the caller drains it in place — and one shortest-path tree
//! per source). Nothing is allocated per request any more.

use gridapp::{ExperimentSchedule, GridApp, GridConfig, TestbedSpec, SERVER_GROUP_2};
use simnet::SimTime;

mod common;
use common::counted;

/// Allocations per completed request this layer may make inside `advance`:
/// today's 0.13 is amortised growth, and one allocation per request on top of
/// it does not fit.
const CEILING_PER_REQUEST: f64 = 0.25;

#[test]
fn advance_allocates_a_handful_per_completed_request() {
    const DURATION_SECS: f64 = 300.0;
    let config = GridConfig::default();
    assert_eq!(config.seed, 42);
    let mut app = GridApp::build(config).expect("paper testbed builds");
    assert!(!app.trace_sink().enabled(), "the default sink is disabled");
    let schedule = ExperimentSchedule::step(&config, DURATION_SECS);
    let mut changes = schedule.change_points().into_iter().peekable();
    schedule.apply(&mut app, 0.0);

    let mut allocations = 0;
    let mut completed = 0;
    let mut t = 0.0;
    while t < DURATION_SECS {
        t += 5.0;
        while let Some(point) = changes.next_if(|&p| p <= t) {
            // Advance first, so the `advance` inside `apply` has nothing
            // left to do outside a counted region.
            allocations += counted(|| app.advance(SimTime::from_secs(point)));
            schedule.apply(&mut app, point);
            // The repair the adaptive run makes once the squeeze lands, so
            // the squeezed clients' replies do not wedge every replica and
            // requests keep completing for the rest of the run.
            for client in ["User3", "User4"] {
                app.move_client(client, SERVER_GROUP_2).expect("moves");
            }
        }
        allocations += counted(|| app.advance(SimTime::from_secs(t)));
        completed += app.drain_completions().len();
    }

    assert!(completed > 500, "only {completed} requests completed");
    let per_request = allocations as f64 / completed as f64;
    println!("{allocations} allocations / {completed} completed requests = {per_request:.2}");
    assert!(
        per_request <= CEILING_PER_REQUEST,
        "{allocations} allocations inside advance for {completed} completed requests: \
         {per_request:.2} per request exceeds the ceiling of {CEILING_PER_REQUEST}"
    );
}

/// What a repair asks the application about spares allocates nothing: how
/// many there are (a tactic's question), and which one each group would
/// recruit (the pick `ConnectServer` makes), on the large-scale preset,
/// where spares sit behind both groups' routers.
#[test]
fn counting_and_picking_spares_allocates_nothing() {
    let app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale()))
        .expect("large-scale testbed builds");
    let groups = app.group_names();
    let (mut spares, mut picks) = (0, Vec::with_capacity(groups.len()));
    let allocations = counted(|| {
        spares = app.spare_servers().count();
        picks.extend(groups.iter().map(|&group| app.find_server_for_group(group)));
    });
    assert!(spares > 0, "the preset has spares");
    assert!(picks.iter().all(Option::is_some), "{picks:?}");
    assert_eq!(allocations, 0);
}
