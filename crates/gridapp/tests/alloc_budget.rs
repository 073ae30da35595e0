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
//! 1800 s arms run with the sink on). Since then: 4,070, 2.28 per request —
//! the two `String`s of each `CompletedRequest`, which leave the crate by
//! value, plus growth of long-lived buffers (the completion list the caller
//! drains every tick, the latency series, one shortest-path tree per source).

use gridapp::{ExperimentSchedule, GridApp, GridConfig, SERVER_GROUP_2};
use simnet::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per completed request this layer may make inside `advance`:
/// one more per request than today's 2.28 does not fit.
const CEILING_PER_REQUEST: f64 = 3.0;

thread_local! {
    /// `Some(n)` while the current thread is inside a counted region.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAllocator;

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the count no longer matters.
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state and, being a
// const-initialised `Cell` without a destructor, never allocates itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above — `ptr` came from `System` through this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many times this thread allocated inside it.
fn counted(f: impl FnOnce()) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    f();
    COUNTED
        .with(|c| c.replace(None))
        .expect("region was opened above")
}

#[test]
fn advance_allocates_a_handful_per_completed_request() {
    const DURATION_SECS: f64 = 300.0;
    let config = GridConfig::default();
    assert_eq!(config.seed, 42);
    let mut app = GridApp::build(config).expect("paper testbed builds");
    assert!(!app.trace_sink().enabled(), "the default sink is disabled");
    let schedule = ExperimentSchedule::step(&config, DURATION_SECS);
    let mut changes = schedule.change_points().into_iter().peekable();
    schedule.apply(&mut app, 0.0).expect("schedule applies");

    let mut allocations = 0;
    let mut completed = 0;
    let mut t = 0.0;
    while t < DURATION_SECS {
        t += 5.0;
        while let Some(point) = changes.next_if(|&p| p <= t) {
            // Advance first, so the `advance` inside `apply` has nothing
            // left to do outside a counted region.
            allocations += counted(|| app.advance(SimTime::from_secs(point)));
            schedule.apply(&mut app, point).expect("schedule applies");
            // The repair the adaptive run makes once the squeeze lands, so
            // the squeezed clients' replies do not wedge every replica and
            // requests keep completing for the rest of the run.
            for client in ["User3", "User4"] {
                app.move_client(client, SERVER_GROUP_2).expect("moves");
            }
        }
        allocations += counted(|| app.advance(SimTime::from_secs(t)));
        completed += app.take_completions().len();
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
