//! The query path's allocation budget: heap allocations one unfiltered
//! `Query::execute` makes over a store of 4 runs × 5,000 events whose
//! subjects and details are drawn from 20 and 10 distinct strings. Like
//! gridapp's `monitor_alloc_budget.rs`, whose counting allocator it shares,
//! the count is a deterministic work counter: the same on every host.
//!
//! Measured with this file on the commit before rows shared their strings
//! (cdc4b0e): 40,034 allocations for 20,000 rows — two owned `String`s per
//! row, plus an `Arc<str>` run id, a segment path, a copy of it for the error
//! context and the segment's bytes per run, and the row vector's 14 growths.
//! Since then: 61, the same in debug and release — the 30 distinct strings,
//! the string table's 5 growths, the row vector's 14, and per run the segment
//! path (two: `Path::join` copies the root, then grows it) and the segment's
//! bytes. The run ids are the store's own.

use tracestore::{EventKind, Query, TraceEvent, TraceStore};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

const RUNS: usize = 4;
const EVENTS_PER_RUN: usize = 5_000;

/// Allocations one full-store `execute` may make: everything it needs is
/// per distinct string, per run or logarithmic in the row count.
const CEILING: u64 = 64;

#[test]
fn a_full_store_query_allocates_per_distinct_string_not_per_row() {
    let dir = std::env::temp_dir().join(format!("tracestore-query-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = TraceStore::open(&dir).unwrap();
    for run in 0..RUNS {
        let events: Vec<TraceEvent> = (0..EVENTS_PER_RUN)
            .map(|i| {
                let kind = EventKind::ALL[i % EventKind::ALL.len()];
                TraceEvent::new(
                    i as f64,
                    kind,
                    format!("C{}", i % 20),
                    format!("d{}", i % 10),
                )
                .with_value(i as f64 / 7.0)
            })
            .collect();
        store.append_run(&format!("run-{run}"), &events).unwrap();
    }

    let mut rows = Vec::new();
    let allocations = counted(|| rows = Query::new().execute(&store).unwrap());
    assert_eq!(rows.len(), RUNS * EVENTS_PER_RUN);
    println!("{allocations} allocations for {} rows", rows.len());
    assert!(
        allocations <= CEILING,
        "a full-store query made {allocations} allocations for {} rows; the ceiling is {CEILING}",
        rows.len()
    );
    drop(rows);
    std::fs::remove_dir_all(&dir).unwrap();
}
