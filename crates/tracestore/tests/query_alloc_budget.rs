//! The query path's allocation budget: heap allocations one `Query::execute`
//! makes over a store of 4 runs × 5,000 events whose subjects and details
//! are drawn from 20 and 10 distinct strings. Like gridapp's
//! `monitor_alloc_budget.rs`, whose counting allocator it shares, the count
//! is a deterministic work counter: the same on every host.
//!
//! Unfiltered, measured with this file on the commit before rows shared their
//! strings (cdc4b0e): 40,034 allocations for 20,000 rows — two owned
//! `String`s per row, plus an `Arc<str>` run id, a segment path, a copy of it
//! for the error context and the segment's bytes per run, and the row
//! vector's 14 growths. Since then: 61, the same in debug and release — the
//! 30 distinct strings, the string table's 5 growths, the row vector's 14,
//! and per run the segment path (two: `Path::join` copies the root, then
//! grows it) and the segment's bytes. The run ids are the store's own.
//!
//! With the predicate `kind == "transfer" and value > 2.0`, measured with
//! this file on the commit before predicates were compiled (1c2bf25): 60,063
//! allocations for 1,812 rows — three per event tested: the `kind` string
//! refilled into the tree-walker's bindings map, its clone when the
//! identifier was looked up, and a clone of the `"transfer"` literal. Now the
//! predicate is compiled once per call and tested on fields borrowed from the
//! decoded event: 65, the same in debug and release — the rows' 61 less the
//! row vector's smaller growth, plus the compiled program.

use tracestore::{EventKind, Query, TraceEvent, TraceStore};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

const RUNS: usize = 4;
const EVENTS_PER_RUN: usize = 5_000;

/// Allocations one full-store `execute` may make: everything it needs is
/// per distinct string, per run or logarithmic in the row count.
const CEILING: u64 = 64;

/// Allocations the predicate query may make: the unfiltered budget plus the
/// compiled program, never a per-event cost.
const PREDICATE_CEILING: u64 = 80;

/// A store in a fresh directory, removed on drop.
struct Store(std::path::PathBuf, TraceStore);

impl Store {
    fn new(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "tracestore-query-alloc-{tag}-{}",
            std::process::id()
        ));
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
        Store(dir, store)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_full_store_query_allocates_per_distinct_string_not_per_row() {
    let store = Store::new("all");
    let mut rows = Vec::new();
    let allocations = counted(|| rows = Query::new().execute(&store.1).unwrap());
    assert_eq!(rows.len(), RUNS * EVENTS_PER_RUN);
    println!("{allocations} allocations for {} rows", rows.len());
    assert!(
        allocations <= CEILING,
        "a full-store query made {allocations} allocations for {} rows; the ceiling is {CEILING}",
        rows.len()
    );
}

#[test]
fn a_predicate_query_allocates_nothing_per_event_tested() {
    let store = Store::new("predicate");
    let query = Query::new()
        .predicate("kind == \"transfer\" and value > 2.0")
        .unwrap();
    // Names are interned process-wide the first time a program mentions
    // them; run once so the count does not depend on test order.
    query.execute(&store.1).unwrap();
    let mut rows = Vec::new();
    let allocations = counted(|| rows = query.execute(&store.1).unwrap());
    assert_eq!(rows.len(), 1_812);
    println!(
        "{allocations} allocations for {} events tested, {} rows",
        RUNS * EVENTS_PER_RUN,
        rows.len()
    );
    assert!(
        allocations <= PREDICATE_CEILING,
        "a predicate query made {allocations} allocations testing {} events; the ceiling \
         is {PREDICATE_CEILING}",
        RUNS * EVENTS_PER_RUN
    );
}
