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
//! vector's 14 growths. Then 61, with the row vector's 14 growths, the string
//! table's 5 and a segment read per run. Then 49, with rows sharing one
//! `Arc<str>` per distinct string. Now rows hold interned `Key`s, and the
//! same in debug and release the first call makes 52: the string table's
//! one slot array; the 30 distinct strings, each interned once, and 3
//! growths of the process-wide interner's set; the row vector, reserved once
//! for the four runs' 20,000 records; per run the segment path twice (two
//! each: `Path::join` copies the root, then grows it), once to size the
//! reservation and once to read it; and one segment buffer, which every
//! run's read reuses. The run ids were interned when the runs were appended.
//! The same call again makes 19: everything but the interning.
//!
//! With the predicate `kind == "transfer" and value > 2.0`, measured with
//! this file on the commit before predicates were compiled (1c2bf25): 60,063
//! allocations for 1,812 rows — three per event tested: the `kind` string
//! refilled into the tree-walker's bindings map, its clone when the
//! identifier was looked up, and a clone of the `"transfer"` literal. Then
//! 65, with the predicate compiled once per call, and 67 with rows sharing
//! `Arc<str>`s. Now 37 for the second of two calls (the first interns the
//! strings), the same in debug and release: the string table's slot array,
//! the row vector's 10 growths (only the predicate can tell how many of the
//! transfers pass, so nothing is reserved), the compiled program's 8, and
//! per run the segment path's two, the index path's one and the parsed
//! index's one — the leading `kind == "transfer"` sends the scan to the kind
//! index — plus one segment buffer and one index buffer for the call.

use tracestore::{EventKind, EventRef, Query, RunBuffer, TraceStore};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

const RUNS: usize = 4;
const EVENTS_PER_RUN: usize = 5_000;

/// Distinct subjects plus distinct details in a store.
const DISTINCT_STRINGS: u64 = 20 + 10;

/// Allocations one full-store `execute` may make: everything it needs is
/// per distinct string, per run or logarithmic in the row count.
const CEILING: u64 = 64;

/// Allocations the predicate query may make: the unfiltered budget plus the
/// compiled program, never a per-event cost.
const PREDICATE_CEILING: u64 = 80;

/// A store in a fresh directory, removed on drop. It is written as emitters
/// write, through borrowed views, so that none of its subjects and details
/// (which carry `tag`, one set per test) is interned before a query reads it.
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
            let mut buffer = RunBuffer::default();
            for i in 0..EVENTS_PER_RUN {
                let kind = EventKind::ALL[i % EventKind::ALL.len()];
                let (subject, detail) =
                    (format!("{tag}/C{}", i % 20), format!("{tag}/d{}", i % 10));
                buffer.push(
                    EventRef::new(i as f64, kind, &subject, &detail).with_value(i as f64 / 7.0),
                );
            }
            store.append_buffer(&format!("run-{run}"), &buffer).unwrap();
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
    let first = counted(|| rows = Query::new().execute(&store.1).unwrap());
    assert_eq!(rows.len(), RUNS * EVENTS_PER_RUN);
    println!("{first} allocations for {} rows", rows.len());
    assert!(
        first <= CEILING,
        "a full-store query made {first} allocations for {} rows; the ceiling is {CEILING}",
        rows.len()
    );
    // The first call interned every distinct string; the same call again
    // finds them all and interns nothing.
    let again = counted(|| rows = Query::new().execute(&store.1).unwrap());
    println!("{again} allocations for the same query again");
    assert!(
        again + DISTINCT_STRINGS <= first,
        "the second identical query made {again} allocations, the first {first}: it interned \
         some of the {DISTINCT_STRINGS} distinct strings again"
    );
}

#[test]
fn a_predicate_query_allocates_nothing_per_event_tested() {
    let store = Store::new("predicate");
    let query = Query::new()
        .predicate("kind == \"transfer\" and value > 2.0")
        .unwrap();
    // Names are interned process-wide the first time a program mentions
    // them or a read meets them; run once so the count does not depend on
    // test order.
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
