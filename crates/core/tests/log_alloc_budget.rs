//! The run log's allocation budget: heap allocations of one whole seed-42
//! paper run (`adaptive`, the `step` schedule, 1800 s, the null sink and
//! registry of `Observers::default()`), counted after an uncounted warm-up of
//! the same run that interns every name it would. Like gridapp's
//! `monitor_alloc_budget.rs`, whose counting allocator it shares, the count
//! is a deterministic work counter: the same on every host.
//!
//! Measured with this file on the commit before the run's record was a typed
//! log (8791441): 64,071 allocations in debug and in release, for 1,981
//! legacy trace lines — 1,682 violations, 276 "repair skipped" notes, 15
//! reconfigurations, 3 repair start / end pairs, the deploy note and the
//! phase change, each a `String` built by `format!` whether or not anything
//! read it. With the typed log: 58,139 in both profiles. A violation entry
//! holds interned names, a skip reason or an error is moved in, and the
//! reconfigurations and the plan are the repair's own, so what is left of
//! the record is the growth of the entry vector and one shared plan per
//! repair.

use arch_adapt::experiment::{run_observed, ExperimentConfig, Observers};
use arch_adapt::framework::FrameworkConfig;
use gridapp::{ExperimentSchedule, GridConfig};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

/// The parent's count less one allocation per legacy line: a run that
/// still builds a `String` per occurrence fails it.
const CEILING: u64 = 64_071 - 1_981;

const DURATION_SECS: f64 = 1800.0;

/// Allocations made by one observed paper run, and its legacy line count.
fn allocations() -> (u64, usize) {
    let grid = GridConfig::default();
    assert_eq!(grid.seed, 42);
    let schedule = ExperimentSchedule::step(&grid, DURATION_SECS);
    let config = ExperimentConfig {
        grid,
        framework: FrameworkConfig::by_name("adaptive").expect("strategy resolves"),
        duration_secs: DURATION_SECS,
    };
    let mut result = None;
    let count = counted(|| {
        let observers = Observers::default();
        let run = run_observed("adaptive", config, Some(&schedule), None, observers);
        result = Some(run.expect("run succeeds"));
    });
    let lines = result.expect("run recorded").trace.legacy_lines().count();
    (count, lines)
}

#[test]
fn a_paper_run_formats_no_line_per_occurrence() {
    allocations();
    let (count, lines) = allocations();
    println!("{count} allocations for {lines} legacy lines");
    assert_eq!(lines, 1_981, "the paper run's record changed");
    assert!(
        count <= CEILING,
        "a seed-42 paper run made {count} allocations, above the ceiling of {CEILING}"
    );
}
