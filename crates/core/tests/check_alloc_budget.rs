//! The constraint check at fleet scale formats nothing: on the freshly
//! built 50,000-client `large-scale-50k` model, where no gauge has reported
//! yet, `repair::default_constraints` evaluates 100,004 pairs, 100,000 of
//! which cannot be evaluated: no client has reported its `averageLatency`,
//! nor any client role its `bandwidth`. A full sweep (`ConstraintSet::check`,
//! counted warm) and an `IncrementalChecker`'s first check (a rebuild, which
//! also fills its pair cache) are each counted with the counting allocator
//! gridapp's `monitor_alloc_budget.rs` shares; the counts are deterministic
//! work counters, the same on every host and in both profiles.
//!
//! Measured with this file on the commit before check errors were typed
//! values (6823868): the full sweep made 400,048 allocations and the first
//! incremental check 400,154 — four per failed pair: the evaluator's two
//! `String`s, the report line and its `Arc<str>`. Each is gated at 1 % of
//! that count. With typed errors they made 48 and 126; once a report
//! counted its errors and listed them only on request, 32 and 110; now that
//! an invariant's name and text are interned keys, so that the checker's
//! copy of the constraint set copies no `String`, 32 and 102: the subject
//! lists grown by doubling, the checker's copy of the constraint set and
//! its exactly reserved pair caches.
//!
//! The rendered errors are the lines those reports carried: the errors of a
//! full check of the 2,000-client `large-scale` model, rendered and joined
//! with newlines, hash to the FNV-1a-64 digest the `Arc<str>` lines gave on
//! that commit.

use arch_adapt::{build_model, PerformanceProfile};
use archmodel::{IncrementalChecker, System};
use gridapp::{GridApp, GridConfig, TestbedSpec};

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

/// Allocations a full sweep of the fresh 50k model may make: 1 % of 400,048.
const FULL_CHECK_CEILING: u64 = 4_000;
/// Allocations the incremental checker's first check may make: 1 % of
/// 400,154.
const FIRST_INCREMENTAL_CEILING: u64 = 4_001;

fn fresh_model(spec: TestbedSpec) -> System {
    let app = GridApp::build(GridConfig::with_testbed(spec)).expect("the deployment builds");
    let (model, _) = build_model(&app, &PerformanceProfile::default()).expect("model builds");
    model
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn a_fleet_check_allocates_per_report_not_per_failed_pair() {
    let mut model = fresh_model(TestbedSpec::large_scale_50k());
    let constraints = repair::default_constraints();
    constraints.check(&model);

    let mut report = None;
    let full = counted(|| report = Some(constraints.check(&model)));
    let report = report.expect("checked above");
    assert_eq!(
        (
            report.evaluated,
            report.violations.len(),
            report.error_count
        ),
        (100_004, 0, 100_000)
    );

    let mut checker = IncrementalChecker::new();
    let mut first = None;
    let incremental = counted(|| first = Some(checker.check(&constraints, &mut model)));
    assert_eq!(
        first.expect("checked above").error_count,
        report.error_count
    );
    assert_eq!(checker.errors(), constraints.check_errors(&model));

    println!("full check {full} allocations, first incremental check {incremental}");
    assert!(
        full <= FULL_CHECK_CEILING,
        "a full check of the fresh 50k model made {full} allocations"
    );
    assert!(
        incremental <= FIRST_INCREMENTAL_CEILING,
        "a first incremental check of the fresh 50k model made {incremental} allocations"
    );
}

#[test]
fn rendered_check_errors_are_the_lines_reports_carried() {
    let model = fresh_model(TestbedSpec::large_scale());
    let errors = repair::default_constraints().check_errors(&model);
    assert_eq!(errors.len(), 4_000);
    let lines: Vec<String> = errors.iter().map(ToString::to_string).collect();
    let joined = lines.join("\n");
    assert_eq!(joined.len(), 289_785);
    assert_eq!(fnv1a(joined.as_bytes()), 0x25f4_c29c_fc9e_3d13);
}
