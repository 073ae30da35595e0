//! The architectural model's allocation budget at fleet scale: on the
//! 50,000-client `large-scale-50k` deployment, `build_model`, a clone of the
//! model it built, `ClientServerStyle::validate` on that clean model, and
//! dropping the clone, each counted with the counting allocator gridapp's
//! `monitor_alloc_budget.rs` shares. The build is counted cold: it interns
//! each client's role name, so it pays about one allocation per client for
//! the process-wide name table. Counts are deterministic work counters, the
//! same on every host and in both profiles.
//!
//! Measured with this file on the commit before the model was a dense arena
//! (7a383c4), on 50,082 components: `build_model` 825,981 allocations (16.5
//! per component), `clone` 475,294 (9.5), `validate` 100,019 (two per
//! client). Each element owned its name and type strings, its port and
//! child vectors, and a tree node; each client cost two vectors in
//! `validate`.

use arch_adapt::{build_model, PerformanceProfile};
use archmodel::style::ClientServerStyle;
use gridapp::{GridApp, GridConfig, TestbedSpec};
use std::time::Instant;

#[path = "../../gridapp/tests/common/mod.rs"]
mod common;
use common::counted;

/// Allocations `build_model` may make per component.
const BUILD_PER_COMPONENT: u64 = 3;
/// Allocations a clone may make per component.
const CLONE_PER_COMPONENT: u64 = 1;
/// Allocations `validate` may make on a clean model, whatever its size.
const VALIDATE_CEILING: u64 = 64;

#[test]
fn a_fleet_model_builds_copies_and_validates_in_few_heap_blocks() {
    let app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale_50k()))
        .expect("the 50k deployment builds");
    let profile = PerformanceProfile::default();

    let mut built = None;
    let started = Instant::now();
    let build = counted(|| built = Some(build_model(&app, &profile).expect("model builds")));
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let (model, _) = built.expect("built above");
    let components = model.components().count() as u64;
    assert_eq!(components, 50_082);

    let mut copy = None;
    let started = Instant::now();
    let clone = counted(|| copy = Some(model.clone()));
    let clone_ms = started.elapsed().as_secs_f64() * 1e3;
    let copy = copy.expect("cloned above");
    assert_eq!(copy, model);

    let mut violations = None;
    let started = Instant::now();
    let validate = counted(|| violations = Some(ClientServerStyle::validate(&model)));
    let validate_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(violations, Some(Vec::new()));

    let started = Instant::now();
    drop(copy);
    let drop_ms = started.elapsed().as_secs_f64() * 1e3;

    println!(
        "{components} components: build_model {build} allocations ({build_ms:.0} ms), \
         clone {clone} ({clone_ms:.0} ms), validate {validate} ({validate_ms:.0} ms), \
         drop {drop_ms:.0} ms"
    );
    assert!(
        build <= BUILD_PER_COMPONENT * components,
        "build_model made {build} allocations for {components} components"
    );
    assert!(
        clone <= CLONE_PER_COMPONENT * components,
        "a clone made {clone} allocations for {components} components"
    );
    assert!(
        validate <= VALIDATE_CEILING,
        "validate made {validate} allocations on a clean model"
    );
}
