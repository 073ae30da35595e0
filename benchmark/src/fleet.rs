//! The fleet workloads: one 300-second control-vs-adaptive comparison on a
//! large testbed, control arm then adaptive arm.

use crate::arm::{self, control_of, drive_arm, ArmInputs};
use crate::digest;
use crate::pace;
use crate::pass::{guarded, secs_since, Pass};
use crate::tracer::Tracer;
use crate::workload::{fleet_inputs, FLEET_DURATION_SECS};
use arch_adapt::{build_model, AdaptationFramework, PerformanceProfile, RunSummary};
use gridapp::{GridApp, Testbed, TestbedSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Not a metric of its own: the part of one `AdaptationFramework::new` the
/// probes account for, which `core.new_remainder_s` is taken against.
pub const PROBED_NEW_S: &str = "probed_new_s";

/// Runs the comparison. With a tracer, every arm carries the program's
/// metrics registry and every step becomes a span; without one the arms run
/// with `NullSink` / `null_metrics` and only the set-up / run split is kept.
pub fn run(
    name: &str,
    testbed: TestbedSpec,
    seed: u64,
    out_dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::new(2);
    let wall = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin();
    }
    let mut summaries: Vec<RunSummary> = Vec::new();
    for label in ["control", "adaptive"] {
        let started = Instant::now();
        let (grid, schedule, adaptive) = fleet_inputs(testbed, seed);
        let generated = Instant::now();
        let config = if label == "control" {
            control_of(adaptive)
        } else {
            adaptive
        };
        let (observers, registry) = Tracer::observers(tracer.is_some(), tracestore::null_sink());
        pass.attempted += 1;
        let arm = guarded(|| {
            drive_arm(
                &ArmInputs {
                    label,
                    grid,
                    config,
                    schedule: Some(&schedule),
                    faults: None,
                    duration_secs: FLEET_DURATION_SECS,
                },
                observers,
            )
        });
        match arm {
            Ok(arm) => {
                // Input generation, then construction: one stretch.
                let constructed = arm.step(arm::STEP_NEW).map_or(generated, |s| s.end);
                pass.setup_samples.push(pace::paced(started, constructed));
                if let Some(run) = arm.step(arm::STEP_RUN) {
                    pass.run += pace::paced(run.start, run.end);
                }
                if let (Some(t), Some(registry)) = (tracer.as_deref_mut(), &registry) {
                    t.absorb_arm(None, (started, generated), &arm, registry);
                }
                summaries.push(arm.summary);
            }
            Err(error) => pass.fail(format!("{name} {label} arm: {error}")),
        }
    }
    let serialising = Instant::now();
    let json = serde_json::to_string_pretty(&summaries).expect("summaries serialise");
    let serialised = Instant::now();
    pass.report_json_s = serialised.duration_since(serialising).as_secs_f64();
    pass.report_json_bytes = json.len() as u64;
    if let Err(error) = std::fs::write(out_dir.join(format!("{name}.report.json")), &json) {
        pass.fail(format!("writing the {name} report: {error}"));
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.layer_span("core.report_json", serialising, serialised);
        t.layer_span("report.write", serialised, Instant::now());
        t.end();
    }
    pass.wall = pace::paced_since(wall);

    // Outside the measured wall: digests, sanity checks, extra set-up samples.
    for summary in &summaries {
        let json = serde_json::to_string(summary).expect("a summary serialises");
        pass.digests.insert(
            format!("{}_summary", summary.label),
            digest::of_bytes(json.as_bytes()),
        );
        let served = summary.latency.map_or(0, |s| s.count);
        pass.check(
            served > 0,
            &format!("{name} {} arm served requests", summary.label),
        );
    }
    if let Some(control) = summaries.iter().find(|s| s.label == "control") {
        pass.check(
            control.repairs_started == 0,
            &format!("{name} control arm never repairs"),
        );
    }
    if tracer.is_none() {
        pass.repeat_setup(|| {
            let (grid, _schedule, config) = fleet_inputs(testbed, seed);
            let framework = AdaptationFramework::new(grid, config);
            let done = Instant::now();
            drop(black_box(framework));
            done
        });
    }
    pass
}

/// Stand-alone probes of the public constructors `AdaptationFramework::new`
/// calls, and of one Remos pair query, as `(per-layer metric, value)`. They
/// run in a process of their own: a second construction in one process is a
/// fifth slower than the first, so only a fresh process compares with the
/// control arm's `new`.
pub fn probe_constructors(
    testbed: TestbedSpec,
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (grid, _schedule, config) = fleet_inputs(testbed, seed);
    let mut values = Vec::new();
    let started = Instant::now();
    let testbed = Testbed::from_spec(&grid.testbed).map_err(|e| e.to_string())?;
    values.push(("gridapp.testbed_from_spec_s", secs_since(started)));
    drop(black_box(testbed));

    let started = Instant::now();
    let app = GridApp::build(grid).map_err(|e| e.to_string())?;
    values.push(("gridapp.build_s", secs_since(started)));

    let profile = PerformanceProfile {
        max_latency_secs: grid.max_latency_secs,
        max_server_load: grid.max_server_load,
        min_bandwidth_bps: grid.min_bandwidth_bps,
    };
    let started = Instant::now();
    let model = build_model(&app, &profile).map_err(|e| e.to_string())?;
    values.push(("core.build_model_s", secs_since(started)));
    drop(black_box(model));

    let started = Instant::now();
    let index = planner::ClassIndex::build(app.testbed());
    let class_index_s = secs_since(started);
    values.push(("planner.class_index_build_s", class_index_s));
    drop(black_box(index));
    // `new` builds one index for the group planner and, at fleet scale, a
    // second one for monitoring.
    let index_builds = u32::from(config.group_planner)
        + u32::from(app.testbed().num_clients() >= gridapp::FLEET_SCALE_MIN_CLIENTS);
    values.push((
        PROBED_NEW_S,
        values[1].1 + values[2].1 + class_index_s * f64::from(index_builds),
    ));

    // One Remos pair query at t = 0, averaged over up to 1,000 distinct
    // (server, client) pairs; distinct pairs miss the per-epoch memo.
    let servers = app.server_names();
    let clients = app.client_names();
    let pairs = (servers.len() * clients.len()).min(1_000);
    let started = Instant::now();
    for i in 0..pairs {
        let server = &servers[i % servers.len()];
        // A stride coprime with the fleet sizes: no pair repeats.
        let client = &clients[(i * 7919) % clients.len()];
        black_box(
            app.available_bandwidth_between(server, client)
                .map_err(|e| e.to_string())?,
        );
    }
    values.push((
        "simnet.probe_solve_us",
        secs_since(started) * 1e6 / pairs as f64,
    ));
    Ok(values)
}
