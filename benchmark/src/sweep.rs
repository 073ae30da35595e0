//! The sweep workloads. `sweep_write` runs the paper-scale matrix with every
//! observer on and persists every run's events; `store_query` writes the same
//! store as its set-up and measures the read side.
//!
//! The tracing-off pass calls `run_sweep_traced(.., workers = 1, dir)`. The
//! traced pass drives every unit's two arms by hand instead (the same
//! `drive_arm` as the fleets, with the program's registry attached) and
//! appends the events itself; the store digest proves both paths wrote the
//! same bytes.

use crate::arm::{self, control_of, drive_arm, ArmInputs};
use crate::digest;
use crate::pace;
use crate::pass::{guarded, secs_since, Pass, ScratchDir};
use crate::queries::{data_rows, run_query, QUERIES};
use crate::span::Role;
use crate::tracer::Tracer;
use crate::workload::sweep_spec;
use arch_adapt::{run_sweep_traced, AdaptationFramework, FrameworkConfig, SweepSpec, SweepUnit};
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tracestore::{TraceEvent, TraceStore};

/// Span of one unit re-driven with `NullSink`, `null_metrics`, no detectors.
const SPAN_UNIT_OBSERVERS_OFF: &str = "obs.unit_observers_off";

/// The inputs of one sweep unit, resolved as `SweepUnit::run_unit` does.
struct UnitInputs {
    grid: GridConfig,
    schedule: ExperimentSchedule,
    adaptive: FrameworkConfig,
    faults: faultsim::FaultSchedule,
}

fn unit_inputs(unit: &SweepUnit, observed: bool) -> Result<UnitInputs, String> {
    let key = &unit.key;
    let testbed = TestbedSpec::by_name(&key.topology).ok_or("unknown topology")?;
    let grid = GridConfig {
        seed: unit.seed,
        ..GridConfig::with_testbed(testbed)
    };
    let schedule = ExperimentSchedule::by_name(&key.workload, &grid, key.duration_secs)
        .ok_or("unknown workload")?;
    let mut adaptive = FrameworkConfig::by_name(&key.strategy).ok_or("unknown strategy")?;
    if observed {
        adaptive.detectors = Some(detect::DetectorConfig::default());
    }
    let faults = faultsim::fault_profile_by_name(&key.fault, key.duration_secs)
        .ok_or("unknown fault profile")?;
    Ok(UnitInputs {
        grid,
        schedule,
        adaptive,
        faults,
    })
}

/// Drives both arms of one unit. `tracer` carries the observers-on pass; with
/// `None` the arms run with every observer off.
fn drive_unit(
    unit: &SweepUnit,
    mut tracer: Option<(&mut Tracer, usize)>,
) -> Result<[Vec<TraceEvent>; 2], String> {
    let mut events = [Vec::new(), Vec::new()];
    for (slot, label) in ["control", "adaptive"].into_iter().enumerate() {
        let started = Instant::now();
        let inputs = unit_inputs(unit, tracer.is_some())?;
        let generated = Instant::now();
        let config = if label == "control" {
            control_of(inputs.adaptive)
        } else {
            inputs.adaptive
        };
        let (buffer, sink) = tracestore::shared_buffer();
        let (observers, registry) = Tracer::observers(tracer.is_some(), sink);
        let arm = drive_arm(
            &ArmInputs {
                label,
                grid: inputs.grid,
                config,
                schedule: Some(&inputs.schedule),
                faults: Some(&inputs.faults),
                duration_secs: unit.key.duration_secs,
            },
            observers,
        )
        .map_err(|e| e.to_string())?;
        if let (Some((t, unit_span)), Some(registry)) = (tracer.as_mut(), &registry) {
            t.absorb_arm(Some(*unit_span), (started, generated), &arm, registry);
        }
        events[slot] = buffer.take();
    }
    Ok(events)
}

/// The traced pass's replacement for `run_sweep_traced`: every unit by hand,
/// then the append loop. With `observers_off_too`, each unit
/// is driven a second time with every observer off, as a probe right after
/// the observed drive: paired like this, `obs.on_off_ratio` does not move
/// with the host's speed drifting over the pass.
fn write_store_by_hand(
    spec: &SweepSpec,
    store_dir: &Path,
    tracer: &mut Tracer,
    observers_off_too: bool,
) -> Result<(), String> {
    let units = spec.expand();
    let mut streams = Vec::with_capacity(units.len());
    for unit in &units {
        let unit_span = tracer.open("core.sweep_unit", Role::Glue);
        streams.push(drive_unit(unit, Some((tracer, unit_span)))?);
        tracer.unit_done(unit_span);
        if observers_off_too {
            let off = tracer.open(SPAN_UNIT_OBSERVERS_OFF, Role::Probe);
            drive_unit(unit, None)?;
            tracer.spans.close(off);
        }
    }
    if observers_off_too {
        let on = tracer.spans.total_secs("core.sweep_unit")
            - tracer.spans.total_secs(arm::STEP_FULL_CHECK);
        let off = tracer.spans.total_secs(SPAN_UNIT_OBSERVERS_OFF);
        tracer.values.insert("obs.on_off_ratio", on / off);
    }
    let append = tracer.open("tracestore.append", Role::Layer);
    let mut store = TraceStore::open(store_dir).map_err(|e| e.to_string())?;
    let mut events = 0u64;
    for (unit, [control, adaptive]) in units.iter().zip(&streams) {
        for (label, stream) in [("control", control), ("adaptive", adaptive)] {
            store
                .append_run(&unit.run_id(label), stream)
                .map_err(|e| e.to_string())?;
            events += stream.len() as u64;
        }
    }
    tracer.spans.close(append);
    tracer.values.insert("tracestore.events", events as f64);
    Ok(())
}

/// Digest, size and sanity of a written store; outside the measured wall.
fn check_store(pass: &mut Pass, name: &str, spec: &SweepSpec, store_dir: &Path) -> u64 {
    match digest::of_dir(store_dir) {
        Ok((digest, bytes)) => {
            pass.digests.insert("store".to_string(), digest);
            match TraceStore::open(store_dir) {
                Ok(store) => {
                    pass.check(
                        store.runs().len() == 2 * spec.total_units(),
                        &format!("{name} store holds two runs per unit"),
                    );
                    pass.check(
                        store.total_events() > 0,
                        &format!("{name} store holds events"),
                    );
                }
                Err(error) => pass.fail(format!("{name} store does not reopen: {error}")),
            }
            bytes
        }
        Err(error) => {
            pass.fail(format!("{name} store is unreadable: {error}"));
            0
        }
    }
}

fn prepare(out_dir: &Path, name: &str, seed: u64) -> Result<(SweepSpec, ScratchDir), String> {
    let spec = sweep_spec(seed);
    let scratch = ScratchDir::create(out_dir, name).map_err(|e| e.to_string())?;
    Ok((spec, scratch))
}

/// Everything a sweep does before its first tick, done once stand-alone so it
/// can be timed: every unit's inputs resolved, both arms' frameworks built and
/// the fault schedule compiled. `run_sweep_traced` builds its own again inside
/// `run_s`; without this the sweep's set-up would be a few microseconds of
/// directory creation, too short to measure.
fn construct_units(spec: &SweepSpec) -> Result<(), String> {
    for unit in spec.expand() {
        let inputs = unit_inputs(&unit, true)?;
        for config in [control_of(inputs.adaptive), inputs.adaptive] {
            let framework =
                AdaptationFramework::new(inputs.grid, config).map_err(|e| e.to_string())?;
            if !inputs.faults.is_empty() {
                let compiled = inputs
                    .faults
                    .compile(framework.app().testbed(), inputs.grid.seed)
                    .map_err(|e| e.to_string())?;
                black_box(compiled);
            }
            drop(black_box(framework));
        }
    }
    Ok(())
}

/// One timed set-up of `sweep_write`'s tracing-off pass.
fn set_up(out_dir: &Path, name: &str, seed: u64) -> Result<(SweepSpec, ScratchDir), String> {
    let (spec, scratch) = prepare(out_dir, name, seed)?;
    guarded(|| construct_units(&spec))?;
    Ok((spec, scratch))
}

pub fn run_sweep_write(seed: u64, out_dir: &Path, mut tracer: Option<&mut Tracer>) -> Pass {
    let name = "sweep_write";
    let mut pass = Pass::new(1);
    let wall = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin();
    }
    let ready = match tracer {
        Some(_) => prepare(out_dir, name, seed),
        None => set_up(out_dir, name, seed),
    };
    let (spec, scratch) = match ready {
        Ok(ready) => ready,
        Err(error) => {
            pass.fail_all(format!("{name} set-up: {error}"));
            return pass;
        }
    };
    pass.setup_samples.push(pace::paced_since(wall));
    pass.attempted = spec.total_units() as u64;

    let running = Instant::now();
    let mut report_json = None;
    match tracer.as_deref_mut() {
        None => match guarded(|| run_sweep_traced(&spec, 1, scratch.path())) {
            Ok(report) => {
                pass.run = pace::paced_since(running);
                let serialising = Instant::now();
                let json = report.to_json_string();
                pass.report_json_s = secs_since(serialising);
                pass.report_json_bytes = json.len() as u64;
                if let Err(error) =
                    std::fs::write(out_dir.join(format!("{name}.report.json")), &json)
                {
                    pass.fail(format!("writing the {name} report: {error}"));
                }
                report_json = Some(json);
                drop(report);
            }
            Err(error) => {
                pass.fail_all(format!("{name}: {error}"));
            }
        },
        Some(t) => {
            let written = guarded(|| write_store_by_hand(&spec, scratch.path(), t, true));
            pass.run = pace::paced_since(running);
            t.end();
            if let Err(error) = written {
                pass.fail_all(format!("{name} (hand-driven): {error}"));
            }
        }
    }
    pass.wall = pace::paced_since(wall);

    if let Some(json) = report_json {
        pass.digests
            .insert("report".to_string(), digest::of_bytes(json.as_bytes()));
    }
    let bytes = check_store(&mut pass, name, &spec, scratch.path());
    match tracer {
        Some(t) => {
            t.values.insert("tracestore.bytes", bytes as f64);
        }
        None => pass.repeat_setup(|| {
            let again = set_up(out_dir, "setup-repeat", seed);
            let done = Instant::now();
            drop(again);
            done
        }),
    }
    pass
}

pub fn run_store_query(seed: u64, out_dir: &Path, mut tracer: Option<&mut Tracer>) -> Pass {
    let name = "store_query";
    let mut pass = Pass::new(1);
    pass.attempted = 1 + QUERIES.len() as u64;
    let wall = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin();
    }

    // Set-up: write the store the queries read.
    let written = prepare(out_dir, name, seed).and_then(|(spec, scratch)| {
        match tracer.as_deref_mut() {
            None => guarded(|| run_sweep_traced(&spec, 1, scratch.path())).map(drop)?,
            Some(t) => guarded(|| write_store_by_hand(&spec, scratch.path(), t, false))?,
        }
        Ok((spec, scratch))
    });
    let (spec, scratch) = match written {
        Ok(ready) => ready,
        Err(error) => {
            pass.fail_all(format!("{name} set-up: {error}"));
            return pass;
        }
    };
    pass.setup_samples.push(pace::paced_since(wall));

    // Run: open the store, then the six canned queries.
    let running = Instant::now();
    let mut rendered: Vec<String> = Vec::with_capacity(QUERIES.len());
    let opening = Instant::now();
    match guarded(|| TraceStore::open(scratch.path())) {
        Ok(store) => {
            if let Some(t) = tracer.as_deref_mut() {
                t.layer_span("tracestore.open", opening, Instant::now());
            }
            for (index, (query, _, _)) in QUERIES.iter().enumerate() {
                let querying = Instant::now();
                match guarded(|| run_query(index, &store)) {
                    Ok(text) => rendered.push(text),
                    Err(error) => {
                        pass.fail(format!("{name} {query}: {error}"));
                        rendered.push(String::new());
                    }
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.layer_span(query, querying, Instant::now());
                }
            }
        }
        Err(error) => {
            pass.fail_all(format!("{name} open: {error}"));
        }
    }
    pass.run = pace::paced_since(running);

    let serialising = Instant::now();
    let report: String = QUERIES
        .iter()
        .zip(&rendered)
        .map(|((_, _, what), text)| format!("== query {what}\n{text}"))
        .collect();
    pass.report_json_s = secs_since(serialising);
    pass.report_json_bytes = report.len() as u64;
    if let Err(error) = std::fs::write(out_dir.join(format!("{name}.report.txt")), &report) {
        pass.fail(format!("writing the {name} report: {error}"));
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.end();
    }
    pass.wall = pace::paced_since(wall);

    for ((query, _, _), text) in QUERIES.iter().zip(&rendered) {
        pass.digests
            .insert(query.to_string(), digest::of_bytes(text.as_bytes()));
        pass.check(data_rows(text) > 0, &format!("{name} {query} returns rows"));
    }
    let bytes = check_store(&mut pass, name, &spec, scratch.path());
    if let Some(t) = tracer {
        t.values.insert("tracestore.bytes", bytes as f64);
        t.values.insert(
            "tracestore.rows_returned",
            rendered.iter().map(|text| data_rows(text)).sum::<u64>() as f64,
        );
        let open_s = t.spans.total_secs("tracestore.open");
        t.values.insert("tracestore.open_s", open_s);
        for (query, metric, _) in QUERIES {
            let query_ms = t.spans.total_secs(query) * 1e3;
            t.values.insert(metric, query_ms);
        }
    }
    pass
}
