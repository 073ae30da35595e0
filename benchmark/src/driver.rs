//! The parent side: spawns one child process per pass, sequentially (a closed
//! loop from one driver thread), and reduces the children's results.

use crate::child::{PassKind, GOLDEN_SEED};
use crate::jsonio::{read_json, write_json};
use crate::metrics::{Kind, END_TO_END, FAIL_SHARE, PER_LAYER};
use crate::stats;
use crate::workload::Workload;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

fn result_path(bench_dir: &Path, workload: Workload, kind: PassKind) -> PathBuf {
    bench_dir
        .join("out")
        .join(format!("{}_{}.json", kind.name(), workload.name()))
}

/// Runs one pass in a child process and returns its parsed result. The child
/// is waited for, so no process outlives the call.
fn spawn_child(
    bench_dir: &Path,
    workload: Workload,
    seed: u64,
    kind: PassKind,
) -> Result<Value, String> {
    let result = result_path(bench_dir, workload, kind);
    // A stale result must not be mistaken for this child's.
    if result.exists() {
        std::fs::remove_file(&result).map_err(|e| format!("{}: {e}", result.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--pass", kind.name()])
        .arg("--bench-dir")
        .arg(bench_dir)
        .arg("--result")
        .arg(&result)
        // The parent's last stdout line is the result; children log to stderr.
        .stdout(Stdio::null());
    if kind == PassKind::Traced {
        command
            .arg("--e2e")
            .arg(result_path(bench_dir, workload, PassKind::E2e));
        if workload.fleet_testbed().is_some() {
            // The constructor probes want a fresh process of their own.
            spawn_child(bench_dir, workload, seed, PassKind::Probes)?;
            command
                .arg("--probes")
                .arg(result_path(bench_dir, workload, PassKind::Probes));
        }
    }
    let status = command
        .status()
        .map_err(|e| format!("spawning the {} child: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!(
            "the {} child exited with {status}",
            workload.name()
        ));
    }
    read_json(&result)
}

/// Repeats the pass until `seconds` have been measured; always at least once.
fn measure(
    bench_dir: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    kind: PassKind,
) -> Result<Vec<Value>, String> {
    let started = Instant::now();
    let mut results = Vec::new();
    loop {
        results.push(spawn_child(bench_dir, workload, seed, kind)?);
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(results);
        }
    }
}

/// The traced pass states its overhead against a tracing-off pass of the same
/// checkout: the latest one on disk, or a fresh one when there is none.
fn ensure_e2e(bench_dir: &Path, workload: Workload, seed: u64) -> Result<(), String> {
    if read_json(&result_path(bench_dir, workload, PassKind::E2e)).is_err() {
        spawn_child(bench_dir, workload, seed, PassKind::E2e)?;
    }
    Ok(())
}

/// What the passes over one workload reduce to.
pub struct Reduced {
    /// `(name, unit, value)`, in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    pub digests: Value,
    pub notes: Vec<String>,
}

impl Reduced {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> Value {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|(name, unit, value)| {
                    (name.to_string(), json!({ "value": *value, "unit": *unit }))
                })
                .collect(),
        );
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

fn reduce(results: &[Value], traced: bool) -> Result<Reduced, String> {
    let first = results.first().ok_or("no pass was run")?;
    let count = |key: &str| -> u64 {
        results
            .iter()
            .map(|r| r[key].as_f64().unwrap_or(0.0) as u64)
            .sum()
    };
    let mut reduced = Reduced {
        metrics: Vec::new(),
        attempted: count("attempted"),
        failed: count("failed"),
        noisy: results.iter().any(|r| r["noisy"] == Value::Bool(true)),
        digests: first["digests"].clone(),
        notes: first["notes"]
            .as_array()
            .map(|notes| {
                notes
                    .iter()
                    .filter_map(|n| n.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default(),
    };
    // The same seed must give the same outputs in every pass.
    if results.iter().any(|r| r["digests"] != first["digests"]) {
        eprintln!("gridbench: FAILED: passes with one seed produced different digests");
        reduced.failed += 1;
    }
    let metrics: Vec<(&str, &str, Kind)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit, m.kind)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, Kind::Measured))
            .collect()
    };
    for (name, unit, kind) in metrics {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| if traced { &r["layers"][name] } else { &r[name] }.as_f64())
            .collect();
        if values.len() != results.len() {
            return Err(format!("a pass did not report {name}"));
        }
        if kind == Kind::Counter && values.iter().any(|v| *v != values[0]) {
            eprintln!("gridbench: FAILED: counter {name} differs between passes: {values:?}");
            reduced.failed += 1;
        }
        let value = stats::median(&values).expect("at least one pass");
        reduced.metrics.push((name, unit, value));
    }
    reduced.failed = reduced.failed.min(reduced.attempted);
    Ok(reduced)
}

/// One workload, one kind of pass, measured for `seconds`.
pub fn run_workload(
    bench_dir: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Reduced, String> {
    let kind = if traced {
        ensure_e2e(bench_dir, workload, seed)?;
        PassKind::Traced
    } else {
        PassKind::E2e
    };
    reduce(&measure(bench_dir, workload, seed, seconds, kind)?, traced)
}

fn print_rows(workload: Workload, reduced: &Reduced, traced: bool) {
    for (name, unit, value) in &reduced.metrics {
        println!(
            "{:<16} {:<34} {:>16.6} {}",
            workload.name(),
            name,
            value,
            unit
        );
    }
    if !traced {
        let share = reduced.failed as f64 / reduced.attempted.max(1) as f64;
        println!(
            "{:<16} {:<34} {:>16.6} failed/attempted ({}/{}){}",
            workload.name(),
            FAIL_SHARE,
            share,
            reduced.failed,
            reduced.attempted,
            if reduced.noisy { "  NOISY" } else { "" }
        );
    }
    for note in &reduced.notes {
        println!("{:<16} note: {note}", workload.name());
    }
}

/// `gridbench run` / `gridbench trace`: every selected workload, one child per
/// pass, every metric printed by name with its unit. `trace` runs the
/// tracing-off pass first, then the traced one. Returns whether all was correct.
pub fn run_all(
    bench_dir: &Path,
    workloads: &[Workload],
    seed: u64,
    with_trace: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    println!("{:<16} {:<34} {:>16} unit", "workload", "metric", "value");
    let mut entries = Vec::new();
    let mut correct = true;
    for &workload in workloads {
        let e2e = reduce(
            &[spawn_child(bench_dir, workload, seed, PassKind::E2e)?],
            false,
        )?;
        print_rows(workload, &e2e, false);
        correct &= e2e.correct();
        let mut entry = vec![
            ("end_to_end".to_string(), e2e.to_json()),
            ("noisy".to_string(), json!(e2e.noisy)),
            ("digests".to_string(), e2e.digests.clone()),
        ];
        if with_trace {
            let traced = reduce(
                &[spawn_child(bench_dir, workload, seed, PassKind::Traced)?],
                true,
            )?;
            print_rows(workload, &traced, true);
            correct &= traced.correct();
            entry.push(("per_layer".to_string(), traced.to_json()));
            entry.push(("traced_noisy".to_string(), json!(traced.noisy)));
        }
        entries.push((workload.name().to_string(), Value::Object(entry)));
    }
    if let Some(out) = out {
        let file = json!({
            "seed": seed,
            "workloads": Value::Object(entries),
        });
        write_json(out, &file)?;
    }
    Ok(correct)
}

/// `gridbench golden`: re-records `golden/seed42.json` from a tracing-off pass
/// over every workload. For use after an intended change of the outputs; the
/// passes themselves report mismatches against the old file, which is moot.
pub fn record_golden(bench_dir: &Path) -> Result<bool, String> {
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let result = spawn_child(bench_dir, workload, GOLDEN_SEED, PassKind::E2e)?;
        entries.push((workload.name().to_string(), result["digests"].clone()));
    }
    let path = bench_dir
        .join("golden")
        .join(format!("seed{GOLDEN_SEED}.json"));
    write_json(&path, &Value::Object(entries))?;
    println!("recorded {}", path.display());
    Ok(true)
}
