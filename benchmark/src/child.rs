//! One pass over one workload in a process of its own, so that `wall_s` and
//! the peak resident set belong to that workload alone. The parent spawns
//! `gridbench child ...` and reads the result file this module writes.

use crate::fleet;
use crate::jsonio::{read_json, write_json};
use crate::metrics::PER_LAYER;
use crate::pace;
use crate::pass::Pass;
use crate::sweep;
use crate::tracer::Tracer;
use crate::workload::Workload;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The only seed whose digests are checked in.
pub const GOLDEN_SEED: u64 = 42;

/// What a child process does with its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Tracing off: the end-to-end metrics.
    E2e,
    /// Registry attached and spans recorded: the per-layer metrics.
    Traced,
    /// Only the stand-alone constructor probes of a fleet workload.
    Probes,
}

impl PassKind {
    pub fn name(self) -> &'static str {
        match self {
            PassKind::E2e => "e2e",
            PassKind::Traced => "traced",
            PassKind::Probes => "probes",
        }
    }

    pub fn by_name(name: &str) -> Option<PassKind> {
        [PassKind::E2e, PassKind::Traced, PassKind::Probes]
            .into_iter()
            .find(|kind| kind.name() == name)
    }
}

pub struct ChildArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub kind: PassKind,
    /// Result file of a tracing-off pass of the same workload (traced only).
    pub e2e: Option<&'a Path>,
    /// Result file of a probes pass of the same workload (traced fleets only).
    pub probes: Option<&'a Path>,
    pub bench_dir: &'a Path,
    pub result: &'a Path,
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Golden digests of `workload`, from `golden/seed42.json`.
fn golden_digests(bench_dir: &Path, workload: Workload) -> Result<Vec<(String, String)>, String> {
    let path = bench_dir
        .join("golden")
        .join(format!("seed{GOLDEN_SEED}.json"));
    match &read_json(&path)?[workload.name()] {
        Value::Object(entries) => Ok(entries
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect()),
        _ => Err(format!(
            "{} has no entry for {}",
            path.display(),
            workload.name()
        )),
    }
}

/// Compares the pass's digests with the golden ones. The hand-driven traced
/// pass of `sweep_write` builds no report, so a traced pass may lack a golden
/// artifact; an artifact it does produce must match.
fn check_golden(pass: &mut Pass, args: &ChildArgs<'_>) {
    let golden = match golden_digests(args.bench_dir, args.workload) {
        Ok(golden) => golden,
        Err(error) => return pass.fail(format!("golden digests: {error}")),
    };
    for (artifact, expected) in golden {
        match pass.digests.get(&artifact) {
            Some(actual) if *actual == expected => {}
            Some(actual) => pass.fail(format!(
                "{} {artifact}: digest {actual} differs from golden {expected}",
                args.workload.name()
            )),
            None if args.kind == PassKind::Traced => {}
            None => pass.fail(format!(
                "{} {artifact}: no digest produced",
                args.workload.name()
            )),
        }
    }
}

/// The probes pass: nothing but the stand-alone constructor probes.
fn run_probes(args: &ChildArgs<'_>) -> Result<(), String> {
    let testbed = args
        .workload
        .fleet_testbed()
        .ok_or("only the fleet workloads have constructor probes")?;
    let values: BTreeMap<&str, f64> = fleet::probe_constructors(testbed, args.seed)?
        .into_iter()
        .collect();
    write_json(args.result, &json!({ "values": values }))
}

pub fn run(args: &ChildArgs<'_>) -> Result<(), String> {
    let out_dir = args.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if args.kind == PassKind::Probes {
        return run_probes(args);
    }
    let traced = args.kind == PassKind::Traced;
    let name = args.workload.name();
    pace::start();
    let mut tracer = traced.then(Tracer::default);
    let mut pass = match args.workload.fleet_testbed() {
        Some(testbed) => fleet::run(name, testbed, args.seed, &out_dir, tracer.as_mut()),
        None if args.workload == Workload::SweepWrite => {
            sweep::run_sweep_write(args.seed, &out_dir, tracer.as_mut())
        }
        None => sweep::run_store_query(args.seed, &out_dir, tracer.as_mut()),
    };
    let peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    if let (Some(tracer), Some(path)) = (tracer.as_mut(), args.probes) {
        let probes = read_json(path)?;
        for metric in PER_LAYER {
            if let Some(value) = probes["values"][metric.name].as_f64() {
                tracer.values.insert(metric.name, value);
            }
        }
        tracer.probed_new_s = probes["values"][fleet::PROBED_NEW_S].as_f64();
    }
    let host = pace::stop();
    eprintln!(
        "gridbench: {name}: wall {:.3} s by the clock, {:.3} reference s \
         ({} speed samples, median {:.2} ms, quartiles {:.1}% apart)",
        pass.wall.raw_s,
        pass.wall.ref_s,
        host.samples,
        host.calib_ms,
        host.calib_drift * 100.0
    );
    if host.noisy() {
        eprintln!("gridbench: NOISY: the host's speed moved during {name}");
    }
    if args.seed == GOLDEN_SEED {
        check_golden(&mut pass, args);
    } else {
        eprintln!(
            "gridbench: seed {} has no golden digests; printing only",
            args.seed
        );
    }
    for (artifact, digest) in &pass.digests {
        eprintln!("gridbench: digest {name} {artifact} {digest}");
    }

    let mut result = vec![
        ("workload".to_string(), json!(name)),
        ("seed".to_string(), json!(args.seed)),
        ("pass".to_string(), json!(args.kind.name())),
        // The end-to-end times are reference seconds (see `pace.rs`); the
        // clock's own readings stand beside them.
        ("wall_s".to_string(), json!(pass.wall.ref_s)),
        ("setup_s".to_string(), json!(pass.setup().ref_s)),
        ("run_s".to_string(), json!(pass.run.ref_s)),
        ("raw_wall_s".to_string(), json!(pass.wall.raw_s)),
        ("raw_setup_s".to_string(), json!(pass.setup().raw_s)),
        ("raw_run_s".to_string(), json!(pass.run.raw_s)),
        ("setup_samples".to_string(), json!(pass.setup_samples.len())),
        ("peak_rss_mb".to_string(), json!(peak_rss_mb)),
        ("report_json_s".to_string(), json!(pass.report_json_s)),
        (
            "report_json_bytes".to_string(),
            json!(pass.report_json_bytes),
        ),
        ("calib_ms".to_string(), json!(host.calib_ms)),
        ("calib_drift".to_string(), json!(host.calib_drift)),
        ("noisy".to_string(), json!(host.noisy())),
        ("digests".to_string(), json!(pass.digests)),
    ];

    if let Some(mut tracer) = tracer {
        let e2e = read_json(args.e2e.ok_or("a traced pass needs --e2e")?)?;
        // Both read 0 on `sweep_write`: the hand-driven sweep builds no report.
        tracer
            .values
            .insert("core.report_json_s", pass.report_json_s);
        tracer
            .values
            .insert("core.report_json_bytes", pass.report_json_bytes as f64);
        tracer.values.insert("host.calib_ms", host.calib_ms);
        tracer.values.insert("host.calib_drift", host.calib_drift);
        tracer.values.insert("host.raw_wall_s", pass.wall.raw_s);
        // Both walls in reference seconds; of the traced one, the share the
        // tracing-off pass has too.
        let e2e_wall = e2e["wall_s"].as_f64().unwrap_or(0.0);
        if e2e_wall > 0.0 {
            let comparable = pass.wall.ref_s * tracer.comparable_share();
            tracer
                .values
                .insert("obs.trace_overhead_ratio", comparable / e2e_wall);
        }
        result.push(("layers".to_string(), json!(tracer.finish())));
        result.push(("notes".to_string(), json!(tracer.notes)));
        let spans_path = out_dir.join(format!("trace_{name}.json"));
        write_json(&spans_path, &tracer.spans.to_json())?;
    }
    // Failures are counted last: the steps above may still add some.
    result.push(("attempted".to_string(), json!(pass.attempted)));
    result.push(("failed".to_string(), json!(pass.failed)));
    result.push(("errors".to_string(), json!(pass.errors)));
    write_json(args.result, &Value::Object(result))
}
