//! The benchmark's names: workloads, end-to-end metrics with their regression
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository root is
//! `gridbench describe`; a self-test keeps the two in step.

use crate::workload::Workload;
use serde_json::{json, Value};

/// Whether a value must repeat exactly between runs of one commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock or memory: varies run to run.
    Measured,
    /// A count of deterministic work: compared exactly.
    Counter,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
    /// Absolute slack added to the relative bound (`setup_s` on workloads
    /// whose set-up takes milliseconds).
    pub slack: f64,
}

/// Every end-to-end metric is better when lower. The issue planned 10 % for
/// the two times; on the shared two-core box one commit's walls spread
/// 8-15 % between the quartiles of ten runs, so they carry the widest bound
/// the contract allows (see the README's "Bounds").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        slack: 0.1,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
        slack: 0.0,
    },
];

/// `fail_share` is the fifth end-to-end metric: failed / attempted, bound 0
/// absolute. `BENCHMARK.json` may only list metrics that are never 0, so there
/// it is carried by the result line's `failed` and `attempted` instead.
pub const FAIL_SHARE: &str = "fail_share";

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: &'static str,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        kind: Kind::Measured,
        better: "lower",
    }
}

/// A count of work done: less of it for the same outputs is better.
const fn counter(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        kind: Kind::Counter,
        better: "lower",
    }
}

/// A count of work avoided or achieved: more is better.
const fn gain(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        kind: Kind::Counter,
        better: "higher",
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Construction, probed stand-alone through the public constructors.
    timing("gridapp.testbed_from_spec_s", "s"),
    timing("gridapp.build_s", "s"),
    timing("core.build_model_s", "s"),
    timing("planner.class_index_build_s", "s"),
    timing("core.framework_new_s", "s"),
    timing("core.new_remainder_s", "s"),
    // phase.advance beside the work it buys.
    timing("gridapp.advance_s", "s"),
    counter("gridapp.advance_calls"),
    counter("simnet.rate_epochs"),
    timing("simnet.us_per_rate_epoch", "us"),
    counter("simnet.probe_solves"),
    counter("simnet.paths_trees_built"),
    counter("simnet.agg_rows"),
    counter("simnet.agg_permanent_splits"),
    counter("gridapp.due_inserts"),
    timing("simnet.probe_solve_us", "us"),
    // phase.gauge_dispatch.
    timing("monitoring.gauge_dispatch_s", "s"),
    counter("monitoring.gauge_readings"),
    gain("monitoring.gauge_noop_suppressed"),
    // phase.constraint_check and the full sweep it avoids.
    timing("archmodel.constraint_check_s", "s"),
    counter("archmodel.constraint_checks"),
    gain("archmodel.pairs_skipped"),
    timing("archmodel.full_check_ms", "ms"),
    counter("archmodel.full_check_pairs"),
    // phase.plan.
    timing("repair.plan_s", "s"),
    counter("repair.plan_calls"),
    timing("repair.plan_max_ms", "ms"),
    counter("repair.plan_ops"),
    counter("planner.plans"),
    counter("planner.client_classes"),
    gain("repair.repairs_completed"),
    counter("repair.client_moves"),
    // phase.translate / execute / commit_replay.
    timing("translator.translate_s", "s"),
    timing("core.execute_s", "s"),
    timing("core.commit_replay_s", "s"),
    // phase.tick.
    timing("core.tick_mean_ms", "ms"),
    timing("core.tick_p95_ms", "ms"),
    timing("core.tick_max_ms", "ms"),
    counter("core.ticks"),
    // Teardown.
    timing("core.summarise_s", "s"),
    timing("core.framework_drop_s", "s"),
    timing("core.report_json_s", "s"),
    counter("core.report_json_bytes"),
    // Sweep units.
    timing("core.sweep_unit_p50_ms", "ms"),
    timing("core.sweep_unit_tail_ms", "ms"),
    counter("core.sweep_units"),
    timing("faultsim.compile_ms", "ms"),
    counter("faultsim.actions"),
    // Trace store, write side then read side.
    timing("tracestore.append_s", "s"),
    counter("tracestore.events"),
    counter("tracestore.bytes"),
    PerLayer {
        name: "tracestore.append_mev_per_s",
        unit: "Mev/s",
        kind: Kind::Measured,
        better: "higher",
    },
    timing("tracestore.open_s", "s"),
    timing("tracestore.q_leadtime_ms", "ms"),
    timing("tracestore.q_agg_p95_ms", "ms"),
    timing("tracestore.q_near_fault_ms", "ms"),
    timing("tracestore.q_predicate_ms", "ms"),
    timing("tracestore.q_mttr_ms", "ms"),
    timing("tracestore.q_diff_ms", "ms"),
    counter("tracestore.rows_returned"),
    // phase.detect.
    timing("detect.phase_s", "s"),
    counter("detect.advisories"),
    counter("detect.series_points"),
    // Observer and harness overheads, the remainder, and the host.
    timing("obs.on_off_ratio", "ratio"),
    timing("obs.trace_overhead_ratio", "ratio"),
    timing("core.unattributed_s", "s"),
    timing("core.unattributed_share", "share"),
    timing("host.calib_ms", "ms"),
    timing("host.calib_drift", "share"),
    timing("host.raw_wall_s", "s"),
];

/// Seconds one contract run measures at least: passes repeat until this much
/// time has been measured. Every workload's single pass is longer, and the
/// driver's total-time cap (92 runs and two builds in 57 minutes) leaves no
/// room to repeat them.
pub const RUN_SECONDS: u64 = 8;

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| json!({ "name": w.name(), "why": w.why() }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better }))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repository_root_is_gridbench_describe() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json exists");
        let on_disk = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        // Compare through the printer: the parser reads `15` back as a signed
        // integer where `json!` holds an unsigned one.
        assert_eq!(
            serde_json::to_string_pretty(&on_disk).unwrap(),
            serde_json::to_string_pretty(&benchmark_json()).unwrap()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }
}
