//! Parallel scenario sweeps with aggregate statistics.
//!
//! The paper evaluates adaptation on a single fixed testbed topology under
//! one workload schedule. This module generalises that evaluation into a
//! declarative [`SweepSpec`]: a matrix of topology presets × workload
//! generators × repair strategies × run durations × seeds. The spec expands
//! into individual control-vs-adaptive [`Comparison`] runs
//! ([`SweepSpec::expand`]), executes them across `std::thread` workers
//! ([`run_sweep`]), and aggregates per-cell statistics (mean / p95 / min /
//! max across seeds, plus a confidence interval on the violation-improvement
//! ratio) into a serialisable [`SweepReport`].
//!
//! **Determinism:** every unit is fully determined by its cell key and seed
//! (each worker builds its own simulator), results are taken up in expansion
//! order whatever order they finish in, and aggregation folds in that order —
//! so the report is bit-identical regardless of worker count or completion
//! order. The report deliberately carries no wall-clock timing or worker
//! count, keeping its JSON byte-stable; CI diffs two runs as a determinism
//! gate.

use crate::experiment::{Comparison, Observers};
use crate::framework::FrameworkConfig;
use faultsim::{fault_profile_by_name, Resilience, NO_FAULTS};
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};
use serde::Serialize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Bucket width (seconds) used for the resilience availability accounting.
const RESILIENCE_BUCKET_SECS: f64 = faultsim::resilience::DEFAULT_BUCKET_SECS;

/// Whether a fault axis is the no-fault default (`["none"]`). Such sweeps
/// serialise without any fault-related fields, keeping their reports
/// byte-identical to pre-faultsim behaviour.
fn is_no_fault_axis(profiles: &[String]) -> bool {
    profiles.len() == 1 && profiles[0] == NO_FAULTS
}

/// Errors raised while validating or executing a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A topology name did not resolve to a [`TestbedSpec`] preset.
    UnknownTopology(String),
    /// A workload name did not resolve to an [`ExperimentSchedule`] generator.
    UnknownWorkload(String),
    /// A strategy name did not resolve to a [`FrameworkConfig`] preset.
    UnknownStrategy(String),
    /// A fault-profile name did not resolve (see [`faultsim::fault_profile_names`]).
    UnknownFault(String),
    /// One of the matrix axes is empty.
    EmptyAxis(&'static str),
    /// A run duration was not a positive finite number of seconds.
    InvalidDuration(f64),
    /// A unit failed to execute.
    Run {
        /// Expansion index of the failing unit.
        unit: usize,
        /// The underlying error.
        message: String,
    },
    /// The trace store could not be written.
    Store(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownTopology(n) => write!(f, "unknown topology preset: {n}"),
            SweepError::UnknownWorkload(n) => write!(f, "unknown workload generator: {n}"),
            SweepError::UnknownStrategy(n) => write!(f, "unknown repair strategy: {n}"),
            SweepError::UnknownFault(n) => write!(f, "unknown fault profile: {n}"),
            SweepError::EmptyAxis(axis) => write!(f, "sweep axis `{axis}` is empty"),
            SweepError::InvalidDuration(d) => write!(f, "invalid run duration: {d}"),
            SweepError::Run { unit, message } => write!(f, "sweep unit #{unit} failed: {message}"),
            SweepError::Store(message) => write!(f, "trace store error: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A declarative sweep matrix. Every combination of the six axes becomes
/// one cell; every cell runs once per seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Topology preset names (see [`gridapp::testbed_preset_names`]).
    pub topologies: Vec<String>,
    /// Workload generator names (see [`gridapp::workload_names`]).
    pub workloads: Vec<String>,
    /// Repair-strategy preset names (see
    /// [`crate::framework::strategy_names`]).
    pub strategies: Vec<String>,
    /// Run lengths in simulated seconds.
    pub durations_secs: Vec<f64>,
    /// Seeds; each cell is replicated once per seed.
    pub seeds: Vec<u64>,
    /// Fault-profile names (see [`faultsim::fault_profile_names`]). The default
    /// `["none"]` injects nothing and is not serialised, which keeps the
    /// report byte-identical to the pre-faultsim layout.
    #[serde(skip_serializing_if = "is_no_fault_axis")]
    pub fault_profiles: Vec<String>,
    /// When true every unit runs with a self-observability
    /// [`obs::MetricsRegistry`] attached and its deterministic counters are
    /// folded into each [`UnitOutcome`]. The default `false` runs with the
    /// disabled `NullRegistry` and, not being serialised, keeps reports
    /// byte-identical to the pre-metrics layout.
    #[serde(skip_serializing_if = "std::ops::Not::not")]
    pub collect_metrics: bool,
    /// When true every run (control and adaptive) carries the online
    /// anomaly-detector bank ([`detect::DetectorConfig::default`]) and each
    /// [`UnitOutcome`] records advisory counts and the median advisory →
    /// violation lead time. The default `false` leaves the detector layer
    /// entirely inert and, not being serialised, keeps reports
    /// byte-identical to the pre-detector layout.
    #[serde(skip_serializing_if = "std::ops::Not::not")]
    pub detectors: bool,
}

/// A fluent builder over [`SweepSpec`]: each axis setter *replaces* the
/// axis wholesale, and [`build`](SweepSpecBuilder::build) validates every
/// name against the live registries, so an invalid spec is caught at
/// construction with the registry's list of valid names rather than
/// mid-sweep.
#[derive(Debug, Clone)]
pub struct SweepSpecBuilder {
    spec: SweepSpec,
}

impl SweepSpecBuilder {
    /// Replaces the topology axis (see [`gridapp::testbed_preset_names`]).
    pub fn topologies<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.topologies = names.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the workload axis (see [`gridapp::workload_names`]).
    pub fn workloads<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.workloads = names.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the strategy axis (see [`crate::framework::strategy_names`]).
    pub fn strategies<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.strategies = names.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the duration axis (simulated seconds per run).
    pub fn durations_secs<I: IntoIterator<Item = f64>>(mut self, durations: I) -> Self {
        self.spec.durations_secs = durations.into_iter().collect();
        self
    }

    /// Replaces the seed axis.
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.spec.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the fault-profile axis (see
    /// [`faultsim::fault_profile_names`]).
    pub fn fault_profiles<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.fault_profiles = names.into_iter().map(Into::into).collect();
        self
    }

    /// Enables (or disables) per-unit metrics collection: when on, every run
    /// carries a [`obs::MetricsRegistry`] and its deterministic counters are
    /// attached to the unit outcomes.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.spec.collect_metrics = enabled;
        self
    }

    /// Enables (or disables) the online anomaly detectors: when on, every
    /// run feeds its gauge streams through a [`detect::DetectorBank`] and
    /// the outcomes (and any collected traces) carry the advisory stream.
    pub fn detectors(mut self, enabled: bool) -> Self {
        self.spec.detectors = enabled;
        self
    }

    /// Validates the assembled spec and returns it.
    pub fn build(self) -> Result<SweepSpec, SweepError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

impl SweepSpec {
    /// The default evaluation matrix: the three classic topology presets ×
    /// three workload generators × the paper's adaptive strategy × a 300 s
    /// run × four seeds, with the fault axis covering the no-fault baseline
    /// plus a link cut and a server crash now that the indexed allocator
    /// makes the extra cells affordable. The `large-scale` preset is swept
    /// separately by [`scale_matrix`](Self::scale_matrix) — one of its cells
    /// costs more than this whole matrix.
    pub fn default_matrix() -> Self {
        SweepSpec {
            topologies: vec![
                "paper".into(),
                "wide-fanout".into(),
                "congested-core".into(),
            ],
            workloads: vec!["figure7".into(), "step".into(), "flash-crowd".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![300.0],
            seeds: vec![42, 7, 19, 23],
            fault_profiles: vec![
                NO_FAULTS.into(),
                "single-link-cut".into(),
                "server-crash-midrun".into(),
            ],
            collect_metrics: false,
            detectors: false,
        }
    }

    /// The scale axis: one workload across every testbed scale from the
    /// paper's six clients up to the 2,000-client `large-scale` deployment,
    /// comparing the per-element `adaptive` strategy against the
    /// group-level `plannedRepair` planner — the cells where the planner's
    /// bulk tactics separate from per-client repair.
    pub fn scale_matrix() -> Self {
        SweepSpec {
            topologies: gridapp::testbed_preset_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            workloads: vec!["step".into()],
            strategies: vec!["adaptive".into(), "plannedRepair".into()],
            durations_secs: vec![300.0],
            seeds: vec![42, 7],
            fault_profiles: vec![NO_FAULTS.into()],
            collect_metrics: false,
            detectors: false,
        }
    }

    /// A tiny matrix for CI smoke runs and benches: two topologies × two
    /// workloads × one strategy × a 120 s run × two seeds (8 units).
    pub fn smoke() -> Self {
        SweepSpec {
            topologies: vec!["paper".into(), "congested-core".into()],
            workloads: vec!["figure7".into(), "step".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![120.0],
            seeds: vec![42, 7],
            fault_profiles: vec![NO_FAULTS.into()],
            collect_metrics: false,
            detectors: false,
        }
    }

    /// A builder seeded with this spec's axes — the way callers (and the
    /// `sweep` example's flag parsing) derive a custom matrix from a preset:
    ///
    /// ```
    /// use arch_adapt::SweepSpec;
    /// let spec = SweepSpec::smoke()
    ///     .to_builder()
    ///     .strategies(["adaptive", "plannedRepair"])
    ///     .seeds([42])
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec.strategies.len(), 2);
    /// ```
    pub fn to_builder(self) -> SweepSpecBuilder {
        SweepSpecBuilder { spec: self }
    }

    /// A builder starting from the default evaluation matrix
    /// ([`SweepSpec::default_matrix`]).
    pub fn builder() -> SweepSpecBuilder {
        Self::default_matrix().to_builder()
    }

    /// Checks that every axis is non-empty and every name resolves.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.fault_profiles.is_empty() {
            return Err(SweepError::EmptyAxis("fault_profiles"));
        }
        for name in &self.fault_profiles {
            if fault_profile_by_name(name, 60.0).is_none() {
                return Err(SweepError::UnknownFault(name.clone()));
            }
        }
        if self.topologies.is_empty() {
            return Err(SweepError::EmptyAxis("topologies"));
        }
        if self.workloads.is_empty() {
            return Err(SweepError::EmptyAxis("workloads"));
        }
        if self.strategies.is_empty() {
            return Err(SweepError::EmptyAxis("strategies"));
        }
        if self.durations_secs.is_empty() {
            return Err(SweepError::EmptyAxis("durations_secs"));
        }
        if self.seeds.is_empty() {
            return Err(SweepError::EmptyAxis("seeds"));
        }
        for name in &self.topologies {
            if TestbedSpec::by_name(name).is_none() {
                return Err(SweepError::UnknownTopology(name.clone()));
            }
        }
        let probe = GridConfig::default();
        for name in &self.workloads {
            if ExperimentSchedule::by_name(name, &probe, 60.0).is_none() {
                return Err(SweepError::UnknownWorkload(name.clone()));
            }
        }
        for name in &self.strategies {
            if FrameworkConfig::by_name(name).is_none() {
                return Err(SweepError::UnknownStrategy(name.clone()));
            }
        }
        for &duration in &self.durations_secs {
            if !duration.is_finite() || duration <= 0.0 {
                return Err(SweepError::InvalidDuration(duration));
            }
        }
        Ok(())
    }

    /// All cell keys in expansion order (topology-major, fault-minor).
    pub fn cells(&self) -> Vec<CellKey> {
        let mut cells = Vec::new();
        for topology in &self.topologies {
            for workload in &self.workloads {
                for strategy in &self.strategies {
                    for &duration_secs in &self.durations_secs {
                        for fault in &self.fault_profiles {
                            cells.push(CellKey {
                                topology: topology.clone(),
                                workload: workload.clone(),
                                strategy: strategy.clone(),
                                duration_secs,
                                fault: fault.clone(),
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Expands the matrix into individually runnable units, one per cell per
    /// seed, numbered in expansion order. The order is what makes the sweep
    /// deterministic: results are keyed by this index no matter which worker
    /// runs them.
    pub fn expand(&self) -> Vec<SweepUnit> {
        let mut units = Vec::with_capacity(self.total_units());
        for key in self.cells() {
            for &seed in &self.seeds {
                units.push(SweepUnit {
                    index: units.len(),
                    key: key.clone(),
                    seed,
                });
            }
        }
        units
    }

    /// Number of units the matrix expands into.
    pub fn total_units(&self) -> usize {
        self.topologies.len()
            * self.workloads.len()
            * self.strategies.len()
            * self.durations_secs.len()
            * self.fault_profiles.len()
            * self.seeds.len()
    }
}

fn is_no_fault(fault: &str) -> bool {
    fault == NO_FAULTS
}

/// Identifies one cell of the sweep matrix (everything but the seed).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellKey {
    /// Topology preset name.
    pub topology: String,
    /// Workload generator name.
    pub workload: String,
    /// Repair-strategy preset name.
    pub strategy: String,
    /// Run length in simulated seconds.
    pub duration_secs: f64,
    /// Fault-profile name: `"none"` when the cell injects nothing, and then
    /// not serialised (no-fault reports keep the pre-faultsim layout).
    #[serde(skip_serializing_if = "is_no_fault")]
    pub fault: String,
}

impl CellKey {
    /// Whether this cell injects faults.
    pub fn has_faults(&self) -> bool {
        !is_no_fault(&self.fault)
    }
}

/// One runnable unit: a cell key plus a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnit {
    /// Position in the spec's expansion order.
    pub index: usize,
    /// The cell this unit belongs to.
    pub key: CellKey,
    /// The seed for both runs of the comparison.
    pub seed: u64,
}

impl SweepUnit {
    /// The run id a traced unit's events are stored under: every cell axis
    /// plus the seed and the run's role, `/`-separated, so substring
    /// queries select along any axis.
    pub fn run_id(&self, label: &str) -> String {
        format!(
            "{}/{}/{}/{:.0}s/{}/seed{}/{label}",
            self.key.topology,
            self.key.workload,
            self.key.strategy,
            self.key.duration_secs,
            self.key.fault,
            self.seed
        )
    }

    /// Runs this unit's control/adaptive comparison; the outcome is fully
    /// determined by the cell key and seed. `traced` encodes both runs'
    /// event streams as they are emitted, `metered` attaches metrics
    /// registries, and `detectors` arms the online anomaly-detector bank in
    /// both runs (see [`SweepSpec::detectors`]).
    fn run_unit(
        &self,
        traced: bool,
        metered: bool,
        detectors: bool,
    ) -> Result<(UnitOutcome, UnitEvents), SweepError> {
        let key = &self.key;
        let testbed = TestbedSpec::by_name(&key.topology)
            .ok_or_else(|| SweepError::UnknownTopology(key.topology.clone()))?;
        // `with_testbed` equals the plain default for every classic preset
        // and scales the per-client rate for aggregated (large-scale) ones.
        let grid = GridConfig {
            seed: self.seed,
            ..GridConfig::with_testbed(testbed)
        };
        let schedule = ExperimentSchedule::by_name(&key.workload, &grid, key.duration_secs)
            .ok_or_else(|| SweepError::UnknownWorkload(key.workload.clone()))?;
        let mut framework = FrameworkConfig::by_name(&key.strategy)
            .ok_or_else(|| SweepError::UnknownStrategy(key.strategy.clone()))?;
        if detectors {
            // Both runs of the comparison inherit the detector config (the
            // control framework is derived from this one by struct update).
            framework.detectors = Some(detect::DetectorConfig::default());
        }
        let faults = fault_profile_by_name(&key.fault, key.duration_secs)
            .ok_or_else(|| SweepError::UnknownFault(key.fault.clone()))?;
        // Each run gets its own buffer when traced and its own registry when
        // metered. The snapshots hold only deterministic counters, so the
        // outcome stays worker-count invariant even with metrics on.
        let observe = || {
            let mut observers = Observers::default();
            let buffer = traced.then(|| {
                let (buffer, sink) = tracestore::shared_buffer();
                observers.sink = sink;
                buffer
            });
            let registry = metered.then(|| {
                let (registry, metrics) = obs::shared_registry();
                observers.metrics = metrics;
                registry
            });
            (observers, buffer, registry)
        };
        let (control, control_buffer, control_registry) = observe();
        let (adaptive, adaptive_buffer, adaptive_registry) = observe();
        let comparison = Comparison::run_observed(
            grid,
            framework,
            Some(&schedule),
            Some(&faults),
            key.duration_secs,
            [control, adaptive],
        )
        .map_err(|e| SweepError::Run {
            unit: self.index,
            message: e.to_string(),
        })?;
        let mut outcome = UnitOutcome::of(self.seed, &comparison);
        if key.has_faults() {
            let resilience = UnitResilience::of(&comparison, key.duration_secs, &grid);
            outcome.resilience = Some(resilience);
        }
        outcome.control_counters = control_registry.map(|r| r.snapshot().counters);
        outcome.adaptive_counters = adaptive_registry.map(|r| r.snapshot().counters);
        outcome.control_detect = comparison.control.detect.map(UnitDetect::of);
        outcome.adaptive_detect = comparison.adaptive.detect.map(UnitDetect::of);
        let take = |buffer: Option<tracestore::BufferSink>| {
            buffer.map_or_else(Default::default, |buffer| buffer.take_run())
        };
        let events = UnitEvents {
            control: take(control_buffer),
            adaptive: take(adaptive_buffer),
        };
        Ok((outcome, events))
    }
}

/// The event streams one traced unit produced, encoded as they were emitted.
#[derive(Debug, Clone, Default)]
pub struct UnitEvents {
    /// Events of the control run, in emission order.
    pub control: tracestore::RunBuffer,
    /// Events of the adaptive run, in emission order.
    pub adaptive: tracestore::RunBuffer,
}

/// Resilience metrics of one fault-injected comparison unit: the same
/// fault schedule measured under the control and the adaptive framework.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UnitResilience {
    /// Resilience of the control run.
    pub control: Resilience,
    /// Resilience of the adaptive run.
    pub adaptive: Resilience,
    /// Time-weighted unserved demand (summed seconds of request age still
    /// in flight at run end) of the control run. Measured only on
    /// aggregated testbeds, where a wedged group strands minutes of work
    /// that the completed-request violation fraction cannot see — and
    /// serialised only there, so classic-preset fault reports keep their
    /// layout.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub control_unserved_demand_secs: Option<f64>,
    /// Time-weighted unserved demand of the adaptive run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adaptive_unserved_demand_secs: Option<f64>,
}

impl UnitResilience {
    fn of(comparison: &Comparison, duration_secs: f64, grid: &GridConfig) -> UnitResilience {
        // Each run carries the fault timeline it actually applied
        // ([`crate::experiment::RunResult::faults`]).
        let measure = |run: &crate::experiment::RunResult| {
            Resilience::of(
                &run.metrics.pooled_latency(),
                duration_secs,
                grid.max_latency_secs,
                RESILIENCE_BUCKET_SECS,
                &run.faults.onsets,
            )
        };
        let aggregated = grid.testbed.clients_per_agg > 0;
        UnitResilience {
            control: measure(&comparison.control),
            adaptive: measure(&comparison.adaptive),
            control_unserved_demand_secs: aggregated
                .then_some(comparison.control.unserved_demand_secs),
            adaptive_unserved_demand_secs: aggregated
                .then_some(comparison.adaptive.unserved_demand_secs),
        }
    }
}

/// Online-detector numbers of one run within a detector-enabled unit (see
/// [`SweepSpec::detectors`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UnitDetect {
    /// Advisories the run emitted (harmful-direction detector alarms).
    pub advisories: u64,
    /// Median seconds between an advisory and the first violation it
    /// anticipated on the same subject (within
    /// [`crate::ADVISORY_MATCH_HORIZON_SECS`]); `None` when
    /// nothing paired — always `None` for control runs, which never check
    /// constraints.
    pub median_lead_secs: Option<f64>,
}

impl UnitDetect {
    fn of(summary: crate::DetectSummary) -> Self {
        UnitDetect {
            advisories: summary.advisories,
            median_lead_secs: summary.median_lead_secs,
        }
    }
}

/// The headline numbers extracted from one unit's comparison. The five
/// trailing `Option`s are serialised only when present, so a report carries
/// no key of a layer (faults, metrics, detectors) that did not run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UnitOutcome {
    /// The unit's seed.
    pub seed: u64,
    /// Fraction of control-run requests above the latency bound.
    pub control_violation_fraction: f64,
    /// Fraction of adaptive-run requests above the latency bound.
    pub adaptive_violation_fraction: f64,
    /// Control/adaptive violation ratio; `None` when the adaptive run never
    /// violated the bound (infinite improvement).
    pub improvement: Option<f64>,
    /// Mean pooled latency of the adaptive run (seconds).
    pub adaptive_mean_latency_secs: Option<f64>,
    /// 95th-percentile pooled latency of the adaptive run (seconds).
    pub adaptive_p95_latency_secs: Option<f64>,
    /// Requests completed by the control run. The violation fraction only
    /// counts *completed* requests, so a wedged control run can look clean;
    /// this count exposes that.
    pub control_completed: u64,
    /// Requests completed by the adaptive run.
    pub adaptive_completed: u64,
    /// Repairs completed by the adaptive run.
    pub repairs_completed: u64,
    /// Repairs aborted by the adaptive run.
    pub repairs_aborted: u64,
    /// Spare servers activated by the adaptive run.
    pub servers_activated: u64,
    /// Client moves performed by the adaptive run.
    pub client_moves: u64,
    /// Resilience metrics, present only for fault-injected units.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub resilience: Option<UnitResilience>,
    /// Deterministic control-run counters, present only for metered units
    /// (see [`SweepSpec::collect_metrics`]). Name-sorted; worker-count
    /// invariant by construction.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub control_counters: Option<obs::NameSorted<u64>>,
    /// Deterministic adaptive-run counters, present only for metered units.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adaptive_counters: Option<obs::NameSorted<u64>>,
    /// Control-run detector numbers, present only for detector-enabled
    /// units (see [`SweepSpec::detectors`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub control_detect: Option<UnitDetect>,
    /// Adaptive-run detector numbers, present only for detector-enabled
    /// units.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adaptive_detect: Option<UnitDetect>,
}

impl UnitOutcome {
    /// Extracts the outcome from a finished comparison.
    pub fn of(seed: u64, comparison: &Comparison) -> Self {
        let control = &comparison.control.summary;
        let adaptive = &comparison.adaptive.summary;
        UnitOutcome {
            seed,
            control_violation_fraction: control.fraction_latency_above_bound,
            adaptive_violation_fraction: adaptive.fraction_latency_above_bound,
            improvement: comparison.violation_improvement(),
            adaptive_mean_latency_secs: adaptive.latency.map(|s| s.mean),
            adaptive_p95_latency_secs: adaptive.latency.map(|s| s.p95),
            control_completed: control.latency.map_or(0, |s| s.count as u64),
            adaptive_completed: adaptive.latency.map_or(0, |s| s.count as u64),
            repairs_completed: adaptive.repairs_completed,
            repairs_aborted: adaptive.repairs_aborted,
            servers_activated: adaptive.servers_activated,
            client_moves: adaptive.client_moves,
            resilience: None,
            control_counters: None,
            adaptive_counters: None,
            control_detect: None,
            adaptive_detect: None,
        }
    }
}

/// Aggregate statistics of one metric across a cell's seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Aggregate {
    /// Number of values aggregated.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
}

impl Aggregate {
    /// Aggregates a slice of values; `None` if it is empty. Quantiles use
    /// the same nearest-rank definition as per-run summaries
    /// ([`simnet::quantile_of`]).
    pub fn of(values: &[f64]) -> Option<Aggregate> {
        if values.is_empty() {
            return None;
        }
        Some(Aggregate {
            count: values.len(),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            min: simnet::quantile_of(values, 0.0)?,
            max: simnet::quantile_of(values, 1.0)?,
            p95: simnet::quantile_of(values, 0.95)?,
        })
    }
}

/// A mean with a 95% normal-approximation confidence interval across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ConfidenceInterval {
    /// Number of values behind the interval.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Lower 95% bound (`mean` when only one value exists).
    pub lo: f64,
    /// Upper 95% bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Computes the interval; `None` if the slice is empty.
    pub fn of(values: &[f64]) -> Option<ConfidenceInterval> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let half_width = if values.len() > 1 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            1.96 * (var / n).sqrt()
        } else {
            0.0
        };
        Some(ConfidenceInterval {
            count: values.len(),
            mean,
            lo: mean - half_width,
            hi: mean + half_width,
        })
    }
}

/// Per-cell aggregation across seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellReport {
    /// The cell's matrix coordinates.
    pub key: CellKey,
    /// Per-seed outcomes, in the spec's seed order.
    pub outcomes: Vec<UnitOutcome>,
    /// Control-run violation fraction across seeds.
    pub control_violation: Aggregate,
    /// Adaptive-run violation fraction across seeds.
    pub adaptive_violation: Aggregate,
    /// Adaptive-run mean latency across seeds (absent if no run recorded
    /// latency).
    pub adaptive_mean_latency: Option<Aggregate>,
    /// Repairs completed across seeds.
    pub repairs_completed: Aggregate,
    /// Adaptive/control completed-request ratio across the seeds where the
    /// control run completed anything (> 1 means adaptation restored
    /// throughput a wedged control run lost).
    pub throughput_ratio: Option<Aggregate>,
    /// Violation-improvement ratio across the seeds where it is defined
    /// (adaptive run had at least one violation).
    pub improvement: Option<ConfidenceInterval>,
    /// Seeds whose adaptive run never violated the bound (the improvement
    /// ratio is unbounded for these).
    pub perfect_adaptive_seeds: Vec<u64>,
    /// Adaptive-run availability across seeds (fault cells only; like the
    /// five keys after it, serialised only when present, so no-fault reports
    /// keep the pre-faultsim layout).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub availability: Option<Aggregate>,
    /// Adaptive-run downtime seconds across seeds (fault cells only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub downtime_secs: Option<Aggregate>,
    /// Adaptive-run MTTR across the seeds that recovered: `None` outside
    /// fault cells, `Some(None)` — an explicit `null` — for a fault cell in
    /// which no seed recovered.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mttr_secs: Option<Option<Aggregate>>,
    /// Adaptive-run violation fraction during the fault window across seeds
    /// (fault cells only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub violation_during_fault: Option<Aggregate>,
    /// Control-run time-weighted unserved demand across seeds (fault cells
    /// on aggregated testbeds only — the data decides, not the fault axis:
    /// classic-preset fault reports keep their historical layout).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub control_unserved_demand_secs: Option<Aggregate>,
    /// Adaptive-run time-weighted unserved demand across seeds (fault cells
    /// on aggregated testbeds only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adaptive_unserved_demand_secs: Option<Aggregate>,
}

impl CellReport {
    fn of(key: CellKey, outcomes: Vec<UnitOutcome>) -> CellReport {
        let control: Vec<f64> = outcomes
            .iter()
            .map(|o| o.control_violation_fraction)
            .collect();
        let adaptive: Vec<f64> = outcomes
            .iter()
            .map(|o| o.adaptive_violation_fraction)
            .collect();
        let latency: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.adaptive_mean_latency_secs)
            .collect();
        let repairs: Vec<f64> = outcomes
            .iter()
            .map(|o| o.repairs_completed as f64)
            .collect();
        let throughput: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.control_completed > 0)
            .map(|o| o.adaptive_completed as f64 / o.control_completed as f64)
            .collect();
        let improvements: Vec<f64> = outcomes.iter().filter_map(|o| o.improvement).collect();
        // "Perfect" requires the adaptive run to have actually served
        // requests: an empty latency series also yields a zero violation
        // fraction, and a wedged run is the opposite of perfect.
        let perfect: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.improvement.is_none() && o.adaptive_completed > 0)
            .map(|o| o.seed)
            .collect();
        let resilience: Vec<&UnitResilience> = outcomes
            .iter()
            .filter_map(|o| o.resilience.as_ref())
            .collect();
        let adaptive_metric = |f: fn(&Resilience) -> Option<f64>| -> Option<Aggregate> {
            let values: Vec<f64> = resilience.iter().filter_map(|r| f(&r.adaptive)).collect();
            Aggregate::of(&values)
        };
        let unserved_metric = |f: fn(&UnitResilience) -> Option<f64>| -> Option<Aggregate> {
            let values: Vec<f64> = resilience.iter().filter_map(|r| f(r)).collect();
            Aggregate::of(&values)
        };
        CellReport {
            control_violation: Aggregate::of(&control).expect("cells have at least one seed"),
            adaptive_violation: Aggregate::of(&adaptive).expect("cells have at least one seed"),
            adaptive_mean_latency: Aggregate::of(&latency),
            repairs_completed: Aggregate::of(&repairs).expect("cells have at least one seed"),
            throughput_ratio: Aggregate::of(&throughput),
            improvement: ConfidenceInterval::of(&improvements),
            perfect_adaptive_seeds: perfect,
            availability: adaptive_metric(|r| Some(r.availability)),
            downtime_secs: adaptive_metric(|r| Some(r.downtime_secs)),
            mttr_secs: key.has_faults().then(|| adaptive_metric(|r| r.mttr_secs)),
            violation_during_fault: adaptive_metric(|r| Some(r.violation_fraction_during_fault)),
            control_unserved_demand_secs: unserved_metric(|r| r.control_unserved_demand_secs),
            adaptive_unserved_demand_secs: unserved_metric(|r| r.adaptive_unserved_demand_secs),
            key,
            outcomes,
        }
    }
}

/// The aggregated result of a whole sweep.
///
/// Deliberately carries no wall-clock timing and no worker count: its JSON
/// serialisation is byte-identical for the same spec regardless of how the
/// sweep was parallelised.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// The spec the sweep ran.
    pub spec: SweepSpec,
    /// Number of comparison units executed (cells × seeds).
    pub total_units: usize,
    /// Per-cell aggregates, in the spec's expansion order.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// Serialises the report to pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }
}

/// Runs every unit of the sweep across `workers` threads and aggregates the
/// results. `workers` is clamped to `1..=total_units`. The report is
/// bit-identical for any worker count (see the module docs). Every unit
/// runs even when one fails; the error returned is the lowest-index unit's.
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepReport, SweepError> {
    run_sweep_inner(spec, workers, None)
}

/// [`run_sweep`] with full event capture: every run's trace events are
/// encoded as they are emitted and persisted to a fresh
/// [`tracestore::TraceStore`] at `store_path`. Units still execute across
/// `workers` threads; each unit's two runs are appended under
/// [`SweepUnit::run_id`] run ids as soon as that unit and every unit before
/// it have finished, and then dropped — so the store's bytes (like the
/// report's) are identical at any worker count, and the sweep holds only the
/// runs of units that finished ahead of their turn.
///
/// A failed sweep still runs every unit and returns the lowest-index
/// failure (a unit's [`SweepError::Run`], or the [`SweepError::Store`] of
/// appending one); the store then holds the runs of every unit before the
/// failing one and nothing after it, at any worker count.
pub fn run_sweep_traced(
    spec: &SweepSpec,
    workers: usize,
    store_path: &std::path::Path,
) -> Result<SweepReport, SweepError> {
    run_sweep_inner(spec, workers, Some(store_path))
}

/// Runs `run(i)` for every `i` in `0..total` across `workers` threads and
/// hands each result to `deliver` in index order, as soon as it and every
/// result before it are in: workers send `(index, result)`, and the caller
/// holds early arrivals until their turn. A unit that panics fails alone, as
/// a [`SweepError::Run`] in its own turn: the other units still finish.
///
/// One worker is the calling thread itself: each unit is delivered, and
/// dropped, before the next one starts. No second thread allocates what the
/// caller frees, so a sweep's heap, and with it its peak resident set, is
/// the same from one run to the next.
fn run_units<T: Send>(
    total: usize,
    workers: usize,
    run: impl Fn(usize) -> Result<T, SweepError> + Sync,
    mut deliver: impl FnMut(usize, Result<T, SweepError>),
) {
    if workers == 1 {
        (0..total).for_each(|unit| deliver(unit, run_guarded(&run, unit)));
        return;
    }
    let next = AtomicUsize::new(0);
    let (done, arrivals) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (done, next, run) = (done.clone(), &next, &run);
            scope.spawn(move || loop {
                let unit = next.fetch_add(1, Ordering::Relaxed);
                if unit >= total {
                    break;
                }
                // Fails only when the caller stopped receiving by unwinding.
                let _ = done.send((unit, run_guarded(run, unit)));
            });
        }
        drop(done);
        let mut early = BTreeMap::new();
        let mut due = 0;
        for (unit, outcome) in arrivals {
            early.insert(unit, outcome);
            while let Some(outcome) = early.remove(&due) {
                deliver(due, outcome);
                due += 1;
            }
        }
    });
}

/// `run(unit)`, with a panic turned into the unit's [`SweepError::Run`].
fn run_guarded<T>(
    run: &impl Fn(usize) -> Result<T, SweepError>,
    unit: usize,
) -> Result<T, SweepError> {
    catch_unwind(AssertUnwindSafe(|| run(unit))).unwrap_or_else(|panic| {
        let text = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".to_string());
        let message = format!("panicked: {text}");
        Err(SweepError::Run { unit, message })
    })
}

fn run_sweep_inner(
    spec: &SweepSpec,
    workers: usize,
    store_path: Option<&std::path::Path>,
) -> Result<SweepReport, SweepError> {
    spec.validate()?;
    let store_error = |e: tracestore::StoreError| SweepError::Store(e.to_string());
    let mut store =
        (store_path.map(tracestore::TraceStore::open).transpose()).map_err(store_error)?;
    let units = spec.expand();
    let total = units.len();
    let traced = store.is_some();
    // The outcomes so far, until the first failure replaces them.
    let mut outcomes = Ok(Vec::with_capacity(total));
    run_units(
        total,
        workers.clamp(1, total),
        |i| units[i].run_unit(traced, spec.collect_metrics, spec.detectors),
        |i, result| {
            let Ok(done) = &mut outcomes else { return };
            let appended = result.and_then(|(outcome, events)| {
                if let Some(store) = store.as_mut() {
                    let runs = [("control", &events.control), ("adaptive", &events.adaptive)];
                    for (label, run) in runs {
                        store
                            .append_buffer(&units[i].run_id(label), run)
                            .map_err(store_error)?;
                    }
                }
                Ok(outcome)
            });
            match appended {
                Ok(outcome) => done.push(outcome),
                Err(error) => outcomes = Err(error),
            }
        },
    );
    let outcomes = outcomes?;
    let per_cell = spec.seeds.len();
    let cells: Vec<CellReport> = spec
        .cells()
        .into_iter()
        .zip(outcomes.chunks(per_cell))
        .map(|(key, chunk)| CellReport::of(key, chunk.to_vec()))
        .collect();
    Ok(SweepReport {
        spec: spec.clone(),
        total_units: total,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            topologies: vec!["paper".into(), "congested-core".into()],
            workloads: vec!["step".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![60.0],
            seeds: vec![42, 7],
            fault_profiles: vec![NO_FAULTS.into()],
            collect_metrics: false,
            detectors: false,
        }
    }

    /// `run_units` over six units, unit 3 panicking: what the caller
    /// receives, in the order it receives it, counting each into `received`
    /// as it arrives.
    fn delivered(
        workers: usize,
        received: &Count,
        run: impl Fn(usize) -> Result<usize, SweepError> + Sync,
    ) -> Vec<(usize, Result<usize, SweepError>)> {
        let mut delivered = Vec::new();
        run_units(
            6,
            workers,
            |i| {
                if i == 3 {
                    panic!("unit {i} blew up");
                }
                run(i)
            },
            |i, result| {
                delivered.push((i, result));
                received.bump();
            },
        );
        delivered
    }

    /// A count that threads can wait on.
    #[derive(Default)]
    struct Count(std::sync::Mutex<usize>, std::sync::Condvar);

    impl Count {
        fn bump(&self) {
            *self.0.lock().unwrap() += 1;
            self.1.notify_all();
        }

        /// Whether the count reaches `n` within ten seconds.
        fn reaches(&self, n: usize) -> bool {
            let ten_secs = std::time::Duration::from_secs(10);
            let count = self.0.lock().unwrap();
            let (count, wait) = (self.1.wait_timeout_while(count, ten_secs, |c| *c < n)).unwrap();
            drop(count);
            !wait.timed_out()
        }
    }

    #[test]
    fn a_panicking_unit_fails_alone() {
        for workers in [1, 4] {
            for (i, result) in delivered(workers, &Count::default(), |i| Ok(i * 10)) {
                match result {
                    Ok(value) => assert_eq!((i != 3, value), (true, i * 10)),
                    Err(SweepError::Run { unit, message }) => {
                        assert_eq!((i, unit), (3, 3));
                        assert_eq!(message, "panicked: unit 3 blew up");
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
        }
    }

    /// The caller receives units 0, 1 and 2 in order, then unit 3's error,
    /// then the rest, whichever finishes first — and each as soon as it and
    /// every unit before it are done. With several workers unit 0 finishes
    /// only after units 1 and 2 have, so their results wait for it; unit 5
    /// finishes only once the caller holds units 0–3. A wait that times out
    /// (10 s) makes its unit report `usize::MAX`.
    #[test]
    fn results_arrive_in_expansion_order_as_soon_as_their_turn_is_done() {
        for workers in [1, 4] {
            let (ran, received) = (Count::default(), Count::default());
            let after = |done: bool, value| if done { value } else { usize::MAX };
            let results = delivered(workers, &received, |i| {
                let value = match i {
                    0 if workers > 1 => after(ran.reaches(2), 0),
                    5 => after(received.reaches(4), 50),
                    i => i * 10,
                };
                ran.bump();
                Ok(value)
            });
            let failed = SweepError::Run {
                unit: 3,
                message: "panicked: unit 3 blew up".into(),
            };
            let expect = [Ok(0), Ok(10), Ok(20), Err(failed), Ok(40), Ok(50)];
            assert_eq!(
                results,
                expect.into_iter().enumerate().collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn unserved_demand_keys_appear_only_when_measured() {
        let resilience = Resilience {
            availability: 1.0,
            downtime_secs: 0.0,
            mttr_secs: None,
            violation_fraction_during_fault: 0.0,
        };
        let classic = UnitResilience {
            control: resilience,
            adaptive: resilience,
            control_unserved_demand_secs: None,
            adaptive_unserved_demand_secs: None,
        };
        // Classic-preset layout: exactly the two historical keys, so
        // existing fault reports stay byte-identical.
        let serde::Content::Map(fields) = classic.to_content() else {
            panic!("unit resilience serialises to a map");
        };
        assert_eq!(
            fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["control", "adaptive"]
        );
        let aggregated = UnitResilience {
            control_unserved_demand_secs: Some(123.5),
            adaptive_unserved_demand_secs: Some(4.25),
            ..classic
        };
        let json = serde_json::to_string(&aggregated).unwrap();
        assert!(json.contains("\"control_unserved_demand_secs\""));
        assert!(json.contains("\"adaptive_unserved_demand_secs\""));
    }

    #[test]
    fn expansion_is_cell_major_with_seeds_innermost() {
        let spec = tiny_spec();
        let units = spec.expand();
        assert_eq!(units.len(), 4);
        assert_eq!(spec.total_units(), 4);
        assert_eq!(units[0].key.topology, "paper");
        assert_eq!(units[0].seed, 42);
        assert_eq!(units[1].key.topology, "paper");
        assert_eq!(units[1].seed, 7);
        assert_eq!(units[2].key.topology, "congested-core");
        assert_eq!(units[3].index, 3);
        // Cells pair with seed-contiguous chunks.
        assert_eq!(spec.cells().len(), 2);
    }

    #[test]
    fn validation_rejects_unknown_names_and_empty_axes() {
        let mut spec = tiny_spec();
        spec.topologies = vec!["atlantis".into()];
        assert_eq!(
            spec.validate(),
            Err(SweepError::UnknownTopology("atlantis".into()))
        );
        let mut spec = tiny_spec();
        spec.workloads = vec!["tsunami".into()];
        assert_eq!(
            spec.validate(),
            Err(SweepError::UnknownWorkload("tsunami".into()))
        );
        let mut spec = tiny_spec();
        spec.strategies = vec!["wishful".into()];
        assert_eq!(
            spec.validate(),
            Err(SweepError::UnknownStrategy("wishful".into()))
        );
        let mut spec = tiny_spec();
        spec.seeds.clear();
        assert_eq!(spec.validate(), Err(SweepError::EmptyAxis("seeds")));
        let mut spec = tiny_spec();
        spec.durations_secs = vec![-5.0];
        assert_eq!(spec.validate(), Err(SweepError::InvalidDuration(-5.0)));
        assert!(tiny_spec().validate().is_ok());
        assert!(SweepSpec::default_matrix().validate().is_ok());
        assert!(SweepSpec::smoke().validate().is_ok());
    }

    #[test]
    fn aggregate_and_confidence_interval_math() {
        let agg = Aggregate::of(&[1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(agg.count, 4);
        assert!((agg.mean - 2.5).abs() < 1e-12);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 4.0);
        assert_eq!(agg.p95, 4.0);
        assert!(Aggregate::of(&[]).is_none());

        let ci = ConfidenceInterval::of(&[2.0, 4.0, 6.0, 8.0]).unwrap();
        assert!((ci.mean - 5.0).abs() < 1e-12);
        // Sample sd = sqrt(20/3) ≈ 2.582; half-width = 1.96 * sd / 2 ≈ 2.53.
        assert!((ci.hi - ci.mean - 2.530).abs() < 0.01, "hi={}", ci.hi);
        assert!((ci.mean - ci.lo - 2.530).abs() < 0.01);
        let single = ConfidenceInterval::of(&[3.5]).unwrap();
        assert_eq!((single.lo, single.hi), (3.5, 3.5));
        assert!(ConfidenceInterval::of(&[]).is_none());
    }

    #[test]
    fn validation_rejects_unknown_fault_profiles() {
        let mut spec = tiny_spec();
        spec.fault_profiles = vec!["meteor-strike".into()];
        assert_eq!(
            spec.validate(),
            Err(SweepError::UnknownFault("meteor-strike".into()))
        );
        let mut spec = tiny_spec();
        spec.fault_profiles.clear();
        assert_eq!(
            spec.validate(),
            Err(SweepError::EmptyAxis("fault_profiles"))
        );
        let mut spec = tiny_spec();
        spec.fault_profiles = vec!["none".into(), "single-link-cut".into()];
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn no_fault_reports_serialise_without_fault_keys() {
        let spec = SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![60.0],
            seeds: vec![42],
            fault_profiles: vec!["none".into()],
            collect_metrics: false,
            detectors: false,
        };
        let report = run_sweep(&spec, 1).unwrap();
        let json = report.to_json_string();
        assert!(
            !json.contains("fault"),
            "no fault keys in a no-fault report"
        );
        assert!(!json.contains("resilience"));
        assert!(!json.contains("availability"));
    }

    #[test]
    fn fault_sweep_is_bit_identical_and_reports_resilience() {
        let spec = SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![150.0],
            seeds: vec![42, 7],
            fault_profiles: vec!["none".into(), "server-crash-midrun".into()],
            collect_metrics: false,
            detectors: false,
        };
        let serial = run_sweep(&spec, 1).unwrap();
        let parallel = run_sweep(&spec, 3).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json_string(), parallel.to_json_string());
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.total_units, 4);
        // The none cell carries no resilience data; the crash cell does.
        let none_cell = &serial.cells[0];
        assert!(!none_cell.key.has_faults());
        assert!(none_cell.availability.is_none());
        assert!(none_cell.outcomes.iter().all(|o| o.resilience.is_none()));
        let crash_cell = &serial.cells[1];
        assert_eq!(crash_cell.key.fault, "server-crash-midrun");
        let availability = crash_cell
            .availability
            .expect("fault cell has availability");
        assert!((0.0..=1.0).contains(&availability.mean));
        assert!(crash_cell.violation_during_fault.is_some());
        for outcome in &crash_cell.outcomes {
            let r = outcome.resilience.expect("fault units carry resilience");
            assert!(
                r.adaptive.availability >= 0.0 && r.adaptive.availability <= 1.0,
                "{r:?}"
            );
        }
        // The serialised report exposes the fault coordinates.
        let json = serial.to_json_string();
        assert!(json.contains("\"fault\": \"server-crash-midrun\""));
        assert!(json.contains("\"resilience\""));
        assert!(json.contains("\"mttr_secs\""));
    }

    #[test]
    fn fault_axis_multiplies_the_expansion() {
        let mut spec = tiny_spec();
        spec.fault_profiles = vec!["none".into(), "single-link-cut".into()];
        assert_eq!(spec.total_units(), 8);
        let units = spec.expand();
        assert_eq!(units.len(), 8);
        // Faults are the innermost cell axis: cells alternate per fault.
        assert_eq!(units[0].key.fault, "none");
        assert_eq!(units[2].key.fault, "single-link-cut");
        assert_eq!(units[0].key.topology, units[2].key.topology);
    }

    #[test]
    fn sweep_report_is_bit_identical_across_worker_counts() {
        let spec = SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into(), "flash-crowd".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![60.0],
            seeds: vec![42, 7],
            fault_profiles: vec!["none".into()],
            collect_metrics: false,
            detectors: false,
        };
        let serial = run_sweep(&spec, 1).unwrap();
        let parallel = run_sweep(&spec, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json_string(), parallel.to_json_string());
        assert_eq!(serial.total_units, 4);
        assert_eq!(serial.cells.len(), 2);
        for cell in &serial.cells {
            assert_eq!(cell.outcomes.len(), 2);
            assert_eq!(cell.control_violation.count, 2);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let spec = SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into()],
            strategies: vec!["adaptive".into()],
            durations_secs: vec![60.0],
            seeds: vec![42],
            fault_profiles: vec!["none".into()],
            collect_metrics: false,
            detectors: false,
        };
        let report = run_sweep(&spec, 1).unwrap();
        let json = report.to_json_string();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["total_units"].as_f64(), Some(1.0));
        assert_eq!(value["cells"].as_array().unwrap().len(), 1);
        assert_eq!(value["spec"]["topologies"][0], "paper");
    }

    #[test]
    fn strategies_change_sweep_behaviour_deterministically() {
        // The same cell under two different strategies may differ, but each
        // strategy is individually reproducible.
        let mk = |strategy: &str| SweepSpec {
            topologies: vec!["paper".into()],
            workloads: vec!["step".into()],
            strategies: vec![strategy.into()],
            durations_secs: vec![90.0],
            seeds: vec![42],
            fault_profiles: vec!["none".into()],
            collect_metrics: false,
            detectors: false,
        };
        let a1 = run_sweep(&mk("adaptive"), 1).unwrap();
        let a2 = run_sweep(&mk("adaptive"), 2).unwrap();
        assert_eq!(a1.cells, a2.cells);
        let nd = run_sweep(&mk("no-damping"), 1).unwrap();
        // Reports embed their spec, so they differ at least there.
        assert_ne!(a1, nd);
    }
}
