//! # arch-adapt — the architecture-based adaptation framework
//!
//! A reproduction of "Software Architecture-Based Adaptation for Grid
//! Computing" (Cheng, Garlan, Schmerl, Steenkiste, Hu — HPDC 2002). The
//! framework keeps an architectural model of a running grid application,
//! monitors it through a probe/gauge infrastructure, checks task-layer
//! constraints against the model, and repairs violations with
//! architecture-level strategies whose operators are translated into runtime
//! reconfigurations.
//!
//! * [`task`] — the task layer's performance profile,
//! * [`model`] — building the runtime architectural model and reflecting
//!   gauge readings into it,
//! * [`query`] — runtime queries (`findGoodSGroup`, spare-server lookup)
//!   answered by the live application,
//! * [`framework`] — the three-layer adaptation loop (Figure 1), one pass
//!   through its phases per control period; the phases are private modules —
//!   `monitor` (who is watched, the tick's flow snapshot, the gauge roster,
//!   the run's one class index), `detector` (readings → advisories) and
//!   `repairs` (Check → Plan → Begin, Commit → Execute over one
//!   `repair::RepairPlan`; a control run has none) — and everything they
//!   report goes through the private `observe` module onto the run's one
//!   record, the typed [`RunLog`],
//! * [`experiment`] — the control and adaptive experiment runs (§5),
//! * [`sweep`] — parallel scenario sweeps over topology × workload ×
//!   strategy × duration × seed matrices with aggregate statistics,
//! * [`report`] — figure-shaped text/JSON reporting.
//!
//! ```no_run
//! use arch_adapt::{Comparison, FrameworkConfig};
//! use gridapp::{ExperimentSchedule, GridConfig};
//!
//! let grid = GridConfig::default();
//! let schedule = ExperimentSchedule::figure7(&grid);
//! let adaptive = FrameworkConfig::adaptive();
//! let comparison = Comparison::run_with(grid, adaptive, Some(&schedule), 1800.0).unwrap();
//! println!("{}", arch_adapt::report::render_comparison(&comparison));
//! ```

#![warn(missing_docs)]

mod detector;
pub mod experiment;
pub mod framework;
mod log;
pub mod model;
mod monitor;
mod observe;
pub mod query;
mod repairs;
pub mod report;
pub mod sweep;
pub mod task;

pub use detector::{DetectSummary, ADVISORY_MATCH_HORIZON_SECS};
pub use experiment::{
    run_observed, Comparison, ExperimentConfig, Observers, RunResult, RunSummary,
};
pub use framework::{
    strategy_names, AdaptationFramework, FrameworkConfig, RepairStats, METRIC_SNAPSHOT_PERIOD_SECS,
    STRATEGY_REGISTRY,
};
pub use log::{LegacyLine, RunLog};
pub use model::{build_model, ModelUpdater};
pub use query::AppQuery;
pub use report::{render_comparison, render_run, render_sweep, run_to_json};
pub use sweep::{
    run_sweep, run_sweep_traced, Aggregate, CellKey, CellReport, ConfidenceInterval, SweepError,
    SweepReport, SweepSpec, SweepSpecBuilder, SweepUnit, UnitDetect, UnitEvents, UnitOutcome,
    UnitResilience,
};
pub use task::PerformanceProfile;
