//! # planner — group-level adaptation for fleet-scale testbeds
//!
//! The paper's repair strategies act one element at a time (`moveClient`,
//! `findServer`), which is faithful at testbed scale but collapses on the
//! 2,000-client deployment: per-client repairs cannot migrate 400 squeezed
//! clients within a 300 s run, and one max-min probe per client-machine ×
//! group pair costs ~1 s of wall clock per control tick. Related work argues
//! grid adaptation should operate on architectural *groupings* rather than
//! individuals — model transformations over component groups (Manset et al.)
//! and graph-grammar rules reshaping whole communication groups at once
//! (Bouassida Rodriguez et al.). This crate is that step:
//!
//! * [`classes`] — a **network-position equivalence-class index** computed
//!   from the [`Testbed`](gridapp::Testbed) topology: client machines behind
//!   the same aggregation switch (and group replicas with identical
//!   attachment) occupy symmetric network positions, so one max-min probe per
//!   class serves every member;
//! * [`probes`] — the class-shared Remos snapshot: bit-identical to
//!   per-client probing on the classic presets (where every class is a
//!   singleton) and ~group-size cheaper on the aggregated ones. One
//!   [`RepTable`] implements it: it probes the representative of every
//!   `(class, group)` pair — the table is rebuilt only when a repair has
//!   moved clients, and the servers a shared probe asks are listed once per
//!   group per snapshot — and reports the representatives alone or every
//!   member behind them, as the caller's monitoring policy asks;
//! * [`plan`] — the **bulk reassignment planner**: consumes class-level probe
//!   snapshots and current model properties and emits a batched repair plan
//!   of group tactics — `moveClientGroup` (re-home every squeezed client of
//!   an aggregation class in one pass), `rebalanceGroups` (water-filling
//!   assignment of client classes to server groups), and `drainServer`
//!   (recycle replicas wedged on a collapsed path).
//!
//! The adaptation framework exposes the planner as the `plannedRepair`
//! strategy preset; see `arch_adapt::framework`. The run's one
//! [`ClassIndex`] belongs to the framework's monitor, which lends it to
//! [`PlannerInput::gather`] and [`GroupPlanner::plan`] alike.

#![warn(missing_docs)]

pub mod classes;
pub mod plan;
pub mod probes;

pub use classes::{ClassIndex, ClientClass, ServerClass};
pub use plan::{GroupPlanner, GroupSnapshot, PlannerInput, PlannerThresholds};
pub use probes::{Rep, RepTable};
