//! # tracestore — persistent run-trace store and telemetry query engine
//!
//! Every run of the adaptation framework is driven by runtime observations —
//! gauge readings, constraint violations, repair operations, fault actions,
//! transfer completions — yet historically the reproduction threw that event
//! stream away once a run's summary JSON was written. This crate keeps it:
//!
//! * [`event`] — the unified [`TraceEvent`] record (run id, sim time, kind,
//!   subject, detail, optional value/correlation) every observation source
//!   maps onto, and its borrowed view [`EventRef`];
//! * [`sink`] — the [`TraceSink`] append API threaded through
//!   `core::framework`, `core::sweep`, `faultsim`, and `gridapp`: emitters
//!   append borrowed [`EventRef`]s. The default [`NullSink`] is disabled and
//!   free, keeping all existing outputs byte-identical; a [`BufferSink`]
//!   encodes each event into a [`RunBuffer`] as it arrives, for the sweep
//!   harness to persist deterministically;
//! * [`store`] — a segment-file [`TraceStore`] with per-run and per-kind
//!   indices supporting deterministic replay-order iteration; the
//!   [`RunBuffer`] is the one record encoder, one write path persists it,
//!   one read path decodes a loaded segment in place as borrowed
//!   [`EventRef`]s, and a damaged store is an error, never a different
//!   answer;
//! * [`query`] — filter by an `archmodel::expr` predicate over event
//!   fields, time-window, and group-by, allocating only the rows that pass,
//!   which share one allocation per distinct string;
//! * [`aggregate`] — count / mean / p95 / MTTR reductions over query
//!   results, plus the canned near-fault root-cause report and the
//!   advisory→violation lead-time join behind `query leadtime`.
//!
//! The store layout is a directory: a text `MANIFEST` (one line per run, in
//! append order) plus one binary segment file and one per-kind offset index
//! per run. Iteration order is always manifest order × in-segment append
//! order, so the same store and the same query produce byte-identical
//! output on every machine and at any sweep worker count.

#![warn(missing_docs)]

pub mod aggregate;
pub mod event;
pub mod query;
pub mod sink;
pub mod store;

pub use aggregate::{
    aggregate_rows, leadtime_rows, mttr_rows, near_fault_rows, AggregateOp, AggregateRow, GroupBy,
    LeadTimeRow,
};
pub use event::{EventKind, EventRef, TraceEvent};
pub use query::{Query, QueryError, QueryRow};
pub use sink::{null_sink, shared_buffer, BufferSink, NullSink, SharedSink, TraceSink};
pub use store::{RunBuffer, RunMeta, StoreError, TraceStore};
