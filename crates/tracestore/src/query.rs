//! Filtering stored events with `archmodel::expr` predicates.
//!
//! A [`Query`] scans a [`TraceStore`] in replay order (manifest order ×
//! in-segment order) and keeps the events that pass its filters:
//!
//! * `run`: a substring match over the run id (sweeps encode
//!   topology/workload/strategy/fault/seed/role into the id, so substring
//!   selection doubles as axis selection);
//! * `kinds`: an event-kind allow-list (a single-kind query decodes only
//!   the records the store's per-kind index points at);
//! * `window`: an inclusive `[from, until]` simulation-time window (decoding
//!   starts at the last time checkpoint wholly before it);
//! * `predicate`: an Armani-style boolean expression — the same language
//!   the architecture model's invariants use — evaluated per event with
//!   the event's fields bound as identifiers.
//!
//! Predicate identifiers: `run` and `kind` and `subject` and `detail`
//! (strings), `time` (seconds), `value` (the numeric payload; `NaN` when
//! the event has none, so comparisons against it are false), `has_value`
//! (boolean), and `correlation` (integer, `-1` when absent). Example:
//!
//! ```text
//! kind == "violation" and subject == "C3" and time >= 120
//! ```
//!
//! [`Query::execute`] filters each record as the store decodes it and turns
//! only the events that pass into [`QueryRow`]s. A record's subject and
//! detail stay segment bytes until the predicate or a row needs them: the
//! call's one string table, keyed by those bytes, checks a string as UTF-8
//! and interns it the first time it appears and hands every later row the
//! same `archmodel::Key`, so a scan checks each distinct string once, not
//! two per record. A row's run id is the store's interned
//! [`RunMeta::run_id`](crate::store::RunMeta::run_id). A row therefore owns
//! no allocation: building one is a plain copy, with no reference count to
//! raise, and dropping the result is one free. A row is 72 bytes: the
//! event's 64 and a one-word run id. When every record a scan visits
//! becomes a row (no predicate, no window, at most one kind), the rows are
//! reserved up front: the selected runs' manifest counts, or per run the
//! kind index's offset count.
//!
//! A query with no kind list and no window whose predicate's leftmost `and`
//! operand is `kind == "<name>"` (or `"<name>" == kind`) scans only that
//! kind through the index, and nothing at all when no kind has that name.
//! `and` evaluates left to right and stops at a false left operand, so in a
//! full scan a record of another kind evaluates nothing but that comparison:
//! the narrowed scan returns the same rows and the same errors.
//!
//! The predicate is compiled once per `execute` (an `archmodel::Program`
//! with one slot per event field) and evaluated per event on values
//! borrowed from the event, so testing an event allocates nothing.
//! [`Query::matches`] is the per-event definition (compiled afresh, nothing
//! shared) that `execute` is property-tested against. A damaged store
//! surfaces as [`QueryError::Store`] (see [`crate::store`]).

use crate::event::{EventKind, StringTable, TraceEvent};
use crate::store::{Buffers, Select, StoreError, TraceStore};
use archmodel::expr::{parse, BinOp, Expr, Operand, Program};
use archmodel::{Key, System, Value};
use std::fmt;

/// A query failure.
#[derive(Debug)]
pub enum QueryError {
    /// The predicate source did not parse.
    Parse(String),
    /// The predicate failed to evaluate against an event (an unknown
    /// identifier, a type mismatch).
    Eval(String),
    /// The underlying store failed.
    Store(StoreError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "predicate parse error: {e}"),
            QueryError::Eval(e) => write!(f, "predicate evaluation error: {e}"),
            QueryError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        QueryError::Store(e)
    }
}

/// One event that passed a query's filters, tagged with its run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRow {
    /// The run the event belongs to: the store's
    /// [`RunMeta::run_id`](crate::store::RunMeta::run_id).
    pub run_id: Key,
    /// The event itself.
    pub event: TraceEvent,
}

/// A declarative filter over a trace store.
#[derive(Debug, Default)]
pub struct Query {
    /// Substring that must appear in the run id (`None`: every run).
    pub run_contains: Option<String>,
    /// Kinds to keep (empty: every kind).
    pub kinds: Vec<EventKind>,
    /// Inclusive `[from, until]` simulation-time window.
    pub window: Option<(f64, f64)>,
    /// Parsed boolean predicate over the event fields.
    pub predicate: Option<Expr>,
}

impl Query {
    /// A query with no filters (matches everything).
    pub fn new() -> Self {
        Query::default()
    }

    /// Keeps only runs whose id contains `needle`.
    pub fn run_contains(mut self, needle: impl Into<String>) -> Self {
        self.run_contains = Some(needle.into());
        self
    }

    /// Adds a kind to the allow-list.
    pub fn kind(mut self, kind: EventKind) -> Self {
        self.kinds.push(kind);
        self
    }

    /// Keeps only events with `from <= time <= until`.
    pub fn window(mut self, from: f64, until: f64) -> Self {
        self.window = Some((from, until));
        self
    }

    /// Parses and attaches an expr predicate.
    pub fn predicate(mut self, source: &str) -> Result<Self, QueryError> {
        self.predicate = Some(parse(source).map_err(|e| QueryError::Parse(e.to_string()))?);
        Ok(self)
    }

    fn selects_run(&self, run_id: Key) -> bool {
        self.run_contains
            .as_ref()
            .is_none_or(|needle| run_id.as_str().contains(needle.as_str()))
    }

    /// The kind and window filters.
    fn keeps(&self, kind: EventKind, time_secs: f64) -> bool {
        (self.kinds.is_empty() || self.kinds.contains(&kind))
            && self
                .window
                .is_none_or(|(from, until)| time_secs >= from && time_secs <= until)
    }

    /// Whether one event (from the named run) passes every filter: the
    /// per-event definition of a query, with every field bound and nothing
    /// shared between calls. [`execute`](Self::execute) must agree with it.
    pub fn matches(&self, run_id: Key, event: &TraceEvent) -> Result<bool, QueryError> {
        if !self.selects_run(run_id) || !self.keeps(event.kind, event.time_secs) {
            return Ok(false);
        }
        self.predicate
            .as_ref()
            .map_or(Ok(true), |expr| Predicate::new(expr).test(run_id, event))
    }

    /// Which records of each run can pass: the one kind of a single-kind
    /// list or a kind-led predicate, a window's suffix, or every record.
    /// `None` when no record can: the predicate leads with a kind that does
    /// not exist.
    fn select(&self) -> Option<Select> {
        let leading = self.predicate.as_ref().and_then(leading_kind);
        Some(match (self.kinds.as_slice(), self.window, leading) {
            ([kind], _, _) => Select::Kind(*kind),
            (_, Some((from, _)), _) => Select::From(from),
            ([], None, Some(name)) => Select::Kind(EventKind::by_name(name)?),
            _ => Select::All,
        })
    }

    /// Runs the query over the whole store, in replay order.
    ///
    /// Each selected run is one scan, every scan of the call loading into
    /// the same buffer: a single-kind or kind-led query walks the per-kind
    /// index's offsets, a windowed query starts at the last time checkpoint
    /// provably before the window (every record it skips has `time < from`,
    /// so the rows equal a full scan's), anything else visits every record.
    /// Strings, reservations and narrowing are as the module docs describe.
    pub fn execute(&self, store: &TraceStore) -> Result<Vec<QueryRow>, QueryError> {
        let Some(select) = self.select() else {
            return Ok(Vec::new());
        };
        let predicate = self.predicate.as_ref().map(Predicate::new);
        let every_record = predicate.is_none() && self.window.is_none() && self.kinds.len() <= 1;
        let runs = store.runs().iter().filter(|m| self.selects_run(m.run_id));
        let mut rows = Vec::new();
        if every_record && self.kinds.is_empty() {
            rows.reserve(runs.clone().map(|meta| store.record_bound(meta)).sum());
        }
        let (mut strings, mut buffers) = (StringTable::default(), Buffers::default());
        for meta in runs {
            let scan = store.scan(meta, select, &mut buffers)?;
            if every_record {
                rows.reserve(scan.len());
            }
            scan.visit(|record| {
                if !self.keeps(record.kind, record.time_secs) {
                    return Ok(());
                }
                let event = strings.event(record).map_err(|e| meta.non_utf8(e))?;
                if let Some(p) = &predicate {
                    if !p.test(meta.run_id, &event)? {
                        return Ok(());
                    }
                }
                rows.push(QueryRow {
                    run_id: meta.run_id,
                    event,
                });
                Ok::<(), QueryError>(())
            })?;
        }
        Ok(rows)
    }
}

/// The kind name a predicate's leftmost `and` operand compares `kind` with
/// (`kind == "<name>"` or `"<name>" == kind`), if it is such a comparison.
/// `and` evaluates left to right and stops at a false left operand, so
/// against a record of any other kind the predicate is false without
/// evaluating anything else: scanning only the named kind changes neither
/// the rows nor the errors.
fn leading_kind(expr: &Expr) -> Option<&str> {
    match expr {
        Expr::Binary(BinOp::And, left, _) => leading_kind(left),
        Expr::Binary(BinOp::Eq, left, right) => match (&**left, &**right) {
            (Expr::Ident(field), Expr::Literal(Value::Str(name)))
            | (Expr::Literal(Value::Str(name)), Expr::Ident(field))
                if field == "kind" =>
            {
                Some(name)
            }
            _ => None,
        },
        _ => None,
    }
}

/// The identifiers a predicate can name, in slot order: every event has
/// every field, so the same predicate evaluates against every event without
/// per-event "unknown identifier" failures.
const FIELDS: [&str; 8] = [
    "correlation",
    "detail",
    "has_value",
    "kind",
    "run",
    "subject",
    "time",
    "value",
];

/// A compiled predicate with the world it is evaluated in: the empty
/// architecture (slots resolve first, so event fields shadow nothing).
struct Predicate {
    program: Program,
    system: System,
}

impl Predicate {
    fn new(expr: &Expr) -> Self {
        Predicate {
            program: Program::compile(expr, &FIELDS),
            system: System::new("tracestore"),
        }
    }

    /// Fills one slot per [`FIELDS`] entry from the event, borrowing its
    /// strings. An absent payload binds `value` to `NaN` (comparisons
    /// against it are false) and `correlation` to `-1`.
    fn test(&self, run_id: Key, event: &TraceEvent) -> Result<bool, QueryError> {
        let fields = [
            Some(Operand::Int(event.correlation.map_or(-1, |c| c as i64))),
            Some(Operand::Str(event.detail.as_str())),
            Some(Operand::Bool(event.value.is_some())),
            Some(Operand::Str(event.kind.name())),
            Some(Operand::Str(run_id.as_str())),
            Some(Operand::Str(event.subject.as_str())),
            Some(Operand::Float(event.time_secs)),
            Some(Operand::Float(event.value.unwrap_or(f64::NAN))),
        ];
        self.program
            .eval_bool(&self.system, &fields)
            .map_err(|e| QueryError::Eval(format!("{e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_runs(tag: &str) -> (std::path::PathBuf, TraceStore) {
        let dir =
            std::env::temp_dir().join(format!("tracestore-query-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = TraceStore::open(&dir).unwrap();
        store
            .append_run(
                "paper/step/adaptive/seed42/adaptive",
                &[
                    TraceEvent::new(10.0, EventKind::Fault, "R2-R3", "link cut"),
                    TraceEvent::new(12.0, EventKind::Violation, "C3", "minBandwidth"),
                    TraceEvent::new(30.0, EventKind::Violation, "C4", "minBandwidth"),
                    TraceEvent::new(31.0, EventKind::Transfer, "C4", "SG1").with_value(0.5),
                ],
            )
            .unwrap();
        store
            .append_run(
                "paper/step/adaptive/seed7/control",
                &[
                    TraceEvent::new(11.0, EventKind::Violation, "C3", "minBandwidth"),
                    TraceEvent::new(50.0, EventKind::Transfer, "C3", "SG2").with_value(1.5),
                ],
            )
            .unwrap();
        (dir, store)
    }

    #[test]
    fn filters_compose_and_iterate_in_replay_order() {
        let (dir, store) = store_with_runs("filters");
        let all = Query::new().execute(&store).unwrap();
        assert_eq!(all.len(), 6);
        assert!(all.windows(2).all(|w| w[0].run_id <= w[1].run_id));

        let violations = Query::new()
            .kind(EventKind::Violation)
            .execute(&store)
            .unwrap();
        assert_eq!(violations.len(), 3);

        let adaptive_early = Query::new()
            .run_contains("seed42/adaptive")
            .window(0.0, 15.0)
            .execute(&store)
            .unwrap();
        assert_eq!(adaptive_early.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expr_predicates_see_every_event_field() {
        let (dir, store) = store_with_runs("expr");
        let rows = Query::new()
            .predicate("kind == \"violation\" and subject == \"C3\"")
            .unwrap()
            .execute(&store)
            .unwrap();
        assert_eq!(rows.len(), 2);

        // NaN payloads never compare true: only the real transfers match.
        let slow = Query::new()
            .predicate("value > 1.0")
            .unwrap()
            .execute(&store)
            .unwrap();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].event.detail, "SG2");

        let has = Query::new()
            .predicate("has_value")
            .unwrap()
            .execute(&store)
            .unwrap();
        assert_eq!(has.len(), 2);

        assert!(Query::new().predicate("kind ==").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The windowed execution path (checkpoint seek) returns exactly what a
    /// full scan filtered by the same query returns — the gate behind the
    /// `.idx` time-offset section.
    #[test]
    fn windowed_queries_match_full_scans() {
        let dir =
            std::env::temp_dir().join(format!("tracestore-query-window-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = TraceStore::open(&dir).unwrap();
        let events: Vec<TraceEvent> = (0..500)
            .map(|i| {
                TraceEvent::new(
                    i as f64 * 2.0,
                    EventKind::Gauge,
                    &format!("C{}", i % 5),
                    "latency",
                )
                .with_value(i as f64)
            })
            .collect();
        store.append_run("long-run", &events).unwrap();
        for (from, until) in [
            (0.0, 1000.0),
            (333.0, 500.0),
            (900.0, 950.0),
            (999.5, 999.6),
        ] {
            let query = Query::new().window(from, until);
            let seeked = query.execute(&store).unwrap();
            let mut scanned = Vec::new();
            for meta in store.runs() {
                for event in store.read_run(meta.run_id.as_str()).unwrap() {
                    if query.matches(meta.run_id, &event).unwrap() {
                        scanned.push(QueryRow {
                            run_id: meta.run_id,
                            event,
                        });
                    }
                }
            }
            assert_eq!(seeked, scanned, "window [{from}, {until}]");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
