//! Property tests for the trace store: arbitrary event streams appended as
//! runs must read back bit-identical — through the full-run reader, the
//! per-kind index, and the query engine — and must survive a close/reopen
//! cycle (i.e. everything really is on disk, not in the writing process).
//! Two more properties pin the read path: `Query::execute` equals the
//! per-event `Query::matches` folded over `read_run`, and a structurally
//! damaged store answers with an error or the undamaged answer, never with
//! different rows or a panic. A sink-fed `RunBuffer` writes what
//! `append_run` writes, also past many of its chunks. Every owned read interns its strings: within one
//! result, equal subjects and details are one key at one address. A NaN
//! payload or time reduces without a panic.

use archmodel::Key;
use proptest::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use tracestore::{
    aggregate_rows, leadtime_rows, mttr_rows, near_fault_rows, AggregateOp, EventKind, GroupBy,
    Query, QueryError, QueryRow, StoreError, TraceEvent, TraceStore,
};

const KINDS: [EventKind; 9] = [
    EventKind::Gauge,
    EventKind::Violation,
    EventKind::RepairStart,
    EventKind::RepairEnd,
    EventKind::RepairAborted,
    EventKind::Reconfiguration,
    EventKind::Fault,
    EventKind::Transfer,
    EventKind::Info,
];

const WORDS: [&str; 8] = [
    "User1",
    "ServerGrp2",
    "link-3",
    "bandwidth",
    "latency: too slow",
    "",
    "tabs\tand\nnewlines",
    "unicode: grüße ✓",
];

/// Decodes one generated event from three raw draws, covering every kind,
/// awkward strings (empty, control characters, unicode), and the
/// present/absent states of the optional fields, including non-finite
/// values.
fn event(raw: (u64, u64, u64)) -> TraceEvent {
    let (a, b, c) = raw;
    let kind = KINDS[(a % KINDS.len() as u64) as usize];
    let subject = WORDS[((a >> 8) % WORDS.len() as u64) as usize];
    let detail = WORDS[((a >> 16) % WORDS.len() as u64) as usize];
    let time = (b % 1_000_000) as f64 / 10.0;
    let mut event = TraceEvent::new(time, kind, subject, detail);
    match c % 4 {
        0 => {}
        1 => event = event.with_value((c as f64) / 1e6 - 1e12),
        2 => event = event.with_correlation(c),
        _ => {
            let value = match c % 7 {
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => -0.0,
                _ => (c as f64) / 997.0,
            };
            event = event.with_value(value).with_correlation(c >> 3);
        }
    }
    event
}

/// [`event`], with a NaN value one draw in eleven.
fn event_or_nan(raw: (u64, u64, u64)) -> TraceEvent {
    let event = event(raw);
    match raw.2 % 11 {
        0 => event.with_value(f64::NAN),
        _ => event,
    }
}

/// An event's fields with its floats as bits, so a NaN equals itself.
type Bits<'a> = (u64, EventKind, &'a str, &'a str, Option<u64>, Option<u64>);

fn bits(e: &TraceEvent) -> Bits<'_> {
    let value = e.value.map(f64::to_bits);
    (
        e.time_secs.to_bits(),
        e.kind,
        e.subject.as_str(),
        e.detail.as_str(),
        value,
        e.correlation,
    )
}

/// Whether every subject and detail among `events` that equals an earlier one
/// is the key it got (`Key`'s `==` compares addresses): what one owned
/// read's string table promises.
fn shares_strings<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> bool {
    let mut first: HashMap<&str, Key> = HashMap::new();
    events
        .into_iter()
        .flat_map(|e| [e.subject, e.detail])
        .all(|key| *first.entry(key.as_str()).or_insert(key) == key)
}

/// The record layout `RunBuffer::push` documents, written out by hand.
fn reference_segment(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in events {
        let flags = u8::from(e.value.is_some()) | (u8::from(e.correlation.is_some()) << 1);
        out.extend([e.kind.code(), flags]);
        out.extend(e.time_secs.to_le_bytes());
        for text in [e.subject.as_str(), e.detail.as_str()] {
            out.extend((text.len() as u32).to_le_bytes());
            out.extend(text.as_bytes());
        }
        out.extend(e.value.iter().flat_map(|v| v.to_le_bytes()));
        out.extend(e.correlation.iter().flat_map(|c| c.to_le_bytes()));
    }
    out
}

/// A scratch directory that cleans up after itself.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let path =
            std::env::temp_dir().join(format!("tracestore-roundtrip-{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).unwrap();
        }
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn appended_runs_read_back_bit_identical(
        raws in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            0..120,
        ),
        split in 0usize..120,
    ) {
        let dir = ScratchDir::new("bits");
        // Split the generated stream into two runs (either may be empty).
        let split = split.min(raws.len());
        let runs: Vec<(&str, Vec<TraceEvent>)> = vec![
            ("paper/step/adaptive/90s/none/seed42/control",
             raws[..split].iter().map(|r| event(*r)).collect()),
            ("paper/step/adaptive/90s/none/seed42/adaptive",
             raws[split..].iter().map(|r| event(*r)).collect()),
        ];

        {
            let mut store = TraceStore::open(&dir.0).unwrap();
            for (run_id, events) in &runs {
                store.append_run(run_id, events).unwrap();
            }
        }

        // Reopen from disk: the manifest, segments, and indices must carry
        // the full state.
        let store = TraceStore::open(&dir.0).unwrap();
        prop_assert_eq!(
            store.total_events(),
            raws.len() as u64
        );
        for (run_id, events) in &runs {
            // Full-run read is bit-identical (NaN-free inputs, so equality
            // is exact; non-finite values round-trip through the codec).
            let read = store.read_run(run_id).unwrap();
            prop_assert_eq!(&read, events);
            prop_assert!(shares_strings(&read));
            // The per-kind index returns exactly the filtered subsequence,
            // in the same order.
            for kind in KINDS {
                let expect: Vec<TraceEvent> = events
                    .iter()
                    .filter(|e| e.kind == kind)
                    .cloned()
                    .collect();
                let read = store.read_run_kind(run_id, kind).unwrap();
                prop_assert!(shares_strings(&read));
                prop_assert_eq!(read, expect);
            }
            prop_assert!(shares_strings(&store.read_run_from(run_id, 5_000.0).unwrap()));
        }

        // The query engine's unfiltered scan replays every run in append
        // order with run ids attached, sharing strings across runs.
        let rows = Query::new().execute(&store).unwrap();
        prop_assert!(shares_strings(rows.iter().map(|r| &r.event)));
        let replay: Vec<(&str, &TraceEvent)> =
            rows.iter().map(|r| (r.run_id.as_str(), &r.event)).collect();
        let expect: Vec<(&str, &TraceEvent)> = runs
            .iter()
            .flat_map(|(run_id, events)| events.iter().map(move |e| (*run_id, e)))
            .collect();
        prop_assert_eq!(replay, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A kind-filtered, windowed query equals the brute-force filter over
    /// the raw stream — the indexed fast path takes no shortcuts.
    #[test]
    fn indexed_query_matches_linear_scan(
        raws in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..100,
        ),
        kind_pick in 0usize..KINDS.len(),
        from in 0u64..50_000,
        span in 0u64..50_000,
    ) {
        let dir = ScratchDir::new("query");
        let events: Vec<TraceEvent> = raws.iter().map(|r| event(*r)).collect();
        {
            let mut store = TraceStore::open(&dir.0).unwrap();
            store.append_run("paper/step/adaptive/90s/none/seed7/adaptive", &events).unwrap();
        }
        let store = TraceStore::open(&dir.0).unwrap();

        let kind = KINDS[kind_pick];
        let (from, until) = (from as f64 / 10.0, (from + span) as f64 / 10.0);
        let rows = Query::new()
            .kind(kind)
            .window(from, until)
            .execute(&store)
            .unwrap();
        let got: Vec<&TraceEvent> = rows.iter().map(|r| &r.event).collect();
        let expect: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == kind && e.time_secs >= from && e.time_secs <= until)
            .collect();
        prop_assert_eq!(got, expect);
    }
}

/// Predicates over every binding shape the hoisted evaluator has to get
/// right: fields it must bind, fields it may leave out, an identifier no
/// event binds (an `Eval` error, on every event or only where the left
/// operand lets evaluation reach it), a non-boolean result, and a field
/// name re-bound by a quantifier. Then the shapes kind narrowing must tell
/// apart: a kind comparison leading the `and`s either way round, alone, or
/// naming no kind (nothing is scanned, and the `nonesuch` it guards is never
/// reached), and one that is not the leftmost operand or sits under `or`,
/// which must scan every record — the first fails on any record of another
/// kind.
const PREDICATES: [&str; 14] = [
    "kind == \"transfer\" and value > 2.0",
    "has_value",
    "run != \"paper/step/adaptive/90s/none/seed42/control\" and subject == \"User1\" or time >= 50000",
    "correlation >= 0 and detail != \"\"",
    "nonesuch > 1",
    "kind == \"gauge\" and nonesuch",
    "value",
    "time > 100 and not (exists time in components | true)",
    "subject == detail",
    "\"fault\" == kind and subject != \"User1\" and value < 0",
    "kind == \"repair-start\"",
    "kind == \"meteor\" and nonesuch",
    "(kind == \"transfer\" or nonesuch) and kind == \"transfer\"",
    "kind == \"fault\" or value > 2.0",
];

/// The definition `execute` is held to: `matches`, event by event, over the
/// full-scan reader.
fn oracle(query: &Query, store: &TraceStore) -> Result<Vec<QueryRow>, QueryError> {
    let mut rows = Vec::new();
    for meta in store.runs() {
        for event in store.read_run(meta.run_id.as_str())? {
            if query.matches(meta.run_id, &event)? {
                rows.push(QueryRow {
                    run_id: meta.run_id,
                    event,
                });
            }
        }
    }
    Ok(rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn execute_equals_matches_folded_over_read_run(
        raws in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            0..200,
        ),
        split in 0usize..200,
        shape in (0usize..4, 0usize..3, 0u64..100_000),
        kind_picks in (0usize..KINDS.len(), 0usize..KINDS.len()),
    ) {
        let dir = ScratchDir::new("oracle");
        let split = split.min(raws.len());
        {
            let mut store = TraceStore::open(&dir.0).unwrap();
            for (run_id, raws) in [
                ("paper/step/adaptive/90s/none/seed42/control", &raws[..split]),
                ("paper/step/adaptive/90s/none/seed42/adaptive", &raws[split..]),
            ] {
                let events: Vec<TraceEvent> = raws.iter().map(|r| event(*r)).collect();
                store.append_run(run_id, &events).unwrap();
            }
        }
        let store = TraceStore::open(&dir.0).unwrap();

        // One random run / kind / window shape, under every predicate.
        let (run_pick, kinds, from) = shape;
        for predicate in std::iter::once(None).chain(PREDICATES.map(Some)) {
            let mut query = Query::new();
            if let Some(needle) = ["/adaptive", "seed42", "nowhere"].get(run_pick) {
                query = query.run_contains(*needle);
            }
            for kind in [kind_picks.0, kind_picks.1].iter().take(kinds) {
                query = query.kind(KINDS[*kind]);
            }
            if from % 2 == 0 {
                query = query.window(from as f64 / 10.0, from as f64 / 5.0 + 100.0);
            }
            if let Some(source) = predicate {
                query = query.predicate(source).unwrap();
            }
            // Rows and error alike: `Display` carries the variant and its text.
            let rows = query.execute(&store).map_err(|e| e.to_string());
            if let Ok(rows) = &rows {
                prop_assert!(shares_strings(rows.iter().map(|r| &r.event)), "{:?}", query);
            }
            prop_assert_eq!(
                rows,
                oracle(&query, &store).map_err(|e| e.to_string()),
                "{:?}", query
            );
        }
    }
}

const RUN: &str = "paper/step/adaptive/90s/none/seed42/adaptive";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A `BufferSink` fed the events' views, then persisted, writes the
    /// bytes `append_run` writes, in the documented record layout, and
    /// `take` hands the events back — at each length around the checkpoint
    /// stride, through one sink that each `take` empties.
    #[test]
    fn a_buffer_sink_persists_what_append_run_writes(
        raws in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            129,
        ),
        extra in 0usize..129,
    ) {
        let events: Vec<TraceEvent> = raws.iter().map(|r| event_or_nan(*r)).collect();
        let (buffer, sink) = tracestore::shared_buffer();
        for len in [0, 63, 64, 65, 129, extra] {
            let events = &events[..len];
            for event in events {
                sink.append(event.as_ref());
            }
            let taken = buffer.take();
            prop_assert!(shares_strings(&taken));
            prop_assert_eq!(
                taken.iter().map(bits).collect::<Vec<_>>(),
                events.iter().map(bits).collect::<Vec<_>>()
            );

            for event in events {
                sink.append(event.as_ref());
            }
            let (sunk, appended) = (ScratchDir::new("sunk"), ScratchDir::new("appended"));
            TraceStore::open(&sunk.0).unwrap().append_buffer(RUN, &buffer.take_run()).unwrap();
            TraceStore::open(&appended.0).unwrap().append_run(RUN, events).unwrap();
            prop_assert_eq!(
                std::fs::read(sunk.0.join("000000.seg")).unwrap(),
                reference_segment(events)
            );
            for name in ["MANIFEST", "000000.seg", "000000.idx"] {
                prop_assert_eq!(
                    std::fs::read(sunk.0.join(name)).unwrap(),
                    std::fs::read(appended.0.join(name)).unwrap(),
                    "{} differs at length {}", name, len
                );
            }
        }
    }
}

/// A sink-fed run far past the run buffer's largest chunk (64 KiB), with
/// records longer than a chunk among ordinary ones, still writes the
/// documented layout and reads back whole: no record is split between two
/// chunks, and the offsets and time checkpoints cross chunk boundaries
/// intact (the run's times rise, so a window read skips its prefix).
#[test]
fn a_run_of_many_chunks_and_oversized_records_round_trips() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let long = ["x".repeat(70_000), "y".repeat(200_000)];
    let events: Vec<TraceEvent> = (0..12_000)
        .map(|i| match i {
            2_500 | 9_000 => TraceEvent::new(i as f64, EventKind::Info, "long", &long[0]),
            6_000 => TraceEvent::new(i as f64, EventKind::Fault, &long[1], "long"),
            _ => TraceEvent {
                time_secs: i as f64,
                ..event((draw(), draw(), draw()))
            },
        })
        .collect();
    let (buffer, sink) = tracestore::shared_buffer();
    events.iter().for_each(|e| sink.append(e.as_ref()));
    assert_eq!(buffer.take(), events);

    events.iter().for_each(|e| sink.append(e.as_ref()));
    let dir = ScratchDir::new("chunks");
    let mut store = TraceStore::open(&dir.0).unwrap();
    store.append_buffer(RUN, &buffer.take_run()).unwrap();
    let segment = std::fs::read(dir.0.join("000000.seg")).unwrap();
    assert!(segment.len() > 10 * 65_536, "{} bytes", segment.len());
    assert_eq!(segment, reference_segment(&events));
    let store = TraceStore::open(&dir.0).unwrap();
    assert_eq!(store.read_run(RUN).unwrap(), events);
    for kind in KINDS {
        let expect: Vec<TraceEvent> = events.iter().filter(|e| e.kind == kind).cloned().collect();
        assert_eq!(store.read_run_kind(RUN, kind).unwrap(), expect, "{kind}");
    }
    let suffix = store.read_run_from(RUN, 5_000.0).unwrap();
    let skipped = &events[..events.len() - suffix.len()];
    assert!(events.ends_with(&suffix) && skipped.iter().all(|e| e.time_secs < 5_000.0));
    assert!(
        skipped.len() > 4_900,
        "a checkpoint skips all but the last stride"
    );
}

/// The store takes NaN payloads and times, so every canned reduction must
/// answer over them: a NaN sorts by `total_cmp` and matches nothing.
#[test]
fn nan_payloads_and_times_reduce_without_panicking() {
    let dir = ScratchDir::new("nan");
    let nan = f64::NAN;
    let events = [
        TraceEvent::new(10.0, EventKind::Fault, "R2-R3", "link cut"),
        TraceEvent::new(nan, EventKind::Fault, "R1-R2", "link cut"),
        TraceEvent::new(nan, EventKind::RepairEnd, "C4", "moveClient"),
        TraceEvent::new(14.0, EventKind::RepairEnd, "C4", "moveClient"),
        TraceEvent::new(12.0, EventKind::RepairEnd, "C3", "moveClient"),
        TraceEvent::new(12.0, EventKind::Violation, "C4", "maxLatency"),
        TraceEvent::new(100.0, EventKind::Advisory, "C3", "latency/ewma").with_value(nan),
        TraceEvent::new(nan, EventKind::Advisory, "C3", "latency/ph").with_value(2.0),
        TraceEvent::new(nan, EventKind::Violation, "C3", "maxLatency"),
        TraceEvent::new(120.0, EventKind::Violation, "C3", "maxLatency"),
        TraceEvent::new(115.0, EventKind::Violation, "C3", "maxLatency"),
        TraceEvent::new(20.0, EventKind::Transfer, "C1", "SG1").with_value(nan),
        TraceEvent::new(21.0, EventKind::Transfer, "C1", "SG1").with_value(1.0),
        TraceEvent::new(22.0, EventKind::Transfer, "C2", "SG1").with_value(2.0),
    ];
    TraceStore::open(&dir.0)
        .unwrap()
        .append_run(RUN, &events)
        .unwrap();
    let rows = Query::new()
        .execute(&TraceStore::open(&dir.0).unwrap())
        .unwrap();
    assert_eq!(rows.len(), events.len());

    for op in ["count", "mean", "min", "max", "sum", "p95"] {
        let op = AggregateOp::by_name(op).unwrap();
        for group_by in [GroupBy::None, GroupBy::Subject] {
            let groups = aggregate_rows(&rows, op, group_by);
            assert_eq!(groups.iter().map(|g| g.count).sum::<usize>(), rows.len());
        }
    }
    let p95 = aggregate_rows(&rows, AggregateOp::P95, GroupBy::None);
    assert!(
        p95[0].value.is_some_and(f64::is_nan),
        "NaN ranks above +inf"
    );
    let min = aggregate_rows(&rows, AggregateOp::Min, GroupBy::None);
    assert_eq!(min[0].value, Some(1.0));

    // The fault at 10 s is repaired at 12 s; the one at NaN never is.
    let mttr = mttr_rows(&rows);
    assert_eq!((mttr[0].count, mttr[0].value), (2, Some(2.0)));

    // C3's advisory at 100 s leads its violation at 115 s; the NaN advisory
    // and the NaN violation are counted and match nothing.
    let lead = &leadtime_rows(&rows, 60.0)[0];
    assert_eq!((lead.advisories, lead.violations), (2, 4));
    assert_eq!(
        (lead.matched_advisories, lead.anticipated_violations),
        (1, 2)
    );
    assert_eq!(lead.median_lead_secs, Some(15.0));
    assert_eq!(
        tracestore::aggregate::median_of(&mut [3.0, nan, 1.0]),
        Some(3.0)
    );

    let near = near_fault_rows(&rows, EventKind::Violation, 10.0, GroupBy::Subject);
    assert_eq!(near.len(), 1);
    assert_eq!((near[0].group.as_str(), near[0].count), ("C4", 1));
}

/// What every read path answers about the one-run store at `dir`: the three
/// readers and `Query::execute` down each of its three scans, with a
/// kind-led predicate and with one that reads both strings. `None` stands
/// for a reported failure, which must be `Corrupt` or `Io`.
fn answers(dir: &Path, from: f64) -> Vec<Option<Vec<TraceEvent>>> {
    let store = TraceStore::open(dir).unwrap();
    let mut out = vec![store.read_run(RUN), store.read_run_from(RUN, from)];
    out.extend(KINDS.map(|kind| store.read_run_kind(RUN, kind)));
    let predicate = |source| Query::new().predicate(source).unwrap();
    let queries = [Query::new(), Query::new().window(from, f64::MAX)]
        .into_iter()
        .chain(KINDS.map(|kind| Query::new().kind(kind)))
        .chain([
            predicate("kind == \"transfer\" and value > 2.0"),
            predicate("subject != detail"),
        ]);
    out.extend(queries.map(|query| match query.execute(&store) {
        Ok(rows) => Ok(rows.into_iter().map(|row| row.event).collect()),
        Err(QueryError::Store(e)) => Err(e),
        Err(e) => panic!("a query without a predicate failed to evaluate: {e}"),
    }));
    out.into_iter()
        .map(|answer| match answer {
            Ok(events) => Some(events),
            Err(StoreError::Corrupt(_) | StoreError::Io { .. }) => None,
            Err(e) => panic!("damage reported as {e:?}"),
        })
        .collect()
}

/// Byte positions of the index file's `u64` fields whose damage shows in the
/// structure alone: per-kind offset counts and offsets, then each
/// checkpoint's record index and byte offset. (A checkpoint's prefix time,
/// like a record's payload, can only be vouched for by a checksum.)
fn index_fields(idx: &[u8]) -> Vec<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(idx[at..at + 8].try_into().unwrap());
    let mut fields = Vec::new();
    let mut at = 4;
    for _ in 0..u32::from_le_bytes(idx[..4].try_into().unwrap()) {
        let offsets = u64_at(at + 1) as usize;
        fields.extend((0..=offsets).map(|i| at + 1 + 8 * i));
        at += 1 + 8 + 8 * offsets;
    }
    let checkpoints = u32::from_le_bytes(idx[at..at + 4].try_into().unwrap()) as usize;
    fields.extend((0..checkpoints).flat_map(|i| [at + 4 + 24 * i, at + 12 + 24 * i]));
    fields
}

/// Byte positions of every subject and detail byte in a segment, walking the
/// record layout `RunBuffer::push` documents.
fn string_bytes(seg: &[u8]) -> Vec<usize> {
    let mut positions = Vec::new();
    let mut at = 0;
    while at < seg.len() {
        let flags = seg[at + 1];
        at += 2 + 8;
        for _ in 0..2 {
            let len = u32::from_le_bytes(seg[at..at + 4].try_into().unwrap()) as usize;
            positions.extend(at + 4..at + 4 + len);
            at += 4 + len;
        }
        at += 8 * usize::from(flags & 1) + 8 * usize::from(flags >> 1 & 1);
    }
    positions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_stores_answer_with_an_error_or_the_truth(
        raws in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..200,
        ),
        from in 0u64..100_000,
        damage in (0usize..5, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let dir = ScratchDir::new("damage");
        let events: Vec<TraceEvent> = raws.iter().map(|r| event(*r)).collect();
        TraceStore::open(&dir.0).unwrap().append_run(RUN, &events).unwrap();
        let from = from as f64 / 10.0;
        let truth = answers(&dir.0, from);
        prop_assert!(truth.iter().all(Option::is_some));

        // Truncation and trailing bytes hit the segment or its index; an
        // overwrite turns one index field into anything at all (op 2) or
        // into something within the segment's span (op 3); op 4 writes a
        // byte no UTF-8 string holds into one record's subject or detail.
        let (op, pick, noise) = damage;
        let seg_len = std::fs::metadata(dir.0.join("000000.seg")).unwrap().len();
        let victim = if op == 4 || op < 2 && pick % 2 == 0 { "000000.seg" } else { "000000.idx" };
        let mut bytes = std::fs::read(dir.0.join(victim)).unwrap();
        let mut non_utf8 = false;
        match op {
            0 => bytes.truncate((noise % bytes.len() as u64) as usize),
            1 => bytes.extend(&noise.to_le_bytes()[..1 + (pick % 8) as usize]),
            4 => {
                let strings = string_bytes(&bytes);
                if let Some(&at) = strings.get((pick % strings.len().max(1) as u64) as usize) {
                    bytes[at] = 0xff;
                    non_utf8 = true;
                }
            }
            _ => {
                let fields = index_fields(&bytes);
                let at = fields[(pick % fields.len() as u64) as usize];
                let value = if op == 2 { noise } else { noise % (seg_len + 2) };
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
        std::fs::write(dir.0.join(victim), &bytes).unwrap();

        let damaged = catch_unwind(AssertUnwindSafe(|| answers(&dir.0, from)));
        prop_assert!(damaged.is_ok(), "a read path panicked on op {op}");
        let damaged = damaged.unwrap();
        // `read_run` makes a string of every record's bytes.
        prop_assert!(!non_utf8 || damaged[0].is_none(), "a non-UTF-8 string read back");
        for (path, (damaged, truth)) in damaged.iter().zip(&truth).enumerate() {
            prop_assert!(
                damaged.is_none() || damaged == truth,
                "read path {path} answered differently after op {op}"
            );
        }
    }
}
