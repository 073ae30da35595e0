//! The unified trace-event record.
//!
//! Every observation source in the stack — monitoring gauges, constraint
//! checking, repair execution, fault injection, the grid application's
//! transfer lifecycle — maps onto one flat [`TraceEvent`] shape, so a single
//! store and query layer serves them all. Events carry their run-local
//! simulation time; the run id is supplied when a run's events are appended
//! to a [`TraceStore`](crate::store::TraceStore) and travels alongside the
//! event in query results. Emitters hand a sink the borrowed [`EventRef`]
//! view, which a run buffer encodes on arrival: between emission and disk an
//! event is never an owned value. Reading decodes a `Record`, whose strings
//! are still bytes; a read that hands back owned events turns each record
//! into one through one `StringTable` per call, which checks each distinct
//! string as UTF-8 once and interns it as an `archmodel::Key`. An owned
//! event therefore holds no allocation of its own: it is `Copy`, and a
//! vector of them drops as one free. A `Key` is one word, so an event is 64
//! bytes.

use archmodel::Key;
use std::fmt;
use std::io;
use std::str::Utf8Error;

/// What kind of observation an event records, in stable on-disk code order.
///
/// The discriminants are the on-disk codes; they must never be renumbered
/// (append new kinds at the end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A gauge reading delivered to the model updater.
    Gauge = 0,
    /// A constraint violation detected by the framework.
    Violation = 1,
    /// A repair began executing.
    RepairStart = 2,
    /// A repair completed and its changes were committed.
    RepairEnd = 3,
    /// A repair was abandoned (no applicable tactic, or it failed hard).
    RepairAborted = 4,
    /// A runtime reconfiguration operation was executed.
    Reconfiguration = 5,
    /// A fault action was applied to the running system.
    Fault = 6,
    /// A request/transfer completed at the application layer.
    Transfer = 7,
    /// Anything else worth keeping (deploy notices, planner notes).
    Info = 8,
    /// A control-plane metric snapshot sample (a deterministic counter or
    /// gauge from the framework's self-observability registry, emitted at a
    /// fixed sim-time cadence).
    Metric = 9,
    /// An online anomaly detector flagged a gauge stream *before* any
    /// invariant tripped: subject is the observed element, detail names the
    /// property, detector, and predicted invariant, and the value carries
    /// the detector score. Advisories are observations, never actions.
    Advisory = 10,
}

impl EventKind {
    /// Every kind, in code order.
    pub const ALL: [EventKind; 11] = [
        EventKind::Gauge,
        EventKind::Violation,
        EventKind::RepairStart,
        EventKind::RepairEnd,
        EventKind::RepairAborted,
        EventKind::Reconfiguration,
        EventKind::Fault,
        EventKind::Transfer,
        EventKind::Info,
        EventKind::Metric,
        EventKind::Advisory,
    ];

    /// The stable on-disk code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes an on-disk code.
    pub fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.get(code as usize).copied()
    }

    /// The query-facing name (what the `kind` field binds to in an expr
    /// predicate and what `--kind` filters parse).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Gauge => "gauge",
            EventKind::Violation => "violation",
            EventKind::RepairStart => "repair-start",
            EventKind::RepairEnd => "repair-end",
            EventKind::RepairAborted => "repair-aborted",
            EventKind::Reconfiguration => "reconfiguration",
            EventKind::Fault => "fault",
            EventKind::Transfer => "transfer",
            EventKind::Info => "info",
            EventKind::Metric => "metric",
            EventKind::Advisory => "advisory",
        }
    }

    /// Parses a query-facing name.
    pub fn by_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observation from a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the observation, seconds since the run started.
    pub time_secs: f64,
    /// What kind of observation this is.
    pub kind: EventKind,
    /// The architectural element or run entity observed (a client, server,
    /// link, gauge target, or repair subject name), interned: the same
    /// names the architecture model's `Key`s hold.
    pub subject: Key,
    /// Free-form qualifier: the violated invariant, the repair description,
    /// the fault action, the gauge property, the transfer's server group.
    /// Interned like [`subject`](Self::subject).
    pub detail: Key,
    /// Numeric payload when the observation has one (gauge value, transfer
    /// latency, capacity factor).
    pub value: Option<f64>,
    /// Correlates the events of one repair (start/ops/end share an id).
    pub correlation: Option<u64>,
}

impl TraceEvent {
    /// A value-less, uncorrelated event; interns `subject` and `detail`.
    pub fn new(time_secs: f64, kind: EventKind, subject: &str, detail: &str) -> Self {
        TraceEvent {
            time_secs,
            kind,
            subject: Key::new(subject),
            detail: Key::new(detail),
            value: None,
            correlation: None,
        }
    }

    /// Attaches a numeric payload.
    pub fn with_value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }

    /// Attaches a repair-correlation id.
    pub fn with_correlation(mut self, correlation: u64) -> Self {
        self.correlation = Some(correlation);
        self
    }

    /// The borrowed view of this event.
    pub fn as_ref(&self) -> EventRef<'_> {
        EventRef {
            time_secs: self.time_secs,
            kind: self.kind,
            subject: self.subject.as_str(),
            detail: self.detail.as_str(),
            value: self.value,
            correlation: self.correlation,
        }
    }
}

/// [`TraceEvent`]'s fields with `subject` and `detail` borrowed: what an
/// emitter hands a [`TraceSink`](crate::sink::TraceSink), borrowing names it
/// already holds so that emitting allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRef<'a> {
    /// See [`TraceEvent::time_secs`].
    pub time_secs: f64,
    /// See [`TraceEvent::kind`].
    pub kind: EventKind,
    /// See [`TraceEvent::subject`].
    pub subject: &'a str,
    /// See [`TraceEvent::detail`].
    pub detail: &'a str,
    /// See [`TraceEvent::value`].
    pub value: Option<f64>,
    /// See [`TraceEvent::correlation`].
    pub correlation: Option<u64>,
}

impl<'a> EventRef<'a> {
    /// A value-less, uncorrelated view.
    pub fn new(time_secs: f64, kind: EventKind, subject: &'a str, detail: &'a str) -> Self {
        EventRef {
            time_secs,
            kind,
            subject,
            detail,
            value: None,
            correlation: None,
        }
    }

    /// Attaches a numeric payload.
    pub fn with_value(self, value: f64) -> Self {
        EventRef {
            value: Some(value),
            ..self
        }
    }

    /// Attaches a repair-correlation id.
    pub fn with_correlation(self, correlation: u64) -> Self {
        EventRef {
            correlation: Some(correlation),
            ..self
        }
    }
}

/// One record as the decoder reads it: [`EventRef`]'s fields with `subject`
/// and `detail` still the segment's bytes. They become strings only through a
/// [`StringTable`], which checks each distinct one as UTF-8 once, so a scan
/// that drops a record by its kind or time never checks its strings at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Record<'a> {
    pub(crate) time_secs: f64,
    pub(crate) kind: EventKind,
    pub(crate) subject: &'a [u8],
    pub(crate) detail: &'a [u8],
    pub(crate) value: Option<f64>,
    pub(crate) correlation: Option<u64>,
}

impl<'a> Record<'a> {
    /// Decodes one record (the layout of
    /// [`RunBuffer::push`](crate::store::RunBuffer::push)) from the front of
    /// `buf` and advances `buf` past it: the one record decoder. A length
    /// that exceeds what is left of `buf` is an error before anything is
    /// allocated.
    pub(crate) fn decode(buf: &mut &'a [u8]) -> io::Result<Record<'a>> {
        let [code, flags] = take_array(buf)?;
        let kind = EventKind::from_code(code)
            .ok_or_else(|| invalid(format!("unknown event-kind code {code}")))?;
        Ok(Record {
            kind,
            time_secs: f64::from_le_bytes(take_array(buf)?),
            subject: take_bytes(buf)?,
            detail: take_bytes(buf)?,
            value: (flags & 1 != 0)
                .then(|| take_array(buf).map(f64::from_le_bytes))
                .transpose()?,
            correlation: (flags & 2 != 0)
                .then(|| take_array(buf).map(u64::from_le_bytes))
                .transpose()?,
        })
    }
}

/// One call's front cache onto the process-wide interner, keyed by bytes:
/// each distinct subject or detail is checked as UTF-8 and interned once per
/// call, when it first enters the table, and every later event that holds it
/// copies the cached [`Key`] without touching the interner's lock. The table
/// is dropped when its call returns; the interned names are not (see
/// `archmodel::Key` for what bounds them).
///
/// A query looks up two strings per row among a few hundred distinct ones,
/// so the lookup is the scan's inner loop: the table is open-addressed with
/// linear probing, at most half full, and each slot keeps its string's
/// [`Fingerprint`], which decides equality for strings of up to 16 bytes
/// without comparing them byte by byte.
#[derive(Default)]
pub(crate) struct StringTable {
    /// A power of two of slots, or none before the first string.
    slots: Vec<Option<(Fingerprint, Key)>>,
    /// Occupied slots.
    len: usize,
}

/// A string's length and two words read from its ends, which between them
/// hold every byte of a string of up to 16 bytes: from 8 bytes on the first
/// and the last eight (overlapping below 16), from 4 the first and last four,
/// below that the first, middle and last byte.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    len: usize,
    head: u64,
    tail: u64,
}

/// Strings longer than this share a fingerprint only if their middles do too,
/// which the table then compares.
const FINGERPRINT_BYTES: usize = 16;

impl Fingerprint {
    fn of(bytes: &[u8]) -> Fingerprint {
        let len = bytes.len();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                bytes[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        let (head, tail) = match len {
            0 => (0, 0),
            1..4 => (
                u64::from(bytes[0]) | u64::from(bytes[len / 2]) << 8,
                u64::from(bytes[len - 1]),
            ),
            4..8 => (half(0), half(len - 4)),
            _ => (word(0), word(len - 8)),
        };
        Fingerprint { len, head, tail }
    }

    /// The home slot's hash: two rounds of Fx's rotate, xor and multiply
    /// (rustc's). Fx offers no defence against keys crafted to collide,
    /// which here could only slow a query over a store written to do so.
    fn hash(self) -> u64 {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let round = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(K);
        round(round(self.len as u64, self.head), self.tail)
    }
}

impl StringTable {
    /// The key of `bytes`, checked as UTF-8 and interned the first time the
    /// table sees them and copied from the table every time after.
    fn intern(&mut self, bytes: &[u8]) -> Result<Key, Utf8Error> {
        let print = Fingerprint::of(bytes);
        let hash = print.hash();
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = (hash >> 32) as usize;
        while let Some(&Some((stored, key))) = self.slots.get(at & mask) {
            let text = key.as_str().as_bytes();
            if stored == print && (print.len <= FINGERPRINT_BYTES || text == bytes) {
                return Ok(key);
            }
            at += 1;
        }
        let key = Key::new(std::str::from_utf8(bytes)?);
        if 2 * (self.len + 1) > self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            self.slots.resize(old.len().max(32) * 2, None);
            for (print, key) in old.into_iter().flatten() {
                self.place(print, key);
            }
        }
        self.place(print, key);
        self.len += 1;
        Ok(key)
    }

    /// Stores `key` in the first free slot from its home slot on.
    fn place(&mut self, print: Fingerprint, key: Key) {
        let mask = self.slots.len() - 1;
        let mut at = (print.hash() >> 32) as usize & mask;
        while self.slots[at].is_some() {
            at = (at + 1) & mask;
        }
        self.slots[at] = Some((print, key));
    }

    /// The owned event of `record`, its strings interned through the table.
    pub(crate) fn event(&mut self, record: Record<'_>) -> Result<TraceEvent, Utf8Error> {
        Ok(TraceEvent {
            time_secs: record.time_secs,
            kind: record.kind,
            subject: self.intern(record.subject)?,
            detail: self.intern(record.detail)?,
            value: record.value,
            correlation: record.correlation,
        })
    }
}

/// Splits `len` bytes off the front of `buf`, or fails without allocating
/// when fewer are left.
pub(crate) fn take<'a>(buf: &mut &'a [u8], len: usize) -> io::Result<&'a [u8]> {
    let (head, rest) = buf
        .split_at_checked(len)
        .ok_or(io::ErrorKind::UnexpectedEof)?;
    *buf = rest;
    Ok(head)
}

/// [`take`] for a fixed-width field.
pub(crate) fn take_array<const N: usize>(buf: &mut &[u8]) -> io::Result<[u8; N]> {
    take(buf, N).map(|bytes| bytes.try_into().expect("take returned N bytes"))
}

/// A length-prefixed (`u32`) byte string.
fn take_bytes<'a>(buf: &mut &'a [u8]) -> io::Result<&'a [u8]> {
    let len = u32::from_le_bytes(take_array(buf)?) as usize;
    take(buf, len)
}

/// A decoding failure that is not a short read.
pub(crate) fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RunBuffer;

    /// The segment bytes of `events`, from the one encoder.
    fn encoded(events: &[TraceEvent]) -> Vec<u8> {
        let mut run = RunBuffer::default();
        for ev in events {
            run.push(ev.as_ref());
        }
        run.segment.iter().flatten().copied().collect()
    }

    #[test]
    fn kind_codes_round_trip_and_names_parse() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
            assert_eq!(EventKind::by_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(EventKind::from_code(200), None);
        assert_eq!(EventKind::by_name("meteor"), None);
    }

    #[test]
    fn binary_round_trip_preserves_every_field() {
        let events = vec![
            TraceEvent::new(0.0, EventKind::Info, "", ""),
            TraceEvent::new(12.5, EventKind::Gauge, "C3", "availableBandwidth").with_value(9.5e6),
            TraceEvent::new(13.0, EventKind::RepairStart, "C3", "moveClient").with_correlation(7),
            TraceEvent::new(-1.0, EventKind::Fault, "R2-R3", "link cut")
                .with_value(f64::NEG_INFINITY)
                .with_correlation(u64::MAX),
        ];
        let buf = encoded(&events);
        let mut cursor = &buf[..];
        let mut strings = StringTable::default();
        for ev in &events {
            let record = Record::decode(&mut cursor).unwrap();
            assert_eq!(record.subject, ev.subject.as_str().as_bytes());
            assert_eq!(&strings.event(record).unwrap(), ev);
        }
        assert!(cursor.is_empty());
        // The builders make the view the owned event lends.
        let fault = EventRef::new(-1.0, EventKind::Fault, "R2-R3", "link cut")
            .with_value(f64::NEG_INFINITY)
            .with_correlation(u64::MAX);
        assert_eq!(fault, events[3].as_ref());
    }

    #[test]
    fn truncated_records_and_bad_codes_are_errors() {
        let buf =
            encoded(&[TraceEvent::new(1.0, EventKind::Transfer, "C1", "SG1").with_value(0.25)]);
        for cut in 1..buf.len() {
            assert!(Record::decode(&mut &buf[..cut]).is_err(), "{cut}");
        }
        // A length with a flipped high bit is an error, not a 2 GiB buffer.
        let mut long = buf.clone();
        long[13] |= 0x80;
        assert!(Record::decode(&mut &long[..]).is_err());
        let mut bad = buf.clone();
        bad[0] = 250;
        assert!(Record::decode(&mut &bad[..]).is_err());
        // A string that is not UTF-8 decodes as bytes and fails in the table,
        // every time it is asked for: a miss caches nothing.
        let mut utf8 = buf.clone();
        utf8[14] = 0xff;
        let record = Record::decode(&mut &utf8[..]).unwrap();
        assert_eq!(record.subject, b"\xff1");
        let mut strings = StringTable::default();
        assert!(strings.event(record).is_err());
        assert!(strings.event(record).is_err());
    }

    #[test]
    fn the_table_shares_equal_strings_and_keeps_distinct_ones_apart() {
        // Strings of every length around the fingerprint's cases over a
        // two-letter alphabet; past 16 bytes both ends are fixed, so that
        // strings of one length share a fingerprint and differ only in the
        // middle. The oracle is keyed by the whole string: an equal string
        // must come back as the key it got first, a distinct one as its own.
        let mut strings = StringTable::default();
        let mut oracle: std::collections::HashMap<Vec<u8>, Key> = Default::default();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % 41) as usize;
            let end = |i: usize| len > FINGERPRINT_BYTES && (i < 8 || i >= len - 8);
            let bytes: Vec<u8> = (0..len)
                .map(|i| {
                    if end(i) {
                        b'a'
                    } else {
                        b'a' + (state >> (8 + i % 48) & 1) as u8
                    }
                })
                .collect();
            let key = strings.intern(&bytes).unwrap();
            assert_eq!(key.as_str().as_bytes(), &bytes[..]);
            assert_eq!(*oracle.entry(bytes).or_insert(key), key);
        }
        assert_eq!(strings.len, oracle.len());
        assert!(oracle.keys().any(|k| k.len() > FINGERPRINT_BYTES + 2));
    }

    #[test]
    fn rows_and_events_own_nothing_a_drop_must_free() {
        // A heap-owning field would bring back a decrement or a free per row.
        assert!(!std::mem::needs_drop::<TraceEvent>());
        assert!(!std::mem::needs_drop::<crate::QueryRow>());
        // A one-word `Key` keeps an event to 64 bytes and a row to 72.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 64);
        assert_eq!(std::mem::size_of::<crate::QueryRow>(), 72);
    }
}
