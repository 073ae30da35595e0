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
//! event is never an owned value. A read that hands back owned events
//! converts each view through one [`StringTable`] per call, so equal strings
//! in its result are one shared allocation.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::sync::Arc;

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
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the observation, seconds since the run started.
    pub time_secs: f64,
    /// What kind of observation this is.
    pub kind: EventKind,
    /// The architectural element or run entity observed (a client, server,
    /// link, gauge target, or repair subject name). Events read back from a
    /// store or a sink in one call share one allocation per distinct string.
    pub subject: Arc<str>,
    /// Free-form qualifier: the violated invariant, the repair description,
    /// the fault action, the gauge property, the transfer's server group.
    /// Shared like [`subject`](Self::subject), through the same table.
    pub detail: Arc<str>,
    /// Numeric payload when the observation has one (gauge value, transfer
    /// latency, capacity factor).
    pub value: Option<f64>,
    /// Correlates the events of one repair (start/ops/end share an id).
    pub correlation: Option<u64>,
}

impl TraceEvent {
    /// A value-less, uncorrelated event.
    pub fn new(
        time_secs: f64,
        kind: EventKind,
        subject: impl Into<Arc<str>>,
        detail: impl Into<Arc<str>>,
    ) -> Self {
        TraceEvent {
            time_secs,
            kind,
            subject: subject.into(),
            detail: detail.into(),
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
            subject: &self.subject,
            detail: &self.detail,
            value: self.value,
            correlation: self.correlation,
        }
    }
}

/// [`TraceEvent`]'s fields with `subject` and `detail` borrowed: what an
/// emitter hands a [`TraceSink`](crate::sink::TraceSink), borrowing names it
/// already holds so that emitting allocates nothing, and what a scan decodes
/// in place, borrowing the segment so that it can filter before it allocates.
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

    /// Decodes one record (the layout of
    /// [`RunBuffer::push`](crate::store::RunBuffer::push)) from the front of
    /// `buf` and advances `buf` past it. A length that exceeds what is left
    /// of `buf` is an error before anything is allocated.
    pub fn decode(buf: &mut &'a [u8]) -> io::Result<EventRef<'a>> {
        let [code, flags] = take_array(buf)?;
        let kind = EventKind::from_code(code)
            .ok_or_else(|| invalid(format!("unknown event-kind code {code}")))?;
        Ok(EventRef {
            kind,
            time_secs: f64::from_le_bytes(take_array(buf)?),
            subject: take_str(buf)?,
            detail: take_str(buf)?,
            value: (flags & 1 != 0)
                .then(|| take_array(buf).map(f64::from_le_bytes))
                .transpose()?,
            correlation: (flags & 2 != 0)
                .then(|| take_array(buf).map(u64::from_le_bytes))
                .transpose()?,
        })
    }

    /// Copies the view into an owned event whose strings come from `strings`.
    pub(crate) fn to_owned(self, strings: &mut StringTable) -> TraceEvent {
        TraceEvent {
            time_secs: self.time_secs,
            kind: self.kind,
            subject: strings.share(self.subject),
            detail: strings.share(self.detail),
            value: self.value,
            correlation: self.correlation,
        }
    }
}

/// The strings of one call's owned events: each distinct subject or detail is
/// allocated once, and every event that holds it shares that allocation. Each
/// read builds its own table and drops it when it returns, so no string stays
/// allocated once the events holding it are gone.
#[derive(Default)]
pub(crate) struct StringTable(HashSet<Arc<str>, BuildHasherDefault<FxHasher>>);

/// The Fx hash (rustc's): a rotate, xor and multiply per eight bytes. A query
/// looks up two strings per row, and SipHash's per-key cost showed in the
/// scan. Fx offers no defence against keys crafted to collide, which here
/// could only slow a query over a store written to do so.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        // The tail byte by byte: a variable-length copy into a word costs
        // a `memcpy` call, more than hashing the word.
        let tail = words.remainder();
        if !tail.is_empty() {
            let word = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.add(word);
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl StringTable {
    /// The table's copy of `text`, made on first sight.
    fn share(&mut self, text: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(text) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = text.into();
        self.0.insert(Arc::clone(&shared));
        shared
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

fn take_str<'a>(buf: &mut &'a [u8]) -> io::Result<&'a str> {
    let len = u32::from_le_bytes(take_array(buf)?) as usize;
    std::str::from_utf8(take(buf, len)?).map_err(|e| invalid(format!("non-UTF-8 string: {e}")))
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
        run.segment
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
            let view = EventRef::decode(&mut cursor).unwrap();
            assert_eq!(view, ev.as_ref());
            assert_eq!(&view.to_owned(&mut strings), ev);
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
            assert!(EventRef::decode(&mut &buf[..cut]).is_err(), "{cut}");
        }
        // A length with a flipped high bit is an error, not a 2 GiB buffer.
        let mut long = buf.clone();
        long[13] |= 0x80;
        assert!(EventRef::decode(&mut &long[..]).is_err());
        let mut bad = buf.clone();
        bad[0] = 250;
        assert!(EventRef::decode(&mut &bad[..]).is_err());
    }
}
