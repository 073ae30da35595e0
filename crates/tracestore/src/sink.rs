//! The append API observation sources write to.
//!
//! A [`TraceSink`] is handed (as a cheaply cloneable [`SharedSink`]) to the
//! adaptation framework, the grid application, and the fault injector; each
//! calls [`append`](TraceSink::append) at its emission points with a borrowed
//! [`EventRef`] whose strings it already holds. The default [`NullSink`]
//! reports itself disabled, so emission sites guard anything they would
//! format behind [`enabled`](TraceSink::enabled) and a run without a real
//! sink does no extra work at all — which is what keeps every existing
//! report byte-identical. A [`BufferSink`] encodes each event into its
//! [`RunBuffer`] as it arrives, so an enabled sink allocates only when the
//! buffer grows.

use crate::event::{EventRef, Record, StringTable, TraceEvent};
use crate::store::RunBuffer;
use std::sync::{Arc, Mutex, MutexGuard};

/// An append-only consumer of trace events.
///
/// `append` takes `&self` so one sink can be shared between the framework
/// and the application it drives; implementations use interior mutability.
pub trait TraceSink: Send + Sync {
    /// Whether this sink wants events at all. Emission sites skip event
    /// construction entirely when this is false.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. The view's strings are the emitter's: a sink that
    /// keeps the event copies or encodes them before it returns.
    fn append(&self, event: EventRef<'_>);
}

/// A cheaply cloneable sink handle.
pub type SharedSink = Arc<dyn TraceSink>;

/// The default sink: disabled, discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn append(&self, _event: EventRef<'_>) {}
}

/// A fresh [`NullSink`] handle — the default observation target.
pub fn null_sink() -> SharedSink {
    Arc::new(NullSink)
}

/// An in-memory sink: encodes into a shared [`RunBuffer`], in call order.
///
/// The sweep harness gives every run its own buffer and hands each unit's
/// two runs to the store in expansion order — that is what makes the store's
/// bytes worker-count invariant.
#[derive(Debug, Clone, Default)]
pub struct BufferSink {
    run: Arc<Mutex<RunBuffer>>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, RunBuffer> {
        self.run.lock().expect("buffer sink lock")
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lock().count as usize
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns everything appended so far, encoded: the run
    /// [`TraceStore::append_buffer`](crate::store::TraceStore::append_buffer)
    /// writes.
    pub fn take_run(&self) -> RunBuffer {
        std::mem::take(&mut *self.lock())
    }

    /// Removes and returns everything appended so far, decoded, in append
    /// order, each distinct string checked and interned once.
    pub fn take(&self) -> Vec<TraceEvent> {
        let run = self.take_run();
        let mut strings = StringTable::default();
        let mut events = Vec::with_capacity(run.count as usize);
        for mut records in run.segment.iter() {
            while !records.is_empty() {
                let record = Record::decode(&mut records).expect("push wrote whole records");
                events.push(strings.event(record).expect("push wrote UTF-8 strings"));
            }
        }
        events
    }
}

impl TraceSink for BufferSink {
    fn append(&self, event: EventRef<'_>) {
        self.lock().push(event);
    }
}

/// A buffer plus a [`SharedSink`] handle onto it: hand the handle to the
/// emitters, keep the buffer to collect what they wrote.
pub fn shared_buffer() -> (BufferSink, SharedSink) {
    let buffer = BufferSink::new();
    let handle: SharedSink = Arc::new(buffer.clone());
    (buffer, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn null_sink_is_disabled_and_discards() {
        let sink = null_sink();
        assert!(!sink.enabled());
        sink.append(EventRef::new(1.0, EventKind::Info, "a", "b"));
    }

    #[test]
    fn buffer_sink_collects_in_append_order() {
        let (buffer, handle) = shared_buffer();
        assert!(buffer.is_empty());
        assert!(handle.enabled());
        handle.append(EventRef::new(1.0, EventKind::Info, "a", "first"));
        handle.append(EventRef::new(2.0, EventKind::Fault, "b", "second"));
        assert_eq!(buffer.len(), 2);
        let events = buffer.take();
        assert_eq!(events[0].detail, "first");
        assert_eq!(events[1].detail, "second");
        assert!(buffer.is_empty());
    }
}
