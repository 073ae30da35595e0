//! Event buses for monitoring traffic.
//!
//! The paper's monitoring infrastructure disseminates observations over two
//! wide-area event buses (implemented there with Siena): probes publish on the
//! *probe bus*, gauges publish on the *gauge reporting bus*. In the
//! reproduction each bus has exactly one reader — the gauge roster on the
//! probe bus, the architecture manager on the gauge bus — so a [`Bus`] is a
//! delay line: messages are moved in, wait out the delivery delay, and are
//! moved out again in publication order. *Routing* by topic is not the bus's
//! job: a [`Topic`](crate::probe::Topic) is a value the message carries, and
//! the pipeline looks its readers up in one hash probe.
//!
//! The delay models monitoring traffic sharing the network with the
//! application (§5.3). It is fixed per message at publication, and it changes
//! between control ticks, so a message published later can be due *earlier*
//! than one still queued. The line does not let it overtake: a drain stops at
//! the first message that is not yet due (head-of-line blocking, as on one
//! ordered channel). Every artifact the repository pins was produced with
//! that order, so it is part of the specification, not an accident.

use std::collections::VecDeque;

/// A single-reader publish/drain bus with a delivery delay.
pub struct Bus<T> {
    /// `(deliver_at, payload)` in publication order.
    queue: VecDeque<(f64, T)>,
    delay_secs: f64,
}

impl<T> Default for Bus<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Bus<T> {
    /// Creates a bus with zero delivery delay.
    pub fn new() -> Self {
        Bus {
            queue: VecDeque::new(),
            delay_secs: 0.0,
        }
    }

    /// Sets the delivery delay (seconds, clamped at zero) applied to newly
    /// published messages. The framework adjusts this to model monitoring
    /// traffic competing with application traffic; a QoS-prioritised bus
    /// keeps it at zero.
    pub fn set_delay(&mut self, delay_secs: f64) {
        self.delay_secs = delay_secs.max(0.0);
    }

    /// Publishes a message at `now` (seconds): it becomes visible to the
    /// reader at `now` plus the delay currently in force.
    pub fn publish(&mut self, now: f64, payload: T) {
        self.queue.push_back((now + self.delay_secs, payload));
    }

    /// Hands `visit` the messages visible at time `now`, in publication
    /// order, stopping at the first one whose delivery time has not passed —
    /// even when a later one's has.
    pub fn drain(&mut self, now: f64, mut visit: impl FnMut(T)) {
        while self.queue.front().is_some_and(|&(due, _)| due <= now) {
            let (_, payload) = self.queue.pop_front().expect("front exists");
            visit(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained<T>(bus: &mut Bus<T>, now: f64) -> Vec<T> {
        let mut out = Vec::new();
        bus.drain(now, |payload| out.push(payload));
        out
    }

    #[test]
    fn delivery_respects_delay() {
        let mut bus: Bus<&str> = Bus::new();
        bus.set_delay(5.0);
        bus.publish(10.0, "late");
        assert!(drained(&mut bus, 12.0).is_empty());
        assert_eq!(drained(&mut bus, 15.0), ["late"]);
        assert!(drained(&mut bus, 20.0).is_empty());
    }

    #[test]
    fn delay_changes_only_affect_new_messages() {
        let mut bus: Bus<u8> = Bus::new();
        bus.publish(0.0, 1);
        bus.set_delay(100.0);
        bus.publish(0.0, 2);
        assert_eq!(drained(&mut bus, 1.0), [1]);
    }

    #[test]
    fn a_due_message_waits_behind_one_that_is_not() {
        let mut bus: Bus<u8> = Bus::new();
        bus.set_delay(8.0);
        bus.publish(40.0, 1); // due at 48
        bus.set_delay(0.0);
        bus.publish(45.0, 2); // due at 45, behind it
        assert!(drained(&mut bus, 45.0).is_empty());
        assert_eq!(drained(&mut bus, 48.0), [1, 2]);
    }

    #[test]
    fn drain_preserves_publication_order() {
        let mut bus: Bus<u8> = Bus::new();
        for i in 0..10u8 {
            bus.publish(i as f64, i);
        }
        assert_eq!(drained(&mut bus, 100.0), (0..10u8).collect::<Vec<_>>());
    }

    #[test]
    fn negative_delay_clamped_to_zero() {
        let mut bus: Bus<u8> = Bus::new();
        bus.set_delay(-3.0);
        bus.publish(10.0, 1);
        assert!(drained(&mut bus, 9.0).is_empty());
        assert_eq!(drained(&mut bus, 10.0), [1]);
    }
}
