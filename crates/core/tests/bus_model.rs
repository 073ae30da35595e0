//! The monitoring bus against a ten-line model of what it has to be.
//!
//! `monitoring::Bus` is a FIFO delay line with head-of-line blocking: a
//! message's delivery time is fixed when it is published, the delay changes
//! between publications, and a drain stops at the first message that is not
//! yet due even when a later one is. Every pinned artifact was produced with
//! that order. The model below says so in the most obvious way — a `Vec` of
//! `(deliver_at, payload)`, popped from the front while due — and the property
//! test holds the bus to it under random `set_delay` / `publish` / `drain`
//! interleavings, with drain times that also move backwards.
//!
//! (The test lives here because `monitoring` has no dev-dependencies and this
//! crate already has `proptest`.)

use monitoring::Bus;
use proptest::prelude::*;

#[derive(Default)]
struct ModelBus {
    delay_secs: f64,
    queue: Vec<(f64, u32)>,
}

impl ModelBus {
    fn set_delay(&mut self, delay_secs: f64) {
        self.delay_secs = delay_secs.max(0.0);
    }

    fn publish(&mut self, now: f64, payload: u32) {
        self.queue.push((now + self.delay_secs, payload));
    }

    fn drain(&mut self, now: f64) -> Vec<u32> {
        let mut out = Vec::new();
        while !self.queue.is_empty() && self.queue[0].0 <= now {
            out.push(self.queue.remove(0).1);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_bus_is_a_fifo_delay_line_that_blocks_at_its_head(
        ops in proptest::collection::vec((0u8..3, 0u32..40), 1..120),
    ) {
        let mut bus: Bus<u32> = Bus::new();
        let mut model = ModelBus::default();
        let mut published = 0;
        let mut delivered = 0;
        for (step, &(op, arg)) in ops.iter().enumerate() {
            // Quarter-second grid, so "due exactly now" happens often.
            let at = f64::from(arg) * 0.25;
            match op {
                // Delays from -1 s (clamped to zero) to 8.75 s.
                0 => {
                    bus.set_delay(at - 1.0);
                    model.set_delay(at - 1.0);
                }
                1 => {
                    bus.publish(at, published);
                    model.publish(at, published);
                    published += 1;
                }
                _ => {
                    let mut got = Vec::new();
                    bus.drain(at, |payload| got.push(payload));
                    prop_assert_eq!(&got, &model.drain(at), "drain at {} (op {})", at, step);
                    delivered += got.len();
                }
            }
        }
        // Everything still queued comes out, in publication order.
        let mut rest = Vec::new();
        bus.drain(f64::INFINITY, |payload| rest.push(payload));
        prop_assert_eq!(&rest, &model.drain(f64::INFINITY));
        prop_assert_eq!(delivered + rest.len(), published as usize);
        prop_assert!(rest.windows(2).all(|w| w[0] < w[1]));
    }
}
