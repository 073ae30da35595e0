//! The monitoring pipeline: both buses and the gauge roster, in one owner.

use crate::bus::Bus;
use crate::gauge::{Gauge, GaugeId, GaugeReading};
use crate::probe::{ProbeEvent, Topic};
use rustc_hash::FxHashMap;

/// Time between deploying a gauge and its first report (seconds). The paper
/// attributes most of the ~30 s repair time to gauge creation and deletion
/// (§5.3); a gauge neither consumes nor reports while it warms up.
const GAUGE_WARM_UP_SECS: f64 = 12.0;

struct Deployed {
    gauge: Gauge,
    active_at: f64,
}

/// Wires a probe bus, the deployed gauges, and a gauge bus together: probes
/// publish [`ProbeEvent`]s, the pipeline feeds active gauges and republishes
/// their readings on the gauge bus, and the consumer (the architecture
/// manager) takes what the gauge bus delivers.
///
/// This is the in-process equivalent of the paper's two Siena buses plus the
/// gauge infrastructure in Figure 4. Delivering an event is one hash lookup
/// of its [`Topic`] in an interest index rebuilt lazily after gauge churn,
/// not a comparison against every deployed gauge.
#[derive(Default)]
pub struct MonitoringPipeline {
    probe_bus: Bus<ProbeEvent>,
    gauge_bus: Bus<GaugeReading>,
    /// The deployed gauges, in creation order (the order they report in).
    roster: Vec<Deployed>,
    /// interest → positions in `roster`; rebuilt when stale.
    interest_index: FxHashMap<Topic, Vec<usize>>,
    index_stale: bool,
    /// One step's gauge reports on their way to the gauge bus; reused.
    reported: Vec<GaugeReading>,
}

impl MonitoringPipeline {
    /// A pipeline with no gauges and undelayed buses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys `gauge` at time `now`. Returns the time at which it becomes
    /// active (and therefore how long the deploying repair must wait).
    pub fn create(&mut self, now: f64, gauge: Gauge) -> f64 {
        let active_at = now + GAUGE_WARM_UP_SECS;
        self.roster.push(Deployed { gauge, active_at });
        self.index_stale = true;
        active_at
    }

    /// Deletes the gauge `id` and returns it, or `None` if no such gauge is
    /// deployed.
    pub fn delete(&mut self, id: GaugeId) -> Option<Gauge> {
        let idx = self.roster.iter().position(|d| d.gauge.id() == id)?;
        self.index_stale = true;
        Some(self.roster.remove(idx).gauge)
    }

    /// Deploys `gauge` in place of any deployed gauge with its id: the
    /// delete-then-create churn of a repair that re-points a gauge. Returns
    /// the time at which the new gauge becomes active.
    pub fn replace(&mut self, now: f64, gauge: Gauge) -> f64 {
        self.delete(gauge.id());
        self.create(now, gauge)
    }

    /// Deletes every deployed gauge whose id satisfies `predicate`, in one
    /// sweep over the roster. Returns how many gauges were deleted.
    ///
    /// This is the batched relocation a `moveClientGroup` repair relies on:
    /// it retires hundreds of bandwidth gauges at once, and a per-id
    /// [`delete`](Self::delete) loop would rescan the roster per gauge.
    pub fn delete_where(&mut self, mut predicate: impl FnMut(GaugeId) -> bool) -> usize {
        let before = self.roster.len();
        self.roster.retain(|d| !predicate(d.gauge.id()));
        let deleted = before - self.roster.len();
        if deleted > 0 {
            self.index_stale = true;
        }
        deleted
    }

    /// The deployed gauges (active or warming up), in creation order.
    pub fn roster(&self) -> impl Iterator<Item = &Gauge> {
        self.roster.iter().map(|d| &d.gauge)
    }

    /// Sets the delivery delay of both buses, modelling monitoring traffic
    /// slowed by application congestion. A QoS-prioritised deployment keeps
    /// this at zero.
    pub fn set_monitoring_delay(&mut self, delay_secs: f64) {
        self.probe_bus.set_delay(delay_secs);
        self.gauge_bus.set_delay(delay_secs);
    }

    /// Publishes a probe observation, at the time it was made.
    pub fn publish(&mut self, event: ProbeEvent) {
        self.probe_bus.publish(event.time, event);
    }

    /// Advances the pipeline to time `now`: delivers each probe event to the
    /// gauges interested in its topic that were active when it was made,
    /// collects the readings of every active gauge in roster order, publishes
    /// them on the gauge bus, and appends every reading that bus delivers by
    /// `now` to `delivered`.
    pub fn step(&mut self, now: f64, delivered: &mut Vec<GaugeReading>) {
        if self.index_stale {
            self.interest_index.clear();
            for (idx, d) in self.roster.iter().enumerate() {
                let interested = self.interest_index.entry(d.gauge.interest());
                interested.or_default().push(idx);
            }
            self.index_stale = false;
        }
        let (roster, index) = (&mut self.roster, &self.interest_index);
        self.probe_bus.drain(now, |event| {
            for &idx in index.get(&event.topic()).into_iter().flatten() {
                let d = &mut roster[idx];
                if event.time >= d.active_at {
                    d.gauge.consume(&event);
                }
            }
        });
        for d in roster.iter_mut().filter(|d| d.active_at <= now) {
            d.gauge.report(now, &mut self.reported);
        }
        for reading in self.reported.drain(..) {
            self.gauge_bus.publish(now, reading);
        }
        self.gauge_bus.drain(now, |reading| delivered.push(reading));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Measurement;

    fn publish_latency(pipeline: &mut MonitoringPipeline, time: f64) {
        pipeline.publish(ProbeEvent::new(
            time,
            Measurement::RequestLatency {
                client: "User1".into(),
                seconds: 1.5,
            },
        ));
    }

    fn step(pipeline: &mut MonitoringPipeline, now: f64) -> Vec<GaugeReading> {
        let mut delivered = Vec::new();
        pipeline.step(now, &mut delivered);
        delivered
    }

    /// A pipeline with one latency gauge, deployed at t = 0 and so active
    /// from t = 12.
    fn pipeline_with_latency_gauge() -> MonitoringPipeline {
        let mut pipeline = MonitoringPipeline::new();
        pipeline.create(0.0, Gauge::latency("User1", 30.0));
        pipeline
    }

    #[test]
    fn end_to_end_probe_to_consumer() {
        let mut pipeline = pipeline_with_latency_gauge();
        publish_latency(&mut pipeline, 13.0);
        let delivered = step(&mut pipeline, 14.0);
        assert_eq!(delivered.len(), 1);
        assert!((delivered[0].value - 1.5).abs() < 1e-12);
    }

    #[test]
    fn warming_gauge_does_not_report() {
        let mut pipeline = pipeline_with_latency_gauge();
        publish_latency(&mut pipeline, 1.0);
        assert!(step(&mut pipeline, 2.0).is_empty());
    }

    #[test]
    fn monitoring_delay_postpones_delivery() {
        let mut pipeline = pipeline_with_latency_gauge();
        pipeline.set_monitoring_delay(10.0);
        publish_latency(&mut pipeline, 13.0);
        // At t=14 the probe event has not yet crossed the delayed bus.
        assert!(step(&mut pipeline, 14.0).is_empty());
        // At t=23 the probe event arrives; the gauge reading goes out on the
        // (also delayed) gauge bus, so the consumer sees it at t=33.
        assert!(step(&mut pipeline, 23.0).is_empty());
        assert_eq!(step(&mut pipeline, 33.5).len(), 1);
    }
}
