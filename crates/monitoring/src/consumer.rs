//! Convenience plumbing between buses, gauges, and consumers.

use crate::bus::Bus;
use crate::gauge::{GaugeManager, GaugeReading};
use crate::probe::ProbeEvent;

/// Wires a probe bus, a gauge manager, and a gauge bus together: probes
/// publish [`ProbeEvent`]s, the pipeline feeds active gauges and republishes
/// their readings on the gauge bus, and the consumer (the architecture
/// manager) takes what the gauge bus delivers.
///
/// This is the in-process equivalent of the paper's two Siena buses plus the
/// gauge infrastructure in Figure 4.
pub struct MonitoringPipeline {
    probe_bus: Bus<ProbeEvent>,
    gauge_bus: Bus<GaugeReading>,
    manager: GaugeManager,
    /// One step's gauge reports on their way to the gauge bus; reused.
    reported: Vec<GaugeReading>,
}

impl MonitoringPipeline {
    /// Builds a pipeline around the given gauge manager.
    pub fn new(manager: GaugeManager) -> Self {
        MonitoringPipeline {
            probe_bus: Bus::new(),
            gauge_bus: Bus::new(),
            manager,
            reported: Vec::new(),
        }
    }

    /// Access to the gauge manager (for deploying/removing gauges).
    pub fn manager_mut(&mut self) -> &mut GaugeManager {
        &mut self.manager
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

    /// Advances the pipeline to time `now`: delivers probe events to gauges,
    /// collects gauge readings, publishes them on the gauge bus, and appends
    /// every reading that bus delivers by `now` to `delivered`.
    pub fn step(&mut self, now: f64, delivered: &mut Vec<GaugeReading>) {
        let manager = &mut self.manager;
        self.probe_bus.drain(now, |event| manager.dispatch(&event));
        manager.collect(now, &mut self.reported);
        for reading in self.reported.drain(..) {
            self.gauge_bus.publish(now, reading);
        }
        self.gauge_bus.drain(now, |reading| delivered.push(reading));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge::{AverageLatencyGauge, GaugeLifecycleConfig};
    use crate::probe::Measurement;

    fn pipeline_with_latency_gauge(creation_delay: f64) -> MonitoringPipeline {
        let mut pipeline = MonitoringPipeline::new(GaugeManager::new(GaugeLifecycleConfig {
            creation_delay_secs: creation_delay,
            ..GaugeLifecycleConfig::default()
        }));
        pipeline
            .manager_mut()
            .create(0.0, Box::new(AverageLatencyGauge::new("User1", 30.0)));
        pipeline
    }

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

    #[test]
    fn end_to_end_probe_to_consumer() {
        let mut pipeline = pipeline_with_latency_gauge(0.0);
        publish_latency(&mut pipeline, 1.0);
        let delivered = step(&mut pipeline, 2.0);
        assert_eq!(delivered.len(), 1);
        assert!((delivered[0].value - 1.5).abs() < 1e-12);
    }

    #[test]
    fn warming_gauge_does_not_report() {
        let mut pipeline = pipeline_with_latency_gauge(100.0);
        publish_latency(&mut pipeline, 1.0);
        assert!(step(&mut pipeline, 2.0).is_empty());
    }

    #[test]
    fn monitoring_delay_postpones_delivery() {
        let mut pipeline = pipeline_with_latency_gauge(0.0);
        pipeline.set_monitoring_delay(10.0);
        publish_latency(&mut pipeline, 1.0);
        // At t=2 the probe event has not yet crossed the delayed bus.
        assert!(step(&mut pipeline, 2.0).is_empty());
        // At t=12 the probe event arrives; the gauge reading goes out on the
        // (also delayed) gauge bus, so the consumer sees it at t=22.
        assert!(step(&mut pipeline, 12.0).is_empty());
        assert_eq!(step(&mut pipeline, 22.5).len(), 1);
    }
}
