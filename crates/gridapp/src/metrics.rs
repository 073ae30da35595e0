//! Metric collection for the experiment figures.
//!
//! The paper's evaluation reports three quantities over the 30-minute runs:
//! the average latency experienced by each client (Figures 8 and 11), the
//! server load measured as the length of the queue of waiting requests
//! (Figures 9 and 13), and the available bandwidth (Figures 10 and 12).
//! [`Metrics`] records exactly those series.

use simnet::TimeSeries;
use std::collections::BTreeMap;

/// Time-series metrics recorded during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    latency: BTreeMap<String, TimeSeries>,
    queue: BTreeMap<String, TimeSeries>,
    bandwidth: BTreeMap<String, TimeSeries>,
}

/// Appends a point to `subject`'s series. The key is only copied the first
/// time a subject is seen: this runs once per completed request.
fn record(series: &mut BTreeMap<String, TimeSeries>, subject: &str, time_secs: f64, value: f64) {
    match series.get_mut(subject) {
        Some(points) => points.record(time_secs, value),
        None => series
            .entry(subject.to_string())
            .or_default()
            .record(time_secs, value),
    }
}

impl Metrics {
    /// Creates an empty metrics store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's latency for a client.
    pub fn record_latency(&mut self, time_secs: f64, client: &str, latency_secs: f64) {
        record(&mut self.latency, client, time_secs, latency_secs);
    }

    /// Records a server group's queue length.
    pub fn record_queue_length(&mut self, time_secs: f64, group: &str, length: usize) {
        record(&mut self.queue, group, time_secs, length as f64);
    }

    /// Records a client's available bandwidth (bits/second).
    pub fn record_bandwidth(&mut self, time_secs: f64, client: &str, bps: f64) {
        record(&mut self.bandwidth, client, time_secs, bps);
    }

    /// The latency series of a client (Figures 8/11).
    pub fn latency_series(&self, client: &str) -> Option<&TimeSeries> {
        self.latency.get(client)
    }

    /// The queue-length series of a server group (Figures 9/13).
    pub fn queue_series(&self, group: &str) -> Option<&TimeSeries> {
        self.queue.get(group)
    }

    /// The available-bandwidth series of a client (Figures 10/12).
    pub fn bandwidth_series(&self, client: &str) -> Option<&TimeSeries> {
        self.bandwidth.get(client)
    }

    /// Clients with recorded latency.
    pub fn clients(&self) -> Vec<String> {
        self.latency.keys().cloned().collect()
    }

    /// Groups with recorded queue lengths.
    pub fn groups(&self) -> Vec<String> {
        self.queue.keys().cloned().collect()
    }

    /// All latency observations pooled over clients, as (time, value), in
    /// one vector of exactly their number, sorted stably by time.
    pub fn pooled_latency(&self) -> TimeSeries {
        let mut points = Vec::with_capacity(self.latency.values().map(TimeSeries::len).sum());
        points.extend(self.latency.values().flat_map(TimeSeries::iter));
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("times are not NaN"));
        TimeSeries::from_points(points)
    }

    /// Fraction of latency observations above `threshold` in `[start, end)`,
    /// pooled over all clients — the paper's headline effectiveness measure
    /// ("how often the latency of any client exceeded two seconds"). Counted
    /// in place over the per-client series: the two counts are integers, so
    /// the order they are taken in cannot change the fraction.
    pub fn fraction_latency_above(&self, threshold: f64, start: f64, end: f64) -> f64 {
        let (mut inside, mut above) = (0usize, 0usize);
        let points = self.latency.values().flat_map(TimeSeries::iter);
        for (_, value) in points.filter(|&(t, _)| t >= start && t < end) {
            inside += 1;
            above += usize::from(value > threshold);
        }
        if inside == 0 {
            return 0.0;
        }
        above as f64 / inside as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_recorded_per_subject() {
        let mut m = Metrics::new();
        m.record_latency(1.0, "User1", 0.5);
        m.record_latency(2.0, "User1", 1.5);
        m.record_latency(2.0, "User2", 3.0);
        m.record_queue_length(1.0, "ServerGrp1", 4);
        m.record_bandwidth(1.0, "User1", 9e6);
        assert_eq!(m.latency_series("User1").unwrap().len(), 2);
        assert_eq!(m.latency_series("User2").unwrap().len(), 1);
        assert!(m.latency_series("User3").is_none());
        assert_eq!(m.clients(), vec!["User1", "User2"]);
        assert_eq!(m.groups(), vec!["ServerGrp1"]);
        let last = |series: &simnet::TimeSeries| series.points().last().map(|&(_, v)| v);
        assert_eq!(last(m.queue_series("ServerGrp1").unwrap()), Some(4.0));
        assert_eq!(last(m.bandwidth_series("User1").unwrap()), Some(9e6));
    }

    #[test]
    fn pooled_latency_merges_and_sorts() {
        let mut m = Metrics::new();
        m.record_latency(3.0, "User1", 3.0);
        m.record_latency(5.0, "User1", 1.0);
        m.record_latency(1.0, "User2", 2.0);
        let pooled = m.pooled_latency();
        let times: Vec<f64> = pooled.iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn fraction_above_threshold_within_window() {
        let mut m = Metrics::new();
        for (t, v) in [(10.0, 1.0), (20.0, 3.0), (30.0, 4.0), (40.0, 1.0)] {
            m.record_latency(t, "User1", v);
        }
        assert!((m.fraction_latency_above(2.0, 0.0, 50.0) - 0.5).abs() < 1e-12);
        assert!((m.fraction_latency_above(2.0, 15.0, 35.0) - 1.0).abs() < 1e-12);
        assert_eq!(m.fraction_latency_above(2.0, 100.0, 200.0), 0.0);
    }
}
