//! The Detect phase: online anomaly detection on the tick's gauge readings.
//!
//! In: the readings the Monitor phase just delivered to the model. Out:
//! [`Occurrence::Advisory`] records — one per alarm whose drift is harmful
//! for its property — and, at end of run, a [`DetectSummary`]. The phase is
//! observe-and-report: nothing it produces feeds back into planning, and a
//! run without [`FrameworkConfig::detectors`](crate::FrameworkConfig) has no
//! [`DetectorState`] at all.

use crate::log::{Occurrence, RunLog};
use crate::observe::Observer;
use archmodel::Key;
use simnet::SimTime;

/// Horizon for pairing an advisory with a subsequent violation on the same
/// subject: an advisory "anticipates" the first violation that follows it
/// within this many simulated seconds. Shared by the in-run
/// [`AdaptationFramework::detect_summary`](crate::AdaptationFramework::detect_summary)
/// and the sweep reports so both agree on what counts as a hit.
pub const ADVISORY_MATCH_HORIZON_SECS: f64 = 120.0;

/// Summary of the online-detector layer for one run (present only when
/// [`FrameworkConfig::detectors`](crate::FrameworkConfig) is set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectSummary {
    /// Advisories emitted (harmful-direction alarms; what the trace holds).
    pub advisories: u64,
    /// Raw detector alarms, including harmless-direction ones (e.g. a
    /// latency stream dropping) that were filtered before emission.
    pub raw_alarms: u64,
    /// Distinct (subject, property) series observed.
    pub series: u64,
    /// Total gauge readings fed to the detector bank.
    pub points: u64,
    /// Median seconds between an advisory and the first violation it
    /// anticipated on the same subject within
    /// [`ADVISORY_MATCH_HORIZON_SECS`]; `None` when nothing paired.
    pub median_lead_secs: Option<f64>,
}

/// Pre-interned gauge-property keys and the invariant each one predicts
/// when its stream drifts in the harmful direction.
#[derive(Debug, Clone, Copy)]
struct PropertyMap {
    average_latency: Key,
    load: Key,
    bandwidth: Key,
    is_alive: Key,
    live_servers: Key,
    dead_servers: Key,
    reachable: Key,
}

impl PropertyMap {
    fn new() -> Self {
        PropertyMap {
            average_latency: Key::new("averageLatency"),
            load: Key::new("load"),
            bandwidth: Key::new("bandwidth"),
            is_alive: Key::new("isAlive"),
            live_servers: Key::new("liveServers"),
            dead_servers: Key::new("deadServers"),
            reachable: Key::new("reachable"),
        }
    }

    /// The invariant a harmful drift of `property` predicts, and which
    /// drift direction is the harmful one. Latency and load hurt rising;
    /// bandwidth, liveness, and reachability hurt falling (a *rising* dead
    /// count is the falling-liveness stream seen from the other side).
    fn predicted(&self, property: Key) -> Option<(&'static str, detect::Direction)> {
        use detect::Direction::{Down, Up};
        if property == self.average_latency {
            Some(("latency", Up))
        } else if property == self.load {
            Some(("serverLoad", Up))
        } else if property == self.bandwidth {
            Some(("bandwidth", Down))
        } else if property == self.is_alive
            || property == self.live_servers
            || property == self.reachable
        {
            Some(("liveness", Down))
        } else if property == self.dead_servers {
            Some(("liveness", Up))
        } else {
            None
        }
    }
}

/// Run-scoped detector layer: the bank and the property → invariant map its
/// alarms are filtered through.
#[derive(Debug)]
pub(crate) struct DetectorState {
    bank: detect::DetectorBank,
    properties: PropertyMap,
    /// Scratch buffer reused across ticks to keep the hot path
    /// allocation-free.
    scratch: Vec<detect::Advisory>,
}

impl DetectorState {
    pub(crate) fn new(config: detect::DetectorConfig) -> Self {
        DetectorState {
            bank: detect::DetectorBank::new(config),
            properties: PropertyMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Total gauge readings fed to the bank so far.
    pub(crate) fn points(&self) -> u64 {
        self.bank.points()
    }

    /// Feeds one tick's gauge readings to the detector bank and records each
    /// harmful-direction alarm as an advisory, at the alarm's own time.
    /// Alarms whose drift direction is harmless for the property (latency
    /// falling, bandwidth recovering) are counted by the bank but not
    /// recorded — an advisory always names the invariant it predicts.
    pub(crate) fn observe(
        &mut self,
        observer: &mut Observer,
        readings: &[monitoring::GaugeReading],
    ) {
        self.scratch.clear();
        for reading in readings {
            self.bank.observe(
                reading.time,
                reading.target,
                reading.property,
                reading.value,
                &mut self.scratch,
            );
        }
        for alarm in &self.scratch {
            let Some((predicts, harmful)) = self.properties.predicted(alarm.property) else {
                continue;
            };
            if alarm.direction != harmful {
                continue;
            }
            let at = SimTime::from_secs(alarm.time);
            observer.record(at, Occurrence::Advisory(Box::new((*alarm, predicts))));
        }
    }

    /// End-of-run summary, its advisory count and lead times folded from
    /// the run's `log`.
    pub(crate) fn summary(&self, log: &RunLog) -> DetectSummary {
        DetectSummary {
            advisories: log.advisory_count(),
            raw_alarms: self.bank.alarms(),
            series: self.bank.series_count() as u64,
            points: self.bank.points(),
            median_lead_secs: log.median_lead_secs(ADVISORY_MATCH_HORIZON_SECS),
        }
    }
}
