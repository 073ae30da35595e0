//! # detect — online gauge-stream analytics
//!
//! The paper's gauges are threshold-trippers: the framework learns about
//! trouble only after an invariant like `latency > maxLatency` has already
//! hurt users. This crate watches the same gauge streams *before* the
//! thresholds trip: a per-(subject, property) ring-buffer time-series layer
//! with incrementally computed windowed statistics
//! (mean/variance/EWMA/rate-of-change), and two online detectors that score
//! every reading as it arrives:
//!
//! * **EWMA residual** — the reading's deviation from the stream's
//!   exponentially weighted moving average, normalised by the smoothed
//!   residual power. Scores spikes and level shifts.
//! * **CUSUM (Page–Hinkley style) changepoint** — one-sided cumulative sums
//!   of the standardised residuals in each direction, drained by a drift
//!   allowance. Scores sustained small drifts a spike detector misses.
//!
//! Determinism is a hard invariant: everything is keyed on simulation time
//! and the fed sample order — no wall clock, no randomness, no map-order
//! iteration — so the advisory stream is bit-identical on replay and
//! invariant under sweep worker counts.
//!
//! The crate only *observes and reports*; deciding what an alarm predicts
//! (and whether to repair early) belongs to the adaptation framework.

#![warn(missing_docs)]

pub mod series;

pub use series::{SeriesBuffer, SeriesStats};

use archmodel::Key;
use rustc_hash::FxHashMap;

/// Tuning of the online detectors. All thresholds act on *standardised*
/// residuals, so one configuration serves latency (seconds), bandwidth
/// (bits per second), and queue-length streams alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Ring-buffer capacity per (subject, property) series.
    pub window: usize,
    /// Samples a series must accumulate before its detectors may alarm
    /// (the warm-up keeps deployment transients from spamming advisories).
    pub min_points: usize,
    /// EWMA smoothing factor (weight of the newest sample).
    pub ewma_alpha: f64,
    /// EWMA-residual alarm threshold, in standardised-residual units.
    pub ewma_threshold: f64,
    /// CUSUM drift allowance per sample (standardised units): deviations
    /// below it drain the cumulative sums instead of growing them.
    pub cusum_drift: f64,
    /// CUSUM alarm threshold on the cumulative sums.
    pub cusum_threshold: f64,
    /// Minimum simulated seconds between two advisories from the same
    /// detector on the same series.
    pub cooldown_secs: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window: 64,
            min_points: 12,
            ewma_alpha: 0.2,
            ewma_threshold: 4.0,
            cusum_drift: 0.5,
            cusum_threshold: 8.0,
            cooldown_secs: 60.0,
        }
    }
}

/// Which online detector raised an advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// The EWMA-residual threshold detector.
    EwmaResidual,
    /// The CUSUM / Page–Hinkley changepoint detector.
    Cusum,
}

impl Detector {
    /// The detector's stable, query-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Detector::EwmaResidual => "ewma",
            Detector::Cusum => "cusum",
        }
    }
}

/// Which way the stream is drifting when a detector alarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Values are rising above the stream's recent behaviour.
    Up,
    /// Values are falling below the stream's recent behaviour.
    Down,
}

/// One detector alarm: "this gauge stream just departed from its own
/// recent behaviour". What the departure *predicts* — which invariant is
/// about to trip, whether to act — is the caller's judgement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advisory {
    /// Simulation time of the triggering reading.
    pub time: f64,
    /// The observed element (the gauge's target).
    pub subject: Key,
    /// The observed property.
    pub property: Key,
    /// Which detector alarmed.
    pub detector: Detector,
    /// The detector's score at the alarm (standardised units; always
    /// at or above the detector's threshold).
    pub score: f64,
    /// Drift direction at the alarm.
    pub direction: Direction,
}

/// Per-series detector state: the sample window plus the CUSUM sums and
/// per-detector cooldown clocks.
#[derive(Debug, Clone)]
struct SeriesState {
    buffer: SeriesBuffer,
    cusum_up: f64,
    cusum_down: f64,
    last_ewma_alarm: f64,
    last_cusum_alarm: f64,
}

/// The detector bank: one [`SeriesBuffer`] and detector state per
/// (subject, property) gauge stream, fed from the gauge-dispatch path.
#[derive(Debug)]
pub struct DetectorBank {
    config: DetectorConfig,
    series: FxHashMap<(Key, Key), SeriesState>,
    points: u64,
    alarms: u64,
}

impl DetectorBank {
    /// An empty bank.
    pub fn new(config: DetectorConfig) -> Self {
        DetectorBank {
            config,
            series: FxHashMap::default(),
            points: 0,
            alarms: 0,
        }
    }

    /// The bank's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Total samples fed across all series.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Total alarms raised across all series and detectors.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Number of distinct (subject, property) series observed so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The current windowed statistics of one series, if it exists.
    pub fn stats(&self, subject: Key, property: Key) -> Option<SeriesStats> {
        self.series
            .get(&(subject, property))
            .and_then(|s| s.buffer.stats())
    }

    /// Feeds one gauge reading, appending any alarms to `out` (EWMA first,
    /// then CUSUM — a fixed order, part of the deterministic stream
    /// contract). Alarms respect the per-detector cooldown and never fire
    /// during a series' warm-up.
    pub fn observe(
        &mut self,
        time: f64,
        subject: Key,
        property: Key,
        value: f64,
        out: &mut Vec<Advisory>,
    ) {
        let config = self.config;
        let state = self
            .series
            .entry((subject, property))
            .or_insert_with(|| SeriesState {
                buffer: SeriesBuffer::new(config.window, config.ewma_alpha),
                cusum_up: 0.0,
                cusum_down: 0.0,
                last_ewma_alarm: f64::NEG_INFINITY,
                last_cusum_alarm: f64::NEG_INFINITY,
            });
        self.points += 1;

        // Score against the state *before* this reading updates it: the
        // detectors ask "does this reading fit the stream so far?". During
        // warm-up the buffer and EWMA learn the stream but the detectors
        // stay entirely inert — an unreliable early variance estimate would
        // otherwise poison the cumulative sums with huge residuals.
        let warm = state.buffer.pushes() >= config.min_points as u64;
        let prior = state.buffer.stats();
        state.buffer.push(time, value);
        if !warm {
            return;
        }
        let Some(prior) = prior else {
            return;
        };

        // Standardised residual against the EWMA baseline. The denominator
        // floors at a scale-relative epsilon so a near-constant stream
        // still scores a genuine jump (rather than dividing by zero) while
        // numeric noise on large values stays silent.
        let denom = prior.ewma_var.sqrt().max(1e-9 * prior.ewma.abs().max(1e-9));
        let z = (value - prior.ewma) / denom;
        let direction = if z >= 0.0 {
            Direction::Up
        } else {
            Direction::Down
        };

        if z.abs() > config.ewma_threshold && time - state.last_ewma_alarm >= config.cooldown_secs {
            state.last_ewma_alarm = time;
            self.alarms += 1;
            out.push(Advisory {
                time,
                subject,
                property,
                detector: Detector::EwmaResidual,
                score: z.abs(),
                direction,
            });
        }

        // Two one-sided cumulative sums of the standardised residuals,
        // drained by the drift allowance (the Page–Hinkley test in its
        // CUSUM form). Sustained small drifts accumulate; noise drains.
        state.cusum_up = (state.cusum_up + z - config.cusum_drift).max(0.0);
        state.cusum_down = (state.cusum_down - z - config.cusum_drift).max(0.0);
        let (score, direction) = if state.cusum_up >= state.cusum_down {
            (state.cusum_up, Direction::Up)
        } else {
            (state.cusum_down, Direction::Down)
        };
        if score > config.cusum_threshold {
            // Restart the sums after an alarm so the next advisory reports
            // a fresh accumulation, not the same one forever.
            state.cusum_up = 0.0;
            state.cusum_down = 0.0;
            if time - state.last_cusum_alarm >= config.cooldown_secs {
                state.last_cusum_alarm = time;
                self.alarms += 1;
                out.push(Advisory {
                    time,
                    subject,
                    property,
                    detector: Detector::Cusum,
                    score,
                    direction,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_constant(bank: &mut DetectorBank, subject: Key, property: Key, n: usize, value: f64) {
        let mut out = Vec::new();
        for i in 0..n {
            bank.observe(i as f64 * 5.0, subject, property, value, &mut out);
        }
        assert!(out.is_empty(), "a constant stream never alarms: {out:?}");
    }

    #[test]
    fn a_step_change_raises_an_ewma_advisory_with_the_right_direction() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let (subject, property) = (Key::new("C3"), Key::new("averageLatency"));
        // A noisy-but-stable baseline, then a jump.
        let mut out = Vec::new();
        for i in 0..40 {
            let wiggle = if i % 2 == 0 { 0.01 } else { -0.01 };
            bank.observe(i as f64 * 5.0, subject, property, 0.5 + wiggle, &mut out);
        }
        assert!(out.is_empty(), "the baseline is in-family: {out:?}");
        bank.observe(200.0, subject, property, 3.0, &mut out);
        assert!(!out.is_empty(), "the jump alarms");
        let alarm = out
            .iter()
            .find(|a| a.detector == Detector::EwmaResidual)
            .expect("the spike detector fires");
        assert_eq!(alarm.direction, Direction::Up);
        assert_eq!(alarm.subject, subject);
        assert!(alarm.score > bank.config().ewma_threshold);
        assert_eq!(bank.alarms(), out.len() as u64);
    }

    #[test]
    fn a_slow_drift_raises_a_cusum_advisory_before_a_spike_would() {
        let config = DetectorConfig {
            // A spike threshold too high for any single drift step.
            ewma_threshold: 50.0,
            ..DetectorConfig::default()
        };
        let mut bank = DetectorBank::new(config);
        let (subject, property) = (Key::new("SG1"), Key::new("load"));
        let mut out = Vec::new();
        for i in 0..30 {
            let wiggle = if i % 2 == 0 { 0.1 } else { -0.1 };
            bank.observe(i as f64 * 5.0, subject, property, 4.0 + wiggle, &mut out);
        }
        assert!(out.is_empty());
        // Each step is small relative to nothing-much, but they add up.
        for i in 0..40 {
            bank.observe(
                150.0 + i as f64 * 5.0,
                subject,
                property,
                4.2 + 0.2 * i as f64,
                &mut out,
            );
            if !out.is_empty() {
                break;
            }
        }
        let alarm = out.first().expect("the drift eventually alarms");
        assert_eq!(alarm.detector, Detector::Cusum);
        assert_eq!(alarm.direction, Direction::Up);
    }

    #[test]
    fn falling_streams_alarm_downwards() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let (subject, property) = (Key::new("User3"), Key::new("bandwidth"));
        let mut out = Vec::new();
        for i in 0..40 {
            let wiggle = if i % 2 == 0 { 1.0e4 } else { -1.0e4 };
            bank.observe(i as f64 * 5.0, subject, property, 9.0e6 + wiggle, &mut out);
        }
        bank.observe(200.0, subject, property, 5.0e3, &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|a| a.direction == Direction::Down));
    }

    #[test]
    fn warmup_and_cooldown_bound_the_alarm_rate() {
        let config = DetectorConfig {
            min_points: 10,
            cooldown_secs: 100.0,
            ..DetectorConfig::default()
        };
        let mut bank = DetectorBank::new(config);
        let (subject, property) = (Key::new("C1"), Key::new("averageLatency"));
        let mut out = Vec::new();
        // Wild values during warm-up: silence.
        for i in 0..9 {
            bank.observe(i as f64, subject, property, (i * i) as f64, &mut out);
        }
        assert!(out.is_empty(), "warm-up never alarms");
        // Post-warm-up, a quiet baseline punctuated by isolated huge spikes
        // every 50 s: without the cooldown every spike (and every return to
        // baseline) would alarm; with it, alarms from the same detector
        // stay at least 100 s apart.
        for i in 0..200 {
            let t = 9.0 + i as f64 * 5.0;
            let v = if i % 10 == 0 { 1.0e6 } else { 10.0 };
            bank.observe(t, subject, property, v, &mut out);
        }
        assert!(!out.is_empty());
        let mut per_detector: FxHashMap<Detector, Vec<f64>> = FxHashMap::default();
        for a in &out {
            per_detector.entry(a.detector).or_default().push(a.time);
        }
        for times in per_detector.values() {
            assert!(times.windows(2).all(|w| w[1] - w[0] >= 100.0));
        }
    }

    #[test]
    fn series_are_independent_and_counted() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        feed_constant(
            &mut bank,
            Key::new("C1"),
            Key::new("averageLatency"),
            50,
            0.5,
        );
        feed_constant(&mut bank, Key::new("C1"), Key::new("bandwidth"), 30, 9.0e6);
        feed_constant(
            &mut bank,
            Key::new("C2"),
            Key::new("averageLatency"),
            20,
            0.4,
        );
        assert_eq!(bank.series_count(), 3);
        assert_eq!(bank.points(), 100);
        assert_eq!(bank.alarms(), 0);
        let stats = bank
            .stats(Key::new("C1"), Key::new("averageLatency"))
            .unwrap();
        assert_eq!(stats.mean, 0.5);
        assert!(bank.stats(Key::new("C9"), Key::new("load")).is_none());
    }

    #[test]
    fn identical_feeds_emit_identical_advisory_streams() {
        let run = || {
            let mut bank = DetectorBank::new(DetectorConfig::default());
            let mut out = Vec::new();
            for i in 0..500u64 {
                let t = i as f64 * 5.0;
                // A deterministic mix of stable, drifting, and spiking
                // streams across several series.
                let base = ((i * 2654435761) % 97) as f64 / 97.0;
                bank.observe(
                    t,
                    Key::new("C1"),
                    Key::new("averageLatency"),
                    0.5 + 0.01 * base,
                    &mut out,
                );
                bank.observe(
                    t,
                    Key::new("C2"),
                    Key::new("averageLatency"),
                    0.5 + 0.002 * i as f64,
                    &mut out,
                );
                let spike = if i % 83 == 0 { 50.0 } else { 0.0 };
                bank.observe(
                    t,
                    Key::new("SG1"),
                    Key::new("load"),
                    4.0 + base + spike,
                    &mut out,
                );
            }
            out
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
