//! Resilience metrics: availability, downtime, MTTR, and the violation
//! fraction while a fault is in force.
//!
//! The run is divided into fixed-width buckets. A bucket counts as
//! *available* when at least one request completed in it **and** the
//! bucket's mean latency met the bound — so both a wedged system (nothing
//! completes) and a drowning one (everything completes late) register as
//! downtime, which the plain violation fraction cannot see (it only counts
//! completed requests).

use serde::Serialize;
use simnet::TimeSeries;

/// Default bucket width (seconds) for availability accounting — two of the
/// framework's 5 s control periods.
pub const DEFAULT_BUCKET_SECS: f64 = 10.0;

/// Consecutive available buckets required to declare recovery (guards the
/// MTTR against a single lucky bucket during flapping).
const RECOVERY_RUN: usize = 2;

/// Resilience metrics of one run under an injected fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Resilience {
    /// Fraction of the fault-exposed window (first onset to end of run)
    /// during which the service was available.
    pub availability: f64,
    /// Seconds of the fault-exposed window spent unavailable.
    pub downtime_secs: f64,
    /// Mean time to repair: from each fault onset to the start of the next
    /// sustained available period. `None` when the run never recovered (or
    /// no onset occurred).
    pub mttr_secs: Option<f64>,
    /// Fraction of requests completed during the fault-exposed window whose
    /// latency exceeded the bound.
    pub violation_fraction_during_fault: f64,
}

impl Resilience {
    /// Computes the metrics from a run's pooled latency series.
    ///
    /// * `latency` — one point per completed request (time, latency seconds);
    /// * `duration_secs` — the run length;
    /// * `latency_bound_secs` — the task-layer bound (paper: 2 s);
    /// * `bucket_secs` — availability bucket width;
    /// * `onsets` — fault onset times from the compiled schedule (sorted).
    pub fn of(
        latency: &TimeSeries,
        duration_secs: f64,
        latency_bound_secs: f64,
        bucket_secs: f64,
        onsets: &[f64],
    ) -> Resilience {
        let bucket_secs = bucket_secs.max(1e-9);
        let window_start = onsets.first().copied().unwrap_or(0.0);
        let available =
            bucket_availability(latency, duration_secs, latency_bound_secs, bucket_secs);

        // Downtime and availability over the fault-exposed window.
        let mut downtime = 0.0;
        let mut exposed = 0.0;
        for (i, &ok) in available.iter().enumerate() {
            let start = i as f64 * bucket_secs;
            let end = ((i + 1) as f64 * bucket_secs).min(duration_secs);
            let overlap = (end - start.max(window_start)).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            exposed += overlap;
            if !ok {
                downtime += overlap;
            }
        }
        let availability = if exposed > 0.0 {
            1.0 - downtime / exposed
        } else {
            1.0
        };

        // MTTR: for each onset, the delay until the next sustained run of
        // available buckets begins.
        let mut repair_times = Vec::new();
        let mut recovered_all = !onsets.is_empty();
        for &onset in onsets {
            match recovery_time(&available, bucket_secs, duration_secs, onset) {
                Some(t) => repair_times.push(t),
                None => recovered_all = false,
            }
        }
        let mttr_secs = if recovered_all && !repair_times.is_empty() {
            Some(repair_times.iter().sum::<f64>() / repair_times.len() as f64)
        } else {
            None
        };

        let violation_fraction_during_fault = latency
            .window(window_start, duration_secs + 1e-9)
            .fraction_above(latency_bound_secs);

        Resilience {
            availability,
            downtime_secs: downtime,
            mttr_secs,
            violation_fraction_during_fault,
        }
    }
}

/// Per-bucket availability over `[0, duration)`.
fn bucket_availability(
    latency: &TimeSeries,
    duration_secs: f64,
    bound_secs: f64,
    bucket_secs: f64,
) -> Vec<bool> {
    let buckets = (duration_secs / bucket_secs).ceil().max(1.0) as usize;
    (0..buckets)
        .map(|i| {
            let start = i as f64 * bucket_secs;
            let end = ((i + 1) as f64 * bucket_secs).min(duration_secs + 1e-9);
            let slice = latency.window(start, end);
            match slice.mean() {
                Some(mean) => mean <= bound_secs,
                None => false,
            }
        })
        .collect()
}

/// Seconds from `onset` to the start of the first run of [`RECOVERY_RUN`]
/// consecutive available buckets at or after it; `None` if the run ends
/// first. An onset inside an already-available stretch recovers immediately
/// (time 0), which is what a fault the service absorbed deserves.
fn recovery_time(
    available: &[bool],
    bucket_secs: f64,
    duration_secs: f64,
    onset: f64,
) -> Option<f64> {
    let first = ((onset / bucket_secs).floor() as usize).min(available.len());
    let mut run = 0usize;
    for (i, &ok) in available.iter().enumerate().skip(first) {
        if ok {
            run += 1;
            if run >= RECOVERY_RUN {
                let start_bucket = i + 1 - RECOVERY_RUN;
                let start = (start_bucket as f64 * bucket_secs).min(duration_secs);
                return Some((start - onset).max(0.0));
            }
        } else {
            run = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latency series that is healthy except in `[gap_start, gap_end)`
    /// (no completions at all) and late in `[late_start, late_end)`.
    fn series(duration: f64, gap: (f64, f64), late: (f64, f64)) -> TimeSeries {
        let mut s = TimeSeries::new();
        let mut t = 0.5;
        while t < duration {
            if !(gap.0..gap.1).contains(&t) {
                let value = if (late.0..late.1).contains(&t) {
                    5.0
                } else {
                    0.4
                };
                s.record(t, value);
            }
            t += 1.0;
        }
        s
    }

    #[test]
    fn healthy_run_is_fully_available() {
        let s = series(100.0, (0.0, 0.0), (0.0, 0.0));
        let r = Resilience::of(&s, 100.0, 2.0, 10.0, &[]);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.downtime_secs, 0.0);
        assert!(r.mttr_secs.is_none(), "no onset, no repair");
        assert_eq!(r.violation_fraction_during_fault, 0.0);
    }

    #[test]
    fn wedged_window_counts_as_downtime_and_yields_an_mttr() {
        // Fault at t=40; nothing completes in [40, 70); healthy after.
        let s = series(100.0, (40.0, 70.0), (0.0, 0.0));
        let r = Resilience::of(&s, 100.0, 2.0, 10.0, &[40.0]);
        // Exposed window is [40, 100): 30 s down out of 60 s.
        assert!((r.downtime_secs - 30.0).abs() < 1e-9, "{r:?}");
        assert!((r.availability - 0.5).abs() < 1e-9, "{r:?}");
        // Recovery: buckets [70,80) and [80,90) are the sustained run.
        assert!((r.mttr_secs.unwrap() - 30.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.violation_fraction_during_fault, 0.0);
    }

    #[test]
    fn late_completions_count_as_downtime_and_violations() {
        let s = series(100.0, (0.0, 0.0), (50.0, 80.0));
        let r = Resilience::of(&s, 100.0, 2.0, 10.0, &[50.0]);
        assert!((r.downtime_secs - 30.0).abs() < 1e-9, "{r:?}");
        assert!(r.violation_fraction_during_fault > 0.5, "{r:?}");
        assert!((r.mttr_secs.unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn never_recovering_yields_no_mttr() {
        let s = series(100.0, (40.0, 100.0), (0.0, 0.0));
        let r = Resilience::of(&s, 100.0, 2.0, 10.0, &[40.0]);
        assert!(r.mttr_secs.is_none());
        assert!((r.availability - 0.0).abs() < 1e-9);
        assert!((r.downtime_secs - 60.0).abs() < 1e-9);
    }

    #[test]
    fn absorbed_fault_recovers_immediately() {
        // The service never blinks: MTTR is zero.
        let s = series(100.0, (0.0, 0.0), (0.0, 0.0));
        let r = Resilience::of(&s, 100.0, 2.0, 10.0, &[40.0]);
        assert_eq!(r.mttr_secs, Some(0.0));
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn multiple_onsets_average_their_repair_times() {
        // Outages [20,40) and [60,70): repairs take 20 s and 10 s.
        let mut s = TimeSeries::new();
        let mut t = 0.5;
        while t < 100.0 {
            if !(20.0..40.0).contains(&t) && !(60.0..70.0).contains(&t) {
                s.record(t, 0.4);
            }
            t += 1.0;
        }
        let r = Resilience::of(&s, 100.0, 2.0, 10.0, &[20.0, 60.0]);
        assert!((r.mttr_secs.unwrap() - 15.0).abs() < 1e-9, "{r:?}");
        assert!((r.downtime_secs - 30.0).abs() < 1e-9);
    }
}
