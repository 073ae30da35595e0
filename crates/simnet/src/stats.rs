//! Time-series recording and summary statistics.
//!
//! The experiment harness records latency, queue-length, and bandwidth
//! observations over the run and reports them exactly the way the paper's
//! figures do: a series of (elapsed-seconds, value) points plus summary
//! numbers such as the fraction of time a series spends above a threshold.

use serde::Serialize;

/// A series of (time, value) observations, ordered by time of insertion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// The series of `points`, whose times must be non-decreasing, without
    /// copying them.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        debug_assert!(
            points.windows(2).all(|pair| pair[0].0 <= pair[1].0),
            "observations must be time-ordered"
        );
        TimeSeries { points }
    }

    /// Appends an observation. Times must be non-decreasing.
    pub fn record(&mut self, time_secs: f64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(time_secs >= last, "observations must be time-ordered");
        }
        self.points.push((time_secs, value));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the (time, value) points.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The raw points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Mean of the values (unweighted).
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Minimum value.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the values using nearest-rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let values: Vec<f64> = self.points.iter().map(|&(_, v)| v).collect();
        quantile_of(&values, q)
    }

    /// Fraction of observations strictly above `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let above = self.points.iter().filter(|&&(_, v)| v > threshold).count();
        above as f64 / self.points.len() as f64
    }

    /// Values recorded within `[start, end)`.
    pub fn window(&self, start: f64, end: f64) -> TimeSeries {
        TimeSeries {
            points: self
                .points
                .iter()
                .copied()
                .filter(|&(t, _)| t >= start && t < end)
                .collect(),
        }
    }

    /// First time at which the value exceeds `threshold`, if ever.
    pub fn first_time_above(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, v)| v > threshold)
            .map(|&(t, _)| t)
    }

    /// Downsamples the series to at most `max_points` evenly spaced samples
    /// (keeping first and last) for compact reporting.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.points.len() <= max_points {
            return self.clone();
        }
        let stride = (self.points.len() as f64 / max_points as f64).ceil() as usize;
        let mut points: Vec<(f64, f64)> = self.points.iter().copied().step_by(stride).collect();
        if let (Some(&last_kept), Some(&last)) = (points.last(), self.points.last()) {
            if last_kept != last {
                points.push(last);
            }
        }
        TimeSeries { points }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a slice of values using nearest-rank —
/// the one quantile definition shared by [`TimeSeries::quantile`] and any
/// cross-run aggregation built on top of it. `None` if the slice is empty.
/// Values rank by [`f64::total_cmp`]: a NaN ranks above +∞ (below −∞ when
/// its sign bit is set), so it is the answer only where its rank is asked for.
/// The rank is selected, not sorted for: under a total order the element at
/// a rank is bit-identical to the sorted slice's.
pub fn quantile_of(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut ranked = values.to_vec();
    let idx = ((ranked.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    Some(*ranked.select_nth_unstable_by(idx, f64::total_cmp).1)
}

/// Summary statistics for a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median value.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarises a series; returns `None` if it is empty.
    pub fn of(series: &TimeSeries) -> Option<Summary> {
        if series.is_empty() {
            return None;
        }
        Some(Summary {
            count: series.len(),
            mean: series.mean()?,
            min: series.min()?,
            max: series.max()?,
            median: series.quantile(0.5)?,
            p95: series.quantile(0.95)?,
        })
    }
}

/// A piecewise-constant schedule: the experiment's stepping functions
/// (Figure 7) for bandwidth competition and request-load changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepSchedule {
    /// (start-time, value) steps, sorted by start time.
    steps: Vec<(f64, f64)>,
    /// Value before the first step.
    initial: f64,
}

impl StepSchedule {
    /// Creates a schedule with the given initial value.
    pub fn new(initial: f64) -> Self {
        StepSchedule {
            steps: Vec::new(),
            initial,
        }
    }

    /// Adds a step: from `time` onwards the value is `value`.
    pub fn step_at(mut self, time: f64, value: f64) -> Self {
        self.steps.push((time, value));
        self.steps
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("times are not NaN"));
        self
    }

    /// The value of the schedule at `time`.
    pub fn value_at(&self, time: f64) -> f64 {
        let mut value = self.initial;
        for &(start, v) in &self.steps {
            if time >= start {
                value = v;
            } else {
                break;
            }
        }
        value
    }

    /// All times at which the schedule changes value, in increasing order
    /// with duplicates removed (a schedule composed out of multiple phases
    /// may step twice at the same instant; the later step wins in
    /// [`value_at`](Self::value_at)).
    pub fn change_points(&self) -> Vec<f64> {
        let mut points: Vec<f64> = self.steps.iter().map(|&(t, _)| t).collect();
        points.sort_by(|a, b| a.partial_cmp(b).expect("times are not NaN"));
        points.dedup();
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in points {
            s.record(t, v);
        }
        s
    }

    #[test]
    fn summary_of_simple_series() {
        let s = series(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]);
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.count, 4);
        assert!((sum.mean - 2.5).abs() < 1e-12);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 4.0);
    }

    #[test]
    fn empty_series_has_no_summary() {
        assert!(Summary::of(&TimeSeries::new()).is_none());
        assert!(TimeSeries::new().mean().is_none());
    }

    #[test]
    fn fraction_above_counts_points() {
        let s = series(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 1.0)]);
        assert!((s.fraction_above(2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn first_time_above_finds_threshold_crossing() {
        let s = series(&[(0.0, 1.0), (140.0, 2.5), (150.0, 3.0)]);
        assert_eq!(s.first_time_above(2.0), Some(140.0));
        assert_eq!(s.first_time_above(10.0), None);
    }

    #[test]
    fn window_selects_half_open_range() {
        let s = series(&[(0.0, 1.0), (5.0, 2.0), (10.0, 3.0)]);
        let w = s.window(0.0, 10.0);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let s = series(&[
            (0.0, 10.0),
            (1.0, 20.0),
            (2.0, 30.0),
            (3.0, 40.0),
            (4.0, 50.0),
        ]);
        assert_eq!(s.quantile(0.0), Some(10.0));
        assert_eq!(s.quantile(0.5), Some(30.0));
        assert_eq!(s.quantile(1.0), Some(50.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Selection returns the sorted slice's element at the rank, bit for
        /// bit, over slices drawn mostly from NaN (both signs), ±0, ±∞ and
        /// a few repeated finite values, at every q including out-of-range.
        #[test]
        fn selection_is_the_sorted_definition(
            picks in proptest::collection::vec(0usize..10, 1..40),
            q in -0.25f64..1.25,
        ) {
            let pool = [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                -2.0,
                1.5,
                7.0,
            ];
            let values: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [q, 0.0, 0.5, 0.95, 1.0] {
                let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
                let got = quantile_of(&values, q).unwrap();
                proptest::prop_assert_eq!(got.to_bits(), sorted[idx].to_bits(), "{:?} at {}", values, q);
            }
        }
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TimeSeries::new();
        for i in 0..1000 {
            s.record(i as f64, i as f64);
        }
        let d = s.downsample(100);
        assert!(d.len() <= 101);
        assert_eq!(d.points().first().unwrap().0, 0.0);
        assert_eq!(d.points().last().unwrap().0, 999.0);
    }

    #[test]
    fn step_schedule_matches_figure7_shape() {
        // Bandwidth between C3,C4 and SG1 (Figure 7): 9 Mbps initially,
        // squeezed during the middle phase, partially restored later.
        let sched = StepSchedule::new(9e6)
            .step_at(120.0, 5e6)
            .step_at(600.0, 2e6)
            .step_at(1200.0, 3e6);
        assert_eq!(sched.value_at(0.0), 9e6);
        assert_eq!(sched.value_at(119.9), 9e6);
        assert_eq!(sched.value_at(120.0), 5e6);
        assert_eq!(sched.value_at(800.0), 2e6);
        assert_eq!(sched.value_at(1700.0), 3e6);
        assert_eq!(sched.change_points(), vec![120.0, 600.0, 1200.0]);
    }

    #[test]
    fn step_schedule_orders_out_of_order_steps() {
        let sched = StepSchedule::new(0.0).step_at(10.0, 2.0).step_at(5.0, 1.0);
        assert_eq!(sched.value_at(7.0), 1.0);
        assert_eq!(sched.value_at(12.0), 2.0);
        assert_eq!(sched.change_points(), vec![5.0, 10.0]);
    }

    #[test]
    fn change_points_are_sorted_and_deduplicated() {
        let sched = StepSchedule::new(0.0)
            .step_at(20.0, 3.0)
            .step_at(5.0, 1.0)
            .step_at(20.0, 4.0);
        assert_eq!(sched.change_points(), vec![5.0, 20.0]);
    }
}
