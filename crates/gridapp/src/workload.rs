//! The experiment workload (Figure 7).
//!
//! The control and adaptive runs share a scripted 30-minute workload:
//!
//! * **0–120 s** — quiescent period, giving gauges and probes time to deploy;
//! * **120–600 s** — the bandwidth-competition generator squeezes the path
//!   between clients C3/C4 and Server Group 1 (their available bandwidth
//!   collapses below the 10 Kbps minimum) while moderate (≈3 Mbps) bandwidth
//!   remains towards Server Group 2 — the expected repair is to migrate those
//!   clients to Server Group 2;
//! * **600–1200 s** — every client sends 20 KB requests twice a second (the
//!   server-load stress) while the bandwidth to Server Group 1 stays reduced;
//! * **1200–1800 s** — the bandwidth between C3/C4 and Server Group 2 is
//!   raised again, with moderate competition on the other path.
//!
//! The schedule is expressed with [`StepSchedule`]s so the same description
//! drives the control run, the adaptive run, and the Figure 7 bench.

use crate::app::GridApp;
use crate::config::GridConfig;
use simnet::{Registry, SimTime, StepSchedule};

/// Total length of an experiment run (seconds). The paper: thirty minutes.
pub const RUN_DURATION_SECS: f64 = 1800.0;

/// The built-in workload-schedule generators, in sweep-matrix order. Each
/// entry builds a schedule for the given configuration and run length;
/// [`workload_names`] derives the name list from this table.
pub static WORKLOAD_REGISTRY: Registry<fn(&GridConfig, f64) -> ExperimentSchedule> = Registry::new(
    "workload",
    &[
        ("figure7", ExperimentSchedule::figure7_scaled),
        ("step", ExperimentSchedule::step),
        ("ramp", ExperimentSchedule::ramp),
        ("flash-crowd", ExperimentSchedule::flash_crowd),
        ("diurnal", ExperimentSchedule::diurnal),
        ("autocorrelated", ExperimentSchedule::autocorrelated),
    ],
);

/// Names of the built-in workload-schedule generators, in sweep-matrix
/// order — derived from [`WORKLOAD_REGISTRY`], never maintained by hand.
pub fn workload_names() -> &'static [&'static str] {
    WORKLOAD_REGISTRY.names()
}

/// Background load that leaves `available_bps` of a `capacity_bps` link free
/// (clamped at the link capacity: a target above capacity means no
/// competition).
fn throttle(capacity_bps: f64, available_bps: f64) -> f64 {
    (capacity_bps - available_bps).max(0.0)
}

/// The scripted experiment workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSchedule {
    /// Competing background load on the C3/C4 ↔ Server Group 1 link (bps).
    pub competition_sg1: StepSchedule,
    /// Competing background load on the C3/C4 ↔ Server Group 2 link (bps).
    pub competition_sg2: StepSchedule,
    /// Per-client request rate (requests/second).
    pub request_rate: StepSchedule,
    /// Response size (bytes).
    pub response_bytes: StepSchedule,
}

impl ExperimentSchedule {
    /// The Figure 7 schedule, parameterised by the application configuration
    /// (for the baseline rate and response size).
    pub fn figure7(config: &GridConfig) -> Self {
        Self::figure7_scaled(config, RUN_DURATION_SECS)
    }

    /// The Figure 7 schedule with its phase boundaries scaled to an arbitrary
    /// run length (the paper's 120 s / 600 s / 1200 s boundaries sit at 1/15,
    /// 1/3, and 2/3 of the 1800 s run). At `duration_secs = 1800` this is
    /// exactly [`figure7`](Self::figure7).
    pub fn figure7_scaled(config: &GridConfig, duration_secs: f64) -> Self {
        let cap = config.testbed.core_capacity_bps;
        let quiescent_end = duration_secs / 15.0;
        let stress_start = duration_secs / 3.0;
        let stress_end = 2.0 * duration_secs / 3.0;
        ExperimentSchedule {
            // Quiescent: light competition leaves ≈9 Mbps. From the end of
            // the quiescent phase the generator squeezes the SG1 path hard
            // enough to push the remaining bandwidth below the 10 Kbps
            // minimum; during the stress phase it eases to leave ≈1 Mbps;
            // afterwards moderate competition leaves ≈3 Mbps.
            competition_sg1: StepSchedule::new(throttle(cap, 9.0e6))
                .step_at(quiescent_end, throttle(cap, 5.0e3))
                .step_at(stress_start, throttle(cap, 1.0e6))
                .step_at(stress_end, throttle(cap, 3.0e6)),
            // The opposite path keeps a moderate 3 Mbps until the final phase
            // raises it to ≈9 Mbps.
            competition_sg2: StepSchedule::new(throttle(cap, 9.0e6))
                .step_at(quiescent_end, throttle(cap, 3.0e6))
                .step_at(stress_end, throttle(cap, 9.0e6)),
            // All clients switch to 20 KB requests at twice a second during
            // the stress phase.
            request_rate: StepSchedule::new(config.request_rate_per_client)
                .step_at(stress_start, 2.0)
                .step_at(stress_end, config.request_rate_per_client),
            response_bytes: StepSchedule::new(config.response_bytes)
                .step_at(stress_start, 20_480.0)
                .step_at(stress_end, config.response_bytes),
        }
    }

    /// A single-step disturbance: after a 15% quiescent lead-in, the SG1 path
    /// is squeezed below the bandwidth minimum for the rest of the run while
    /// the SG2 path keeps a moderate ≈3 Mbps (so a client-move repair is
    /// available). Load stays at the baseline.
    pub fn step(config: &GridConfig, duration_secs: f64) -> Self {
        let cap = config.testbed.core_capacity_bps;
        let squeeze_at = duration_secs * 0.15;
        ExperimentSchedule {
            competition_sg1: StepSchedule::new(throttle(cap, 9.0e6))
                .step_at(squeeze_at, throttle(cap, 5.0e3)),
            competition_sg2: StepSchedule::new(throttle(cap, 9.0e6))
                .step_at(squeeze_at, throttle(cap, 3.0e6)),
            request_rate: StepSchedule::new(config.request_rate_per_client),
            response_bytes: StepSchedule::new(config.response_bytes),
        }
    }

    /// A gradual squeeze: after a 10% lead-in the SG1 path's available
    /// bandwidth ramps down in five steps from ≈9 Mbps to ≈5 Kbps over 80% of
    /// the run, while the SG2 path keeps ≈3 Mbps.
    pub fn ramp(config: &GridConfig, duration_secs: f64) -> Self {
        let cap = config.testbed.core_capacity_bps;
        let targets_bps = [6.0e6, 3.0e6, 1.0e6, 100.0e3, 5.0e3];
        let start = duration_secs * 0.1;
        let span = duration_secs * 0.8;
        let mut sg1 = StepSchedule::new(throttle(cap, 9.0e6));
        for (i, &available) in targets_bps.iter().enumerate() {
            let at = start + span * i as f64 / targets_bps.len() as f64;
            sg1 = sg1.step_at(at, throttle(cap, available));
        }
        ExperimentSchedule {
            competition_sg1: sg1,
            competition_sg2: StepSchedule::new(throttle(cap, 9.0e6))
                .step_at(start, throttle(cap, 3.0e6)),
            request_rate: StepSchedule::new(config.request_rate_per_client),
            response_bytes: StepSchedule::new(config.response_bytes),
        }
    }

    /// A flash crowd: bandwidth stays plentiful on both paths, but between
    /// 40% and 70% of the run every client fires 20 KB requests three times a
    /// second (a pure server-load overload, repaired by activating spares).
    pub fn flash_crowd(config: &GridConfig, duration_secs: f64) -> Self {
        let cap = config.testbed.core_capacity_bps;
        let burst_start = duration_secs * 0.4;
        let burst_end = duration_secs * 0.7;
        ExperimentSchedule {
            competition_sg1: StepSchedule::new(throttle(cap, 9.0e6)),
            competition_sg2: StepSchedule::new(throttle(cap, 9.0e6)),
            request_rate: StepSchedule::new(config.request_rate_per_client)
                .step_at(burst_start, 3.0)
                .step_at(burst_end, config.request_rate_per_client),
            response_bytes: StepSchedule::new(config.response_bytes)
                .step_at(burst_start, 20_480.0)
                .step_at(burst_end, config.response_bytes),
        }
    }

    /// A diurnal cycle: two "days" per run, each a staircase approximation
    /// of a sinusoid on the SG1 path's available bandwidth (peak ≈9 Mbps at
    /// "night", trough ≈1 Mbps at "midday") with the request rate peaking at
    /// midday. The second day's trough deepens below the 10 Kbps minimum —
    /// the violation arrives at the bottom of a long, structured descent, so
    /// an online drift detector has several cycle steps of warning.
    pub fn diurnal(config: &GridConfig, duration_secs: f64) -> Self {
        let cap = config.testbed.core_capacity_bps;
        let day = duration_secs / 2.0;
        let availability_bps = [9.0e6, 7.0e6, 4.0e6, 2.0e6, 1.0e6, 2.0e6, 4.0e6, 7.0e6];
        let mut sg1 = StepSchedule::new(throttle(cap, availability_bps[0]));
        let mut rate = StepSchedule::new(config.request_rate_per_client);
        for d in 0..2 {
            for (i, &available) in availability_bps.iter().enumerate() {
                if d == 0 && i == 0 {
                    continue;
                }
                let at = d as f64 * day + day * i as f64 / availability_bps.len() as f64;
                // The second day's midday trough breaches the minimum.
                let available = if d == 1 && i == 4 { 5.0e3 } else { available };
                sg1 = sg1.step_at(at, throttle(cap, available));
            }
            let midday = d as f64 * day;
            rate = rate
                .step_at(midday + day * 0.375, 1.5)
                .step_at(midday + day * 0.625, config.request_rate_per_client);
        }
        ExperimentSchedule {
            competition_sg1: sg1,
            competition_sg2: StepSchedule::new(throttle(cap, 3.0e6)),
            request_rate: rate,
            response_bytes: StepSchedule::new(config.response_bytes),
        }
    }

    /// An autocorrelated background ramp: the SG1 path's available bandwidth
    /// follows a seeded AR(1) random walk (strong memory, small
    /// innovations) mean-reverting around ≈6 Mbps over the front half of
    /// the run, then decays multiplicatively with jitter over the back half
    /// — so the squeeze below the 10 Kbps minimum emerges gradually out of
    /// in-family noise instead of arriving as a scripted step. The walk is
    /// derived from `config.seed` alone, so a (config, duration) pair is
    /// fully reproducible.
    pub fn autocorrelated(config: &GridConfig, duration_secs: f64) -> Self {
        let cap = config.testbed.core_capacity_bps;
        const STEPS: usize = 40;
        let mut sg1 = StepSchedule::new(throttle(cap, 9.0e6));
        let mut state = config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let mut level_bps = 9.0e6_f64;
        let dt = duration_secs / STEPS as f64;
        for i in 1..STEPS {
            // xorshift64* — a self-contained deterministic generator, so the
            // workload layer needs no external RNG dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let uniform =
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            let progress = i as f64 / STEPS as f64;
            level_bps = if progress <= 0.5 {
                // Front half: mean-reverting around ≈6 Mbps — in-family noise.
                let noise_bps = (uniform - 0.5) * 1.0e6;
                (0.8 * level_bps + 0.2 * 6.0e6 + noise_bps).clamp(1.0e6, 9.5e6)
            } else {
                // Back half: each step keeps a jittered 55–75% of the
                // remaining bandwidth, so the squeeze compounds gradually
                // and crosses the 10 Kbps minimum well before run end.
                (level_bps * (0.55 + 0.2 * uniform)).max(4.0e3)
            };
            sg1 = sg1.step_at(dt * i as f64, throttle(cap, level_bps));
        }
        ExperimentSchedule {
            competition_sg1: sg1,
            competition_sg2: StepSchedule::new(throttle(cap, 3.0e6)),
            request_rate: StepSchedule::new(config.request_rate_per_client),
            response_bytes: StepSchedule::new(config.response_bytes),
        }
    }

    /// Resolves a workload generator by its sweep-matrix name (one of
    /// [`workload_names`]), producing a schedule for a run of the given
    /// length — a thin wrapper over [`WORKLOAD_REGISTRY`].
    pub fn by_name(name: &str, config: &GridConfig, duration_secs: f64) -> Option<Self> {
        WORKLOAD_REGISTRY
            .find(name)
            .map(|build| build(config, duration_secs))
    }

    /// All times at which any schedule changes value, in increasing order.
    pub fn change_points(&self) -> Vec<f64> {
        let mut points: Vec<f64> = self
            .competition_sg1
            .change_points()
            .into_iter()
            .chain(self.competition_sg2.change_points())
            .chain(self.request_rate.change_points())
            .chain(self.response_bytes.change_points())
            .collect();
        points.sort_by(f64::total_cmp);
        points.dedup();
        points
    }

    /// Applies the schedule values in force at time `t` to the application.
    pub fn apply(&self, app: &mut GridApp, t: f64) {
        let now = SimTime::from_secs(t);
        app.set_competition_sg1(now, self.competition_sg1.value_at(t));
        app.set_competition_sg2(now, self.competition_sg2.value_at(t));
        app.set_workload(
            self.request_rate.value_at(t),
            self.response_bytes.value_at(t),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_shape() {
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        let link = crate::testbed::LINK_CAPACITY_BPS;
        // Quiescent phase: ≈9 Mbps available to Server Group 1.
        assert!((link - schedule.competition_sg1.value_at(60.0) - 9.0e6).abs() < 1.0);
        // Squeeze phase: below the 10 Kbps minimum.
        assert!(link - schedule.competition_sg1.value_at(300.0) < 10_000.0);
        // Stress phase: twice-a-second 20 KB requests.
        assert_eq!(schedule.request_rate.value_at(900.0), 2.0);
        assert_eq!(schedule.response_bytes.value_at(900.0), 20_480.0);
        // Final phase: Server Group 2 path opens up to ≈9 Mbps.
        assert!((link - schedule.competition_sg2.value_at(1500.0) - 9.0e6).abs() < 1.0);
        // Baseline restored after the stress phase.
        assert_eq!(schedule.request_rate.value_at(1500.0), 1.0);
    }

    #[test]
    fn change_points_are_sorted_and_unique() {
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        let points = schedule.change_points();
        assert_eq!(points, vec![120.0, 600.0, 1200.0]);
    }

    #[test]
    fn figure7_is_its_own_scaling_at_the_paper_duration() {
        let config = GridConfig::default();
        assert_eq!(
            ExperimentSchedule::figure7(&config),
            ExperimentSchedule::figure7_scaled(&config, RUN_DURATION_SECS)
        );
        // Scaled to half the duration, the boundaries halve.
        let half = ExperimentSchedule::figure7_scaled(&config, 900.0);
        assert_eq!(half.change_points(), vec![60.0, 300.0, 600.0]);
    }

    #[test]
    fn every_workload_name_resolves_and_unknown_names_do_not() {
        let config = GridConfig::default();
        assert_eq!(
            workload_names(),
            &[
                "figure7",
                "step",
                "ramp",
                "flash-crowd",
                "diurnal",
                "autocorrelated"
            ]
        );
        for &name in workload_names() {
            let schedule = ExperimentSchedule::by_name(name, &config, 600.0)
                .unwrap_or_else(|| panic!("{name} resolves"));
            // Change points are sorted and unique for every generator.
            let points = schedule.change_points();
            let mut sorted = points.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted.dedup();
            assert_eq!(points, sorted, "{name} change points sorted and unique");
        }
        assert!(ExperimentSchedule::by_name("nonsense", &config, 600.0).is_none());
    }

    #[test]
    fn step_squeezes_sg1_below_the_minimum_but_leaves_sg2_usable() {
        let config = GridConfig::default();
        let cap = config.testbed.core_capacity_bps;
        let schedule = ExperimentSchedule::step(&config, 600.0);
        assert!(cap - schedule.competition_sg1.value_at(50.0) > 8.0e6);
        assert!(cap - schedule.competition_sg1.value_at(200.0) < 10_000.0);
        assert!(cap - schedule.competition_sg2.value_at(200.0) > 1.0e6);
        // Load is never stepped.
        assert!(schedule.request_rate.change_points().is_empty());
    }

    #[test]
    fn ramp_descends_monotonically() {
        let config = GridConfig::default();
        let cap = config.testbed.core_capacity_bps;
        let schedule = ExperimentSchedule::ramp(&config, 1000.0);
        let mut last = f64::INFINITY;
        for t in [0.0, 150.0, 350.0, 500.0, 700.0, 900.0] {
            let available = cap - schedule.competition_sg1.value_at(t);
            assert!(available <= last, "availability descends at t={t}");
            last = available;
        }
        assert!(last < 10_000.0, "the final phase breaches the minimum");
        assert_eq!(schedule.competition_sg1.change_points().len(), 5);
    }

    #[test]
    fn flash_crowd_bursts_the_request_load_only() {
        let config = GridConfig::default();
        let schedule = ExperimentSchedule::flash_crowd(&config, 1000.0);
        assert_eq!(schedule.request_rate.value_at(100.0), 1.0);
        assert_eq!(schedule.request_rate.value_at(500.0), 3.0);
        assert_eq!(schedule.response_bytes.value_at(500.0), 20_480.0);
        assert_eq!(schedule.request_rate.value_at(800.0), 1.0);
        assert!(schedule.competition_sg1.change_points().is_empty());
    }

    #[test]
    fn diurnal_cycles_and_breaches_only_on_the_second_day() {
        let config = GridConfig::default();
        let cap = config.testbed.core_capacity_bps;
        let schedule = ExperimentSchedule::diurnal(&config, 1600.0);
        let available = |t: f64| cap - schedule.competition_sg1.value_at(t);
        // Day one: midday trough stays at ≈1 Mbps — tight, but no breach.
        assert!(available(420.0) >= 1.0e6 - 1.0);
        // Day one evening recovers.
        assert!(available(760.0) > 5.0e6);
        // Day two midday: below the 10 Kbps minimum.
        assert!(available(1220.0) < 10_000.0);
        // Load peaks at midday on both days.
        assert_eq!(schedule.request_rate.value_at(350.0), 1.5);
        assert_eq!(schedule.request_rate.value_at(600.0), 1.0);
        assert_eq!(schedule.request_rate.value_at(1150.0), 1.5);
    }

    #[test]
    fn autocorrelated_is_seed_deterministic_and_ends_squeezed() {
        let config = GridConfig::default();
        let cap = config.testbed.core_capacity_bps;
        let a = ExperimentSchedule::autocorrelated(&config, 1000.0);
        let b = ExperimentSchedule::autocorrelated(&config, 1000.0);
        assert_eq!(a, b, "same seed, same walk");
        let other = GridConfig {
            seed: config.seed + 1,
            ..config
        };
        assert_ne!(
            a,
            ExperimentSchedule::autocorrelated(&other, 1000.0),
            "the walk depends on the seed"
        );
        // The front half stays comfortably above the minimum; the decaying
        // reversion target drags the back half below it.
        let available = |t: f64| cap - a.competition_sg1.value_at(t);
        for t in [100.0, 250.0, 400.0] {
            assert!(available(t) > 1.0e6, "in-family at t={t}");
        }
        assert!(available(990.0) < 10_000.0, "the walk ends breached");
    }

    #[test]
    fn generators_respect_a_congested_core_capacity() {
        // On a 6 Mbps core a 9 Mbps availability target cannot be met; the
        // throttle clamps the competition at zero instead of going negative.
        let config = GridConfig::with_testbed(crate::testbed::TestbedSpec::congested_core());
        let schedule = ExperimentSchedule::step(&config, 600.0);
        assert_eq!(schedule.competition_sg1.value_at(0.0), 0.0);
        assert!(schedule.competition_sg1.value_at(200.0) > 0.0);
    }

    #[test]
    fn apply_sets_workload_and_competition() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        let before = app
            .remos_get_flow("User3", crate::app::SERVER_GROUP_1)
            .unwrap();
        schedule.apply(&mut app, 300.0);
        let after = app
            .remos_get_flow("User3", crate::app::SERVER_GROUP_1)
            .unwrap();
        assert!(
            after < 10_000.0,
            "squeeze leaves under 10 Kbps, got {after}"
        );
        assert!(before > after);
    }

    #[test]
    fn quiescent_phase_meets_the_latency_goal() {
        // Sanity: under the quiescent schedule no client breaches 2 s, so any
        // violation later in the run is caused by the scripted disturbances.
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        let schedule = ExperimentSchedule::figure7(&GridConfig::default());
        schedule.apply(&mut app, 0.0);
        app.advance(SimTime::from_secs(120.0));
        let completions: Vec<_> = app.drain_completions().collect();
        assert!(!completions.is_empty());
        let above = completions.iter().filter(|c| c.latency_secs > 2.0).count();
        assert_eq!(above, 0, "quiescent phase must not violate the bound");
    }
}
