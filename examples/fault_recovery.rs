//! Fault recovery: inject a fault schedule into a control run (no
//! adaptation) and an adaptive run sharing the same seed, then render a
//! timeline of the failure and the recovery plus the resilience metrics
//! (availability, downtime, MTTR, violations during the fault).
//!
//! The default profile crashes two of Server Group 1's three replicas
//! mid-run: the control run drowns in its backlog until the servers return,
//! while the adaptive run detects the dead replicas through the liveness
//! gauges and fails the group over to the spare servers.
//!
//! Run with:
//! ```text
//! cargo run --release --example fault_recovery                  # 600 s crash demo
//! cargo run --release --example fault_recovery -- 900 cascade   # other profiles
//! ```

use arch_adapt::experiment::{parse_duration_secs, Comparison};
use arch_adapt::FrameworkConfig;
use faultsim::{fault_profile_by_name, fault_profile_names, Resilience};
use gridapp::GridConfig;
use tracestore::EventKind;

const BUCKET_SECS: f64 = 20.0;

fn main() {
    let mut args = std::env::args().skip(1);
    let duration = parse_duration_secs(args.next().as_deref(), 600.0).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("usage: fault_recovery [duration-secs] [fault-profile]");
        std::process::exit(2);
    });
    let profile = args.next().unwrap_or_else(|| "server-crash-midrun".into());
    let Some(schedule) = fault_profile_by_name(&profile, duration) else {
        eprintln!("unknown fault profile: {profile}");
        eprintln!("fault profiles: {}", fault_profile_names().join(", "));
        std::process::exit(2);
    };

    let grid = GridConfig::default();
    eprintln!(
        "running control and adaptive experiments for {duration:.0} s with the `{profile}` fault profile..."
    );
    let comparison = Comparison::run_observed(
        grid,
        FrameworkConfig::adaptive(),
        None,
        Some(&schedule),
        duration,
        Default::default(),
    )
    .expect("experiments run");

    // The event markers are the fault timeline the runs applied.
    let compiled = &comparison.adaptive.faults;
    let bound = grid.max_latency_secs;
    if compiled.is_empty() {
        println!("profile `{profile}` injects no faults; there is nothing to recover from");
        return;
    }

    // -- Timeline: control vs adaptive around the injected faults ----------
    let control_latency = comparison.control.metrics.pooled_latency();
    let adaptive_latency = comparison.adaptive.metrics.pooled_latency();
    let from = compiled
        .first_onset_secs()
        .map_or(0.0, |t| (t - 2.0 * BUCKET_SECS).max(0.0));
    println!("== Fault-recovery timeline (profile `{profile}`, bucket {BUCKET_SECS:.0} s) ==");
    println!(
        "  {:>9}  {:>22}  {:>22}  events",
        "t(s)", "control done/mean(s)", "adaptive done/mean(s)"
    );
    let mut t = from;
    while t < duration {
        let end = (t + BUCKET_SECS).min(duration);
        let render = |series: &simnet::TimeSeries| {
            let slice = series.window(t, end);
            match slice.mean() {
                Some(mean) => format!("{:>6} / {:>8.2}", slice.len(), mean),
                None => format!("{:>6} / {:>8}", 0, "-"),
            }
        };
        let mut events: Vec<String> = compiled
            .actions
            .iter()
            .filter(|a| a.at_secs >= t && a.at_secs < end)
            .map(|a| a.label.clone())
            .collect();
        for (start, stop) in &comparison.adaptive.repair_intervals {
            if *start >= t && *start < end {
                events.push(format!("repair starts ({start:.0}-{stop:.0} s)"));
            }
        }
        println!(
            "  {:>9.0}  {:>22}  {:>22}  {}",
            t,
            render(&control_latency),
            render(&adaptive_latency),
            events.join("; ")
        );
        t = end;
    }

    // -- Resilience metrics -------------------------------------------------
    let onsets = &compiled.onsets;
    let measure =
        |series: &simnet::TimeSeries| Resilience::of(series, duration, bound, 10.0, onsets);
    let control = measure(&control_latency);
    let adaptive = measure(&adaptive_latency);
    let show = |label: &str, r: &Resilience| {
        println!(
            "  {label:<9} availability {:.3}, downtime {:.0} s, MTTR {}, violations during fault {:.3}",
            r.availability,
            r.downtime_secs,
            r.mttr_secs
                .map_or("never recovered".to_string(), |m| format!("{m:.0} s")),
            r.violation_fraction_during_fault
        );
    };
    println!("== Resilience (bound {bound:.1} s) ==");
    show("control:", &control);
    show("adaptive:", &adaptive);
    let faults_seen = comparison.adaptive.trace.count(EventKind::Fault);
    println!(
        "  adaptive run: {} fault events injected, {} repairs completed",
        faults_seen, comparison.adaptive.summary.repairs_completed
    );

    // -- Post-repair comparison --------------------------------------------
    // After the adaptive run's last repair settles, its violation fraction
    // must be strictly below the control run's over the same window — the
    // recovery the control run cannot perform.
    let recovery_point = comparison
        .adaptive
        .repair_intervals
        .iter()
        .map(|&(_, end)| end)
        .fold(onsets.first().copied().unwrap_or(0.0), f64::max)
        + BUCKET_SECS;
    if recovery_point >= duration {
        println!(
            "  the run ended at {duration:.0} s before the last repair (at {recovery_point:.0} s) \
             could settle; lengthen the run to compare the recovered steady states"
        );
        return;
    }
    let control_after =
        comparison
            .control
            .metrics
            .fraction_latency_above(bound, recovery_point, duration);
    let adaptive_after =
        comparison
            .adaptive
            .metrics
            .fraction_latency_above(bound, recovery_point, duration);
    println!(
        "  post-repair (t >= {recovery_point:.0} s): control {control_after:.3} vs adaptive {adaptive_after:.3} violations"
    );
    assert!(
        adaptive_after < control_after,
        "the adaptive run must recover: adaptive {adaptive_after:.3} !< control {control_after:.3}"
    );
    println!("  => adaptation recovered from the fault; the control run did not");
}
