//! Violation-selection policies.
//!
//! The paper's experiment *simply chose to repair the first client that
//! reported an error*; §7 proposes smarter approaches such as fixing the
//! client experiencing the worst latency first. Both policies are provided so
//! the ablation benches can compare them.

use archmodel::constraint::Violation;
use archmodel::style::props;
use archmodel::{ElementRef, System};

/// Which violation to repair first when several are outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Repair the first violation reported (the paper's experiment).
    FirstReported,
    /// Repair the client experiencing the worst latency first (§7).
    WorstLatency,
}

fn latency_of(violation: &Violation, model: &System) -> f64 {
    let Some(ElementRef::Component(id)) = violation.subject else {
        return f64::NEG_INFINITY;
    };
    model
        .component(id)
        .ok()
        .and_then(|c| c.properties.get_f64(props::AVERAGE_LATENCY))
        .unwrap_or(f64::NEG_INFINITY)
}

/// Orders `candidates`, indices into `violations`, as the engine takes
/// them under `policy`, each (invariant, subject name) pair once, at its
/// first place. Picking the most urgent candidate and dropping every
/// candidate of its pair, again and again, visits the same order; sorting
/// once makes a fall-through over `n` candidates O(n log n), not O(n²).
/// Under [`WorstLatency`](SelectionPolicy::WorstLatency) the worst latency
/// comes first and, of equal latencies, the later candidate. Sorts in
/// place: nothing is allocated.
pub(crate) fn repair_order(
    policy: SelectionPolicy,
    violations: &[Violation],
    model: &System,
    candidates: &mut Vec<u32>,
) {
    let violation = |i: u32| &violations[i as usize];
    let rank = |a: &u32, b: &u32| match policy {
        SelectionPolicy::FirstReported => a.cmp(b),
        SelectionPolicy::WorstLatency => {
            let latency = |i: u32| latency_of(violation(i), model);
            let worse = latency(*b).partial_cmp(&latency(*a));
            worse.expect("latencies are not NaN").then(b.cmp(a))
        }
    };
    let pair = |i: u32| (violation(i).invariant, violation(i).subject_name);
    // Each pair's candidates side by side, the first taken ahead of the rest.
    let by_pair = |a: &u32, b: &u32| pair(*a).cmp(&pair(*b)).then_with(|| rank(a, b));
    candidates.sort_unstable_by(by_pair);
    candidates.dedup_by(|later, first| pair(*later) == pair(*first));
    candidates.sort_unstable_by(rank);
}

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::ClientServerStyle;
    use archmodel::Key;
    use proptest::prelude::*;

    /// The pick the engine made before it sorted once: the first candidate,
    /// or the worst latency, the last of equals (`max_by`).
    fn select_violation<'a>(
        policy: SelectionPolicy,
        violations: &'a [Violation],
        model: &System,
    ) -> Option<&'a Violation> {
        match policy {
            SelectionPolicy::FirstReported => violations.first(),
            SelectionPolicy::WorstLatency => violations.iter().max_by(|a, b| {
                latency_of(a, model)
                    .partial_cmp(&latency_of(b, model))
                    .expect("latencies are not NaN")
            }),
        }
    }

    /// The order the engine visited candidates in before it sorted once:
    /// pick one, drop every candidate of its (invariant, subject name)
    /// pair, and pick again.
    fn select_and_retain(
        policy: SelectionPolicy,
        violations: &[Violation],
        model: &System,
    ) -> Vec<u32> {
        let mut candidates: Vec<(u32, Violation)> = (0..).zip(violations.iter().copied()).collect();
        let mut order = Vec::new();
        loop {
            let left: Vec<Violation> = candidates.iter().map(|c| c.1).collect();
            let Some(chosen) = select_violation(policy, &left, model) else {
                return order;
            };
            let at = left.iter().position(|v| std::ptr::eq(v, chosen)).unwrap();
            let chosen = *chosen;
            order.push(candidates[at].0);
            candidates.retain(|(_, v)| {
                !(v.invariant == chosen.invariant && v.subject_name == chosen.subject_name)
            });
        }
    }

    fn ordered(policy: SelectionPolicy, violations: &[Violation], model: &System) -> Vec<u32> {
        let mut candidates: Vec<u32> = (0..violations.len() as u32).collect();
        repair_order(policy, violations, model, &mut candidates);
        candidates
    }

    fn model_and_violations() -> (System, Vec<Violation>) {
        let mut model = ClientServerStyle::example_system("s", 1, 1, 3).unwrap();
        for (name, latency) in [("User1", 3.0), ("User2", 9.0), ("User3", 5.0)] {
            let id = model.component_by_name(name).unwrap();
            model
                .component_mut(id)
                .unwrap()
                .properties
                .set(props::AVERAGE_LATENCY, latency);
        }
        let violations: Vec<Violation> = ["User1", "User2", "User3"]
            .iter()
            .map(|name| Violation {
                invariant: Key::new("latency"),
                subject: Some(ElementRef::Component(
                    model.component_by_name(name).unwrap(),
                )),
                subject_name: Key::new(name),
                detail: Key::new(""),
            })
            .collect();
        (model, violations)
    }

    #[test]
    fn first_reported_takes_the_first() {
        let (model, violations) = model_and_violations();
        let order = ordered(SelectionPolicy::FirstReported, &violations, &model);
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn worst_latency_takes_the_slowest_client() {
        let (model, violations) = model_and_violations();
        let order = ordered(SelectionPolicy::WorstLatency, &violations, &model);
        assert_eq!(violations[order[0] as usize].subject_name, "User2");
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    fn empty_violations_select_nothing() {
        let (model, _) = model_and_violations();
        for policy in [
            SelectionPolicy::FirstReported,
            SelectionPolicy::WorstLatency,
        ] {
            assert!(ordered(policy, &[], &model).is_empty());
        }
    }

    #[test]
    fn violations_without_latency_fall_back_gracefully() {
        let (model, mut violations) = model_and_violations();
        violations.push(Violation {
            invariant: Key::new("serverLoad"),
            subject: None,
            subject_name: Key::new("storage"),
            detail: Key::new(""),
        });
        let order = ordered(SelectionPolicy::WorstLatency, &violations, &model);
        assert_eq!(order, [1, 2, 0, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Violations of two invariants over five clients, named from three
        /// names (so one name can stand for two elements, and one pair can
        /// be reported twice), some with no subject, with latencies drawn
        /// from four values (ties) or none: sorting once visits exactly the
        /// order repeated selection did, under both policies.
        #[test]
        fn sorting_once_visits_the_order_repeated_selection_did(
            latencies in proptest::collection::vec(0usize..5, 5),
            picks in proptest::collection::vec((0usize..2, 0usize..6, 0usize..3), 0..24),
        ) {
            let mut model = ClientServerStyle::example_system("s", 1, 1, 5).unwrap();
            let mut clients = Vec::new();
            for (c, latency) in latencies.iter().enumerate() {
                let id = model.component_by_name(&format!("User{}", c + 1)).unwrap();
                // The fifth value: no latency reported.
                if let Some(l) = [0.5, 3.0, 3.0, 7.0].get(*latency) {
                    let properties = &mut model.component_mut(id).unwrap().properties;
                    properties.set(props::AVERAGE_LATENCY, *l);
                }
                clients.push(id);
            }
            let violations: Vec<Violation> = picks
                .iter()
                .map(|&(invariant, client, name)| Violation {
                    invariant: Key::new(["latency", "bandwidth"][invariant]),
                    subject: clients.get(client).map(|&id| ElementRef::Component(id)),
                    subject_name: Key::new(["User1", "User2", "storage"][name]),
                    detail: Key::new(""),
                })
                .collect();
            for policy in [SelectionPolicy::FirstReported, SelectionPolicy::WorstLatency] {
                prop_assert_eq!(
                    ordered(policy, &violations, &model),
                    select_and_retain(policy, &violations, &model),
                    "{:?}",
                    policy
                );
            }
        }
    }
}
