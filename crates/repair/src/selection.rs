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

/// Selects the violation to repair under the given policy.
pub fn select_violation<'a>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use archmodel::style::ClientServerStyle;

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
                invariant: "latency".into(),
                subject: Some(ElementRef::Component(
                    model.component_by_name(name).unwrap(),
                )),
                subject_name: name.to_string(),
                detail: String::new(),
            })
            .collect();
        (model, violations)
    }

    #[test]
    fn first_reported_takes_the_first() {
        let (model, violations) = model_and_violations();
        let chosen = select_violation(SelectionPolicy::FirstReported, &violations, &model).unwrap();
        assert_eq!(chosen.subject_name, "User1");
    }

    #[test]
    fn worst_latency_takes_the_slowest_client() {
        let (model, violations) = model_and_violations();
        let chosen = select_violation(SelectionPolicy::WorstLatency, &violations, &model).unwrap();
        assert_eq!(chosen.subject_name, "User2");
    }

    #[test]
    fn empty_violations_select_nothing() {
        let (model, _) = model_and_violations();
        assert!(select_violation(SelectionPolicy::FirstReported, &[], &model).is_none());
        assert!(select_violation(SelectionPolicy::WorstLatency, &[], &model).is_none());
    }

    #[test]
    fn violations_without_latency_fall_back_gracefully() {
        let (model, mut violations) = model_and_violations();
        violations.push(Violation {
            invariant: "serverLoad".into(),
            subject: None,
            subject_name: "storage".into(),
            detail: String::new(),
        });
        let chosen = select_violation(SelectionPolicy::WorstLatency, &violations, &model).unwrap();
        assert_eq!(chosen.subject_name, "User2");
    }
}
