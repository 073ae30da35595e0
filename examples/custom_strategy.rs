//! Writing a custom repair strategy against the architectural model.
//!
//! The framework's value (per the paper's §1 and §7) is that adaptation is
//! *externalised*: repairs are written against the architectural model, not
//! woven into application code. This example defines a new tactic — scale a
//! server group to a target replica count computed from the M/M/c analysis —
//! wraps it in a strategy, and runs it against a model whose load gauge
//! reports an overload.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_strategy
//! ```

use analysis::{provision, ProvisioningInput};
use archmodel::constraint::{ConstraintScope, ConstraintSet, Invariant, Violation};
use archmodel::style::{props, ClientServerStyle};
use archmodel::Key;
use repair::{
    add_server, NotApplicable, RepairError, RepairStrategy, StaticQuery, StrategyOutcome, Tactic,
    TacticContext, TacticResult,
};

/// A tactic that sizes an overloaded group to the replica count suggested by
/// the queueing analysis, instead of adding one server at a time.
struct ProvisionToAnalysis {
    arrival_rate: f64,
    service_rate: f64,
    max_latency: f64,
}

impl Tactic for ProvisionToAnalysis {
    fn name(&self) -> &str {
        "provisionToAnalysis"
    }

    fn attempt(&self, ctx: &TacticContext<'_>) -> Result<TacticResult, RepairError> {
        let max_load = ctx
            .model
            .properties
            .get_f64(props::MAX_SERVER_LOAD)
            .unwrap_or(6.0);
        // Find the most loaded group.
        let mut worst: Option<(Key, f64, usize)> = None;
        for (id, group) in ctx
            .model
            .components_of_type(archmodel::style::SERVER_GROUP_T)
        {
            let load = group.properties.get_f64(props::LOAD).unwrap_or(0.0);
            let replicas = ctx.model.children(id).count();
            if load > max_load {
                match &worst {
                    Some((_, worst_load, _)) if *worst_load >= load => {}
                    _ => worst = Some((group.name, load, replicas)),
                }
            }
        }
        let Some((group, load, replicas)) = worst else {
            return Ok(TacticResult::NotApplicable(NotApplicable::Other(
                "no overloaded server group".into(),
            )));
        };
        let plan = provision(
            &ProvisioningInput {
                arrival_rate: self.arrival_rate,
                service_rate: self.service_rate,
                max_latency: self.max_latency,
                ..ProvisioningInput::default()
            },
            16,
        );
        let Some(plan) = plan else {
            return Err(RepairError::Operator("no feasible provisioning".into()));
        };
        if plan.servers <= replicas {
            return Ok(TacticResult::NotApplicable(NotApplicable::Other(format!(
                "{group} already has {replicas} >= {} replicas",
                plan.servers
            ))));
        }
        if ctx.query.spare_server_count(group) == 0 {
            return Ok(TacticResult::NotApplicable(NotApplicable::Other(
                "no spare servers available".into(),
            )));
        }
        // The script is written against the borrowed model: each operator
        // records its op, and nothing is applied until the repair commits.
        // Which spare backs each new replica is the runtime's choice when
        // the repair executes.
        let mut ops = Vec::new();
        let mut added = Vec::new();
        for _ in replicas..plan.servers {
            added.push(add_server(ctx.model, &mut ops, group.as_str())?);
        }
        Ok(TacticResult::Applied {
            ops,
            description: format!(
                "provisioned {group} (load {load:.0}) from {replicas} towards {} replicas: added {added:?}",
                plan.servers
            ),
        })
    }
}

fn main() {
    // A model of the paper's deployment whose load gauge reports overload.
    let mut model = ClientServerStyle::example_system("storage", 2, 3, 6).expect("model builds");
    let grp1 = model.component_by_name("ServerGrp1").unwrap();
    model
        .component_mut(grp1)
        .unwrap()
        .properties
        .set(props::LOAD, 14i64);

    // The constraint that detects the problem.
    let constraints = ConstraintSet::new().with(
        Invariant::parse(
            "serverLoad",
            ConstraintScope::EachComponent("ServerGroupT".into()),
            "self.load <= maxServerLoad",
        )
        .unwrap(),
    );
    let report = constraints.check(&model);
    println!("violations detected: {}", report.violations.len());
    let violation: &Violation = &report.violations[0];
    println!("  {} on {}", violation.invariant, violation.subject_name);

    // The custom strategy, with two spare servers available at the runtime
    // layer.
    let strategy =
        RepairStrategy::new("scaleToAnalysis").with_tactic(Box::new(ProvisionToAnalysis {
            arrival_rate: 12.0,
            service_rate: 2.5,
            max_latency: 2.0,
        }));
    let query = StaticQuery::new().with_spares("ServerGrp1", 2);
    match strategy.run(&model, violation, &query) {
        StrategyOutcome::Repaired {
            ops, description, ..
        } => {
            println!("repair: {description}");
            println!("model operations:");
            for op in &ops {
                println!("  {op:?}");
            }
            // Commit to the model and show the result.
            for op in &ops {
                archmodel::apply_op(&mut model, op).unwrap();
            }
            let grp1 = model.component_by_name("ServerGrp1").unwrap();
            println!(
                "ServerGrp1 now has {} replicas (style valid: {})",
                model.children(grp1).count(),
                ClientServerStyle::validate(&model).is_empty()
            );
        }
        other => println!("no repair produced: {other:?}"),
    }
}
