//! Design-time analysis: reproduce the paper's provisioning decision.
//!
//! The paper derives its initial deployment — three replicated servers for
//! six clients and a 10 Kbps minimum bandwidth — from an architecture-level
//! queueing analysis. This example sweeps the arrival rate and latency bound
//! to show how the provisioning responds, and prints the M/M/c predictions
//! at the paper's stress load.
//!
//! Run with:
//! ```text
//! cargo run --release --example provisioning_analysis
//! ```

use analysis::{provision, MmcQueue, ProvisioningInput};

fn main() {
    let baseline = ProvisioningInput::default();
    println!(
        "paper inputs: λ={} req/s, μ={} req/s per server, bound={} s",
        baseline.arrival_rate, baseline.service_rate, baseline.max_latency
    );
    let plan = provision(&baseline, 16).expect("feasible");
    println!(
        "  → {} replicated servers (predicted response {:.2} s, queue {:.2}), min bandwidth {:.0} bps",
        plan.servers,
        plan.predicted_response_time,
        plan.predicted_queue_length,
        plan.bandwidth.min_bandwidth_bps
    );
    println!();

    println!("replica count vs. arrival rate (latency bound 2 s):");
    for arrival in [2.0, 3.0, 4.0, 6.0, 9.0, 12.0, 18.0, 24.0] {
        let input = ProvisioningInput {
            arrival_rate: arrival,
            ..baseline
        };
        match provision(&input, 32) {
            Some(plan) => println!(
                "  λ={arrival:5.1} req/s → {:2} servers (response {:.2} s)",
                plan.servers, plan.predicted_response_time
            ),
            None => println!("  λ={arrival:5.1} req/s → infeasible within 32 servers"),
        }
    }
    println!();

    println!("M/M/c predictions at the paper's stress load (12 req/s):");
    for servers in 3..=7 {
        let queue = MmcQueue::new(12.0, 2.5, servers);
        match queue.expected_response_time() {
            Some(response) => println!(
                "  c={servers}: utilisation {:.2}, response {:.2} s, queue {:.1}",
                queue.utilization(),
                response,
                queue.expected_queue_length().unwrap()
            ),
            None => println!(
                "  c={servers}: utilisation {:.2} — unstable, queue grows without bound",
                queue.utilization()
            ),
        }
    }
}
