//! Max-min fair bandwidth allocation: the **test reference**.
//!
//! Concurrent transfers share link capacity by the classic
//! progressive-filling algorithm: repeatedly find the most constrained link,
//! freeze every flow crossing it at that link's equal share, remove the
//! consumed capacity, and continue until all flows are frozen. This reproduces
//! the first-order behaviour of TCP flows competing on the testbed links.
//!
//! Nothing in the production build calls this module. It is the oracle that
//! the equivalence tests and benches hold [`Allocator`](crate::Allocator) to,
//! bit for bit, and the only place weighted filling survives. It keeps
//! std's SipHash maps, the one exception to the workspace's Fx hasher: an
//! oracle stays as written when it was trusted, and its callers build its
//! capacity map with std's type.
#![allow(clippy::disallowed_types)]

use crate::topology::LinkId;
use std::collections::HashMap;

/// Identifies an active flow for rate-allocation purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(pub u64);

/// A flow competing for bandwidth: the links it traverses and its weight.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// The flow's identity.
    pub key: FlowKey,
    /// Links traversed (empty for host-local transfers).
    pub links: Vec<LinkId>,
    /// Relative weight (1.0 for ordinary flows).
    pub weight: f64,
}

pub use crate::alloc::LOCAL_RATE_BPS;

/// Computes max-min fair rates (bits/second) for `flows` given per-link
/// effective capacities.
///
/// Flows with an empty path receive [`LOCAL_RATE_BPS`]. Links not present in
/// `capacities` are treated as having zero capacity (a tiny floor is applied
/// so rates stay positive and transfers always make progress).
pub fn max_min_fair_rates(
    capacities: &HashMap<LinkId, f64>,
    flows: &[FlowDemand],
) -> HashMap<FlowKey, f64> {
    let mut rates: HashMap<FlowKey, f64> = HashMap::new();
    // Remaining capacity per link and unfrozen weight per link.
    let mut remaining: HashMap<LinkId, f64> = HashMap::new();
    let mut link_flows: HashMap<LinkId, Vec<usize>> = HashMap::new();
    let mut frozen = vec![false; flows.len()];

    for (idx, flow) in flows.iter().enumerate() {
        if flow.links.is_empty() {
            rates.insert(flow.key, LOCAL_RATE_BPS * flow.weight.max(1e-9));
            frozen[idx] = true;
            continue;
        }
        for link in &flow.links {
            let cap = capacities.get(link).copied().unwrap_or(0.0).max(1.0);
            remaining.entry(*link).or_insert(cap);
            link_flows.entry(*link).or_default().push(idx);
        }
    }

    loop {
        // Fair share per unit weight on each link that still carries unfrozen
        // flows.
        let mut bottleneck: Option<(LinkId, f64)> = None;
        for (&link, idxs) in &link_flows {
            let unfrozen_weight: f64 = idxs
                .iter()
                .filter(|&&i| !frozen[i])
                .map(|&i| flows[i].weight.max(1e-9))
                .sum();
            if unfrozen_weight <= 0.0 {
                continue;
            }
            let share = remaining.get(&link).copied().unwrap_or(0.0).max(0.0) / unfrozen_weight;
            match bottleneck {
                None => bottleneck = Some((link, share)),
                // Tie-break equal shares on the link id so the freezing order
                // (and thus float accumulation) is independent of HashMap
                // iteration order — identical inputs must yield identical
                // rates for run-to-run determinism.
                Some((best_link, best)) if share < best || (share == best && link < best_link) => {
                    bottleneck = Some((link, share))
                }
                _ => {}
            }
        }
        let Some((bottleneck_link, share)) = bottleneck else {
            break;
        };
        // Freeze every unfrozen flow that crosses the bottleneck link.
        let to_freeze: Vec<usize> = link_flows
            .get(&bottleneck_link)
            .map(|idxs| idxs.iter().copied().filter(|&i| !frozen[i]).collect())
            .unwrap_or_default();
        if to_freeze.is_empty() {
            // Defensive: should not happen because unfrozen_weight > 0.
            break;
        }
        for i in to_freeze {
            let rate = (share * flows[i].weight.max(1e-9)).max(1.0);
            rates.insert(flows[i].key, rate);
            frozen[i] = true;
            // Subtract this flow's rate from every link it crosses.
            for link in &flows[i].links {
                if let Some(rem) = remaining.get_mut(link) {
                    *rem = (*rem - rate).max(0.0);
                }
            }
        }
    }

    // Any flow never frozen (e.g. all its links had no capacity entry at all)
    // gets the minimal positive rate so progress is still made.
    for flow in flows {
        rates.entry(flow.key).or_insert(1.0);
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(entries: &[(usize, f64)]) -> HashMap<LinkId, f64> {
        entries.iter().map(|&(i, c)| (LinkId(i), c)).collect()
    }

    fn flow(key: u64, links: &[usize]) -> FlowDemand {
        FlowDemand {
            key: FlowKey(key),
            links: links.iter().map(|&i| LinkId(i)).collect(),
            weight: 1.0,
        }
    }

    #[test]
    fn equal_split_on_single_link() {
        let capacities = caps(&[(0, 10e6)]);
        let flows = vec![flow(1, &[0]), flow(2, &[0])];
        let rates = max_min_fair_rates(&capacities, &flows);
        assert!((rates[&FlowKey(1)] - 5e6).abs() < 1.0);
        assert!((rates[&FlowKey(2)] - 5e6).abs() < 1.0);
    }

    #[test]
    fn classic_max_min_example() {
        // Link 0 (cap 10): flows A, B. Link 1 (cap 4): flows B, C.
        // Max-min: B and C constrained to 2 each on link 1, A gets the rest (8).
        let capacities = caps(&[(0, 10.0), (1, 4.0)]);
        let flows = vec![flow(1, &[0]), flow(2, &[0, 1]), flow(3, &[1])];
        let rates = max_min_fair_rates(&capacities, &flows);
        assert!((rates[&FlowKey(2)] - 2.0).abs() < 1e-6);
        assert!((rates[&FlowKey(3)] - 2.0).abs() < 1e-6);
        assert!((rates[&FlowKey(1)] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn weights_bias_allocation() {
        let capacities = caps(&[(0, 9.0)]);
        let flows = vec![
            FlowDemand {
                key: FlowKey(1),
                links: vec![LinkId(0)],
                weight: 2.0,
            },
            FlowDemand {
                key: FlowKey(2),
                links: vec![LinkId(0)],
                weight: 1.0,
            },
        ];
        let rates = max_min_fair_rates(&capacities, &flows);
        assert!((rates[&FlowKey(1)] - 6.0).abs() < 1e-6);
        assert!((rates[&FlowKey(2)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn local_flows_get_local_rate() {
        let capacities = caps(&[]);
        let flows = vec![flow(7, &[])];
        let rates = max_min_fair_rates(&capacities, &flows);
        assert!((rates[&FlowKey(7)] - LOCAL_RATE_BPS).abs() < 1.0);
    }

    #[test]
    fn no_flows_yields_empty_map() {
        let rates = max_min_fair_rates(&caps(&[(0, 10.0)]), &[]);
        assert!(rates.is_empty());
    }

    #[test]
    fn sum_of_rates_never_exceeds_capacity() {
        // Property-style check across several random-ish configurations.
        for n in 1..8usize {
            let capacities = caps(&[(0, 10e6), (1, 3e6)]);
            let flows: Vec<FlowDemand> = (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        flow(i as u64, &[0])
                    } else {
                        flow(i as u64, &[0, 1])
                    }
                })
                .collect();
            let rates = max_min_fair_rates(&capacities, &flows);
            let on_link0: f64 = flows
                .iter()
                .filter(|f| f.links.contains(&LinkId(0)))
                .map(|f| rates[&f.key])
                .sum();
            let on_link1: f64 = flows
                .iter()
                .filter(|f| f.links.contains(&LinkId(1)))
                .map(|f| rates[&f.key])
                .sum();
            assert!(
                on_link0 <= 10e6 + n as f64,
                "link0 oversubscribed: {on_link0}"
            );
            assert!(
                on_link1 <= 3e6 + n as f64,
                "link1 oversubscribed: {on_link1}"
            );
        }
    }

    #[test]
    fn flow_over_unknown_link_gets_floor_rate() {
        let capacities = caps(&[]);
        let flows = vec![flow(1, &[42])];
        let rates = max_min_fair_rates(&capacities, &flows);
        assert!(rates[&FlowKey(1)] >= 1.0);
    }
}
