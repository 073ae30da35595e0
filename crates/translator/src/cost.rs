//! The cost model for effecting repairs on the running system.
//!
//! The paper reports that *the time that it takes to effect a repair averages
//! 30 seconds. Most of this time is spent in communicating to create and
//! delete gauges*, and suggests caching or relocating gauges as the fix
//! (§5.3). This module provides a per-operation cost model (with and without
//! gauge caching, and with and without Remos pre-querying) that the
//! adaptation framework charges when executing translated repair scripts, and
//! that the `repair_time` bench uses to reproduce the 30-second figure and
//! its ablation.

use crate::runtime_ops::RuntimeOp;

/// Per-operation execution costs, in seconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairCostModel {
    /// Creating a logical request queue.
    pub create_queue_secs: f64,
    /// Locating a spare server.
    pub find_server_secs: f64,
    /// Re-pointing a client at a different queue.
    pub move_client_secs: f64,
    /// Per-client increment of a batched `moveClientGroup`: the batch pays
    /// one full `move_client_secs` handshake plus this per additional client
    /// (the routing-table entries ride the same update message).
    pub move_client_batch_secs: f64,
    /// Configuring a server to pull from a queue.
    pub connect_server_secs: f64,
    /// Activating a server.
    pub activate_server_secs: f64,
    /// Deactivating a server.
    pub deactivate_server_secs: f64,
    /// A warm Remos query.
    pub remos_warm_secs: f64,
    /// A cold Remos query (first query for a pair, "several minutes").
    pub remos_cold_secs: f64,
    /// Whether Remos has been pre-queried for the relevant pairs.
    pub remos_prequeried: bool,
    /// Deleting a gauge.
    pub gauge_delete_secs: f64,
    /// Creating a gauge from scratch.
    pub gauge_create_secs: f64,
    /// Re-activating a cached/relocated gauge.
    pub gauge_reuse_secs: f64,
    /// Whether gauges are cached/relocated instead of destroyed and
    /// recreated.
    pub cache_gauges: bool,
}

impl RepairCostModel {
    /// The configuration matching the paper's prototype: no gauge caching,
    /// Remos pre-queried (as the authors did for the experiment). With this
    /// model a client-move repair costs ≈ 30 s, dominated by gauge churn.
    pub fn paper_defaults() -> Self {
        RepairCostModel {
            create_queue_secs: 1.0,
            find_server_secs: 2.0,
            move_client_secs: 2.0,
            move_client_batch_secs: 0.02,
            connect_server_secs: 1.5,
            activate_server_secs: 2.0,
            deactivate_server_secs: 1.0,
            remos_warm_secs: 1.0,
            remos_cold_secs: 150.0,
            remos_prequeried: true,
            gauge_delete_secs: 10.0,
            gauge_create_secs: 15.0,
            gauge_reuse_secs: 1.0,
            cache_gauges: false,
        }
    }

    /// The paper's proposed improvement: cache/relocate gauges instead of
    /// destroying and recreating them.
    pub fn with_gauge_caching() -> Self {
        RepairCostModel {
            cache_gauges: true,
            ..Self::paper_defaults()
        }
    }

    /// The execution cost of a single runtime operation.
    pub fn cost_of(&self, op: &RuntimeOp) -> f64 {
        match op {
            RuntimeOp::CreateReqQueue { .. } => self.create_queue_secs,
            RuntimeOp::FindServer { .. } => self.find_server_secs,
            RuntimeOp::MoveClient { .. } => self.move_client_secs,
            RuntimeOp::MoveClientGroup { clients, .. } => {
                self.move_client_secs
                    + self.move_client_batch_secs * clients.len().saturating_sub(1) as f64
            }
            // One broadcast sweep per group, not one handshake per replica.
            RuntimeOp::DrainStuckServers { .. } => 2.0 * self.deactivate_server_secs,
            RuntimeOp::ConnectServer { .. } => self.connect_server_secs,
            RuntimeOp::ActivateServer { .. } => self.activate_server_secs,
            RuntimeOp::DeactivateServer { .. } => self.deactivate_server_secs,
            RuntimeOp::RemosGetFlow { .. } => {
                if self.remos_prequeried {
                    self.remos_warm_secs
                } else {
                    self.remos_cold_secs
                }
            }
            RuntimeOp::DeleteGauge { .. } => {
                if self.cache_gauges {
                    // Cached gauges are parked, not torn down.
                    0.5
                } else {
                    self.gauge_delete_secs
                }
            }
            RuntimeOp::CreateGauge { .. } => {
                if self.cache_gauges {
                    self.gauge_reuse_secs
                } else {
                    self.gauge_create_secs
                }
            }
        }
    }

    /// Total duration of executing a repair script sequentially.
    pub fn total_duration(&self, ops: &[RuntimeOp]) -> f64 {
        ops.iter().map(|op| self.cost_of(op)).sum()
    }

    /// The share of the total duration spent on gauge churn — the quantity
    /// the paper identifies as the dominant cost.
    pub fn gauge_share(&self, ops: &[RuntimeOp]) -> f64 {
        let total = self.total_duration(ops);
        if total <= 0.0 {
            return 0.0;
        }
        let gauge: f64 = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    RuntimeOp::DeleteGauge { .. } | RuntimeOp::CreateGauge { .. }
                )
            })
            .map(|op| self.cost_of(op))
            .sum();
        gauge / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime_ops::GaugeRef;

    /// The runtime script of a typical client-move repair.
    fn move_repair_script() -> Vec<RuntimeOp> {
        vec![
            RuntimeOp::RemosGetFlow {
                client: "User3".into(),
                server: "ServerGrp2".into(),
            },
            RuntimeOp::MoveClient {
                client: "User3".into(),
                to_group: "ServerGrp2".into(),
            },
            RuntimeOp::DeleteGauge {
                gauge: GaugeRef::Bandwidth("User3".into()),
            },
            RuntimeOp::CreateGauge {
                gauge: GaugeRef::Bandwidth("User3".into()),
            },
        ]
    }

    /// The runtime script of an add-server repair.
    fn add_server_script() -> Vec<RuntimeOp> {
        vec![
            RuntimeOp::FindServer {
                group: "ServerGrp1".into(),
                bandwidth_threshold_bps: 10_000.0,
            },
            RuntimeOp::ConnectServer {
                server: "ServerGrp1.Server4".into(),
                group: "ServerGrp1".into(),
            },
            RuntimeOp::ActivateServer {
                server: "ServerGrp1.Server4".into(),
            },
            RuntimeOp::DeleteGauge {
                gauge: GaugeRef::Load("ServerGrp1".into()),
            },
            RuntimeOp::CreateGauge {
                gauge: GaugeRef::Load("ServerGrp1".into()),
            },
        ]
    }

    #[test]
    fn move_repair_costs_about_thirty_seconds() {
        let model = RepairCostModel::paper_defaults();
        let duration = model.total_duration(&move_repair_script());
        assert!(
            (25.0..=35.0).contains(&duration),
            "expected ≈30 s, got {duration}"
        );
    }

    #[test]
    fn gauge_churn_dominates_the_repair_time() {
        let model = RepairCostModel::paper_defaults();
        assert!(model.gauge_share(&move_repair_script()) > 0.5);
        assert!(model.gauge_share(&add_server_script()) > 0.5);
    }

    #[test]
    fn gauge_caching_dramatically_reduces_repair_time() {
        let baseline = RepairCostModel::paper_defaults();
        let cached = RepairCostModel::with_gauge_caching();
        let script = move_repair_script();
        let slow = baseline.total_duration(&script);
        let fast = cached.total_duration(&script);
        assert!(
            fast < slow / 3.0,
            "caching should cut repair time by well over 3x (was {slow}, now {fast})"
        );
    }

    #[test]
    fn missing_prequery_adds_minutes() {
        let warm = RepairCostModel::paper_defaults();
        let cold = RepairCostModel {
            remos_prequeried: false,
            ..warm
        };
        let script = move_repair_script();
        assert!(cold.total_duration(&script) - warm.total_duration(&script) > 100.0);
    }

    #[test]
    fn empty_script_costs_nothing() {
        let model = RepairCostModel::paper_defaults();
        assert_eq!(model.total_duration(&[]), 0.0);
        assert_eq!(model.gauge_share(&[]), 0.0);
    }
}
