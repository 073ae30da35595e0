//! Queries against the *running system* used by repair tactics.
//!
//! Besides operators that change the architectural model, the paper's repair
//! framework needs answers from the runtime layer, given by the environment
//! manager over Remos in the paper and, in the reproduction, by the
//! adaptation framework over the simulated network. Tactics ask two
//! questions:
//!
//! * `findGoodSGroup(cl, bw)` — *the server group with the best bandwidth
//!   (above `bw`) to the client*, which `fixBandwidth` and the reroute
//!   tactic move clients to;
//! * whether, and how many, spare servers could be recruited into a group.
//!   `fixServerLoad` only asks whether a spare exists, and the failover
//!   tactic sizes its replacement batch by the count.
//!
//! Neither picks the spare. The paper's `findServer` choice happens when the
//! repair's `ConnectServer` operation executes against the runtime, so the
//! recruit is the spare that is free at that moment, not one named while
//! planning.

use archmodel::Key;

/// Runtime-layer queries available to repair tactics. Elements are named
/// by interned [`Key`], as the model names them.
pub trait RuntimeQuery {
    /// Finds the server group with the best predicted bandwidth to `client`,
    /// provided that bandwidth exceeds `min_bandwidth_bps`. Mirrors the
    /// paper's `findGoodSGroup(cl : ClientT, bw : float)`.
    fn find_good_server_group(&self, client: Key, min_bandwidth_bps: f64) -> Option<Key>;

    /// How many spare servers could be recruited for `group` right now;
    /// a tactic that needs one asks whether this is positive.
    fn spare_server_count(&self, group: Key) -> usize;
}

/// A scripted [`RuntimeQuery`] used by tests and by model-only experiments:
/// answers come from fixed tables instead of a live network.
#[derive(Debug, Clone, Default)]
pub struct StaticQuery {
    /// `(client, group)` → predicted bandwidth in bps.
    pub bandwidth: Vec<((Key, Key), f64)>,
    /// group → how many spare servers could be recruited for it.
    pub spares: Vec<(Key, usize)>,
}

impl StaticQuery {
    /// Creates an empty table (no bandwidth information, no spares).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a predicted bandwidth for a client/group pair.
    pub fn with_bandwidth(mut self, client: &str, group: &str, bps: f64) -> Self {
        self.bandwidth.push(((client.into(), group.into()), bps));
        self
    }

    /// Records how many spare servers a group could recruit.
    pub fn with_spares(mut self, group: &str, count: usize) -> Self {
        self.spares.push((group.into(), count));
        self
    }
}

impl RuntimeQuery for StaticQuery {
    fn find_good_server_group(&self, client: Key, min_bandwidth_bps: f64) -> Option<Key> {
        self.bandwidth
            .iter()
            .filter(|((c, _), bps)| *c == client && *bps > min_bandwidth_bps)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&((_, g), _)| g)
    }

    fn spare_server_count(&self, group: Key) -> usize {
        let spares = self.spares.iter().find(|(g, _)| *g == group);
        spares.map_or(0, |&(_, count)| count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_group_above_threshold() {
        let q = StaticQuery::new()
            .with_bandwidth("User3", "ServerGrp1", 5_000.0)
            .with_bandwidth("User3", "ServerGrp2", 2_000_000.0)
            .with_bandwidth("User3", "ServerGrp3", 500_000.0);
        let user3 = Key::new("User3");
        assert_eq!(
            q.find_good_server_group(user3, 10_000.0),
            Some("ServerGrp2".into())
        );
        // Nothing exceeds an absurd threshold.
        assert_eq!(q.find_good_server_group(user3, 1e9), None);
        // Unknown client.
        assert_eq!(q.find_good_server_group(Key::new("User9"), 10.0), None);
        // A NaN bandwidth never clears the threshold, so it never competes.
        let q = q.with_bandwidth("User3", "ServerGrp4", f64::NAN);
        assert_eq!(
            q.find_good_server_group(user3, 10_000.0),
            Some("ServerGrp2".into())
        );
    }

    #[test]
    fn spare_servers() {
        let q = StaticQuery::new().with_spares("ServerGrp1", 2);
        assert_eq!(q.spare_server_count(Key::new("ServerGrp1")), 2);
        assert_eq!(q.spare_server_count(Key::new("ServerGrp2")), 0);
    }
}
