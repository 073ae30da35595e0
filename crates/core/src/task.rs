//! The task layer.
//!
//! The task layer sets overall system objectives (Figure 1, item 6): which
//! applications run, and their performance objectives and resource
//! constraints. For the paper's example it supplies the performance profile —
//! the latency bound, the server-load bound, and the minimum client
//! bandwidth — that the model layer turns into threshold constraints.

use archmodel::style::props;
use archmodel::System;

/// The performance profile the task layer hands to the model layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceProfile {
    /// Maximum acceptable average latency per client (seconds). Paper: 2 s.
    pub max_latency_secs: f64,
    /// Maximum acceptable server-group load (queue length). Paper: 6.
    pub max_server_load: f64,
    /// Minimum acceptable client bandwidth (bits per second). Paper: 10 Kbps.
    pub min_bandwidth_bps: f64,
}

impl Default for PerformanceProfile {
    fn default() -> Self {
        PerformanceProfile {
            max_latency_secs: 2.0,
            max_server_load: 6.0,
            min_bandwidth_bps: 10_000.0,
        }
    }
}

impl PerformanceProfile {
    /// Writes the profile into the architectural model's system properties so
    /// constraints such as `averageLatency <= maxLatency` can reference them.
    pub fn apply_to(&self, model: &mut System) {
        model
            .properties
            .set(props::MAX_LATENCY, self.max_latency_secs);
        model
            .properties
            .set(props::MAX_SERVER_LOAD, self.max_server_load);
        model
            .properties
            .set(props::MIN_BANDWIDTH, self.min_bandwidth_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_written_to_system_properties() {
        let mut model = System::new("storage");
        PerformanceProfile::default().apply_to(&mut model);
        assert_eq!(model.properties.get_f64(props::MAX_LATENCY), Some(2.0));
        assert_eq!(model.properties.get_f64(props::MAX_SERVER_LOAD), Some(6.0));
        assert_eq!(
            model.properties.get_f64(props::MIN_BANDWIDTH),
            Some(10_000.0)
        );
    }
}
