//! M/M/c queueing formulas (Erlang-C).
//!
//! A server group with `c` replicated servers pulling from one FIFO request
//! queue is modelled as an M/M/c queue: Poisson arrivals at rate λ,
//! exponential service times with rate μ per server. The analysis yields the
//! expected waiting time and queue length used to size the group.

/// An M/M/c queueing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcQueue {
    /// Arrival rate λ (requests per second).
    pub arrival_rate: f64,
    /// Per-server service rate μ (requests per second).
    pub service_rate: f64,
    /// Number of servers c.
    pub servers: usize,
}

impl MmcQueue {
    /// Creates a model. Panics if any rate is non-positive or `servers == 0`.
    pub fn new(arrival_rate: f64, service_rate: f64, servers: usize) -> Self {
        assert!(arrival_rate > 0.0, "arrival rate must be positive");
        assert!(service_rate > 0.0, "service rate must be positive");
        assert!(servers > 0, "at least one server is required");
        MmcQueue {
            arrival_rate,
            service_rate,
            servers,
        }
    }

    /// Offered load a = λ/μ (Erlangs).
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Server utilisation ρ = λ/(cμ).
    pub fn utilization(&self) -> f64 {
        self.offered_load() / self.servers as f64
    }

    /// True when the queue is stable (ρ < 1).
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Erlang-C: probability that an arriving request must wait.
    ///
    /// Returns `None` when the queue is unstable.
    pub fn probability_of_waiting(&self) -> Option<f64> {
        if !self.is_stable() {
            return None;
        }
        let a = self.offered_load();
        let c = self.servers;
        // Sum_{k=0}^{c-1} a^k / k!  computed iteratively for stability.
        let mut term = 1.0; // a^0 / 0!
        let mut sum = 1.0;
        for k in 1..c {
            term *= a / k as f64;
            sum += term;
        }
        // a^c / c!
        let ac_over_cfact = term * a / c as f64;
        let rho = self.utilization();
        let numerator = ac_over_cfact / (1.0 - rho);
        Some(numerator / (sum + numerator))
    }

    /// Expected waiting time in the queue (seconds), excluding service.
    pub fn expected_wait(&self) -> Option<f64> {
        let pw = self.probability_of_waiting()?;
        let c = self.servers as f64;
        Some(pw / (c * self.service_rate - self.arrival_rate))
    }

    /// Expected total response time (waiting + service), in seconds.
    pub fn expected_response_time(&self) -> Option<f64> {
        Some(self.expected_wait()? + 1.0 / self.service_rate)
    }

    /// Expected number of requests waiting in the queue (Lq).
    pub fn expected_queue_length(&self) -> Option<f64> {
        Some(self.expected_wait()? * self.arrival_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_matches_closed_form() {
        // For c = 1 the Erlang-C model reduces to M/M/1: W = ρ/(μ-λ)/1,
        // Wq = ρ/(μ - λ), T = 1/(μ - λ).
        let q = MmcQueue::new(2.0, 5.0, 1);
        let rho: f64 = 0.4;
        assert!((q.utilization() - rho).abs() < 1e-12);
        let wq = rho / (5.0 - 2.0);
        assert!((q.expected_wait().unwrap() - wq).abs() < 1e-9);
        let t = 1.0 / (5.0 - 2.0);
        assert!((q.expected_response_time().unwrap() - t).abs() < 1e-9);
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic example: λ=2/min, μ=1/min per server, c=3 ⇒ a=2, ρ=2/3,
        // P(wait) ≈ 0.4444.
        let q = MmcQueue::new(2.0, 1.0, 3);
        let pw = q.probability_of_waiting().unwrap();
        assert!((pw - 4.0 / 9.0).abs() < 1e-9, "pw={pw}");
    }

    #[test]
    fn unstable_queue_reports_none() {
        let q = MmcQueue::new(10.0, 1.0, 3);
        assert!(!q.is_stable());
        assert!(q.probability_of_waiting().is_none());
        assert!(q.expected_wait().is_none());
        assert!(q.expected_response_time().is_none());
    }

    #[test]
    fn adding_servers_reduces_waiting() {
        let w2 = MmcQueue::new(5.0, 3.0, 2).expected_wait().unwrap();
        let w3 = MmcQueue::new(5.0, 3.0, 3).expected_wait().unwrap();
        let w4 = MmcQueue::new(5.0, 3.0, 4).expected_wait().unwrap();
        assert!(w2 > w3 && w3 > w4);
    }

    #[test]
    fn queue_length_consistent_with_littles_law() {
        let q = MmcQueue::new(6.0, 2.5, 3);
        let lq = q.expected_queue_length().unwrap();
        let wq = q.expected_wait().unwrap();
        assert!((lq - 6.0 * wq).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_servers_rejected() {
        MmcQueue::new(1.0, 1.0, 0);
    }

    #[test]
    #[should_panic]
    fn non_positive_rate_rejected() {
        MmcQueue::new(0.0, 1.0, 1);
    }
}
