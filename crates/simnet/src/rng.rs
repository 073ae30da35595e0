//! Deterministic random number generation for experiments.
//!
//! The paper controls experiment variables by *seeding the clients so that the
//! size of requests and responses occurred in the same sequence* in the
//! control and adaptive runs. [`SimRng`] provides that: a single seed drives
//! every stochastic decision, and independent sub-streams can be derived per
//! component so that the event interleaving of one run cannot perturb the
//! random draws of another component.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random number generator with a few distribution helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-stream identified by `stream`.
    ///
    /// Two runs that derive the same `(seed, stream)` pair observe identical
    /// sequences regardless of what other components draw.
    pub fn derive(&self, stream: u64) -> SimRng {
        // SplitMix64-style mixing of seed and stream id.
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "uniform_range requires hi >= lo");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Exponentially distributed draw with the given rate (events/second).
    ///
    /// Used for Poisson request inter-arrival times.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / rate
    }

    /// Normally distributed draw (Box-Muller) with given mean and std dev,
    /// truncated below at `min`.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, min: f64) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + std_dev * z).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn derived_streams_are_independent_of_consumption() {
        let root = SimRng::seed_from_u64(7);
        let mut a1 = root.derive(1);
        // Consuming from another stream must not change stream 1.
        let mut other = root.derive(2);
        for _ in 0..10 {
            other.uniform();
        }
        let mut a2 = SimRng::seed_from_u64(7).derive(1);
        for _ in 0..50 {
            assert_eq!(a1.uniform().to_bits(), a2.uniform().to_bits());
        }
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SimRng::seed_from_u64(3);
        let rate = 6.0; // the paper's arrival rate: ~six requests per second
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.uniform_range(3.0, 5.0);
            assert!((3.0..5.0).contains(&v));
        }
    }

    #[test]
    fn normal_clamped_never_below_min() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(rng.normal_clamped(1.0, 5.0, 0.0) >= 0.0);
        }
    }

    #[test]
    fn index_stays_in_range() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(rng.index(3) < 3);
        }
    }
}
