//! Simulation fidelity knobs.
//!
//! The paper validates its planner simulator against the real testbed and
//! finds under 2% SLO-attainment error (Table 2). We reproduce that
//! comparison as two fidelity levels of one engine: the *ideal*
//! configuration is the planner's simulator (pure cost-model times); the
//! *detailed* configuration adds the imperfections a real deployment has —
//! per-step scheduler overhead, execution-time jitter, and KV-transfer
//! launch latency.

use distserve_simcore::SimRng;

/// Perturbations applied on top of the analytical cost model.
///
/// # Examples
///
/// ```
/// use distserve_engine::FidelityConfig;
///
/// let ideal = FidelityConfig::ideal();
/// assert_eq!(ideal.scheduler_overhead, 0.0);
/// let detailed = FidelityConfig::detailed();
/// assert!(detailed.jitter_frac > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityConfig {
    /// Extra fixed seconds added to every executed batch (scheduler,
    /// tokenization, Python runtime in the real system).
    pub scheduler_overhead: f64,
    /// Uniform multiplicative jitter: each batch time is scaled by a
    /// factor drawn from `[1, 1 + jitter_frac)`.
    pub jitter_frac: f64,
    /// Extra fixed seconds on every KV transfer (RPC launch, pinning).
    pub transfer_overhead: f64,
    /// Deterministic multiplicative scale on every batch time. A
    /// simulator *calibrated against* a real system (as the paper's was,
    /// by profiling) carries the system's mean slowdown here and leaves
    /// only variance unmodeled.
    pub time_scale: f64,
}

impl FidelityConfig {
    /// The planner's idealized simulator: the cost model verbatim.
    #[must_use]
    pub fn ideal() -> Self {
        FidelityConfig {
            scheduler_overhead: 0.0,
            jitter_frac: 0.0,
            transfer_overhead: 0.0,
            time_scale: 1.0,
        }
    }

    /// The "real system" proxy: residual imperfections a calibrated cost
    /// model still misses — scheduling hiccups, kernel-time variance, and
    /// transfer launch latency.
    #[must_use]
    pub fn detailed() -> Self {
        FidelityConfig {
            scheduler_overhead: 0.5e-3,
            jitter_frac: 0.05,
            transfer_overhead: 1.0e-3,
            time_scale: 1.0,
        }
    }

    /// A planner simulator *calibrated* to the detailed system: carries
    /// the mean of [`FidelityConfig::detailed`]'s perturbations
    /// deterministically (mean jitter = `1 + 0.05/2`), leaving only the
    /// variance unmodeled — the situation the paper's profiled simulator
    /// is in for Table 2.
    #[must_use]
    pub fn calibrated() -> Self {
        FidelityConfig {
            scheduler_overhead: 0.5e-3,
            jitter_frac: 0.0,
            transfer_overhead: 1.0e-3,
            time_scale: 1.025,
        }
    }

    /// Applies overhead and jitter to a batch execution time.
    #[must_use]
    pub fn perturb_step(&self, time: f64, rng: &mut SimRng) -> f64 {
        let jitter = if self.jitter_frac > 0.0 {
            1.0 + self.jitter_frac * rng.uniform()
        } else {
            1.0
        };
        time * self.time_scale * jitter + self.scheduler_overhead
    }

    /// Applies launch overhead to a KV transfer time.
    #[must_use]
    pub fn perturb_transfer(&self, time: f64) -> f64 {
        time + self.transfer_overhead
    }
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_identity() {
        let f = FidelityConfig::ideal();
        let mut rng = SimRng::seed(1);
        assert_eq!(f.perturb_step(0.05, &mut rng), 0.05);
        assert_eq!(f.perturb_transfer(0.01), 0.01);
    }

    #[test]
    fn detailed_inflates_times() {
        let f = FidelityConfig::detailed();
        let mut rng = SimRng::seed(2);
        for _ in 0..100 {
            let t = f.perturb_step(0.05, &mut rng);
            assert!(t > 0.05);
            assert!(t < 0.05 * 1.09 + 0.002);
        }
        assert!(f.perturb_transfer(0.01) > 0.01);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let f = FidelityConfig::detailed();
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..50 {
            assert_eq!(f.perturb_step(0.1, &mut a), f.perturb_step(0.1, &mut b));
        }
    }
}
