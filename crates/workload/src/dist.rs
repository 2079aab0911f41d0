//! Continuous distribution samplers, implemented from scratch.
//!
//! Keeping the samplers in-tree (instead of pulling `rand_distr`) keeps
//! the dependency set to the approved list and makes the sampling
//! algorithms — inverse CDF, Box–Muller, Marsaglia–Tsang — part of the
//! audited codebase.

use distserve_simcore::SimRng;

/// `x > 0.0` spelled via `partial_cmp` so NaN (incomparable) is rejected
/// explicitly instead of falling through a negated comparison.
fn positive(x: f64) -> bool {
    x.partial_cmp(&0.0) == Some(core::cmp::Ordering::Greater)
}

/// A sampleable continuous distribution over the non-negative reals.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Analytical mean, if finite.
    fn mean(&self) -> Option<f64>;
}

/// Exponential distribution with rate `lambda` (inverse-CDF sampling).
///
/// # Examples
///
/// ```
/// use distserve_simcore::SimRng;
/// use distserve_workload::dist::{Exponential, Sample};
///
/// let exp = Exponential::new(2.0).unwrap();
/// let mut rng = SimRng::seed(1);
/// assert!(exp.sample(&mut rng) >= 0.0);
/// assert_eq!(exp.mean(), Some(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Result<Self, String> {
        if !positive(lambda) || !lambda.is_finite() {
            return Err(format!("exponential rate must be positive, got {lambda}"));
        }
        Ok(Exponential { lambda })
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.uniform_open().ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Standard normal sample via the Box–Muller transform.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.uniform_open();
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution: `exp(mu + sigma * Z)`.
///
/// # Examples
///
/// ```
/// use distserve_workload::dist::LogNormal;
///
/// // Parameterize by the desired arithmetic mean and sigma.
/// let ln = LogNormal::from_mean(300.0, 0.8).unwrap();
/// assert!((ln.arithmetic_mean() - 300.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates from log-space parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma` is negative or either parameter is
    /// non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, String> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(format!(
                "invalid log-normal parameters mu={mu} sigma={sigma}"
            ));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal with the given *arithmetic* mean and log-space
    /// standard deviation, solving `mean = exp(mu + sigma²/2)` for `mu`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is not strictly positive.
    pub fn from_mean(mean: f64, sigma: f64) -> Result<Self, String> {
        if !positive(mean) {
            return Err(format!("log-normal mean must be positive, got {mean}"));
        }
        LogNormal::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// The arithmetic mean `exp(mu + sigma²/2)`.
    #[must_use]
    pub fn arithmetic_mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some(self.arithmetic_mean())
    }
}

/// Gamma distribution with shape `k` and scale `theta`
/// (Marsaglia–Tsang squeeze method, with the boost trick for `k < 1`).
///
/// # Examples
///
/// ```
/// use distserve_workload::dist::{Gamma, Sample};
///
/// let g = Gamma::new(2.0, 3.0).unwrap();
/// assert_eq!(g.mean(), Some(6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are strictly positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, String> {
        if !positive(shape) || !positive(scale) {
            return Err(format!(
                "gamma parameters must be positive: k={shape} theta={scale}"
            ));
        }
        Ok(Gamma { shape, scale })
    }

    fn sample_shape_ge_one(k: f64, rng: &mut SimRng) -> f64 {
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.uniform_open();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Sample for Gamma {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.shape >= 1.0 {
            Self::sample_shape_ge_one(self.shape, rng) * self.scale
        } else {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k) for k < 1.
            let boosted = Self::sample_shape_ge_one(self.shape + 1.0, rng);
            boosted * rng.uniform_open().powf(1.0 / self.shape) * self.scale
        }
    }

    fn mean(&self) -> Option<f64> {
        Some(self.shape * self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean_var(d: &impl Sample, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::seed(seed);
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var)
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(4.0).unwrap();
        let (mean, var) = empirical_mean_var(&d, 200_000, 11);
        assert!((mean - 0.25).abs() < 0.005, "mean {mean}");
        assert!((var - 0.0625).abs() < 0.005, "var {var}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / f64::from(n);
        let var = samples.iter().map(|x| x * x).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        let d = LogNormal::from_mean(300.0, 0.8).unwrap();
        let (mean, _) = empirical_mean_var(&d, 400_000, 17);
        assert!((mean - 300.0).abs() / 300.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_always_positive() {
        let d = LogNormal::new(0.0, 2.0).unwrap();
        let mut rng = SimRng::seed(9);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let d = Gamma::new(3.0, 2.0).unwrap();
        let (mean, var) = empirical_mean_var(&d, 200_000, 23);
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
        assert!((var - 12.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        // Shape < 1 exercises the boost path; CV > 1 models burstiness.
        let d = Gamma::new(0.5, 4.0).unwrap();
        let (mean, var) = empirical_mean_var(&d, 400_000, 29);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 8.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Gamma::new(2.0, 1.0).unwrap();
        let mut a = SimRng::seed(5);
        let mut b = SimRng::seed(5);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
