//! Arrival processes.
//!
//! The paper generates request arrival times from a Poisson process
//! (§6.1). Real workloads are burstier; §4.3 ("Combat burstiness")
//! motivates a pull-based KV transfer precisely because arrivals cluster.
//! [`ArrivalProcess`] therefore also offers gamma-distributed
//! inter-arrival gaps with a configurable coefficient of variation
//! (CV > 1 ⇒ burstier than Poisson).

use distserve_simcore::SimRng;

use crate::dist::{Exponential, Gamma, Sample};

/// Generates inter-arrival gaps.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps at `rate` requests/second.
    Poisson(Exponential),
    /// Gamma-distributed gaps: `rate` requests/second with coefficient of
    /// variation `cv` (`cv = 1` reduces to Poisson, `cv > 1` is bursty).
    Bursty(Gamma),
}

impl ArrivalProcess {
    /// Poisson process at `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    #[must_use]
    pub fn poisson(rate: f64) -> Self {
        ArrivalProcess::Poisson(Exponential::new(rate).expect("arrival rate must be positive"))
    }

    /// Bursty process: gamma inter-arrivals with mean `1/rate` and
    /// coefficient of variation `cv`.
    ///
    /// For a gamma with shape `k`, CV is `1/sqrt(k)`, so `k = 1/cv²` and
    /// the scale follows from the mean.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `cv` is not strictly positive.
    #[must_use]
    pub fn bursty(rate: f64, cv: f64) -> Self {
        assert!(rate > 0.0 && cv > 0.0, "rate and cv must be positive");
        let shape = 1.0 / (cv * cv);
        let scale = 1.0 / (rate * shape);
        ArrivalProcess::Bursty(Gamma::new(shape, scale).expect("derived parameters are positive"))
    }

    /// Draws the next inter-arrival gap in seconds.
    #[must_use]
    pub fn next_gap(&self, rng: &mut SimRng) -> f64 {
        match self {
            ArrivalProcess::Poisson(exp) => exp.sample(rng),
            ArrivalProcess::Bursty(gamma) => gamma.sample(rng),
        }
    }

    /// The long-run average rate, requests per second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson(exp) => 1.0 / exp.mean().expect("exponential mean exists"),
            ArrivalProcess::Bursty(gamma) => 1.0 / gamma.mean().expect("gamma mean exists"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap_stats(p: &ArrivalProcess, n: usize) -> (f64, f64) {
        let mut rng = SimRng::seed(99);
        let gaps: Vec<f64> = (0..n).map(|_| p.next_gap(&mut rng)).collect();
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var.sqrt() / mean)
    }

    #[test]
    fn poisson_cv_is_one() {
        let p = ArrivalProcess::poisson(4.0);
        let (mean, cv) = gap_stats(&p, 200_000);
        assert!((mean - 0.25).abs() < 0.005, "mean {mean}");
        assert!((cv - 1.0).abs() < 0.02, "cv {cv}");
        assert!((p.rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bursty_cv_matches_request() {
        let p = ArrivalProcess::bursty(4.0, 2.0);
        let (mean, cv) = gap_stats(&p, 400_000);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!((cv - 2.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn bursty_cv_one_like_poisson() {
        let p = ArrivalProcess::bursty(2.0, 1.0);
        let (mean, cv) = gap_stats(&p, 200_000);
        assert!((mean - 0.5).abs() < 0.01);
        assert!((cv - 1.0).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::poisson(0.0);
    }
}
