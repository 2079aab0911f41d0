//! Service-level objective specifications.

/// A latency SLO pair with an attainment target.
///
/// # Examples
///
/// ```
/// use distserve_placement::SloSpec;
///
/// // OPT-13B chatbot (Table 1): TTFT 0.2 s, TPOT 0.1 s, 90% attainment.
/// let slo = SloSpec::new(0.2, 0.1);
/// let tight = slo.scaled(0.5);
/// assert_eq!(tight.ttft, 0.1);
/// assert_eq!(tight.tpot, 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Time-to-first-token bound, seconds.
    pub ttft: f64,
    /// Time-per-output-token bound, seconds.
    pub tpot: f64,
    /// Required fraction of requests meeting both bounds (default 0.9).
    pub target: f64,
}

impl SloSpec {
    /// Creates an SLO with the paper's default 90% attainment target.
    ///
    /// # Panics
    ///
    /// Panics unless both bounds are strictly positive.
    #[must_use]
    pub fn new(ttft: f64, tpot: f64) -> Self {
        assert!(ttft > 0.0 && tpot > 0.0, "SLO bounds must be positive");
        SloSpec {
            ttft,
            tpot,
            target: 0.9,
        }
    }

    /// Scales both latency bounds by `scale` (Figure 8's *SLO Scale*
    /// sweep: smaller is more stringent).
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is strictly positive.
    #[must_use]
    pub fn scaled(&self, scale: f64) -> Self {
        assert!(scale > 0.0, "SLO scale must be positive");
        SloSpec {
            ttft: self.ttft * scale,
            tpot: self.tpot * scale,
            target: self.target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_scaling() {
        let slo = SloSpec::new(0.4, 0.1);
        assert_eq!(slo.target, 0.9);
        let loose = slo.scaled(2.0);
        assert_eq!(loose.ttft, 0.8);
        assert_eq!(loose.tpot, 0.2);
        assert_eq!(loose.target, 0.9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_rejected() {
        let _ = SloSpec::new(0.0, 0.1);
    }
}
