//! Statistics for simulation metrics: streaming summaries, exact
//! percentiles, histograms, and empirical CDFs.
//!
//! Serving experiments report tail latencies (P90 TTFT/TPOT), attainment
//! fractions, and distribution shapes (Figure 7, Figure 10b). Traces are
//! bounded (tens of thousands of requests), so [`Summary`] keeps the raw
//! samples and computes *exact* quantiles rather than approximations.

/// A collection of `f64` samples with streaming moments and exact quantiles.
///
/// # Examples
///
/// ```
/// use distserve_simcore::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 3.0);
/// assert_eq!(s.percentile(0.5), 3.0);
/// assert_eq!(s.max(), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    // Streaming moments (Welford) so mean/variance stay O(1) even though we
    // also retain samples for exact quantiles.
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            samples: Vec::new(),
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sorted: true,
        }
    }

    /// Records one sample.
    ///
    /// Non-finite samples indicate a bug upstream; they are rejected with a
    /// debug assertion and ignored in release builds.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "non-finite sample {value}");
        if !value.is_finite() {
            return;
        }
        let n = self.samples.len() as f64 + 1.0;
        let delta = value - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.sorted {
            if let Some(&last) = self.samples.last() {
                self.sorted = value >= last;
            }
        }
        self.samples.push(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (Bessel-corrected), or 0 with fewer than two samples.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            self.m2 / (self.samples.len() as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.samples.len() as f64
    }

    /// Exact `p`-quantile (`0.0 ..= 1.0`) using linear interpolation between
    /// closest ranks.
    ///
    /// Returns `NaN` when the summary is empty: an empty summary has *no*
    /// quantiles, and the old behaviour of returning 0 silently read as
    /// "zero latency" — the best possible value — when a scenario produced
    /// no samples at all. `NaN` propagates through arithmetic and fails
    /// any SLO comparison, so an empty summary can never masquerade as a
    /// perfect one. Check [`Summary::is_empty`] first where emptiness is
    /// expected.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted;
        let data: &[f64] = if self.sorted {
            &self.samples
        } else {
            sorted = self.samples.clone();
            sorted.sort_by(f64::total_cmp);
            &sorted
        };
        let rank = p * (data.len() as f64 - 1.0);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            data[lo]
        } else {
            let frac = rank - lo as f64;
            data[lo] * (1.0 - frac) + data[hi] * frac
        }
    }

    /// Fraction of samples `<= threshold`, the empirical CDF at a point.
    #[must_use]
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&v| v <= threshold).count();
        n as f64 / self.samples.len() as f64
    }

    /// Read-only view of the raw samples, in insertion order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Builds the empirical CDF of the samples.
    #[must_use]
    pub fn cdf(&self) -> Cdf {
        Cdf::from_samples(self.samples.clone())
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &Summary) {
        for &v in &other.samples {
            self.record(v);
        }
    }
}

/// An empirical cumulative distribution function.
///
/// # Examples
///
/// ```
/// use distserve_simcore::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.at(2.5), 0.5);
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (sorted internally).
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| v.is_finite());
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// `P(X <= x)` under the empirical distribution.
    #[must_use]
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile by closest-rank.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (p * (self.sorted.len() as f64 - 1.0)).round() as usize;
        self.sorted[rank]
    }

    /// Number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is built over no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Iterates `(value, cumulative_probability)` steps, one per sample.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i as f64 + 1.0) / n))
    }
}

/// A fixed-width-bin histogram over `[lo, hi)`, with under/overflow bins.
///
/// # Examples
///
/// ```
/// use distserve_simcore::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.record(3.5);
/// h.record(3.9);
/// h.record(42.0); // overflow
/// assert_eq!(h.bin_count(3), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range [{lo}, {hi}) is empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < self.lo {
            self.underflow += 1;
            return;
        }
        if value >= self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = (((value - self.lo) / width) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Count in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.bins[idx]
    }

    /// `(bin_start, bin_end)` for bin `idx`.
    #[must_use]
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let start = self.lo + width * idx as f64;
        (start, start + width)
    }

    /// Samples below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded samples, including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Renders a compact ASCII bar chart, one line per bin.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (a, b) = self.bin_range(i);
            let bar_len = (c as usize * width) / max as usize;
            out.push_str(&format!(
                "[{a:9.1}, {b:9.1}) {:7} {}\n",
                c,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138_089_935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn empty_summary_percentile_is_nan() {
        let s = Summary::new();
        // Every quantile of an empty summary is NaN, never a fake zero
        // that would read as "zero latency" in an SLO check.
        assert!(s.percentile(0.0).is_nan());
        assert!(s.percentile(0.5).is_nan());
        assert!(s.percentile(1.0).is_nan());
        // NaN fails any SLO comparison in the safe direction.
        assert!(s
            .percentile(0.9)
            .partial_cmp(&0.2)
            .is_none_or(|o| o.is_gt()));
    }

    #[test]
    fn single_sample_percentiles_are_that_sample() {
        let mut s = Summary::new();
        s.record(7.25);
        assert_eq!(s.percentile(0.0), 7.25);
        assert_eq!(s.percentile(0.5), 7.25);
        assert_eq!(s.percentile(0.9), 7.25);
        assert_eq!(s.percentile(1.0), 7.25);
    }

    #[test]
    fn percentile_interpolates() {
        let mut s = Summary::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.record(v);
        }
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(1.0), 40.0);
        assert_eq!(s.percentile(0.5), 25.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let mut s = Summary::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(1.0), 5.0);
    }

    #[test]
    fn fraction_at_most() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.fraction_at_most(2.5), 0.5);
        assert_eq!(s.fraction_at_most(0.0), 0.0);
        assert_eq!(s.fraction_at_most(4.0), 1.0);
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        a.record(1.0);
        let mut b = Summary::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(2.0), 0.5);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.len(), 4);
        let steps: Vec<_> = cdf.steps().collect();
        assert_eq!(steps[0], (1.0, 0.25));
        assert_eq!(steps[3], (4.0, 1.0));
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(-5.0);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(99.999);
        h.record(100.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.total(), 6);
        let (a, b) = h.bin_range(3);
        assert_eq!((a, b), (30.0, 40.0));
    }

    #[test]
    fn histogram_render_contains_bars() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        for _ in 0..4 {
            h.record(1.0);
        }
        h.record(7.0);
        let art = h.render(8);
        assert!(art.contains("########"));
        assert!(art.lines().count() == 2);
    }
}
