//! Percentiles, the paper's goodput, and the result line.

use std::fmt::Write as _;

/// Attainment a rung needs to pass: DistServe's 90% of requests meeting
/// both latency limits.
pub const TARGET_ATTAINMENT: f64 = 0.9;

/// Linear-interpolated quantile `q` in `[0, 1]` (NaN when empty).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (NaN when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean (NaN when empty).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Paper goodput from a rate ladder: the highest rate at which at least
/// [`TARGET_ATTAINMENT`] of requests meet both limits, interpolated
/// linearly between the last passing rung and the first failing rung.
/// `rungs` are `(rate, attainment, requests)` in ascending rate order.
/// Attainment is first fitted non-increasing in rate (pool adjacent
/// violators, weighted by requests), the shape the paper's goodput
/// search assumes, so one unlucky short rung below the knee cannot
/// decide the crossing alone. Below a failing lowest rung the ladder is
/// anchored at `(0, 1.0)`; when no rung fails, the top rate is a lower
/// bound and is returned as is.
#[must_use]
pub fn goodput(rungs: &[(f64, f64, usize)]) -> f64 {
    // Blocks of pooled rungs: (attainment, weight, rungs pooled).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new();
    for &(_, att, n) in rungs {
        blocks.push((att, n as f64, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 < blocks[blocks.len() - 1].0 {
            let (a2, w2, k2) = blocks.pop().expect("two blocks");
            let (a1, w1, k1) = blocks.pop().expect("two blocks");
            blocks.push(((a1 * w1 + a2 * w2) / (w1 + w2), w1 + w2, k1 + k2));
        }
    }
    let fitted = blocks
        .iter()
        .flat_map(|&(a, _, k)| std::iter::repeat_n(a, k));
    let mut pass = (0.0, 1.0);
    for (&(rate, _, _), att) in rungs.iter().zip(fitted) {
        if att < TARGET_ATTAINMENT {
            let (r0, a0) = pass;
            return r0 + (rate - r0) * (a0 - TARGET_ATTAINMENT) / (a0 - att);
        }
        pass = (rate, att);
    }
    pass.0
}

/// Ordered `name -> (value, unit)` metrics for the result line.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == name) {
            e.1 = value;
            e.2 = unit;
        } else {
            self.entries.push((name, value, unit));
        }
    }

    /// Value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// The `"metrics"` JSON object. Non-finite values print as 0 with the
    /// run marked incorrect by the caller.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn goodput_interpolates_between_pass_and_fail() {
        let g = goodput(&[(2.0, 1.0, 10), (4.0, 0.95, 10), (6.0, 0.5, 10)]);
        assert!((g - (4.0 + 2.0 * 0.05 / 0.45)).abs() < 1e-12);
        // No failing rung: the top rate.
        assert_eq!(goodput(&[(2.0, 1.0, 10), (4.0, 0.99, 10)]), 4.0);
        // Failing lowest rung: anchored at (0, 1).
        assert!((goodput(&[(2.0, 0.5, 10)]) - 2.0 * 0.1 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn goodput_pools_non_monotone_rungs() {
        // 0.85 then 0.95 pool to 0.9 (passing), so the crossing moves to
        // the next rung instead of stopping at the dip.
        let g = goodput(&[
            (2.0, 1.0, 10),
            (4.0, 0.85, 10),
            (6.0, 0.95, 10),
            (8.0, 0.4, 10),
        ]);
        assert!((g - 6.0).abs() < 1e-12, "{g}");
        // A dip below the target that pooling keeps below stays decisive.
        let g = goodput(&[(2.0, 1.0, 10), (4.0, 0.5, 10), (6.0, 0.7, 10)]);
        assert!((g - (2.0 + 2.0 * 0.1 / 0.4)).abs() < 1e-12, "{g}");
    }

    #[test]
    fn metrics_json_round_trips_names() {
        let mut m = Metrics::default();
        m.set("a", 1.5, "s");
        m.set("a", 2.5, "s");
        m.set("b", 3.0, "count");
        assert_eq!(m.get("a"), Some(2.5));
        let j = m.json();
        assert!(
            j.contains("\"a\": {\"value\": 2.5e0, \"unit\": \"s\"}"),
            "{j}"
        );
    }
}
