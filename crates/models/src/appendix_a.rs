//! The paper's literal Appendix-A latency model with constants `C1..C5`.
//!
//! Appendix A models per-layer latency as linear in batch aggregates:
//!
//! * Prefill: `T = C1·(4th² + 2thm) + C2·(3ht₂/b) + C3`
//! * Decoding: `T = C4·(4h² + 2hm) + C5·(3ht)`
//!
//! where `t` is total new tokens, `t₂` the squared sum of input lengths,
//! and `h, m` are divided by the tensor-parallel degree. The constants are
//! obtained by "profiling and interpolation": here, profile points come
//! from the [`RooflineModel`] (our hardware stand-in) and interpolation is
//! ordinary least squares from [`crate::fit`]. The fitted model is both a
//! fidelity check on the roofline implementation (they must agree in the
//! regimes where Appendix A's piecewise assumptions hold) and a much
//! cheaper evaluator for inner search loops.

use crate::arch::ModelArch;
use crate::batch::{DecodeBatch, PrefillBatch};
use crate::fit::{FitError, LeastSquares};
use crate::latency::{CostModel, RooflineModel};
use crate::parallel::ParallelismConfig;

/// Fitted Appendix-A constants for one `(architecture, tp degree)` pair.
///
/// # Examples
///
/// ```
/// use distserve_models::appendix_a::AppendixAModel;
/// use distserve_models::{OptModel, PrefillBatch, RooflineModel};
///
/// let arch = OptModel::Opt13B.arch();
/// let roofline = RooflineModel::a100();
/// let fitted = AppendixAModel::fit(&arch, 1, &roofline).unwrap();
/// let pred = fitted.prefill_time(&PrefillBatch::single(512));
/// assert!(pred > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AppendixAModel {
    /// Tensor-parallel degree the constants were fitted for.
    pub tp: u32,
    /// Layers in the target architecture (constants are whole-model).
    pub layers: u32,
    /// Prefill GEMM coefficient (seconds per MAC-unit).
    pub c1: f64,
    /// Prefill attention coefficient.
    pub c2: f64,
    /// Prefill constant overhead (seconds).
    pub c3: f64,
    /// Decoding weight-read coefficient.
    pub c4: f64,
    /// Decoding KV-read coefficient.
    pub c5: f64,
    /// FlashAttention block size used for the `t₂/b` feature.
    pub flash_block: u32,
    hidden: f64,
    ffn: f64,
}

impl AppendixAModel {
    /// Fits `C1..C5` for `arch` at tensor-parallel degree `tp` from profile
    /// points generated by `roofline` (the stand-in for real profiling).
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] if the profile grid is degenerate (cannot
    /// happen with the built-in grid, but the API stays honest).
    pub fn fit(arch: &ModelArch, tp: u32, roofline: &RooflineModel) -> Result<Self, FitError> {
        let par = ParallelismConfig::new(tp, 1);
        let h = f64::from(arch.hidden) / f64::from(tp);
        let m = f64::from(arch.ffn) / f64::from(tp);
        let b = f64::from(roofline.flash_block);

        // Prefill profile: vary prompt length and batch size over the
        // compute-bound regime Appendix A assumes (t in the hundreds).
        let mut prefill = LeastSquares::new(3);
        for &len in &[256u32, 384, 512, 768, 1024, 1536] {
            for &bs in &[1usize, 2, 4] {
                let batch = PrefillBatch::new(vec![len; bs]);
                let y = roofline.prefill_latency(arch, par, &batch).total();
                let t = batch.total_tokens() as f64;
                let t2 = batch.attention_weight() as f64;
                prefill.add(&[t * (4.0 * h * h + 2.0 * h * m), 3.0 * h * t2 / b, 1.0], y);
            }
        }
        let p = prefill.solve()?;

        // Decoding profile: vary batch size and context length over the
        // memory-bound regime.
        let mut decode = LeastSquares::new(2);
        for &bs in &[1usize, 8, 32, 64, 128, 256] {
            for &ctx in &[128u32, 256, 512, 1024] {
                let batch = DecodeBatch::uniform(bs, ctx);
                let y = roofline.decode_latency(arch, par, &batch).total();
                let t = batch.total_context() as f64;
                decode.add(&[4.0 * h * h + 2.0 * h * m, 3.0 * h * t], y);
            }
        }
        let d = decode.solve()?;

        Ok(AppendixAModel {
            tp,
            layers: arch.num_layers,
            c1: p[0],
            c2: p[1],
            c3: p[2],
            c4: d[0],
            c5: d[1],
            flash_block: roofline.flash_block,
            hidden: h,
            ffn: m,
        })
    }

    /// Predicted prefill latency for a batch, seconds.
    #[must_use]
    pub fn prefill_time(&self, batch: &PrefillBatch) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let t = batch.total_tokens() as f64;
        let t2 = batch.attention_weight() as f64;
        let h = self.hidden;
        let m = self.ffn;
        self.c1 * t * (4.0 * h * h + 2.0 * h * m)
            + self.c2 * 3.0 * h * t2 / f64::from(self.flash_block)
            + self.c3
    }

    /// Predicted decoding step latency for a batch, seconds.
    #[must_use]
    pub fn decode_time(&self, batch: &DecodeBatch) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let t = batch.total_context() as f64;
        let h = self.hidden;
        let m = self.ffn;
        self.c4 * (4.0 * h * h + 2.0 * h * m) + self.c5 * 3.0 * h * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::OptModel;

    fn fitted(tp: u32) -> (ModelArch, AppendixAModel, RooflineModel) {
        let arch = OptModel::Opt13B.arch();
        let roofline = RooflineModel::a100();
        let fitted = AppendixAModel::fit(&arch, tp, &roofline).unwrap();
        (arch, fitted, roofline)
    }

    #[test]
    fn constants_are_positive() {
        let (_, m, _) = fitted(1);
        assert!(m.c1 > 0.0, "c1 = {}", m.c1);
        assert!(m.c2 > 0.0, "c2 = {}", m.c2);
        assert!(m.c4 > 0.0, "c4 = {}", m.c4);
        assert!(m.c5 > 0.0, "c5 = {}", m.c5);
    }

    #[test]
    fn prefill_prediction_matches_roofline_in_regime() {
        let (arch, fit, roofline) = fitted(1);
        let par = ParallelismConfig::SINGLE;
        // Points inside the fitted regime (not on the training grid).
        for lens in [vec![640u32], vec![300, 450], vec![512, 512, 512]] {
            let batch = PrefillBatch::new(lens);
            let truth = roofline.prefill_latency(&arch, par, &batch).total();
            let pred = fit.prefill_time(&batch);
            let rel = (pred - truth).abs() / truth;
            assert!(rel < 0.08, "pred {pred}, truth {truth}, rel {rel}");
        }
    }

    #[test]
    fn decode_prediction_matches_roofline_in_regime() {
        let (arch, fit, roofline) = fitted(1);
        let par = ParallelismConfig::SINGLE;
        for (bs, ctx) in [(16usize, 400u32), (96, 700), (200, 300)] {
            let batch = DecodeBatch::uniform(bs, ctx);
            let truth = roofline.decode_latency(&arch, par, &batch).total();
            let pred = fit.decode_time(&batch);
            let rel = (pred - truth).abs() / truth;
            // Appendix A drops terms linear in B ("h and m are usually
            // significantly larger than B"), which the roofline keeps, so
            // the literal form carries a ~10% structural error at large B.
            assert!(rel < 0.15, "bs={bs} ctx={ctx}: pred {pred}, truth {truth}");
        }
    }

    #[test]
    fn tp_fit_predicts_faster_execution() {
        let (_, m1, _) = fitted(1);
        let (_, m2, _) = fitted(2);
        let batch = PrefillBatch::single(512);
        assert!(m2.prefill_time(&batch) < m1.prefill_time(&batch));
        let dbatch = DecodeBatch::uniform(64, 512);
        assert!(m2.decode_time(&dbatch) < m1.decode_time(&dbatch));
    }

    #[test]
    fn empty_batches_cost_zero() {
        let (_, m, _) = fitted(1);
        assert_eq!(m.prefill_time(&PrefillBatch::empty()), 0.0);
        assert_eq!(m.decode_time(&DecodeBatch::empty()), 0.0);
    }

    #[test]
    fn fit_works_across_opt_family() {
        let roofline = RooflineModel::a100();
        for model in [OptModel::Opt13B, OptModel::Opt66B, OptModel::Opt175B] {
            let arch = model.arch();
            let fit = AppendixAModel::fit(&arch, 4, &roofline).unwrap();
            assert!(fit.prefill_time(&PrefillBatch::single(512)) > 0.0);
        }
    }
}
