//! Transformer architecture descriptors.
//!
//! Serving performance depends only on the *shape* of a model — layer
//! count, hidden size, head geometry, FFN width — never on its weights.
//! [`ModelArch`] captures that shape and derives the quantities the latency
//! model and the engines' KV capacity need: FLOP counts, weight bytes, and
//! KV-cache bytes per token.

/// Bytes of one weight or KV-cache element. Every model is served in
/// FP16 (§6.1), so this is fixed at 2.
pub const BYTES_PER_ELEMENT: u64 = 2;

/// The shape of a decoder-only transformer.
///
/// # Examples
///
/// ```
/// use distserve_models::OptModel;
///
/// let opt13b = OptModel::Opt13B.arch();
/// let params = opt13b.param_count();
/// assert!((12.0e9..14.0e9).contains(&(params as f64)));
/// // Weight bytes at fp16 ≈ 26 GB, matching Table 1.
/// let gb = opt13b.weight_bytes() as f64 / 1e9;
/// assert!((24.0..28.0).contains(&gb));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelArch {
    /// Human-readable name, e.g. `"OPT-13B"`.
    pub name: String,
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Hidden size `h`.
    pub hidden: u32,
    /// Number of attention (query) heads `n`.
    pub num_heads: u32,
    /// Number of key/value heads: equals `num_heads` for classic
    /// multi-head attention, fewer under grouped-query attention (GQA \[9\]
    /// in the paper — §3.2 notes it lets the decoding batch grow by
    /// shrinking the KV cache).
    pub kv_heads: u32,
    /// Per-head dimension `s` (`h = n * s`).
    pub head_dim: u32,
    /// FFN intermediate size `m`.
    pub ffn: u32,
    /// Whether the FFN is gated (LLaMA-style three-matrix SwiGLU) rather
    /// than OPT's two-matrix ReLU MLP.
    pub gated_ffn: bool,
    /// Vocabulary size.
    pub vocab: u32,
    /// Maximum supported sequence length.
    pub max_seq_len: u32,
}

impl ModelArch {
    /// Creates an architecture, checking internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error string if `hidden != num_heads * head_dim` or any
    /// dimension is zero.
    pub fn new(
        name: impl Into<String>,
        num_layers: u32,
        hidden: u32,
        num_heads: u32,
        ffn: u32,
        vocab: u32,
        max_seq_len: u32,
    ) -> Result<Self, String> {
        if num_layers == 0 || hidden == 0 || num_heads == 0 || ffn == 0 {
            return Err("all architecture dimensions must be non-zero".into());
        }
        if !hidden.is_multiple_of(num_heads) {
            return Err(format!(
                "hidden size {hidden} not divisible by {num_heads} heads"
            ));
        }
        Ok(ModelArch {
            name: name.into(),
            num_layers,
            hidden,
            num_heads,
            kv_heads: num_heads,
            head_dim: hidden / num_heads,
            ffn,
            gated_ffn: false,
            vocab,
            max_seq_len,
        })
    }

    /// Switches the architecture to grouped-query attention with
    /// `kv_heads` key/value heads.
    ///
    /// # Errors
    ///
    /// Returns an error string unless `kv_heads` divides `num_heads`.
    pub fn with_gqa(mut self, kv_heads: u32) -> Result<Self, String> {
        if kv_heads == 0 || !self.num_heads.is_multiple_of(kv_heads) {
            return Err(format!(
                "{} query heads not divisible by {kv_heads} KV heads",
                self.num_heads
            ));
        }
        self.kv_heads = kv_heads;
        Ok(self)
    }

    /// Switches the FFN to a gated (SwiGLU) three-matrix block.
    #[must_use]
    pub fn with_gated_ffn(mut self) -> Self {
        self.gated_ffn = true;
        self
    }

    /// Combined K/V projection width: `kv_heads * head_dim`.
    #[must_use]
    pub fn kv_dim(&self) -> u32 {
        self.kv_heads * self.head_dim
    }

    /// MACs of the dense projections for one token in one layer:
    /// Q (`h×h`), K and V (`h×kv_dim` each), output (`h×h`), and the FFN
    /// (two or three `h×m` matrices). Appendix A's `4h² + 2hm` is the
    /// multi-head, non-gated special case.
    #[must_use]
    pub fn dense_macs_per_token(&self) -> u64 {
        let h = u64::from(self.hidden);
        let kv = u64::from(self.kv_dim());
        let m = u64::from(self.ffn);
        let ffn_mats = if self.gated_ffn { 3 } else { 2 };
        2 * h * h + 2 * h * kv + ffn_mats * h * m
    }

    /// Bytes of dense weights per layer.
    #[must_use]
    pub fn dense_weight_bytes_per_layer(&self) -> u64 {
        self.dense_macs_per_token() * BYTES_PER_ELEMENT
    }

    /// Approximate parameter count: dense projections plus biases and
    /// norms, embeddings, and positions.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let h = u64::from(self.hidden);
        let m = u64::from(self.ffn);
        let l = u64::from(self.num_layers);
        let per_layer = self.dense_macs_per_token()
            + 4 * h + m + h // Projection and FFN biases (absent in LLaMA but negligible).
            + 4 * h; // Two layer norms (scale + bias).
        let embeddings = u64::from(self.vocab) * h + u64::from(self.max_seq_len) * h;
        let final_norm = 2 * h;
        l * per_layer + embeddings + final_norm
    }

    /// Total bytes of model weights.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.param_count() * BYTES_PER_ELEMENT
    }

    /// Bytes of KV cache for **one token position** across all layers:
    /// `2 (K and V) * layers * kv_dim` elements of [`BYTES_PER_ELEMENT`].
    /// Under GQA this is `kv_heads / num_heads` of the multi-head figure —
    /// the memory saving §3.2 credits for larger decoding batches.
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * u64::from(self.num_layers) * u64::from(self.kv_dim()) * BYTES_PER_ELEMENT
    }

    /// FLOPs for a prefill pass over `t` new tokens of a single request
    /// (dense GEMMs plus attention), across all layers.
    #[must_use]
    pub fn prefill_flops(&self, t: u64) -> u64 {
        let h = u64::from(self.hidden);
        let l = u64::from(self.num_layers);
        // Dense GEMMs at 2 FLOPs per MAC, plus attention score+value:
        // 2 * 2 * t² * h (queries attend at full head count).
        l * (2 * t * self.dense_macs_per_token() + 4 * t * t * h)
    }

    /// FLOPs for a single decoding step of one request with context length
    /// `ctx`, across all layers.
    #[must_use]
    pub fn decode_flops(&self, ctx: u64) -> u64 {
        let h = u64::from(self.hidden);
        let l = u64::from(self.num_layers);
        l * (2 * self.dense_macs_per_token() + 4 * ctx * h)
    }
}

/// The OPT model family used throughout the paper's evaluation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptModel {
    /// OPT-1.3B.
    Opt1_3B,
    /// OPT-2.7B.
    Opt2_7B,
    /// OPT-6.7B.
    Opt6_7B,
    /// OPT-13B — Figure 1/2/3/5, chatbot Table 1 row 1.
    Opt13B,
    /// OPT-30B.
    Opt30B,
    /// OPT-66B — Figure 4, chatbot/code/summarization rows.
    Opt66B,
    /// OPT-175B — chatbot row 3, Figure 10.
    Opt175B,
}

impl OptModel {
    /// All family members, smallest to largest.
    pub const ALL: [OptModel; 7] = [
        OptModel::Opt1_3B,
        OptModel::Opt2_7B,
        OptModel::Opt6_7B,
        OptModel::Opt13B,
        OptModel::Opt30B,
        OptModel::Opt66B,
        OptModel::Opt175B,
    ];

    /// Returns the architecture descriptor (dimensions from the OPT paper).
    #[must_use]
    pub fn arch(self) -> ModelArch {
        let (name, layers, hidden, heads, max_seq) = match self {
            OptModel::Opt1_3B => ("OPT-1.3B", 24, 2048, 32, 2048),
            OptModel::Opt2_7B => ("OPT-2.7B", 32, 2560, 32, 2048),
            OptModel::Opt6_7B => ("OPT-6.7B", 32, 4096, 32, 2048),
            OptModel::Opt13B => ("OPT-13B", 40, 5120, 40, 2048),
            OptModel::Opt30B => ("OPT-30B", 48, 7168, 56, 2048),
            OptModel::Opt66B => ("OPT-66B", 64, 9216, 72, 2048),
            OptModel::Opt175B => ("OPT-175B", 96, 12288, 96, 2048),
        };
        // OPT uses an FFN expansion factor of 4 and a 50272-token vocab.
        ModelArch::new(name, layers, hidden, heads, hidden * 4, 50_272, max_seq)
            .expect("OPT presets are internally consistent")
    }
}

/// The LLaMA-2 family — the open-source models §5 lists as supported,
/// with LLaMA-2-70B exercising GQA (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlamaModel {
    /// LLaMA-2-7B (multi-head attention, gated FFN).
    Llama2_7B,
    /// LLaMA-2-13B.
    Llama2_13B,
    /// LLaMA-2-70B (grouped-query attention: 8 KV heads).
    Llama2_70B,
}

impl LlamaModel {
    /// All family members.
    pub const ALL: [LlamaModel; 3] = [
        LlamaModel::Llama2_7B,
        LlamaModel::Llama2_13B,
        LlamaModel::Llama2_70B,
    ];

    /// Returns the architecture descriptor (dimensions from the LLaMA-2
    /// paper).
    #[must_use]
    pub fn arch(self) -> ModelArch {
        let (name, layers, hidden, heads, kv_heads, ffn) = match self {
            LlamaModel::Llama2_7B => ("LLaMA-2-7B", 32, 4096, 32, 32, 11_008),
            LlamaModel::Llama2_13B => ("LLaMA-2-13B", 40, 5120, 40, 40, 13_824),
            LlamaModel::Llama2_70B => ("LLaMA-2-70B", 80, 8192, 64, 8, 28_672),
        };
        ModelArch::new(name, layers, hidden, heads, ffn, 32_000, 4096)
            .expect("LLaMA presets are internally consistent")
            .with_gqa(kv_heads)
            .expect("KV head counts divide query head counts")
            .with_gated_ffn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published parameter counts for the OPT family, in billions.
    const PUBLISHED: [(OptModel, f64); 7] = [
        (OptModel::Opt1_3B, 1.3),
        (OptModel::Opt2_7B, 2.7),
        (OptModel::Opt6_7B, 6.7),
        (OptModel::Opt13B, 13.0),
        (OptModel::Opt30B, 30.0),
        (OptModel::Opt66B, 66.0),
        (OptModel::Opt175B, 175.0),
    ];

    #[test]
    fn opt_param_counts_match_published() {
        for (model, billions) in PUBLISHED {
            let params = model.arch().param_count() as f64 / 1e9;
            let rel = (params - billions).abs() / billions;
            assert!(
                rel < 0.06,
                "{:?}: computed {params:.2}B vs published {billions}B ({:.1}% off)",
                model,
                rel * 100.0
            );
        }
    }

    #[test]
    fn table1_weight_sizes() {
        // Table 1: OPT-13B = 26 GB, OPT-66B = 132 GB, OPT-175B = 350 GB.
        let gb = |m: OptModel| m.arch().weight_bytes() as f64 / 1e9;
        assert!((gb(OptModel::Opt13B) - 26.0).abs() < 2.0);
        assert!((gb(OptModel::Opt66B) - 132.0).abs() < 5.0);
        assert!((gb(OptModel::Opt175B) - 350.0).abs() < 10.0);
    }

    #[test]
    fn kv_bytes_match_paper_example() {
        // §3.3: "the KV cache size of a single 512-token request on OPT-66B
        // is approximately 1.13GB".
        let arch = OptModel::Opt66B.arch();
        let gb = (arch.kv_bytes_per_token() * 512) as f64 / 1e9;
        assert!(
            (1.0..1.35).contains(&gb),
            "512-token OPT-66B KV = {gb:.3} GB, expected ≈1.13 GB"
        );
    }

    #[test]
    fn head_dim_derived() {
        let arch = OptModel::Opt66B.arch();
        assert_eq!(arch.head_dim * arch.num_heads, arch.hidden);
        assert_eq!(arch.head_dim, 128);
    }

    #[test]
    fn invalid_arch_rejected() {
        assert!(ModelArch::new("bad", 2, 100, 3, 400, 1000, 128).is_err());
        assert!(ModelArch::new("zero", 0, 128, 4, 512, 1000, 128).is_err());
    }

    #[test]
    fn prefill_flops_scale_superlinearly() {
        let arch = OptModel::Opt13B.arch();
        let f1 = arch.prefill_flops(512) as f64;
        let f2 = arch.prefill_flops(1024) as f64;
        // Attention's quadratic term makes doubling tokens more than double
        // the FLOPs.
        assert!(f2 > 2.0 * f1);
        // Dense part dominates at these lengths: ≈ 2 * params * t.
        let approx = 2.0 * arch.param_count() as f64 * 512.0;
        assert!((f1 / approx - 1.0).abs() < 0.15, "ratio {}", f1 / approx);
    }

    #[test]
    fn decode_flops_grow_with_context() {
        let arch = OptModel::Opt13B.arch();
        assert!(arch.decode_flops(2048) > arch.decode_flops(16));
    }

    #[test]
    fn llama_param_counts_match_published() {
        for (model, billions) in [
            (LlamaModel::Llama2_7B, 6.7),
            (LlamaModel::Llama2_13B, 13.0),
            (LlamaModel::Llama2_70B, 69.0),
        ] {
            let params = model.arch().param_count() as f64 / 1e9;
            let rel = (params - billions).abs() / billions;
            assert!(
                rel < 0.06,
                "{model:?}: computed {params:.2}B vs published {billions}B"
            );
        }
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        // LLaMA-2-70B has 8 of 64 heads as KV heads: the cache per token
        // is 1/8th of the equivalent multi-head figure (§3.2's GQA note).
        let gqa = LlamaModel::Llama2_70B.arch();
        let mha = ModelArch::new("mha-70b", 80, 8192, 64, 28_672, 32_000, 4096).unwrap();
        assert_eq!(gqa.kv_bytes_per_token() * 8, mha.kv_bytes_per_token());
        assert_eq!(gqa.kv_dim(), 1024);
    }

    #[test]
    fn gqa_validation() {
        let arch = OptModel::Opt13B.arch(); // 40 heads.
        assert!(arch.clone().with_gqa(8).is_ok());
        assert!(arch.clone().with_gqa(7).is_err());
        assert!(arch.with_gqa(0).is_err());
    }

    #[test]
    fn gated_ffn_increases_dense_macs() {
        let plain = OptModel::Opt13B.arch();
        let gated = OptModel::Opt13B.arch().with_gated_ffn();
        assert!(gated.dense_macs_per_token() > plain.dense_macs_per_token());
    }
}
