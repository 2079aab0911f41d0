//! Batch descriptors consumed by the latency model.
//!
//! Appendix A characterizes a batch by `B` (batch size), `t` (total new
//! tokens), and `t₂` (squared sum of per-request lengths). These small
//! value types carry exactly that information from the engines to the cost
//! model. [`PrefillBatch`] additionally supports *chunked* prefill
//! (SARATHI-style \[8\]): an entry may process `new` tokens against `prior`
//! already-prefilled context tokens, generalizing the attention weight
//! from `l²` to `new · (prior + new)`.

/// One prefill work item: `new` prompt tokens processed against `prior`
/// context tokens already in the KV cache (zero for whole-prompt prefill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillChunk {
    /// Tokens processed this step.
    pub new: u32,
    /// Context tokens already prefilled in earlier chunks.
    pub prior: u32,
}

/// A prefill batch: each entry is one request's (possibly chunked) prefill
/// work for this step.
///
/// # Examples
///
/// ```
/// use distserve_models::PrefillBatch;
///
/// let b = PrefillBatch::new(vec![512, 128]);
/// assert_eq!(b.total_tokens(), 640);
/// assert_eq!(b.attention_weight(), 512 * 512 + 128 * 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefillBatch {
    chunks: Vec<PrefillChunk>,
}

impl PrefillBatch {
    /// Creates a whole-prompt batch from per-request prompt lengths.
    #[must_use]
    pub fn new(input_lens: Vec<u32>) -> Self {
        debug_assert!(
            input_lens.iter().all(|&l| l > 0),
            "prefill lengths must be positive"
        );
        PrefillBatch {
            chunks: input_lens
                .into_iter()
                .map(|l| PrefillChunk { new: l, prior: 0 })
                .collect(),
        }
    }

    /// Creates an empty batch.
    #[must_use]
    pub fn empty() -> Self {
        PrefillBatch { chunks: Vec::new() }
    }

    /// A batch holding a single whole-prompt request of length `len`.
    #[must_use]
    pub fn single(len: u32) -> Self {
        PrefillBatch::new(vec![len])
    }

    /// Appends one chunk.
    pub fn push_chunk(&mut self, new: u32, prior: u32) {
        self.chunks.push(PrefillChunk { new, prior });
    }

    /// Number of requests `B`.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.chunks.len()
    }

    /// Total new tokens `t = Σ newᵢ`.
    #[must_use]
    pub fn total_tokens(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.new)).sum()
    }

    /// Attention weight `Σ newᵢ · (priorᵢ + newᵢ)`, which reduces to the
    /// paper's `t₂ = Σ lᵢ²` for whole-prompt prefill.
    #[must_use]
    pub fn attention_weight(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| u64::from(c.new) * (u64::from(c.prior) + u64::from(c.new)))
            .sum()
    }

    /// The chunks of the batch.
    #[must_use]
    pub fn chunks(&self) -> &[PrefillChunk] {
        &self.chunks
    }

    /// Whether the batch holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// A decoding batch: each entry is the current context length (prompt plus
/// generated-so-far) of one request; each request contributes one new token.
///
/// # Examples
///
/// ```
/// use distserve_models::DecodeBatch;
///
/// let b = DecodeBatch::new(vec![512, 600]);
/// assert_eq!(b.batch_size(), 2);
/// assert_eq!(b.total_context(), 1112);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeBatch {
    context_lens: Vec<u32>,
}

impl DecodeBatch {
    /// Creates a batch from per-request context lengths.
    #[must_use]
    pub fn new(context_lens: Vec<u32>) -> Self {
        DecodeBatch { context_lens }
    }

    /// Creates an empty batch.
    #[must_use]
    pub fn empty() -> Self {
        DecodeBatch {
            context_lens: Vec::new(),
        }
    }

    /// A uniform batch of `batch_size` requests at context length `ctx`
    /// (used by Figures 2, 3, and 5).
    #[must_use]
    pub fn uniform(batch_size: usize, ctx: u32) -> Self {
        DecodeBatch::new(vec![ctx; batch_size])
    }

    /// Number of requests `B` (= new tokens this step).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.context_lens.len()
    }

    /// Total context tokens `t = Σ lᵢ` whose KV entries are read.
    #[must_use]
    pub fn total_context(&self) -> u64 {
        self.context_lens.iter().map(|&l| u64::from(l)).sum()
    }

    /// Per-request context lengths.
    #[must_use]
    pub fn lens(&self) -> &[u32] {
        &self.context_lens
    }

    /// Whether the batch holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.context_lens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_aggregates() {
        let b = PrefillBatch::new(vec![100, 200, 300]);
        assert_eq!(b.batch_size(), 3);
        assert_eq!(b.total_tokens(), 600);
        assert_eq!(b.attention_weight(), 10_000 + 40_000 + 90_000);
        assert!(!b.is_empty());
    }

    #[test]
    fn prefill_single() {
        let b = PrefillBatch::single(512);
        assert_eq!(b.batch_size(), 1);
        assert_eq!(b.total_tokens(), 512);
    }

    #[test]
    fn chunked_attention_weight() {
        // Second chunk of 256 tokens after 512 already prefilled:
        // attention touches 256 × (512 + 256).
        let mut b = PrefillBatch::empty();
        b.push_chunk(256, 512);
        assert_eq!(b.total_tokens(), 256);
        assert_eq!(b.attention_weight(), 256 * 768);
    }

    #[test]
    fn chunks_sum_to_whole_prefill_linear_term() {
        // Splitting a 512-token prefill into two 256-token chunks keeps
        // the linear token count and *reduces* nothing on attention:
        // 256·256 + 256·512... chunked total attention equals the
        // whole-prompt t² when summed over chunks.
        let whole = PrefillBatch::single(512);
        let mut chunked_total = 0u64;
        for (new, prior) in [(256u32, 0u32), (256, 256)] {
            let mut b = PrefillBatch::empty();
            b.push_chunk(new, prior);
            chunked_total += b.attention_weight();
        }
        // 256·256 + 256·512 = 196608 < 512² = 262144: FlashAttention's
        // causal structure means chunking revisits only the KV reads, so
        // the chunked sum is smaller by the off-diagonal half. The cost
        // model charges the full rectangle `new · (prior + new)`, which
        // is the correct per-step KV traffic.
        assert_eq!(chunked_total, 256 * 256 + 256 * 512);
        assert!(chunked_total < whole.attention_weight());
    }

    #[test]
    fn decode_aggregates() {
        let b = DecodeBatch::uniform(128, 256);
        assert_eq!(b.batch_size(), 128);
        assert_eq!(b.total_context(), 128 * 256);
    }

    #[test]
    fn empty_batches() {
        assert!(PrefillBatch::empty().is_empty());
        assert!(DecodeBatch::empty().is_empty());
        assert_eq!(DecodeBatch::empty().total_context(), 0);
        assert_eq!(PrefillBatch::empty().attention_weight(), 0);
    }

    #[test]
    fn attention_weight_overflow_headroom() {
        // 1024 requests of 2048 tokens each stays well inside u64.
        let b = PrefillBatch::new(vec![2048; 1024]);
        assert_eq!(b.attention_weight(), 1024 * 2048 * 2048);
    }
}
