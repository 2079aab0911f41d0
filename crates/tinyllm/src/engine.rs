//! The forward pass: an OPT-style decoder reading a paged KV cache.
//!
//! Two execution tiers share the weights, each with one forward path over
//! full-width layers. [`Model::forward_token`] is the token-at-a-time
//! *reference* path, written for readability. The *batch* path
//! ([`Model::forward_batch`] plus the `*_batch` layer pieces) stacks many
//! rows — a whole prompt in prefill, one row per active sequence in fused
//! decode — into single GEMMs over panel-major weights ([`PackedMatrix`]),
//! reusing one [`Scratch`] arena across steps so the hot loop never
//! allocates. Both tiers read the same stored bf16 weights and K/V,
//! widened exactly to f32, and the batch kernels accumulate in the same
//! per-element order as the reference, so both tiers produce identical
//! tokens (the scheduler tests assert exact equality). Multiple cores
//! split each batched GEMM and attention pass through the model's
//! [`WorkerPool`], which keeps every accumulation chain intact.

use std::sync::Arc;

use crate::kv::{KvLayerView, PagedKv, SeqId};
use crate::model::{ComputeConfig, Precision, TinyConfig, Weights};
use crate::pool::WorkerPool;
use crate::tensor::{
    exp_fast, layer_norm, layer_norm_into, relu, relu_slice, Bf16, Kernel, Matrix, PackedMatrix,
    QuantMatrix,
};

/// One row of a batched forward pass: a token of some sequence at some
/// position. Prefill stacks a prompt's rows (same `seq`, ascending
/// `pos`); fused decode stacks one row per active sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRow {
    /// Sequence the row belongs to.
    pub seq: SeqId,
    /// Position within the sequence.
    pub pos: usize,
    /// Input token at that position.
    pub token: u32,
}

/// Per-layer weights packed for the blocked kernels (built once at
/// model construction). Each projection is a [`Kernel`] — bf16 (sharing
/// the reference [`Weights`]' panel-major storage) or int8 quantized,
/// chosen by the model's [`Precision`].
#[derive(Debug, Clone)]
struct PackedLayer {
    wqkv: Kernel,
    wo: Kernel,
    w1: Kernel,
    w2: Kernel,
}

/// All packed weights: the per-layer projections plus the tied-embedding
/// logits kernel, which shares [`Weights::embed`]'s `(hidden × vocab)`
/// storage. The logits projection is never quantized: it feeds argmax
/// directly, where quantization noise would flip tokens rather than
/// merely perturb activations.
#[derive(Debug, Clone)]
struct PackedWeights {
    layers: Vec<PackedLayer>,
    embed: Kernel,
}

impl PackedWeights {
    fn build(w: &Weights, precision: Precision) -> Self {
        let kernel = |m: &Matrix<Bf16>| match precision {
            Precision::F32 => Kernel::F32(PackedMatrix::pack(m)),
            Precision::Int8 => Kernel::Int8(QuantMatrix::quantize(m)),
        };
        PackedWeights {
            layers: w
                .layers
                .iter()
                .map(|lw| PackedLayer {
                    wqkv: kernel(&lw.wqkv),
                    wo: kernel(&lw.wo),
                    w1: kernel(&lw.w1),
                    w2: kernel(&lw.w2),
                })
                .collect(),
            embed: Kernel::F32(PackedMatrix::pack(&w.embed)),
        }
    }
}

/// Reusable buffers for the batch path. One arena serves every step of a
/// scheduler or generation loop; buffers are resized (never reallocated
/// once at steady state) and fully overwritten by each kernel.
#[derive(Debug, Default)]
pub struct Scratch {
    /// `(m × hidden)` residual stream.
    x: Vec<f32>,
    /// `(m × hidden)` LayerNorm output.
    normed: Vec<f32>,
    /// `(m × 3·hidden)` fused Q/K/V projection.
    qkv: Vec<f32>,
    /// `(m × hidden)` attention context.
    attn: Vec<f32>,
    /// `(m × hidden)` attention or FFN output, added to the residual.
    partial: Vec<f32>,
    /// `(m × ffn)` FFN mid activation.
    mid: Vec<f32>,
    /// Per-row fused-attention temporaries (one block of scores plus
    /// per-head running max/normalizer — `O(block_size × heads)`, not
    /// `O(context × heads)`).
    attn_scr: AttnScratch,
    /// Selected rows gathered for the logits projection.
    sel: Vec<f32>,
    /// `(picks × vocab)` logits of the selected rows.
    logits: Vec<f32>,
    /// Row width of `logits` (the vocab size), set by `logits_batch`.
    logits_width: usize,
}

impl Scratch {
    /// An empty arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Scratch::default()
    }

    /// The logits row for the `i`-th selected index of the last
    /// [`Model::logits_batch`] call.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for that call.
    #[must_use]
    pub fn logits_row(&self, i: usize) -> &[f32] {
        let w = self.logits_width;
        &self.logits[i * w..(i + 1) * w]
    }
}

/// Per-row temporaries of the fused attention kernel: one *block* of
/// scores (head-major, `block_size` per head) plus per-head running max
/// and normalizer. Memory is `O(block_size × heads)` regardless of
/// context length — the full `O(context × heads)` position-major score
/// matrix of the pre-fused path is never materialized.
#[derive(Debug, Default)]
pub(crate) struct AttnScratch {
    /// Head-major block scores, `heads × block_size`; overwritten in
    /// place with `exp(score − m_new)` during the online update.
    sb: Vec<f32>,
    /// Running per-head maximum.
    m: Vec<f32>,
    /// Running per-head normalizer (sum of exponentials, rescaled).
    l: Vec<f32>,
}

/// Staged inputs for farming fused-attention rows out to pool workers:
/// everything a worker needs to rebuild a [`KvLayerView`] and run rows
/// independently, owned (or `Arc`-shared) so jobs are `'static`.
#[derive(Debug, Default)]
pub(crate) struct AttnStage {
    /// Each row's query, `m × hidden`.
    pub(crate) q: Vec<f32>,
    /// Per row: `(ctx, block range into blocks)`.
    pub(crate) rows: Vec<(usize, usize, usize)>,
    /// Flattened per-row block tables.
    pub(crate) blocks: Vec<usize>,
    /// Head dimension.
    pub(crate) d: usize,
    /// Head count.
    pub(crate) heads: usize,
    /// Model hidden size.
    pub(crate) hidden: usize,
    /// Cache positions per block.
    pub(crate) block_size: usize,
    /// Elements per block across all layers.
    pub(crate) block_elems: usize,
    /// Element offset of this layer within a block.
    pub(crate) layer_base: usize,
    /// `1 / sqrt(d)`.
    pub(crate) scale: f32,
}

/// Runs fused attention for staged rows `row_lo..row_hi`, writing each
/// row's `(heads · d)` context vector densely into `out`. Called on pool
/// workers (strip destination) and on the dispatching thread (prefix of
/// the real destination) — identical math either way.
pub(crate) fn attn_rows_strip(
    stage: &AttnStage,
    storage: &[u16],
    row_lo: usize,
    row_hi: usize,
    scr: &mut AttnScratch,
    out: &mut [f32],
) {
    let _prof = distserve_prof::scope("fused_attn_rows");
    let width = stage.heads * stage.d;
    for r in row_lo..row_hi {
        let (ctx, blk_lo, blk_hi) = stage.rows[r];
        let view = KvLayerView::from_parts(
            storage,
            &stage.blocks[blk_lo..blk_hi],
            ctx,
            stage.block_size,
            stage.hidden,
            stage.block_elems,
            stage.layer_base,
        );
        let q_s = &stage.q[r * width..(r + 1) * width];
        let out_row = &mut out[(r - row_lo) * width..(r - row_lo + 1) * width];
        fused_attn_row(
            &view,
            ctx,
            q_s,
            stage.d,
            stage.heads,
            stage.scale,
            scr,
            out_row,
        );
    }
}

/// One row of flash-style fused attention: a single pass over the KV
/// blocks computes scores, the online softmax (running max `m`, running
/// normalizer `l`, rescale factor `exp(m_old − m_new)`), and the value
/// accumulation — no materialized `context × heads` score matrix.
///
/// Block-online association is the *defining* numeric order for
/// attention in this crate: the token-at-a-time reference
/// (`Model::attn`) applies the same recurrence per chunk of
/// `block_size` positions over the same stored bf16 K/V, widened as they
/// are loaded, so both tiers stay bit-identical. The rescale
/// multiply is exact when the max is unchanged (`exp_fast(0) == 1.0`),
/// and harmless at the start (`exp_fast(−inf)` is a subnormal scale on
/// zero-valued accumulators).
///
/// Dispatches to a width-monomorphized kernel for the standard shapes
/// (`d == 8`, block size 16); the generic path handles everything else
/// with identical operations in identical order.
#[allow(clippy::too_many_arguments)]
fn fused_attn_row(
    view: &KvLayerView<'_>,
    ctx: usize,
    q_s: &[f32],
    d: usize,
    heads: usize,
    scale: f32,
    scr: &mut AttnScratch,
    out_row: &mut [f32],
) {
    let h = heads * d;
    let bs = view.block_size();
    scr.sb.resize(bs * heads, 0.0);
    if bs == 16 && d == 8 {
        match h {
            64 => return fused_attn_row_w::<64, 8>(view, ctx, q_s, scale, &mut scr.sb, out_row),
            32 => return fused_attn_row_w::<32, 8>(view, ctx, q_s, scale, &mut scr.sb, out_row),
            16 => return fused_attn_row_w::<16, 8>(view, ctx, q_s, scale, &mut scr.sb, out_row),
            8 => return fused_attn_row_w::<8, 8>(view, ctx, q_s, scale, &mut scr.sb, out_row),
            _ => {}
        }
    }
    scr.m.resize(heads, 0.0);
    scr.m.fill(f32::NEG_INFINITY);
    scr.l.resize(heads, 0.0);
    scr.l.fill(0.0);
    out_row.fill(0.0);
    for (panel, (region, take)) in view.key_panels(ctx).zip(view.slot_regions(ctx)) {
        for hd in 0..heads {
            // Block scores for this head: `bs` accumulators sweep the
            // dims in ascending order (the reference dot's order), one
            // FMA across the whole block per dim. Panel columns past
            // `take` hold garbage and are never read below.
            let row = &mut scr.sb[hd * bs..(hd + 1) * bs];
            row.fill(0.0);
            for (l, &q) in q_s[hd * d..(hd + 1) * d].iter().enumerate() {
                let dim_row = &panel[(hd * d + l) * bs..][..bs];
                for (a, &kv) in row.iter_mut().zip(dim_row) {
                    *a += q * Bf16::from_bits(kv).to_f32();
                }
            }
            for v in row.iter_mut() {
                *v *= scale;
            }
            // Online softmax update for the block.
            let mut bm = f32::NEG_INFINITY;
            for &v in &row[..take] {
                bm = bm.max(v);
            }
            let m_new = scr.m[hd].max(bm);
            let c = exp_fast(scr.m[hd] - m_new);
            let mut l = scr.l[hd] * c;
            for a in out_row[hd * d..(hd + 1) * d].iter_mut() {
                *a *= c;
            }
            for v in row[..take].iter_mut() {
                let e = exp_fast(*v - m_new);
                *v = e;
                l += e;
            }
            scr.m[hd] = m_new;
            scr.l[hd] = l;
        }
        // Unnormalized value accumulation: positions ascending, each
        // head's broadcast weight times its `d`-element V chunk, widened.
        for s in 0..take {
            let v_s = &region[s * h..(s + 1) * h];
            for hd in 0..heads {
                let w = scr.sb[hd * bs + s];
                for (a, &vv) in out_row[hd * d..(hd + 1) * d]
                    .iter_mut()
                    .zip(&v_s[hd * d..(hd + 1) * d])
                {
                    *a += w * Bf16::from_bits(vv).to_f32();
                }
            }
        }
    }
    for hd in 0..heads {
        let l = scr.l[hd];
        for a in out_row[hd * d..(hd + 1) * d].iter_mut() {
            *a /= l;
        }
    }
}

/// [`fused_attn_row`] monomorphized for `W / D` heads of `D` dims over
/// block-size-16 panels: the value accumulator (and running
/// max/normalizer) live in registers across the whole context sweep,
/// and the inner loops are straight lines of const-indexed FMAs. Same
/// operations in the same order as the generic path — bit-identical.
#[allow(clippy::needless_range_loop)]
fn fused_attn_row_w<const W: usize, const D: usize>(
    view: &KvLayerView<'_>,
    ctx: usize,
    q_s: &[f32],
    scale: f32,
    sb: &mut [f32],
    out_row: &mut [f32],
) {
    const BS: usize = 16;
    let heads = W / D;
    let mut acc = [0.0f32; W];
    // Per-head running state; only the first `heads` entries are live
    // (`[f32; W / D]` is not expressible on stable const generics).
    let mut mr = [f32::NEG_INFINITY; W];
    let mut lr = [0.0f32; W];
    for (panel, (region, take)) in view.key_panels(ctx).zip(view.slot_regions(ctx)) {
        for hd in 0..heads {
            let mut sa = [0.0f32; BS];
            for (l, &q) in q_s[hd * D..(hd + 1) * D].iter().enumerate() {
                let dim_row: &[u16; BS] = panel[(hd * D + l) * BS..][..BS]
                    .try_into()
                    .expect("BS-wide panel row");
                let k: [f32; BS] = core::array::from_fn(|s| Bf16::from_bits(dim_row[s]).to_f32());
                for (a, &kv) in sa.iter_mut().zip(&k) {
                    *a += q * kv;
                }
            }
            let row = &mut sb[hd * BS..(hd + 1) * BS];
            for (dst, &a) in row.iter_mut().zip(&sa) {
                *dst = a * scale;
            }
            let mut bm = f32::NEG_INFINITY;
            for &v in &row[..take] {
                bm = bm.max(v);
            }
            let m_new = mr[hd].max(bm);
            let c = exp_fast(mr[hd] - m_new);
            let mut l = lr[hd] * c;
            for a in acc[hd * D..(hd + 1) * D].iter_mut() {
                *a *= c;
            }
            for v in row[..take].iter_mut() {
                let e = exp_fast(*v - m_new);
                *v = e;
                l += e;
            }
            mr[hd] = m_new;
            lr[hd] = l;
        }
        for s in 0..take {
            let v_bits: &[u16; W] = region[s * W..][..W].try_into().expect("W-wide V slice");
            let v_s: [f32; W] = core::array::from_fn(|i| Bf16::from_bits(v_bits[i]).to_f32());
            for hd in 0..heads {
                let w = sb[hd * BS + s];
                for l in 0..D {
                    acc[hd * D + l] += w * v_s[hd * D + l];
                }
            }
        }
    }
    for hd in 0..heads {
        let l = lr[hd];
        for i in 0..D {
            out_row[hd * D + i] = acc[hd * D + i] / l;
        }
    }
}

/// A transformer model with weights, ready for inference.
///
/// Cloning is cheap: the raw weights live behind an `Arc` and the clone
/// shares the original's persistent [`WorkerPool`], so schedulers and
/// callers can hold their own handles without duplicating parameters or
/// threads.
#[derive(Debug, Clone)]
pub struct Model {
    cfg: TinyConfig,
    weights: Arc<Weights>,
    packed: PackedWeights,
    pool: Arc<WorkerPool>,
    precision: Precision,
}

impl Model {
    /// Builds a model with deterministic random weights and the default
    /// compute configuration (f32, auto thread count).
    #[must_use]
    pub fn random(cfg: &TinyConfig, seed: u64) -> Self {
        Model::random_with(cfg, seed, ComputeConfig::default())
    }

    /// Builds a model with deterministic random weights and an explicit
    /// [`ComputeConfig`]: weight precision (quantization happens here, at
    /// load) and worker-pool width (the pool is spawned once, per model,
    /// not per call). The weights are [`Weights::random`]'s: each element
    /// drawn from its matrix's seekable stream and rounded once to bf16,
    /// on the pool's lanes when the model is large enough to split. They
    /// never depend on the lane count.
    #[must_use]
    pub fn random_with(cfg: &TinyConfig, seed: u64, compute: ComputeConfig) -> Self {
        let lanes = compute.resolved_threads();
        let weights = Arc::new(Weights::random_on(cfg, seed, lanes));
        let packed = PackedWeights::build(&weights, compute.precision);
        Model {
            cfg: cfg.clone(),
            weights,
            packed,
            pool: Arc::new(WorkerPool::new(lanes)),
            precision: compute.precision,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &TinyConfig {
        &self.cfg
    }

    /// Compute threads (worker-pool lanes, including the caller's).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.lanes()
    }

    /// Busy/idle/dispatch-wait accounting of the model's worker pool
    /// (shared by all clones of this model).
    #[must_use]
    pub fn pool_utilization(&self) -> crate::pool::PoolUtilization {
        self.pool.utilization()
    }

    /// Weight precision of the packed kernels.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Token `t`'s embedding, widened: column `t` of the
    /// `(hidden × vocab)` [`Weights::embed`], one panel width apart.
    fn embed_col(&self, t: usize) -> impl Iterator<Item = f32> + '_ {
        self.weights.embed.col(t).map(Bf16::to_f32)
    }

    /// Token plus learned position embedding.
    ///
    /// # Panics
    ///
    /// Panics if the token or position is out of range.
    #[must_use]
    pub fn embed_token(&self, token: u32, pos: usize) -> Vec<f32> {
        let t = token as usize;
        assert!(t < self.cfg.vocab, "token {t} out of vocab");
        assert!(pos < self.cfg.max_seq, "position {pos} past max_seq");
        self.embed_col(t)
            .zip(self.weights.pos.row(pos))
            .map(|(a, b)| a + b.to_f32())
            .collect()
    }

    /// Pre-attention LayerNorm.
    fn ln1(&self, layer: usize, x: &[f32]) -> Vec<f32> {
        let lw = &self.weights.layers[layer];
        layer_norm(
            &Matrix::from_vec(1, x.len(), x.to_vec()),
            &lw.ln1_scale,
            &lw.ln1_shift,
        )
        .into_vec()
    }

    /// Pre-FFN LayerNorm.
    fn ln2(&self, layer: usize, x: &[f32]) -> Vec<f32> {
        let lw = &self.weights.layers[layer];
        layer_norm(
            &Matrix::from_vec(1, x.len(), x.to_vec()),
            &lw.ln2_scale,
            &lw.ln2_shift,
        )
        .into_vec()
    }

    /// Attention at `(seq, pos)`: projects Q/K/V, appends this position's
    /// K/V to the cache, attends causally over positions `0..=pos`, and
    /// applies the output projection.
    ///
    /// # Panics
    ///
    /// Panics if the KV append fails (pool exhausted or sequence not
    /// registered) — the scheduler must admit within capacity.
    fn attn(
        &self,
        layer: usize,
        x_norm: &[f32],
        seq: SeqId,
        pos: usize,
        kv: &mut PagedKv,
    ) -> Vec<f32> {
        let h = self.cfg.hidden;
        let d = self.cfg.head_dim();
        let lw = &self.weights.layers[layer];
        let x = Matrix::from_vec(1, h, x_norm.to_vec());
        let qkv = x.matmul(&lw.wqkv);
        let (q, rest) = qkv.data.split_at(h);
        let (k, v) = rest.split_at(h);

        kv.append(seq, layer, pos, k, v)
            .expect("KV append within capacity");
        let view = kv.layer_view(seq, layer);

        // Per-head causal attention over the cache, evaluated with the
        // *block-online* softmax recurrence: positions are visited in
        // chunks of the cache's block size, each chunk updating a running
        // max `m`, normalizer `l` (rescaled by `exp(m_old − m_new)`), and
        // unnormalized value accumulator, with one divide at the end.
        // This is the defining numeric association for attention in this
        // crate — the fused batch kernel applies the identical recurrence
        // per KV block, so both tiers stay bit-identical. (A plain
        // two-pass softmax would associate the sums differently and break
        // the exact-equality tests.)
        let scale = 1.0 / (d as f32).sqrt();
        let bs = view.block_size();
        let mut attn_out = vec![0.0; h];
        let mut scores = Vec::with_capacity(bs);
        for head in 0..self.cfg.heads {
            let hl = head * d;
            let q_h = &q[hl..hl + d];
            let mut m_run = f32::NEG_INFINITY;
            let mut l_run = 0.0f32;
            let mut chunk = 0;
            while chunk <= pos {
                let take = (pos + 1 - chunk).min(bs);
                scores.clear();
                for p in chunk..chunk + take {
                    // Key dims read in place from the transposed panel.
                    let k_p = view.key_dims(p, hl..hl + d);
                    let dot: f32 = q_h.iter().zip(k_p).map(|(a, b)| a * b).sum();
                    scores.push(dot * scale);
                }
                let mut bm = f32::NEG_INFINITY;
                for &s in &scores {
                    bm = bm.max(s);
                }
                let m_new = m_run.max(bm);
                let c = exp_fast(m_run - m_new);
                l_run *= c;
                for o in attn_out[hl..hl + d].iter_mut() {
                    *o *= c;
                }
                for (off, &s) in scores.iter().enumerate() {
                    let e = exp_fast(s - m_new);
                    l_run += e;
                    let v_p = view.value_dims(chunk + off, hl..hl + d);
                    for (o, vv) in attn_out[hl..hl + d].iter_mut().zip(v_p) {
                        *o += e * vv;
                    }
                }
                m_run = m_new;
                chunk += take;
            }
            for o in attn_out[hl..hl + d].iter_mut() {
                *o /= l_run;
            }
        }

        Matrix::from_vec(1, h, attn_out).matmul(&lw.wo).into_vec()
    }

    /// FFN: `relu(x·W1) · W2`.
    fn ffn(&self, layer: usize, x_norm: &[f32]) -> Vec<f32> {
        let lw = &self.weights.layers[layer];
        let x = Matrix::from_vec(1, x_norm.len(), x_norm.to_vec());
        let mut mid = x.matmul(&lw.w1);
        relu(&mut mid);
        mid.matmul(&lw.w2).into_vec()
    }

    /// Output logits from a final hidden state (tied embeddings).
    #[must_use]
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        let normed = layer_norm(
            &Matrix::from_vec(1, x.len(), x.to_vec()),
            &self.weights.lnf_scale,
            &self.weights.lnf_shift,
        );
        normed.matmul(&self.weights.embed).into_vec()
    }

    /// Embeds every batch row (token + learned position) into
    /// `scratch.x`, the `(m × hidden)` residual stream.
    ///
    /// # Panics
    ///
    /// Panics if any token or position is out of range.
    pub fn embed_rows(&self, rows: &[BatchRow], scratch: &mut Scratch) {
        let h = self.cfg.hidden;
        scratch.x.resize(rows.len() * h, 0.0);
        for (i, row) in rows.iter().enumerate() {
            let t = row.token as usize;
            assert!(t < self.cfg.vocab, "token {t} out of vocab");
            assert!(
                row.pos < self.cfg.max_seq,
                "position {} past max_seq",
                row.pos
            );
            let out = &mut scratch.x[i * h..(i + 1) * h];
            for ((o, e), p) in out
                .iter_mut()
                .zip(self.embed_col(t))
                .zip(self.weights.pos.row(row.pos))
            {
                *o = e + p.to_f32();
            }
        }
    }

    /// Pre-attention LayerNorm of the whole batch: `scratch.x` →
    /// `scratch.normed`.
    pub fn ln1_batch(&self, layer: usize, m: usize, scratch: &mut Scratch) {
        let lw = &self.weights.layers[layer];
        let h = self.cfg.hidden;
        scratch.normed.resize(m * h, 0.0);
        layer_norm_into(
            &scratch.x[..m * h],
            m,
            &lw.ln1_scale,
            &lw.ln1_shift,
            &mut scratch.normed[..m * h],
        );
    }

    /// Pre-FFN LayerNorm of the whole batch: `scratch.x` →
    /// `scratch.normed`.
    pub fn ln2_batch(&self, layer: usize, m: usize, scratch: &mut Scratch) {
        let lw = &self.weights.layers[layer];
        let h = self.cfg.hidden;
        scratch.normed.resize(m * h, 0.0);
        layer_norm_into(
            &scratch.x[..m * h],
            m,
            &lw.ln2_scale,
            &lw.ln2_shift,
            &mut scratch.normed[..m * h],
        );
    }

    /// Batched attention: one fused Q/K/V GEMM over all rows, KV
    /// appends, per-row causal attention read through a
    /// [`crate::kv::KvLayerView`], and the output projection as one GEMM.
    /// Reads `scratch.normed`, leaves the output in `scratch.partial`.
    ///
    /// # Panics
    ///
    /// Panics if a KV append fails — the scheduler must admit within
    /// capacity.
    pub fn attn_batch(
        &self,
        layer: usize,
        rows: &[BatchRow],
        kv: &mut PagedKv,
        scratch: &mut Scratch,
    ) {
        let h = self.cfg.hidden;
        let d = self.cfg.head_dim();
        let m = rows.len();
        let pw = &self.packed.layers[layer];

        // One GEMM for every row's Q, K and V, strip-split across the
        // pool when the batch is worth it.
        {
            let _prof = distserve_prof::scope("qkv_gemm");
            scratch.qkv.resize(m * 3 * h, 0.0);
            self.pool.gemm(
                &pw.wqkv,
                &scratch.normed[..m * h],
                m,
                &mut scratch.qkv[..m * 3 * h],
            );
        }

        // Append each row's K/V before any row attends: within one batch
        // a prefill row must see its predecessors' keys.
        {
            let _prof = distserve_prof::scope("kv_append");
            for (i, row) in rows.iter().enumerate() {
                let qkv_row = &scratch.qkv[i * 3 * h..(i + 1) * 3 * h];
                let k = &qkv_row[h..2 * h];
                let v = &qkv_row[2 * h..3 * h];
                kv.append(row.seq, layer, row.pos, k, v)
                    .expect("KV append within capacity");
            }
        }

        // Fused causal attention per row — scores, online softmax, and
        // value accumulation in one pass over the KV blocks (see
        // [`fused_attn_row`]); no position-major score matrix is ever
        // materialized. When the batch carries enough total context, rows
        // are farmed across the pool: attention rows are embarrassingly
        // parallel, so the split is trivially bit-identical to the serial
        // loop.
        let _prof_attn = distserve_prof::scope("fused_attn");
        let scale = 1.0 / (d as f32).sqrt();
        let heads = self.cfg.heads;
        scratch.attn.resize(m * h, 0.0);
        let total_ctx: usize = rows.iter().map(|r| r.pos + 1).sum();
        let lanes = self.pool.attn_lanes(m, total_ctx * h * 2);
        if lanes > 1 {
            let (hidden, bs, block_elems, layer_base) = kv.geometry(layer);
            let storage = kv.storage_arc();
            let qkv = &scratch.qkv;
            self.pool.attn_rows(
                lanes,
                &storage,
                |stage| {
                    stage.q.clear();
                    stage.rows.clear();
                    stage.blocks.clear();
                    for (i, row) in rows.iter().enumerate() {
                        stage.q.extend_from_slice(&qkv[i * 3 * h..i * 3 * h + h]);
                        let ctx = row.pos + 1;
                        let (blocks, _) = kv.table_parts(row.seq);
                        let blk_lo = stage.blocks.len();
                        stage.blocks.extend_from_slice(&blocks[..ctx.div_ceil(bs)]);
                        stage.rows.push((ctx, blk_lo, stage.blocks.len()));
                    }
                    stage.d = d;
                    stage.heads = heads;
                    stage.hidden = hidden;
                    stage.block_size = bs;
                    stage.block_elems = block_elems;
                    stage.layer_base = layer_base;
                    stage.scale = scale;
                },
                m,
                h,
                &mut scratch.attn[..m * h],
            );
        } else {
            for (i, row) in rows.iter().enumerate() {
                let view = kv.layer_view(row.seq, layer);
                let ctx = row.pos + 1;
                let q_s = &scratch.qkv[i * 3 * h..i * 3 * h + h];
                let out_row = &mut scratch.attn[i * h..(i + 1) * h];
                fused_attn_row(
                    &view,
                    ctx,
                    q_s,
                    d,
                    heads,
                    scale,
                    &mut scratch.attn_scr,
                    out_row,
                );
            }
        }

        drop(_prof_attn);

        let _prof = distserve_prof::scope("out_proj_gemm");
        scratch.partial.resize(m * h, 0.0);
        self.pool.gemm(
            &pw.wo,
            &scratch.attn[..m * h],
            m,
            &mut scratch.partial[..m * h],
        );
    }

    /// Batched FFN, `relu(normed · W1) · W2`, as two GEMMs. Reads
    /// `scratch.normed`, leaves the output in `scratch.partial`.
    pub fn ffn_batch(&self, layer: usize, m: usize, scratch: &mut Scratch) {
        let h = self.cfg.hidden;
        let f = self.cfg.ffn;
        let pw = &self.packed.layers[layer];
        scratch.mid.resize(m * f, 0.0);
        self.pool.gemm(
            &pw.w1,
            &scratch.normed[..m * h],
            m,
            &mut scratch.mid[..m * f],
        );
        relu_slice(&mut scratch.mid[..m * f]);
        scratch.partial.resize(m * h, 0.0);
        self.pool.gemm(
            &pw.w2,
            &scratch.mid[..m * f],
            m,
            &mut scratch.partial[..m * h],
        );
    }

    /// Adds the current `scratch.partial` (an attention or FFN output)
    /// into the residual stream.
    pub fn add_partial(&self, m: usize, scratch: &mut Scratch) {
        let h = self.cfg.hidden;
        for (xi, p) in scratch.x[..m * h].iter_mut().zip(&scratch.partial[..m * h]) {
            *xi += p;
        }
    }

    /// Batched forward pass: every row of `rows`
    /// through all layers, final hidden states left in `scratch.x`.
    /// Serves both batched prefill (a whole prompt as one activation
    /// matrix) and fused decode (one row per active sequence); logits are
    /// *not* computed here — call [`Model::logits_batch`] on the rows
    /// that need them.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range tokens/positions or KV append failure.
    pub fn forward_batch(&self, rows: &[BatchRow], kv: &mut PagedKv, scratch: &mut Scratch) {
        if rows.is_empty() {
            scratch.x.clear();
            return;
        }
        let _prof = distserve_prof::scope("forward_batch");
        let m = rows.len();
        {
            let _prof = distserve_prof::scope("embed");
            self.embed_rows(rows, scratch);
        }
        // LayerNorms run unscoped: at ~µs bodies, two extra scope pairs
        // per layer per step would spend the <3% overhead budget on the
        // least interesting kernels. Their time reads as `forward_batch`
        // self-time.
        for layer in 0..self.cfg.layers {
            self.ln1_batch(layer, m, scratch);
            {
                let _prof = distserve_prof::scope("attn");
                self.attn_batch(layer, rows, kv, scratch);
            }
            self.add_partial(m, scratch);
            self.ln2_batch(layer, m, scratch);
            {
                let _prof = distserve_prof::scope("ffn");
                self.ffn_batch(layer, m, scratch);
            }
            self.add_partial(m, scratch);
        }
    }

    /// Logits for the selected rows of the last [`Model::forward_batch`]:
    /// final LayerNorm plus one `(picks × vocab)` GEMM that reads the
    /// `(hidden × vocab)` embedding in place. Results are read back with
    /// [`Scratch::logits_row`]. Prefill only pays for the rows it needs
    /// (each prompt's last position) instead of projecting every token.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the forwarded batch.
    pub fn logits_batch(&self, picks: &[usize], scratch: &mut Scratch) {
        let _prof = distserve_prof::scope("logits");
        let h = self.cfg.hidden;
        let r = picks.len();
        scratch.sel.resize(r * h, 0.0);
        for (j, &i) in picks.iter().enumerate() {
            let src = &scratch.x[i * h..(i + 1) * h];
            scratch.sel[j * h..(j + 1) * h].copy_from_slice(src);
        }
        scratch.normed.resize(r * h, 0.0);
        layer_norm_into(
            &scratch.sel[..r * h],
            r,
            &self.weights.lnf_scale,
            &self.weights.lnf_shift,
            &mut scratch.normed[..r * h],
        );
        let vocab = self.cfg.vocab;
        scratch.logits.resize(r * vocab, 0.0);
        scratch.logits_width = vocab;
        self.pool.gemm(
            &self.packed.embed,
            &scratch.normed[..r * h],
            r,
            &mut scratch.logits[..r * vocab],
        );
    }

    /// Forward pass of one token, returning logits.
    #[must_use]
    pub fn forward_token(&self, seq: SeqId, pos: usize, token: u32, kv: &mut PagedKv) -> Vec<f32> {
        let mut x = self.embed_token(token, pos);
        for layer in 0..self.cfg.layers {
            let xa = self.ln1(layer, &x);
            let attn = self.attn(layer, &xa, seq, pos, kv);
            for (xi, a) in x.iter_mut().zip(&attn) {
                *xi += a;
            }
            let xf = self.ln2(layer, &x);
            let ffn = self.ffn(layer, &xf);
            for (xi, f) in x.iter_mut().zip(&ffn) {
                *xi += f;
            }
        }
        self.logits(&x)
    }

    /// Builds a KV pool sized for `max_tokens` total positions.
    #[must_use]
    pub fn make_kv(&self, max_tokens: usize, block_size: usize) -> PagedKv {
        let blocks = max_tokens.div_ceil(block_size).max(1);
        PagedKv::new(self.cfg.layers, self.cfg.hidden, block_size, blocks)
    }

    /// Greedy generation: prefills `prompt` and emits `max_new` tokens.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or exceeds `max_seq`.
    #[must_use]
    pub fn generate(&self, prompt: &[u32], max_new: usize) -> Vec<u32> {
        self.generate_with(
            prompt,
            max_new,
            &mut crate::sampling::Sampler::new(crate::sampling::Sampling::Greedy, 0),
        )
    }

    /// Generation with an explicit sampling strategy (§5: the frontend
    /// exposes sampling parameters such as temperature).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or exceeds `max_seq`.
    #[must_use]
    pub fn generate_with(
        &self,
        prompt: &[u32],
        max_new: usize,
        sampler: &mut crate::sampling::Sampler,
    ) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(
            prompt.len() + max_new <= self.cfg.max_seq,
            "sequence exceeds max_seq"
        );
        let mut kv = self.make_kv(prompt.len() + max_new, 16);
        kv.register(0);
        let mut logits = Vec::new();
        for (pos, &tok) in prompt.iter().enumerate() {
            logits = self.forward_token(0, pos, tok, &mut kv);
        }
        let mut out = Vec::with_capacity(max_new);
        for pos in prompt.len()..prompt.len() + max_new {
            let next = sampler.sample(&logits);
            out.push(next);
            if out.len() == max_new {
                break;
            }
            logits = self.forward_token(0, pos, next, &mut kv);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        Model::random(&TinyConfig::tiny(), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let a = m.generate(&[1, 2, 3], 8);
        let b = m.generate(&[1, 2, 3], 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&t| (t as usize) < m.config().vocab));
    }

    #[test]
    fn different_prompts_differ() {
        let m = model();
        let a = m.generate(&[1, 2, 3], 8);
        let b = m.generate(&[4, 5, 6], 8);
        assert_ne!(a, b, "distinct prompts should diverge");
    }

    #[test]
    fn kv_reuse_equals_recompute() {
        // Incremental decoding with the cache must equal a from-scratch
        // forward over the whole prefix — the KV cache's core invariant.
        let m = model();
        let seq: Vec<u32> = vec![5, 9, 2, 7];

        // Incremental: feed tokens one at a time into one cache.
        let mut kv = m.make_kv(16, 4);
        kv.register(0);
        let mut logits_inc = Vec::new();
        for (pos, &t) in seq.iter().enumerate() {
            logits_inc = m.forward_token(0, pos, t, &mut kv);
        }

        // From scratch with a fresh cache (same computation order).
        let mut kv2 = m.make_kv(16, 16);
        kv2.register(0);
        let mut logits_fresh = Vec::new();
        for (pos, &t) in seq.iter().enumerate() {
            logits_fresh = m.forward_token(0, pos, t, &mut kv2);
        }
        for (a, b) in logits_inc.iter().zip(&logits_fresh) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_prefill_bit_matches_reference() {
        // The whole prompt as one activation matrix must produce exactly
        // the reference token-at-a-time logits — same float ops in the
        // same order, not merely close. The second shape's projections
        // and embedding end in panels narrower than 32 columns.
        let ragged = TinyConfig {
            layers: 2,
            hidden: 24,
            heads: 4,
            ffn: 72,
            vocab: 100,
            max_seq: 20,
        };
        for m in [model(), Model::random(&ragged, 42)] {
            let prompt = [7u32, 3, 11, 4, 9];

            let mut kv_ref = m.make_kv(32, 4);
            kv_ref.register(0);
            let mut ref_logits = Vec::new();
            for (pos, &t) in prompt.iter().enumerate() {
                ref_logits = m.forward_token(0, pos, t, &mut kv_ref);
            }

            let mut kv_b = m.make_kv(32, 4);
            kv_b.register(0);
            let rows: Vec<BatchRow> = prompt
                .iter()
                .enumerate()
                .map(|(pos, &token)| BatchRow { seq: 0, pos, token })
                .collect();
            let mut scratch = Scratch::new();
            m.forward_batch(&rows, &mut kv_b, &mut scratch);
            m.logits_batch(&[prompt.len() - 1], &mut scratch);
            assert_eq!(scratch.logits_row(0), &ref_logits[..]);
        }
    }

    #[test]
    fn fused_decode_bit_matches_reference() {
        // Several sequences decoding as one stacked batch must equal each
        // sequence decoded alone.
        let m = model();
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[9, 8], &[4, 4, 4, 4]];

        // Reference: each sequence in its own cache, token at a time.
        let mut ref_logits = Vec::new();
        for prompt in prompts {
            let mut kv = m.make_kv(16, 4);
            kv.register(0);
            let mut logits = Vec::new();
            for (pos, &t) in prompt.iter().enumerate() {
                logits = m.forward_token(0, pos, t, &mut kv);
            }
            let next = crate::tensor::argmax(&logits) as u32;
            let logits = m.forward_token(0, prompt.len(), next, &mut kv);
            ref_logits.push(logits);
        }

        // Batched: shared cache, prefill each prompt, then one fused
        // decode step over all three sequences.
        let mut kv = m.make_kv(64, 4);
        let mut scratch = Scratch::new();
        let mut decode_rows = Vec::new();
        for (s, prompt) in prompts.iter().enumerate() {
            let seq = s as SeqId;
            kv.register(seq);
            let rows: Vec<BatchRow> = prompt
                .iter()
                .enumerate()
                .map(|(pos, &token)| BatchRow { seq, pos, token })
                .collect();
            m.forward_batch(&rows, &mut kv, &mut scratch);
            m.logits_batch(&[prompt.len() - 1], &mut scratch);
            let next = crate::tensor::argmax(scratch.logits_row(0)) as u32;
            decode_rows.push(BatchRow {
                seq,
                pos: prompt.len(),
                token: next,
            });
        }
        m.forward_batch(&decode_rows, &mut kv, &mut scratch);
        m.logits_batch(&[0, 1, 2], &mut scratch);
        for (i, expect) in ref_logits.iter().enumerate() {
            assert_eq!(scratch.logits_row(i), &expect[..], "sequence {i}");
        }
    }

    #[test]
    fn fused_attention_matches_materialized_scores() {
        // The fused one-pass kernel against an oracle that materializes
        // the full score matrix first. Sweeping the materialized scores
        // with the same block-online recurrence must match *bitwise*;
        // a classic two-pass softmax must agree to float tolerance.
        let m = model();
        let cfg = m.config().clone();
        let d = cfg.head_dim();
        let h = cfg.hidden;
        let heads = cfg.heads;
        // Block size 4 with context 7: the tail block is partial, so the
        // `take < block_size` paths are exercised.
        let mut kv = m.make_kv(32, 4);
        kv.register(0);
        let prompt = [7u32, 3, 11, 4, 9, 1, 6];
        let rows: Vec<BatchRow> = prompt
            .iter()
            .enumerate()
            .map(|(pos, &token)| BatchRow { seq: 0, pos, token })
            .collect();
        let mut scratch = Scratch::new();
        m.forward_batch(&rows, &mut kv, &mut scratch);

        let ctx = prompt.len();
        let bs = kv.block_size();
        let scale = 1.0 / (d as f32).sqrt();
        let q: Vec<f32> = (0..h)
            .map(|i| ((i * 13 + 5) % 17) as f32 * 0.1 - 0.8)
            .collect();
        let mut fused = vec![0.0f32; h];
        {
            let view = kv.layer_view(0, 0);
            let mut scr = AttnScratch::default();
            fused_attn_row(&view, ctx, &q, d, heads, scale, &mut scr, &mut fused);
        }

        let mut exact = vec![0.0f32; h];
        let mut two_pass = vec![0.0f32; h];
        for head in 0..heads {
            let hl = head * d;
            // Materialize every score for this head.
            let scores: Vec<f32> = (0..ctx)
                .map(|p| {
                    let k_p = kv.key(0, 0, p);
                    let dot: f32 = q[hl..hl + d]
                        .iter()
                        .zip(&k_p[hl..hl + d])
                        .map(|(a, b)| a * b)
                        .sum();
                    dot * scale
                })
                .collect();
            // (a) Block-online sweep over the materialized matrix — the
            // crate's defining association; bit-equal to fused.
            let mut m_run = f32::NEG_INFINITY;
            let mut l_run = 0.0f32;
            for (ci, chunk) in scores.chunks(bs).enumerate() {
                let mut bm = f32::NEG_INFINITY;
                for &s in chunk {
                    bm = bm.max(s);
                }
                let m_new = m_run.max(bm);
                let c = exp_fast(m_run - m_new);
                l_run *= c;
                for o in exact[hl..hl + d].iter_mut() {
                    *o *= c;
                }
                for (off, &s) in chunk.iter().enumerate() {
                    let e = exp_fast(s - m_new);
                    l_run += e;
                    let v_p = &kv.value(0, 0, ci * bs + off)[hl..hl + d];
                    for (o, &vv) in exact[hl..hl + d].iter_mut().zip(v_p) {
                        *o += e * vv;
                    }
                }
                m_run = m_new;
            }
            for o in exact[hl..hl + d].iter_mut() {
                *o /= l_run;
            }
            // (b) Classic two-pass softmax over the same scores.
            let max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let exps: Vec<f32> = scores.iter().map(|&s| exp_fast(s - max)).collect();
            let denom: f32 = exps.iter().sum();
            for (p, &e) in exps.iter().enumerate() {
                let w = e / denom;
                let v_p = &kv.value(0, 0, p)[hl..hl + d];
                for (o, &vv) in two_pass[hl..hl + d].iter_mut().zip(v_p) {
                    *o += w * vv;
                }
            }
        }
        assert_eq!(fused, exact, "block-online oracle must match bitwise");
        for (a, b) in fused.iter().zip(&two_pass) {
            assert!((a - b).abs() < 1e-5, "two-pass softmax: {a} vs {b}");
        }
    }

    #[test]
    fn f32_kernels_share_reference_weights() {
        // The batch tier's bf16 projections read the reference tier's
        // weight storage: one allocation per projection, not two. The
        // tied-embedding logits kernel is never quantized and reads the
        // embedding in place.
        for precision in [Precision::F32, Precision::Int8] {
            let m = Model::random_with(
                &TinyConfig::tiny(),
                42,
                ComputeConfig {
                    precision,
                    threads: 1,
                },
            );
            let Kernel::F32(logits) = &m.packed.embed else {
                panic!("{precision:?}: the logits kernel is unquantized");
            };
            assert!(Arc::ptr_eq(logits.storage(), &m.weights.embed.data));
            if precision != Precision::F32 {
                continue;
            }
            for (packed, lw) in m.packed.layers.iter().zip(&m.weights.layers) {
                for (kernel, w) in [
                    (&packed.wqkv, &lw.wqkv),
                    (&packed.wo, &lw.wo),
                    (&packed.w1, &lw.w1),
                    (&packed.w2, &lw.w2),
                ] {
                    let Kernel::F32(p) = kernel else {
                        panic!("an f32 model packs bf16 kernels");
                    };
                    assert!(Arc::ptr_eq(p.storage(), &w.data));
                }
            }
        }
    }

    #[test]
    fn threaded_batch_bit_matches_serial() {
        // The same batched forward on a 1-lane and a 4-lane model must
        // produce bit-identical hidden states and logits: GEMM strips and
        // attention row splits never change any accumulation chain.
        let cfg = TinyConfig::small();
        let serial = Model::random_with(
            &cfg,
            42,
            ComputeConfig {
                precision: Precision::F32,
                threads: 1,
            },
        );
        let threaded = Model::random_with(
            &cfg,
            42,
            ComputeConfig {
                precision: Precision::F32,
                threads: 4,
            },
        );
        assert_eq!(threaded.threads(), 4);
        // 32 rows of growing context: big enough that both the GEMM and
        // the attention dispatch actually go parallel on the 4-lane pool.
        let rows: Vec<BatchRow> = (0..32)
            .map(|pos| BatchRow {
                seq: 0,
                pos,
                token: (pos as u32 * 7 + 3) % cfg.vocab as u32,
            })
            .collect();
        let mut out = Vec::new();
        for m in [&serial, &threaded] {
            let mut kv = m.make_kv(64, 16);
            kv.register(0);
            let mut scratch = Scratch::new();
            m.forward_batch(&rows, &mut kv, &mut scratch);
            m.logits_batch(&[rows.len() - 1], &mut scratch);
            out.push((scratch.x.clone(), scratch.logits_row(0).to_vec()));
        }
        assert_eq!(out[0].0, out[1].0, "hidden states");
        assert_eq!(out[0].1, out[1].1, "logits");
    }

    #[test]
    fn int8_batch_close_to_f32_and_thread_deterministic() {
        // Int8 is bounded-error vs. f32 (loose tolerance on logits) but
        // fully deterministic: 1-lane and 4-lane int8 runs are bit-equal.
        let cfg = TinyConfig::tiny();
        let prompt = [7u32, 3, 11, 4, 9];
        let rows: Vec<BatchRow> = prompt
            .iter()
            .enumerate()
            .map(|(pos, &token)| BatchRow { seq: 0, pos, token })
            .collect();
        let run = |compute: ComputeConfig| {
            let m = Model::random_with(&cfg, 42, compute);
            let mut kv = m.make_kv(32, 16);
            kv.register(0);
            let mut scratch = Scratch::new();
            m.forward_batch(&rows, &mut kv, &mut scratch);
            m.logits_batch(&[prompt.len() - 1], &mut scratch);
            scratch.logits_row(0).to_vec()
        };
        let f32_logits = run(ComputeConfig::default());
        let q1 = run(ComputeConfig {
            precision: Precision::Int8,
            threads: 1,
        });
        let q4 = run(ComputeConfig {
            precision: Precision::Int8,
            threads: 4,
        });
        assert_eq!(q1, q4, "int8 must be thread-count invariant");
        let mut max_diff = 0.0f32;
        for (a, b) in f32_logits.iter().zip(&q1) {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff > 0.0, "int8 should actually differ from f32");
        assert!(max_diff < 0.05, "int8 drift too large: {max_diff}");
    }

    #[test]
    fn attention_attends_to_context() {
        // The logits at the last position must depend on earlier tokens,
        // not just the final one. Which token wins is luck of the random
        // weights, so compare the logits: these two contexts move them by
        // 0.37-0.88 (on a ~2 logit range) at seeds 1, 7, 42 and 2024.
        let m = model();
        let last_logits = |prompt: &[u32]| {
            let mut kv = m.make_kv(prompt.len(), 16);
            kv.register(0);
            let mut logits = Vec::new();
            for (pos, &t) in prompt.iter().enumerate() {
                logits = m.forward_token(0, pos, t, &mut kv);
            }
            logits
        };
        let (a, b) = (last_logits(&[1, 2, 9]), last_logits(&[7, 2, 9]));
        let gap = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        assert!(gap > 0.05, "max |Δ logit| {gap}");
    }

    #[test]
    #[should_panic(expected = "max_seq")]
    fn overlong_generation_rejected() {
        let m = model();
        let prompt = vec![0u32; 200];
        let _ = m.generate(&prompt, 100); // 300 > max_seq 256.
    }
}
