//! Model configuration and deterministic random weights.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::tensor::{Bf16, Matrix};

/// Numeric precision of the packed weight kernels.
///
/// `F32` is the default, bit-exact tier: f32 arithmetic over the stored
/// bf16 [`Weights`], so batched outputs equal the token-at-a-time
/// reference exactly. `Int8` quantizes the four big projection weights
/// per output channel at pack time ([`crate::tensor::QuantMatrix`]) and
/// dequantizes in-register inside the GEMM microkernel; embeddings,
/// LayerNorms, and the tied-embedding logits projection are never
/// quantized (the logits GEMM reads [`Weights::embed`] in place at
/// either precision). Int8 outputs carry the documented per-channel error bound
/// relative to the reference — bounded, not bit-exact — but remain fully
/// deterministic (threaded output is bit-identical to serial at either
/// precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// f32 arithmetic over bf16 storage; bit-exact against the reference
    /// tier.
    #[default]
    F32,
    /// Int8 per-output-channel weights (bounded error vs. the reference).
    Int8,
}

/// How a model executes: weight precision plus worker-pool width.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeConfig {
    /// Weight precision for the packed GEMM kernels.
    pub precision: Precision,
    /// Worker-pool lanes (threads, including the caller's). `0` means
    /// auto: `TINYLLM_THREADS` if set and positive, else the machine's
    /// available parallelism.
    pub threads: usize,
}

impl ComputeConfig {
    /// Resolves `threads == 0` to the environment's answer.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(v) = std::env::var("TINYLLM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Shape of a tinyllm transformer (OPT-style decoder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TinyConfig {
    /// Transformer layers.
    pub layers: usize,
    /// Hidden size (must divide evenly by `heads`).
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN intermediate size.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (learned positions).
    pub max_seq: usize,
}

impl TinyConfig {
    /// A test-sized model: 2 layers, 32 hidden, 4 heads.
    #[must_use]
    pub fn tiny() -> Self {
        TinyConfig {
            layers: 2,
            hidden: 32,
            heads: 4,
            ffn: 128,
            vocab: 128,
            max_seq: 256,
        }
    }

    /// A small-but-nontrivial model for examples and profiling.
    #[must_use]
    pub fn small() -> Self {
        TinyConfig {
            layers: 4,
            hidden: 64,
            heads: 8,
            ffn: 256,
            vocab: 512,
            max_seq: 512,
        }
    }

    /// Per-head dimension.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        assert_eq!(self.hidden % self.heads, 0, "hidden % heads != 0");
        self.hidden / self.heads
    }

    /// Approximate parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        let h = self.hidden;
        let per_layer = 4 * h * h + 2 * h * self.ffn + 4 * h + self.ffn + h;
        self.layers * per_layer + self.vocab * h + self.max_seq * h
    }
}

/// Weights of one transformer layer: bf16 projections, f32 LayerNorm
/// parameters.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Fused QKV projection, `(hidden × 3·hidden)`.
    pub wqkv: Matrix<Bf16>,
    /// Attention output projection, `(hidden × hidden)`.
    pub wo: Matrix<Bf16>,
    /// FFN up projection, `(hidden × ffn)`.
    pub w1: Matrix<Bf16>,
    /// FFN down projection, `(ffn × hidden)`.
    pub w2: Matrix<Bf16>,
    /// Pre-attention LayerNorm scale.
    pub ln1_scale: Vec<f32>,
    /// Pre-attention LayerNorm shift.
    pub ln1_shift: Vec<f32>,
    /// Pre-FFN LayerNorm scale.
    pub ln2_scale: Vec<f32>,
    /// Pre-FFN LayerNorm shift.
    pub ln2_shift: Vec<f32>,
}

/// Full model weights. Every matrix is stored once, as bf16; both
/// compute tiers widen the stored values to f32.
#[derive(Debug, Clone)]
pub struct Weights {
    /// Token embeddings, `(hidden × vocab)`: column `t` is token `t`'s
    /// vector. Input-major like every projection, so the tied-embedding
    /// logits GEMM reads this storage in place.
    pub embed: Matrix<Bf16>,
    /// Learned position embeddings, `(max_seq × hidden)`.
    pub pos: Matrix<Bf16>,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final LayerNorm scale.
    pub lnf_scale: Vec<f32>,
    /// Final LayerNorm shift.
    pub lnf_shift: Vec<f32>,
}

impl Weights {
    /// Deterministic pseudo-random weights, scaled like standard
    /// transformer initialization (`±0.02 / sqrt(fan_in)`-ish) so
    /// activations stay well-conditioned. Each f32 draw is rounded to
    /// bf16 as its matrix is filled; no f32 copy is ever materialized.
    #[must_use]
    pub fn random(cfg: &TinyConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = cfg.hidden;
        let att_scale = 0.5 / (h as f32).sqrt();
        let ffn_scale = 0.5 / (cfg.ffn as f32).sqrt();
        let layers = (0..cfg.layers)
            .map(|_| LayerWeights {
                wqkv: random_matrix(&mut rng, h, 3 * h, att_scale),
                wo: random_matrix(&mut rng, h, h, att_scale),
                w1: random_matrix(&mut rng, h, cfg.ffn, att_scale),
                w2: random_matrix(&mut rng, cfg.ffn, h, ffn_scale),
                ln1_scale: vec![1.0; h],
                ln1_shift: vec![0.0; h],
                ln2_scale: vec![1.0; h],
                ln2_shift: vec![0.0; h],
            })
            .collect();
        Weights {
            embed: random_matrix_transposed(&mut rng, cfg.vocab, h, 0.1),
            pos: random_matrix(&mut rng, cfg.max_seq, h, 0.05),
            layers,
            lnf_scale: vec![1.0; h],
            lnf_shift: vec![0.0; h],
        }
    }
}

fn draw(rng: &mut StdRng, scale: f32) -> f32 {
    (rng.gen::<f32>() * 2.0 - 1.0) * scale
}

/// A `(rows × cols)` bf16 matrix drawn in row-major order.
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Matrix<Bf16> {
    let data = (0..rows * cols)
        .map(|_| Bf16::from_f32(draw(rng, scale)))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The transpose `(cols × rows)` of the matrix [`random_matrix`] would
/// draw with the same arguments: same values, same draw order.
fn random_matrix_transposed(
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    scale: f32,
) -> Matrix<Bf16> {
    // Tiled: freeing a full-size temporary would raise glibc's mmap
    // threshold and keep later model buffers resident, and a strided
    // per-element fill is ~3× slower than one contiguous run per row.
    const TILE: usize = 16;
    let mut data = vec![Bf16::default(); rows * cols];
    let mut tile = Vec::with_capacity(TILE * cols);
    for r0 in (0..rows).step_by(TILE) {
        let take = TILE.min(rows - r0);
        tile.clear();
        tile.extend((0..take * cols).map(|_| Bf16::from_f32(draw(rng, scale))));
        for (c, run) in data.chunks_exact_mut(rows).enumerate() {
            for (i, v) in run[r0..r0 + take].iter_mut().enumerate() {
                *v = tile[i * cols + c];
            }
        }
    }
    Matrix::from_vec(cols, rows, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dim_checks() {
        assert_eq!(TinyConfig::tiny().head_dim(), 8);
        assert_eq!(TinyConfig::small().head_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "hidden % heads")]
    fn bad_head_split_panics() {
        let cfg = TinyConfig {
            heads: 5,
            ..TinyConfig::tiny()
        };
        let _ = cfg.head_dim();
    }

    #[test]
    fn weights_deterministic_by_seed() {
        let cfg = TinyConfig::tiny();
        let a = Weights::random(&cfg, 7);
        let b = Weights::random(&cfg, 7);
        let c = Weights::random(&cfg, 8);
        assert_eq!(a.embed.data, b.embed.data);
        assert_ne!(a.embed.data, c.embed.data);
    }

    #[test]
    fn weight_shapes() {
        let cfg = TinyConfig::tiny();
        let w = Weights::random(&cfg, 1);
        assert_eq!(w.layers.len(), cfg.layers);
        assert_eq!(w.layers[0].wqkv.cols, 3 * cfg.hidden);
        assert_eq!(w.layers[0].w1.cols, cfg.ffn);
        assert_eq!(w.layers[0].w2.rows, cfg.ffn);
        assert_eq!((w.embed.rows, w.embed.cols), (cfg.hidden, cfg.vocab));
        assert_eq!(w.pos.rows, cfg.max_seq);
    }

    #[test]
    fn transposed_fill_draws_the_row_major_sequence() {
        // 37 rows: two full tiles and a partial one. Same values, same
        // draw order, and the generator ends in the same state.
        let (rows, cols) = (37, 5);
        let mut ra = StdRng::seed_from_u64(3);
        let mut rt = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut ra, rows, cols, 0.1);
        let t = random_matrix_transposed(&mut rt, rows, cols, 0.1);
        assert_eq!((t.rows, t.cols), (cols, rows));
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(t.row(c)[r].to_bits(), a.row(r)[c].to_bits());
            }
        }
        assert_eq!(draw(&mut ra, 1.0).to_bits(), draw(&mut rt, 1.0).to_bits());
    }

    #[test]
    fn param_count_sane() {
        let cfg = TinyConfig::tiny();
        // 2 layers × (4·32² + 2·32·128 + small) + embeddings.
        let p = cfg.param_count();
        assert!(p > 30_000 && p < 80_000, "params {p}");
    }
}
