//! Model configuration and deterministic random weights.

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
///
/// [`Weights::random`] draws each matrix from its own seekable stream:
/// matrix `k` (in field order: `embed`, `pos`, then each layer's `wqkv`,
/// `wo`, `w1`, `w2`) is keyed by output `k + 1` of a SplitMix64
/// generator seeded with the model seed, and its element `i` in storage
/// order is output `i + 1` of a SplitMix64 generator seeded with that
/// key, taken to a 24-bit uniform in ±scale and rounded once to bf16
/// (no f32 copy exists). Any element is O(1) to draw, so the fill can
/// split anywhere and run on several lanes with bit-identical results.
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

/// SplitMix64's stream increment (2^64 / golden ratio).
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Elements each lane must get before the weight fill splits across
/// lanes; below it a thread spawn costs more than it saves, so
/// `TinyConfig::tiny()` and `small()` fill on one lane.
const MIN_LANE_ELEMS: usize = 1 << 18;

/// SplitMix64's output function: the weights' streams and the
/// sampler's (`crate::sampling`) both step a state by [`GAMMA`] and mix
/// it with this.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Output `n` (from 1) of a SplitMix64 generator seeded with `key`.
fn splitmix_at(key: u64, n: u64) -> u64 {
    splitmix(key.wrapping_add(n.wrapping_mul(GAMMA)))
}

/// A 64-bit draw as a weight: its top 24 bits as a uniform in `[0, 1)`,
/// mapped to `[-scale, scale)` and rounded once to bf16.
fn weight(bits: u64, scale: f32) -> Bf16 {
    let u = (bits >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
    Bf16::from_f32((u * 2.0 - 1.0) * scale)
}

/// One lane's share of one matrix: elements `first..` of the matrix
/// keyed `key`, as bf16 bit patterns.
struct Run<'a> {
    key: u64,
    scale: f32,
    first: u64,
    out: &'a mut [u16],
}

impl Run<'_> {
    /// Seeks the matrix's stream to element `first`, then steps it once
    /// per element: a branch-free loop that vectorizes.
    fn fill(self) {
        let mut state = self.key.wrapping_add(self.first.wrapping_mul(GAMMA));
        for v in self.out {
            state = state.wrapping_add(GAMMA);
            *v = weight(splitmix(state), self.scale).to_bits();
        }
    }
}

impl Weights {
    /// Deterministic pseudo-random weights, scaled like standard
    /// transformer initialization (`±0.02 / sqrt(fan_in)`-ish) so
    /// activations stay well-conditioned. Each element is drawn from its
    /// matrix's seekable stream (see [`Weights`]) and rounded once to
    /// bf16 in place; no f32 copy is ever materialized.
    #[must_use]
    pub fn random(cfg: &TinyConfig, seed: u64) -> Self {
        Self::random_split(cfg, seed, 1)
    }

    /// [`Weights::random`], filled on up to `lanes` threads (the calling
    /// thread included): as many as give each at least `MIN_LANE_ELEMS`
    /// elements. The weights do not depend on `lanes`.
    pub(crate) fn random_on(cfg: &TinyConfig, seed: u64, lanes: usize) -> Self {
        let lanes = lanes.min(cfg.param_count() / MIN_LANE_ELEMS).max(1);
        Self::random_split(cfg, seed, lanes)
    }

    /// The fill behind both constructors, on exactly `lanes` threads:
    /// with the matrices' elements laid end to end, lane `j` draws the
    /// `j`-th run of `ceil(total / lanes)` (the last may be shorter).
    fn random_split(cfg: &TinyConfig, seed: u64, lanes: usize) -> Self {
        let h = cfg.hidden;
        let att_scale = 0.5 / (h as f32).sqrt();
        let ffn_scale = 0.5 / (cfg.ffn as f32).sqrt();
        // (rows, cols, scale) of every matrix, in key order.
        let mut shapes = vec![(h, cfg.vocab, 0.1), (cfg.max_seq, h, 0.05)];
        for _ in 0..cfg.layers {
            shapes.extend([
                (h, 3 * h, att_scale),
                (h, h, att_scale),
                (h, cfg.ffn, att_scale),
                (cfg.ffn, h, ffn_scale),
            ]);
        }
        // Raw bits, so each matrix is allocated as zeroed memory that the
        // OS maps in only as a lane first writes it: the page faults
        // split across lanes like the draw.
        let mut data: Vec<Vec<u16>> = shapes
            .iter()
            .map(|&(rows, cols, _)| vec![0; rows * cols])
            .collect();

        let total: usize = data.iter().map(Vec::len).sum();
        let per_lane = total.div_ceil(lanes);
        let mut work: Vec<Vec<Run>> = (0..lanes).map(|_| Vec::new()).collect();
        let (mut lane, mut room) = (0, per_lane);
        for (k, (m, &(_, _, scale))) in data.iter_mut().zip(&shapes).enumerate() {
            let key = splitmix_at(seed, k as u64 + 1);
            let (mut rest, mut first) = (m.as_mut_slice(), 0);
            while !rest.is_empty() {
                if room == 0 {
                    (lane, room) = (lane + 1, per_lane);
                }
                let (out, tail) = rest.split_at_mut(room.min(rest.len()));
                room -= out.len();
                let len = out.len() as u64;
                work[lane].push(Run {
                    key,
                    scale,
                    first,
                    out,
                });
                (rest, first) = (tail, first + len);
            }
        }
        std::thread::scope(|s| {
            let mut work = work.into_iter();
            let own = work.next().expect("at least one lane");
            for runs in work {
                s.spawn(|| runs.into_iter().for_each(Run::fill));
            }
            own.into_iter().for_each(Run::fill);
        });

        let mut mats = data.into_iter().zip(shapes).map(|(m, (rows, cols, _))| {
            // Reuses the allocation: `from_bits` is the identity.
            Matrix::from_vec(rows, cols, m.into_iter().map(Bf16::from_bits).collect())
        });
        let mut next = || mats.next().expect("one matrix per shape");
        let (embed, pos) = (next(), next());
        let layers = (0..cfg.layers)
            .map(|_| LayerWeights {
                wqkv: next(),
                wo: next(),
                w1: next(),
                w2: next(),
                ln1_scale: vec![1.0; h],
                ln1_shift: vec![0.0; h],
                ln2_scale: vec![1.0; h],
                ln2_shift: vec![0.0; h],
            })
            .collect();
        Weights {
            embed,
            pos,
            layers,
            lnf_scale: vec![1.0; h],
            lnf_shift: vec![0.0; h],
        }
    }
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

    /// SplitMix64 stepped one output at a time, as published.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Every matrix, in key order.
    fn matrices(w: &Weights) -> Vec<&Matrix<Bf16>> {
        let mut out = vec![&w.embed, &w.pos];
        for l in &w.layers {
            out.extend([&l.wqkv, &l.wo, &l.w1, &l.w2]);
        }
        out
    }

    #[test]
    fn splitmix64_matches_published_outputs() {
        let mut g = SplitMix64(1_234_567);
        let first: Vec<u64> = (0..3).map(|_| g.next()).collect();
        assert_eq!(
            first,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
        for n in 1..=3 {
            assert_eq!(splitmix_at(1_234_567, n), first[n as usize - 1]);
        }
    }

    #[test]
    fn every_element_is_its_stream_output() {
        // Element i of matrix k is output i + 1 of the stream keyed by
        // output k + 1 of the seed's stream, stepped here sequentially.
        let cfg = TinyConfig::tiny();
        let seed = 42;
        let w = Weights::random(&cfg, seed);
        let att = 0.5 / (cfg.hidden as f32).sqrt();
        let ffn = 0.5 / (cfg.ffn as f32).sqrt();
        let mut keys = SplitMix64(seed);
        let keys: Vec<u64> = (0..2 + 4 * cfg.layers).map(|_| keys.next()).collect();
        // embed, pos, layer 0's w2, layer 1's wqkv.
        for (k, scale) in [(0, 0.1), (1, 0.05), (5, ffn), (6, att)] {
            let m = matrices(&w)[k];
            let mut g = SplitMix64(keys[k]);
            // Rounding is monotonic, so |x| ≤ scale bounds the stored
            // value by scale rounded to bf16.
            let bound = Bf16::from_f32(scale).to_f32();
            for (i, v) in m.data.iter().enumerate() {
                let want = weight(g.next(), scale);
                assert_eq!(v.to_bits(), want.to_bits(), "matrix {k} element {i}");
                assert!(v.to_f32().abs() <= bound, "matrix {k} element {i}");
            }
        }
    }

    #[test]
    fn weights_are_lane_invariant() {
        // tiny() has 36,864 weight elements: 2 lanes cut inside layer 0's
        // w1, 3 lanes only at matrix ends, and 7 lanes cut runs of 5,267
        // (the last 5,262) inside matrices.
        let cfg = TinyConfig::tiny();
        let one = Weights::random(&cfg, 42);
        for lanes in [1, 2, 3, 7] {
            let many = Weights::random_split(&cfg, 42, lanes);
            for (a, b) in matrices(&one).into_iter().zip(matrices(&many)) {
                assert_eq!((a.rows, a.cols), (b.rows, b.cols));
                assert_eq!(a.data, b.data, "{lanes} lanes");
            }
        }
    }

    #[test]
    fn param_count_sane() {
        let cfg = TinyConfig::tiny();
        // 2 layers × (4·32² + 2·32·128 + small) + embeddings.
        let p = cfg.param_count();
        assert!(p > 30_000 && p < 80_000, "params {p}");
    }
}
