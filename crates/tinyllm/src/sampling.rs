//! Token sampling strategies.
//!
//! The paper's frontend "supports OpenAI API compatible interface where
//! clients can specify the sampling parameters like maximum output length
//! and temperature" (§5). This module provides the sampling half:
//! deterministic greedy decoding and seeded temperature / top-k sampling
//! over real logits.

use crate::model::{splitmix, GAMMA};
use crate::tensor::{argmax, softmax};

/// A sampling strategy for picking the next token from logits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Always the highest-logit token (deterministic).
    Greedy,
    /// Softmax sampling at `temperature` over the `k` highest logits,
    /// driven by a per-request seeded generator.
    TopK {
        /// Number of candidates kept.
        k: usize,
        /// Softmax temperature (>0; lower is sharper).
        temperature: f32,
    },
}

/// Deterministic per-request sampler state.
#[derive(Debug, Clone)]
pub struct Sampler {
    strategy: Sampling,
    state: u64,
}

impl Sampler {
    /// Creates a sampler; `seed` only matters for stochastic strategies.
    ///
    /// # Panics
    ///
    /// Panics if a `TopK` strategy has `k == 0` or a non-positive
    /// temperature.
    #[must_use]
    pub fn new(strategy: Sampling, seed: u64) -> Self {
        if let Sampling::TopK { k, temperature } = strategy {
            assert!(k > 0, "top-k needs k >= 1");
            assert!(temperature > 0.0, "temperature must be positive");
        }
        // Mixing the seed keeps streams apart: a linear start such as
        // `seed·γ` would make seed `s + k` replay seed `s`'s stream `k`
        // draws later.
        Sampler {
            strategy,
            state: splitmix(seed),
        }
    }

    /// SplitMix64 step for the sampler's private stream.
    fn next_uniform(&mut self) -> f32 {
        self.state = self.state.wrapping_add(GAMMA);
        (splitmix(self.state) >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Picks the next token id from `logits`.
    pub fn sample(&mut self, logits: &[f32]) -> u32 {
        match self.strategy {
            Sampling::Greedy => argmax(logits) as u32,
            Sampling::TopK { k, temperature } => {
                // Collect the k best (index, logit) pairs.
                let mut indexed: Vec<(usize, f32)> = logits.iter().copied().enumerate().collect();
                indexed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                indexed.truncate(k.min(indexed.len()));
                let mut probs: Vec<f32> = indexed.iter().map(|(_, l)| l / temperature).collect();
                softmax(&mut probs);
                let u = self.next_uniform();
                let mut acc = 0.0;
                for ((idx, _), p) in indexed.iter().zip(&probs) {
                    acc += p;
                    if u < acc {
                        return *idx as u32;
                    }
                }
                indexed.last().expect("k >= 1").0 as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits() -> Vec<f32> {
        vec![0.1, 2.0, -1.0, 1.9, 0.0]
    }

    #[test]
    fn greedy_picks_max() {
        let mut s = Sampler::new(Sampling::Greedy, 0);
        assert_eq!(s.sample(&logits()), 1);
    }

    #[test]
    fn top1_equals_greedy() {
        let mut s = Sampler::new(
            Sampling::TopK {
                k: 1,
                temperature: 1.0,
            },
            7,
        );
        for _ in 0..20 {
            assert_eq!(s.sample(&logits()), 1);
        }
    }

    #[test]
    fn topk_only_emits_top_candidates() {
        let mut s = Sampler::new(
            Sampling::TopK {
                k: 2,
                temperature: 1.0,
            },
            3,
        );
        for _ in 0..200 {
            let t = s.sample(&logits());
            assert!(t == 1 || t == 3, "sampled {t} outside top-2");
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let draw = |seed| {
            let mut s = Sampler::new(
                Sampling::TopK {
                    k: 3,
                    temperature: 0.8,
                },
                seed,
            );
            (0..32).map(|_| s.sample(&logits())).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn nearby_seeds_draw_unrelated_streams() {
        let draw = |seed| {
            let mut s = Sampler::new(
                Sampling::TopK {
                    k: 8,
                    temperature: 1.0,
                },
                seed,
            );
            (0..64).map(|_| s.sample(&[0.0; 8])).collect::<Vec<_>>()
        };
        for (a, b) in [(1, 3), (10, 12)] {
            let (da, db) = (draw(a), draw(b));
            for shift in 1..=8 {
                assert_ne!(
                    da[shift..],
                    db[..64 - shift],
                    "seed {b} replays seed {a} shifted by {shift}"
                );
                assert_ne!(
                    db[shift..],
                    da[..64 - shift],
                    "seed {a} replays seed {b} shifted by {shift}"
                );
            }
        }
    }

    #[test]
    fn low_temperature_sharpens() {
        // At very low temperature, top-k behaves like greedy.
        let mut s = Sampler::new(
            Sampling::TopK {
                k: 5,
                temperature: 0.01,
            },
            5,
        );
        for _ in 0..50 {
            assert_eq!(s.sample(&logits()), 1);
        }
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = Sampler::new(
            Sampling::TopK {
                k: 0,
                temperature: 1.0,
            },
            0,
        );
    }
}
