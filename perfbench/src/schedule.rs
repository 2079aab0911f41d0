//! Seeded request schedules for the real-engine workloads.
//!
//! A schedule is generated once per run from the `--seed` argument and
//! normalized to an offered rate of exactly 1 request/s; each rung of a
//! rate ladder replays the same schedule with its arrival times divided
//! by the rung's rate. Regenerating the traffic per rate instead made
//! multi-turn attainment non-monotone in rate (0.49 at 7 rps, 0.97 at
//! 8 rps): every rate then saw a different session mix.
//!
//! Lengths and inter-arrival gaps are drawn by stratified sampling, in
//! blocks of eight requests: each block takes one draw from each eighth
//! of the distribution, in random order. The marginal shapes are the
//! dataset's and the exponential's; only the sampling noise of a short
//! run's quantiles shrinks, so latency percentiles and goodput reflect
//! the server rather than which prompts a seed happened to draw.

use std::cell::Cell;

use distserve_simcore::SimRng;
use distserve_workload::sessions::SESSION_GROUP_BASE;
use distserve_workload::{ChatConfig, ChatSessionStream, Dataset, LengthSampler};

/// Learned positions of the server's model: prompt + output must fit.
pub const MAX_SEQ: usize = 1024;
/// Vocabulary of the server's model.
pub const VOCAB: u32 = 4096;
/// Chat prompts: ShareGPT halved, at most this long.
pub const CHAT_MAX_PROMPT: u32 = 512;
/// Chat outputs: ShareGPT halved, at most this long.
pub const CHAT_MAX_OUTPUT: u32 = 256;
/// Shared system prompt opening every multi-turn conversation.
pub const SYSTEM_PROMPT_TOKENS: u32 = 192;
/// Requests per stratified block.
const BLOCK: usize = 8;
/// Pool draws per stratum in stratified length sampling.
const STRATUM: usize = 8;

/// One request of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request id (also the engine's sequence id within one server).
    pub id: u64,
    /// Arrival at an offered rate of 1 request/s, in milliseconds
    /// (integral so schedules compare exactly).
    pub at_ms: u64,
    /// Prompt tokens.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
    /// Prefix lineage for cache-affine routing (0 = none shared).
    pub group: u64,
}

impl Request {
    /// Arrival time, seconds, when the schedule is offered at `rate`.
    #[must_use]
    pub fn due_s(&self, rate: f64) -> f64 {
        self.at_ms as f64 / 1000.0 / rate
    }
}

/// A seeded request schedule (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

/// Deterministic token `pos` of the content stream `salt`.
fn token(salt: u64, pos: usize) -> u32 {
    let mut z = salt ^ (pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1 + (z % u64::from(VOCAB - 1)) as u32
}

fn mix(seed: u64, tag: u64) -> u64 {
    u64::from(token(seed, tag as usize)) << 32 ^ seed.rotate_left(17) ^ tag
}

/// Stratified draw of `n` length pairs from `sampler`. Every block of
/// [`BLOCK`] consecutive pairs takes one prompt length from each of
/// `BLOCK` equal-probability strata of a pooled draw, and independently
/// one output length from each output stratum, paired in random order
/// (the dataset draws the two independently). Every block-aligned prefix
/// of a schedule therefore has the dataset's length quantiles.
fn stratified_lengths(sampler: &dyn LengthSampler, n: usize, rng: &mut SimRng) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let pool: Vec<(u32, u32)> = (0..BLOCK * STRATUM).map(|_| sampler.sample(rng)).collect();
        let mut pick = |mut xs: Vec<u32>| {
            xs.sort_unstable();
            let mut strata: Vec<u32> = xs
                .chunks(STRATUM)
                .map(|c| c[rng.below(c.len() as u64) as usize])
                .collect();
            shuffle(&mut strata, rng);
            strata
        };
        let inputs = pick(pool.iter().map(|p| p.0).collect());
        let outputs = pick(pool.iter().map(|p| p.1).collect());
        out.extend(inputs.into_iter().zip(outputs));
    }
    out.truncate(n);
    out
}

fn shuffle<T>(xs: &mut [T], rng: &mut SimRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// Exponential inter-arrival gaps (mean 1), stratified per block like
/// [`stratified_lengths`].
fn poisson_gaps(n: usize, rng: &mut SimRng) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<f64> = (0..BLOCK)
            .map(|i| {
                -(1.0 - (i as f64 + rng.uniform()) / BLOCK as f64)
                    .max(1e-12)
                    .ln()
            })
            .collect();
        shuffle(&mut block, rng);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// Rescales arrival offsets so the schedule's observed rate is exactly
/// 1 request/s (first arrival at 0).
fn normalize(times: &[f64]) -> Vec<u64> {
    let first = times.first().copied().unwrap_or(0.0);
    let span = times.last().copied().unwrap_or(0.0) - first;
    let scale = if span > 0.0 {
        (times.len() - 1) as f64 / span
    } else {
        1.0
    };
    times
        .iter()
        .map(|t| ((t - first) * scale * 1000.0).round() as u64)
        .collect()
}

/// A length sampler that hands out a fixed, pre-drawn list in order.
struct PoolSampler {
    pairs: Vec<(u32, u32)>,
    next: Cell<usize>,
}

impl LengthSampler for PoolSampler {
    fn sample(&self, _rng: &mut SimRng) -> (u32, u32) {
        let i = self.next.get();
        self.next.set(i + 1);
        self.pairs[i % self.pairs.len()]
    }

    fn name(&self) -> &str {
        "stratified"
    }
}

impl Schedule {
    /// `chat`: Poisson arrivals, ShareGPT lengths halved (prompt ≤ 512,
    /// output ≤ 256), and prompt tokens unique to each request, so a
    /// prefix cache never hits.
    #[must_use]
    pub fn chat(seed: u64, n: usize) -> Schedule {
        let mut rng = SimRng::seed(seed).split("perfbench-chat");
        let sampler = Dataset::ShareGpt.sampler();
        let lengths = stratified_lengths(sampler.as_ref(), n, &mut rng);
        let gaps = poisson_gaps(n, &mut rng);
        let mut t = 0.0;
        let times: Vec<f64> = gaps
            .iter()
            .map(|g| {
                t += g;
                t
            })
            .collect();
        let requests = normalize(&times)
            .into_iter()
            .zip(lengths)
            .enumerate()
            .map(|(i, (at_ms, (input, output)))| {
                let prompt_len = (input / 2).clamp(1, CHAT_MAX_PROMPT) as usize;
                let max_new = (output / 2).clamp(1, CHAT_MAX_OUTPUT) as usize;
                let salt = mix(seed, i as u64 + 1);
                Request {
                    id: i as u64,
                    at_ms,
                    prompt: (0..prompt_len).map(|p| token(salt, p)).collect(),
                    max_new,
                    group: 0,
                }
            })
            .collect();
        Schedule { requests }
    }

    /// `multiturn`: [`ChatSessionStream`] conversations (192-token system
    /// prompt, ~4 turns, 10% branches, fresh turns at ShareGPT ÷ 4). Each
    /// turn's prompt tokens come from its conversation's content, so a
    /// continuation re-sends exactly the previous turn's prompt and reply;
    /// a branch keeps the history up to its fork point and diverges after
    /// it. Prompts are clipped so prompt + output ≤ [`MAX_SEQ`].
    #[must_use]
    pub fn multiturn(seed: u64, n: usize) -> Schedule {
        let mut rng = SimRng::seed(seed).split("perfbench-multiturn");
        let quarter = stratified_lengths(Dataset::ShareGpt.sampler().as_ref(), n, &mut rng)
            .into_iter()
            .map(|(i, o)| ((i / 4).max(1), (o / 4).max(1)))
            .collect();
        let sampler = PoolSampler {
            pairs: quarter,
            next: Cell::new(0),
        };
        let config = ChatConfig {
            session_rate: 1.0,
            mean_turns: 4.0,
            think_mean_s: 1.0,
            branch_prob: 0.1,
            system_prompt_tokens: SYSTEM_PROMPT_TOKENS,
            tenant: 0,
        };
        let stream = ChatSessionStream::new(config, Box::new(sampler), seed);
        let system_salt = mix(seed, u64::MAX);
        // Per conversation: content segments `(start position, salt)`. A
        // turn keeps the segments below its history length and writes
        // everything after it (fresh user tokens, then the reply the next
        // turn re-sends) under a new salt.
        let mut sessions: Vec<Vec<(usize, u64)>> = Vec::new();
        let mut times = Vec::with_capacity(n);
        let mut raw = Vec::with_capacity(n);
        for (i, s) in stream.take(n).enumerate() {
            let session = if s.turn == 0 {
                sessions.push(vec![(0, system_salt)]);
                sessions.len() - 1
            } else {
                usize::try_from(s.prefix_group - SESSION_GROUP_BASE).expect("session id fits usize")
            };
            let segs = &mut sessions[session];
            let history = s.history_tokens as usize;
            segs.retain(|&(start, _)| start < history.max(1));
            segs.push((history, mix(seed, i as u64 + 1)));
            let max_new = (s.request.output_len as usize).clamp(1, MAX_SEQ / 4);
            let prompt_len = (s.request.input_len as usize).clamp(1, MAX_SEQ - max_new);
            let prompt = (0..prompt_len)
                .map(|p| {
                    let salt = segs
                        .iter()
                        .rev()
                        .find(|&&(start, _)| start <= p)
                        .expect("segment 0 covers position 0")
                        .1;
                    token(salt, p)
                })
                .collect();
            times.push(s.request.arrival.as_secs());
            raw.push((prompt, max_new, s.prefix_group));
        }
        let requests = normalize(&times)
            .into_iter()
            .zip(raw)
            .enumerate()
            .map(|(i, (at_ms, (prompt, max_new, group)))| Request {
                id: i as u64,
                at_ms,
                prompt,
                max_new,
                group,
            })
            .collect();
        Schedule { requests }
    }

    /// Longest prompt, tokens.
    #[must_use]
    pub fn max_prompt(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.prompt.len())
            .max()
            .unwrap_or(0)
    }

    /// Longest prompt + output, tokens.
    #[must_use]
    pub fn max_lifetime(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.prompt.len() + r.max_new)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_respect_length_limits() {
        for seed in [1u64, 2, 3, 42, 1234] {
            let chat = Schedule::chat(seed, 200);
            assert_eq!(chat.requests.len(), 200);
            for r in &chat.requests {
                assert!((1..=CHAT_MAX_PROMPT as usize).contains(&r.prompt.len()));
                assert!((1..=CHAT_MAX_OUTPUT as usize).contains(&r.max_new));
                assert!(r.prompt.len() + r.max_new <= MAX_SEQ);
                assert!(r.prompt.iter().all(|&t| t > 0 && t < VOCAB));
            }
            let multi = Schedule::multiturn(seed, 200);
            assert_eq!(multi.requests.len(), 200);
            for r in &multi.requests {
                assert!(!r.prompt.is_empty() && r.max_new >= 1);
                assert!(r.prompt.len() + r.max_new <= MAX_SEQ);
                assert!(r.prompt.iter().all(|&t| t > 0 && t < VOCAB));
            }
            for s in [&chat, &multi] {
                assert!(s.requests.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
                // Normalized to 1 request/s.
                let span = s.requests.last().unwrap().at_ms as f64 / 1000.0;
                assert!((span - 199.0).abs() < 0.01, "span {span}");
            }
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        assert_eq!(Schedule::chat(7, 64), Schedule::chat(7, 64));
        assert_ne!(Schedule::chat(7, 64), Schedule::chat(8, 64));
        assert_eq!(Schedule::multiturn(7, 64), Schedule::multiturn(7, 64));
        assert_ne!(Schedule::multiturn(7, 64), Schedule::multiturn(8, 64));
    }

    #[test]
    fn chat_prompts_share_nothing() {
        let s = Schedule::chat(5, 100);
        let mut firsts: Vec<&[u32]> = s
            .requests
            .iter()
            .map(|r| &r.prompt[..r.prompt.len().min(16)])
            .collect();
        firsts.sort();
        firsts.dedup();
        assert_eq!(firsts.len(), 100);
    }

    #[test]
    fn continuations_extend_earlier_prompts() {
        let s = Schedule::multiturn(9, 300);
        let sys = SYSTEM_PROMPT_TOKENS as usize;
        let opening = &s.requests[0].prompt;
        let mut extended = 0;
        for (i, r) in s.requests.iter().enumerate() {
            // Every conversation opens with the shared system prompt.
            let k = sys.min(r.prompt.len()).min(opening.len());
            assert_eq!(r.prompt[..k], opening[..k]);
            // Some earlier prompt is a strict prefix beyond the system
            // prompt: the turn re-sends its conversation's history.
            if s.requests[..i].iter().any(|e| {
                e.prompt.len() > sys
                    && e.prompt.len() < r.prompt.len()
                    && r.prompt.starts_with(&e.prompt)
            }) {
                extended += 1;
            }
        }
        assert!(
            extended > 50,
            "only {extended} turns extend an earlier prompt"
        );
    }
}
