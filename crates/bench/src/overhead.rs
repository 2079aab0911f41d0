//! The one decode fixture and the one paired-round estimator behind
//! every instrumentation overhead and decode speedup this repo reports:
//! the telemetry and observe overheads (`benches/sink_overhead.rs`), the
//! tracing overhead (`examples/trace_flight.rs`), the profiler overhead
//! (`examples/profile_fleet.rs`), and fused decode against the
//! token-at-a-time reference tier (`benches/micro.rs`).
//!
//! **Fixture.** [`prefilled`] returns a `ContinuousBatcher` whose
//! requests are already prefilled; [`step_times`] times its
//! [`DECODE_STEPS`] decode steps one by one. Each request asks for
//! `1 + DECODE_STEPS` tokens (prefill emits the first), so every request
//! retires on the last timed step and an instrumentation layer's
//! end-of-request work (finish events, span finalization, tail
//! sampling) falls inside the timed window.
//!
//! **Estimator.** [`paired`] is built for a noisy shared host.
//! Interleaved off/on rounds with alternating order cancel slow drift.
//! Step `s` of every run executes at the same KV length, so
//! per-position statistics compare like with like:
//!
//! - The **delta** is the per-position *median of within-round
//!   differences* `on[s] − off[s]`, summed across positions. A neighbor
//!   spike inflates one side of one round at one position; the median
//!   over all rounds ignores it, where a mean would carry it into the
//!   estimate.
//! - The **base** is the per-position *minimum* over all off runs,
//!   summed. Interference only ever slows a step down, so each
//!   position's minimum converges to that KV length's true cost. A few
//!   extra off-only rounds widen the window for this minimum.

use std::sync::Arc;
use std::time::Instant;

use distserve_telemetry::TelemetrySink;
use tinyllm::{ContinuousBatcher, GenRequest, Model};

use crate::sentinel::median;

// Serving-shaped decode: real traces (e.g. ShareGPT, §6 of the paper)
// carry prompts of tens to hundreds of tokens, so decode attends over
// real context. 32-token prompts and 64 decoded tokens keep a run near
// 40 ms while contexts span 32..96 positions.

/// Requests in the decode batch every overhead bench runs.
pub const BATCH: usize = 16;
/// Prompt tokens per request.
pub const PROMPT_LEN: usize = 32;
/// Timed decode steps per run.
pub const DECODE_STEPS: usize = 64;
/// Paired rounds run first and discarded (cold caches, lazy pools).
pub const WARMUP_ROUNDS: usize = 2;
/// Paired rounds kept.
pub const ROUNDS: usize = 96;
/// Off-only rounds after the paired ones, for the base's minima.
pub const EXTRA_OFF_ROUNDS: usize = 24;
/// The overhead budget of every instrumentation layer, in percent.
pub const BUDGET_PCT: f64 = 3.0;

/// Prompt of request `i`: deterministic, different for every request,
/// with token ids below 512 (the vocabulary of `TinyConfig::small()`).
#[must_use]
pub fn prompt(i: usize) -> Vec<u32> {
    (0..PROMPT_LEN)
        .map(|p| ((i * 17 + p * 5) % 512) as u32)
        .collect()
}

/// A batcher with `batch` [`PROMPT_LEN`]-token prompts already prefilled,
/// each due to retire after exactly [`DECODE_STEPS`] decode steps.
/// `sink` receives the batcher's telemetry (no-op when `None`).
#[must_use]
pub fn prefilled(
    model: &Model,
    batch: usize,
    sink: Option<Arc<dyn TelemetrySink>>,
) -> ContinuousBatcher {
    let mut b = ContinuousBatcher::new(model.clone(), 8192);
    if let Some(sink) = sink {
        b = b.with_sink(sink, 0);
    }
    for i in 0..batch {
        b.submit(GenRequest {
            id: i as u64,
            prompt: prompt(i),
            max_new: 1 + DECODE_STEPS,
        });
    }
    b.step();
    assert_eq!(b.running_len(), batch, "one step must prefill every prompt");
    b
}

/// Wall time of each of the next [`DECODE_STEPS`] scheduler steps.
pub fn step_times(batcher: &mut ContinuousBatcher) -> Vec<f64> {
    (0..DECODE_STEPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(batcher.step());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// What [`paired`] measured, in seconds per run of [`DECODE_STEPS`] steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Σ over step positions of the minimum off time.
    pub base_s: f64,
    /// Σ over step positions of the median within-round `on − off`.
    pub delta_s: f64,
}

impl Estimate {
    /// Estimated time of an on run.
    #[must_use]
    pub fn on_s(&self) -> f64 {
        self.base_s + self.delta_s
    }

    /// The delta as a percentage of the base.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        self.delta_s / self.base_s * 100.0
    }
}

/// Runs `run(false)` and `run(true)` in [`WARMUP_ROUNDS`] + [`ROUNDS`]
/// rounds, off first in even rounds and on first in odd ones, then
/// [`EXTRA_OFF_ROUNDS`] more off runs. Each run returns its
/// [`DECODE_STEPS`] step times (see the module docs for the estimate).
pub fn paired(mut run: impl FnMut(bool) -> Vec<f64>) -> Estimate {
    let mut min_off = vec![f64::INFINITY; DECODE_STEPS];
    let mut deltas = vec![Vec::new(); DECODE_STEPS];
    let mut timed = |on: bool| {
        let steps = run(on);
        assert_eq!(steps.len(), DECODE_STEPS, "one time per decode step");
        steps
    };
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        let (off, on) = if round % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        if round >= WARMUP_ROUNDS {
            for s in 0..DECODE_STEPS {
                min_off[s] = min_off[s].min(off[s]);
                deltas[s].push(on[s] - off[s]);
            }
        }
    }
    for _ in 0..EXTRA_OFF_ROUNDS {
        for (m, off) in min_off.iter_mut().zip(timed(false)) {
            *m = m.min(off);
        }
    }
    Estimate {
        base_s: min_off.iter().sum(),
        delta_s: deltas
            .iter_mut()
            .map(|d| {
                d.sort_by(f64::total_cmp);
                median(d)
            })
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_telemetry::{LifecycleEvent, Recorder};
    use tinyllm::TinyConfig;

    /// Synthetic run `call` (0-based) of [`paired`]: a per-position base
    /// cost, a slow drift shared by both runs of a round, and `delta` on
    /// every step of an on run. All values are exact binary fractions,
    /// so sums and differences are exact.
    fn synthetic(call: usize, on: bool, delta: f64) -> Vec<f64> {
        let drift = ((call / 2) % 4) as f64 * 0.5;
        (0..DECODE_STEPS)
            .map(|s| 1.0 + s as f64 * 0.125 + drift + if on { delta } else { 0.0 })
            .collect()
    }

    fn base_sum() -> f64 {
        (0..DECODE_STEPS).map(|s| 1.0 + s as f64 * 0.125).sum()
    }

    #[test]
    fn paired_recovers_a_constant_step_delta_exactly() {
        let mut call = 0;
        let est = paired(|on| {
            call += 1;
            synthetic(call - 1, on, 0.25)
        });
        assert_eq!(est.delta_s, 0.25 * DECODE_STEPS as f64);
        assert_eq!(est.base_s, base_sum());
        assert_eq!(est.on_s(), base_sum() + 16.0);
    }

    #[test]
    fn one_spiked_round_does_not_move_the_estimate() {
        let estimate = |spiked: &[usize]| {
            let mut call = 0;
            paired(|on| {
                call += 1;
                let mut steps = synthetic(call - 1, on, 0.25);
                if spiked.contains(&(call - 1)) {
                    steps.iter_mut().for_each(|s| *s += 1000.0);
                }
                steps
            })
        };
        let clean = estimate(&[]);
        // Call 101 is round 50's on run; call 120 is round 60's off run.
        assert_eq!(estimate(&[101]), clean);
        assert_eq!(estimate(&[120]), clean);
    }

    #[test]
    fn rounds_alternate_which_arm_runs_first() {
        let mut order = Vec::new();
        paired(|on| {
            order.push(on);
            vec![1.0; DECODE_STEPS]
        });
        let rounds = WARMUP_ROUNDS + ROUNDS;
        assert_eq!(order.len(), 2 * rounds + EXTRA_OFF_ROUNDS);
        for (round, pair) in order[..2 * rounds].chunks(2).enumerate() {
            let on_first = round % 2 == 1;
            assert_eq!(pair, [on_first, !on_first], "round {round}");
        }
        assert!(order[2 * rounds..].iter().all(|&on| !on));
    }

    #[test]
    fn step_times_times_every_decode_step() {
        let model = Model::random(&TinyConfig::small(), 1);
        let mut b = prefilled(&model, 2, None);
        let steps = step_times(&mut b);
        assert_eq!(steps.len(), DECODE_STEPS);
        assert!(steps.iter().all(|&t| t > 0.0));
        assert_eq!(b.running_len(), 0, "every request retires in the window");
    }

    #[test]
    fn every_request_finishes_on_the_last_timed_step() {
        let model = Model::random(&TinyConfig::small(), 1);
        let rec = Arc::new(Recorder::new());
        step_times(&mut prefilled(&model, BATCH, Some(rec.clone())));
        let lifecycles = rec.snapshot().lifecycles();
        assert_eq!(lifecycles.len(), BATCH);
        let last_step = LifecycleEvent::DecodeStep {
            generated: 1 + DECODE_STEPS as u32,
        };
        for (req, lc) in &lifecycles {
            lc.validate()
                .unwrap_or_else(|e| panic!("request {req}: {e}"));
            let tail: Vec<_> = lc.events.iter().rev().take(2).map(|&(_, e)| e).collect();
            assert_eq!(tail, [LifecycleEvent::Finished, last_step], "request {req}");
        }
    }
}
