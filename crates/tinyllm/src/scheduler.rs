//! Continuous batching over real inference.
//!
//! [`ContinuousBatcher`] is the colocated (vLLM-style) iteration-level
//! scheduler running against actual forward passes: each step either
//! prefills waiting requests (prioritized, subject to KV-block admission)
//! or decodes one token for every running request. It is the executable
//! twin of `distserve-engine`'s colocated policy — same decisions, real
//! tensors — and what a DistServe prefill/decoding worker would run
//! internally per instance.
//!
//! Both step kinds run the batched engine tier: a prefill step stacks
//! every admitted prompt into one activation matrix (logits computed only
//! at each prompt's last position), and a decode step fuses all running
//! sequences into a single `(batch × hidden)` pass — one GEMM per
//! projection instead of one per request. Outputs are bit-identical to
//! the token-at-a-time reference path (asserted by the tests below).

use std::collections::VecDeque;
use std::sync::Arc;

use distserve_telemetry::{
    metrics, Event, LifecycleEvent, NoopSink, SpanGuard, TelemetrySink, TrackId, WallClock,
};

use crate::engine::{BatchRow, Model, Scratch};
use crate::kv::{PagedKv, SeqId};
use crate::tensor::argmax;

/// Hook for a shared-prompt KV reuse layer (`distserve-prefix`'s radix
/// cache implements this; `tinyllm` stays dependency-free).
///
/// The contract that keeps reuse bit-exact: [`match_blocks`] returns
/// *full* KV blocks whose contents are exactly the KV a cold prefill of
/// that token prefix would write (KV rows are a pure function of the
/// prefix tokens — each batched row computes independently from the
/// cache contents below its position). The batcher forks a sequence over
/// the matched blocks and prefills only the suffix.
///
/// [`match_blocks`]: PrefixReuse::match_blocks
/// [`offer`]: PrefixReuse::offer
pub trait PrefixReuse {
    /// The longest cached prefix of `tokens`, as whole-block physical
    /// block ids (block `i` covers positions `i*block_size ..
    /// (i+1)*block_size`). The blocks must stay live until the caller
    /// forks over them (callers fork before any other cache call).
    fn match_blocks(&mut self, tokens: &[u32]) -> Vec<usize>;

    /// Offers the full blocks backing a just-prefilled prompt to the
    /// cache. `tokens` is the whole-block prefix of the prompt and
    /// `blocks` its physical blocks (`tokens.len() == blocks.len() *
    /// block_size`). The cache takes its own references on any blocks it
    /// adopts (and may evict others).
    fn offer(&mut self, tokens: &[u32], blocks: &[usize], kv: &mut PagedKv);
}

/// A generation request.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Caller-chosen identifier (also the KV sequence id).
    pub id: SeqId,
    /// Prompt tokens.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
}

/// Why [`ContinuousBatcher::submit`] refused a request. A refused
/// request is never queued, so it can neither panic a later step nor
/// block the requests behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The prompt has no tokens, so no position would yield logits.
    EmptyPrompt,
    /// A prompt token is not in the model's vocabulary.
    TokenOutOfVocab {
        /// The offending token.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// Prompt plus generated tokens need more positions than the model
    /// has.
    PastMaxSeq {
        /// `prompt.len() + max_new`.
        tokens: usize,
        /// The model's maximum sequence length.
        max_seq: usize,
    },
    /// The request's lifetime KV footprint exceeds the whole pool, so
    /// admission could never reserve it.
    ExceedsKvPool {
        /// Blocks the request's lifetime needs.
        blocks: usize,
        /// Blocks in the pool.
        pool: usize,
    },
    /// The prompt exceeds the per-step prefill token budget, so no
    /// prefill step could ever admit it.
    OverTokenBudget {
        /// Prompt tokens.
        prompt: usize,
        /// The batcher's token budget.
        budget: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::EmptyPrompt => write!(f, "empty prompt"),
            SubmitError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token {token} outside a vocabulary of {vocab}")
            }
            SubmitError::PastMaxSeq { tokens, max_seq } => {
                write!(f, "{tokens} tokens exceed max_seq {max_seq}")
            }
            SubmitError::ExceedsKvPool { blocks, pool } => {
                write!(
                    f,
                    "lifetime needs {blocks} KV blocks of a {pool}-block pool"
                )
            }
            SubmitError::OverTokenBudget { prompt, budget } => {
                write!(
                    f,
                    "{prompt}-token prompt exceeds the {budget}-token prefill budget"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A finished generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedGen {
    /// Request identifier.
    pub id: SeqId,
    /// Generated tokens (`max_new` long).
    pub tokens: Vec<u32>,
    /// Scheduler step index at which the first token was emitted (for
    /// `max_new == 0`, the prefill step).
    pub first_token_step: u64,
    /// Scheduler step index at which the request completed.
    pub completion_step: u64,
}

#[derive(Debug)]
struct Running {
    id: SeqId,
    pos: usize,
    generated: Vec<u32>,
    max_new: usize,
    first_token_step: u64,
    /// Blocks admission added to `reserved_blocks` for this request;
    /// retirement releases exactly these.
    reserved: usize,
}

/// What one scheduler step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Prefilled waiting requests.
    Prefill {
        /// Requests prefetched into the running set.
        requests: usize,
        /// Prompt tokens processed.
        tokens: usize,
    },
    /// Decoded one token per running request.
    Decode {
        /// Running requests advanced.
        requests: usize,
    },
    /// Nothing to do.
    Idle,
}

/// Iteration-level scheduler with paged-KV admission control.
pub struct ContinuousBatcher {
    model: Model,
    kv: PagedKv,
    waiting: VecDeque<GenRequest>,
    running: Vec<Running>,
    finished: Vec<FinishedGen>,
    /// Maximum prompt tokens per prefill step.
    token_budget: usize,
    /// Maximum concurrent running requests.
    max_running: usize,
    /// Blocks promised to admitted-but-still-growing requests. Blocks are
    /// physically taken lazily as tokens append, so admission must count
    /// promises, not just the current free list.
    reserved_blocks: usize,
    steps: u64,
    /// Reusable activation buffers for the batched forward passes.
    scratch: Scratch,
    /// Telemetry destination (no-op unless [`Self::with_sink`] is used).
    sink: Arc<dyn TelemetrySink>,
    /// Wall-clock origin for telemetry timestamps: this engine runs real
    /// forward passes, so slices carry measured durations.
    clock: WallClock,
    /// Timeline track the batcher's slices and metrics are labelled with.
    track: TrackId,
}

impl ContinuousBatcher {
    /// Creates a batcher over `model` with a KV pool of `kv_tokens` total
    /// positions.
    #[must_use]
    pub fn new(model: Model, kv_tokens: usize) -> Self {
        let kv = model.make_kv(kv_tokens, 16);
        ContinuousBatcher {
            model,
            kv,
            waiting: VecDeque::new(),
            running: Vec::new(),
            finished: Vec::new(),
            token_budget: 512,
            max_running: 64,
            reserved_blocks: 0,
            steps: 0,
            scratch: Scratch::new(),
            sink: Arc::new(NoopSink),
            clock: WallClock::new(),
            track: 0,
        }
    }

    /// Sets the per-step prefill token budget.
    #[must_use]
    pub fn with_token_budget(mut self, budget: usize) -> Self {
        self.token_budget = budget.max(1);
        self
    }

    /// Routes telemetry into `sink`, labelling this batcher's slices and
    /// metrics with `track`. Timestamps are wall-clock seconds from the
    /// batcher's construction.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>, track: TrackId) -> Self {
        if sink.enabled() {
            sink.declare_track(track, &format!("tinyllm[{track}]"));
        }
        self.sink = sink;
        self.track = track;
        // The pool width is fixed at model construction; record it once
        // so dashboards can normalize throughput by compute lanes.
        self.sink.gauge_set(
            metrics::COMPUTE_THREADS,
            self.track,
            self.model.threads() as f64,
        );
        self
    }

    fn emit(&self, id: SeqId, t: f64, kind: LifecycleEvent) {
        self.sink.event(Event {
            request: id,
            tenant: 0,
            time_s: t,
            kind,
        });
    }

    fn emit_pool_gauges(&self) {
        let used = self.kv.total_blocks() - self.kv.free_blocks();
        self.sink.gauge_set(
            metrics::KV_UTILIZATION,
            self.track,
            used as f64 / self.kv.total_blocks().max(1) as f64,
        );
        self.sink
            .gauge_set(metrics::DECODE_LOAD, self.track, self.running.len() as f64);
        self.sink.gauge_set(
            metrics::PREFILL_QUEUE_DEPTH,
            self.track,
            self.waiting.len() as f64,
        );
        self.sink.gauge_set(
            metrics::PREFILL_QUEUE_TOKENS,
            self.track,
            self.waiting.iter().map(|r| r.prompt.len()).sum::<usize>() as f64,
        );
        // Worker-pool accounting, published next to `compute_threads`.
        // Guarded so the no-op sink never pays the pool-mutex snapshot.
        if self.sink.enabled() {
            let u = self.model.pool_utilization();
            let busy: f64 = u.workers.iter().map(|w| w.busy_s).sum();
            let idle: f64 = u.workers.iter().map(|w| w.idle_s).sum();
            self.sink.gauge_set(metrics::POOL_BUSY_S, self.track, busy);
            self.sink.gauge_set(metrics::POOL_IDLE_S, self.track, idle);
            self.sink
                .gauge_set(metrics::POOL_DISPATCH_WAIT_S, self.track, u.dispatch_wait_s);
        }
    }

    /// Submits a request, or refuses one that no step could serve.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the prompt is empty, holds a token outside
    /// the vocabulary, or the request needs more positions than the
    /// model has, more KV blocks than the whole pool, or more prompt
    /// tokens than one prefill step admits. A refused request emits
    /// `Arrived` then `Rejected` and is not queued.
    pub fn submit(&mut self, req: GenRequest) -> Result<(), SubmitError> {
        let t = self.clock.now_s();
        self.emit(req.id, t, LifecycleEvent::Arrived);
        if let Err(e) = self.validate(&req) {
            self.emit(req.id, t, LifecycleEvent::Rejected);
            self.sink
                .counter_add(metrics::REQUESTS_REJECTED, self.track, 1);
            return Err(e);
        }
        self.emit(req.id, t, LifecycleEvent::PrefillQueued);
        self.waiting.push_back(req);
        self.emit_pool_gauges();
        Ok(())
    }

    /// The first reason `req` could never be served, if any.
    fn validate(&self, req: &GenRequest) -> Result<(), SubmitError> {
        let cfg = self.model.config();
        if req.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        if let Some(&token) = req.prompt.iter().find(|&&t| t as usize >= cfg.vocab) {
            return Err(SubmitError::TokenOutOfVocab {
                token,
                vocab: cfg.vocab,
            });
        }
        let tokens = req.prompt.len().saturating_add(req.max_new);
        if tokens > cfg.max_seq {
            return Err(SubmitError::PastMaxSeq {
                tokens,
                max_seq: cfg.max_seq,
            });
        }
        let (blocks, pool) = (Self::lifetime_blocks(tokens), self.kv.total_blocks());
        if blocks > pool {
            return Err(SubmitError::ExceedsKvPool { blocks, pool });
        }
        if req.prompt.len() > self.token_budget {
            return Err(SubmitError::OverTokenBudget {
                prompt: req.prompt.len(),
                budget: self.token_budget,
            });
        }
        Ok(())
    }

    /// Requests waiting for admission.
    #[must_use]
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Requests currently decoding.
    #[must_use]
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Scheduler steps taken.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes one scheduler iteration (prefill prioritized).
    pub fn step(&mut self) -> StepKind {
        self.step_with(None)
    }

    /// One scheduler iteration with an optional prefix cache: admitted
    /// prompts are matched against the cache, forked over shared blocks,
    /// and only the unmatched suffix is prefilled; full prompt blocks are
    /// offered back to the cache after the pass. The caller keeps
    /// ownership of the cache (and its hit statistics).
    pub fn step_with(&mut self, mut prefix: Option<&mut dyn PrefixReuse>) -> StepKind {
        let _prof = distserve_prof::scope("batcher_step");
        self.steps += 1;
        // Admission: the whole lifetime footprint must fit the pool, the
        // running set must have room, and the step's token budget must
        // not be exceeded.
        let mut admitted = Vec::new();
        let mut budget = self.token_budget;
        while let Some(head) = self.waiting.front() {
            let need_tokens = head.prompt.len() + head.max_new;
            let need_blocks = Self::lifetime_blocks(need_tokens);
            if self.running.len() + admitted.len() >= self.max_running
                || head.prompt.len() > budget
                || self.kv.total_blocks() < need_blocks + self.reserved_blocks
            {
                break;
            }
            self.reserved_blocks += need_blocks;
            budget -= head.prompt.len();
            admitted.push((self.waiting.pop_front().expect("peeked"), need_blocks));
            if budget == 0 {
                break;
            }
        }
        if !admitted.is_empty() {
            // Batched prefill: all admitted prompts stacked into one
            // activation matrix, logits only at each prompt's last row.
            // With a prefix cache attached, each prompt forks over its
            // matched whole blocks and stacks only suffix rows — capped
            // so the last prompt token is always computed (its logits
            // seed decoding).
            let bs = self.kv.block_size();
            let mut rows = Vec::new();
            let mut last_rows = Vec::with_capacity(admitted.len());
            let mut cached_tokens = 0usize;
            for (req, _) in &admitted {
                let matched = match prefix.as_deref_mut() {
                    Some(cache) => {
                        let _prof = distserve_prof::scope("prefix_match");
                        let blocks = cache.match_blocks(&req.prompt);
                        let usable = blocks.len().min((req.prompt.len() - 1) / bs);
                        if usable > 0 {
                            self.kv.fork_prefix(req.id, &blocks[..usable]);
                            usable * bs
                        } else {
                            self.kv.register(req.id);
                            0
                        }
                    }
                    None => {
                        self.kv.register(req.id);
                        0
                    }
                };
                cached_tokens += matched;
                for (pos, &token) in req.prompt.iter().enumerate().skip(matched) {
                    rows.push(BatchRow {
                        seq: req.id,
                        pos,
                        token,
                    });
                }
                last_rows.push(rows.len() - 1);
            }
            let tokens = rows.len();
            let n = admitted.len();
            let t_start = self.clock.now_s();
            for (req, _) in &admitted {
                self.emit(req.id, t_start, LifecycleEvent::PrefillStart);
            }
            {
                // Flamegraphs attribute cache savings: a step that skipped
                // any matched tokens prefills under `suffix_prefill`.
                let scope_name = if cached_tokens > 0 {
                    "suffix_prefill"
                } else {
                    "prefill"
                };
                let _prof = distserve_prof::scope(scope_name);
                let _span = SpanGuard::enter(
                    self.sink.as_ref(),
                    &self.clock,
                    self.track,
                    scope_name,
                    u32::try_from(n).unwrap_or(u32::MAX),
                    u32::try_from(tokens).unwrap_or(u32::MAX),
                );
                self.model
                    .forward_batch(&rows, &mut self.kv, &mut self.scratch);
                self.model.logits_batch(&last_rows, &mut self.scratch);
            }
            if let Some(cache) = prefix {
                // Offer each prompt's whole-block prefix back to the
                // cache; partially filled tail blocks stay private (the
                // sequence keeps appending into them during decode).
                for (req, _) in &admitted {
                    let full = req.prompt.len() / bs;
                    if full == 0 {
                        continue;
                    }
                    let blocks: Vec<usize> =
                        self.kv.block_table(req.id).expect("registered")[..full].to_vec();
                    cache.offer(&req.prompt[..full * bs], &blocks, &mut self.kv);
                }
            }
            let t_end = self.clock.now_s();
            self.sink
                .counter_add(metrics::PREFILL_BATCHES, self.track, 1);
            self.sink
                .counter_add(metrics::PREFILL_TOKENS, self.track, tokens as u64);
            self.sink.observe(metrics::BATCH_SIZE, self.track, n as f64);
            for (i, (req, reserved)) in admitted.into_iter().enumerate() {
                // A `max_new == 0` request only prefills: it finishes here
                // with no tokens, like `Model::generate(prompt, 0)`.
                let generated = if req.max_new == 0 {
                    Vec::new()
                } else {
                    vec![argmax(self.scratch.logits_row(i)) as u32]
                };
                self.emit(req.id, t_end, LifecycleEvent::PrefillEnd);
                let mut running = Running {
                    id: req.id,
                    pos: req.prompt.len(),
                    generated,
                    max_new: req.max_new,
                    first_token_step: self.steps,
                    reserved,
                };
                if running.generated.len() >= running.max_new {
                    self.retire(&mut running);
                } else {
                    self.emit(req.id, t_end, LifecycleEvent::DecodeQueued);
                    self.running.push(running);
                }
            }
            self.emit_pool_gauges();
            return StepKind::Prefill {
                requests: n,
                tokens,
            };
        }
        if self.running.is_empty() {
            return StepKind::Idle;
        }
        // Fused decode: one stacked forward for every running request —
        // per projection a single (batch × hidden) GEMM.
        let rows: Vec<BatchRow> = self
            .running
            .iter()
            .map(|r| BatchRow {
                seq: r.id,
                pos: r.pos,
                token: *r.generated.last().expect("has first token"),
            })
            .collect();
        {
            let _prof = distserve_prof::scope("decode");
            let _span = SpanGuard::enter(
                self.sink.as_ref(),
                &self.clock,
                self.track,
                "decode",
                u32::try_from(rows.len()).unwrap_or(u32::MAX),
                u32::try_from(rows.len()).unwrap_or(u32::MAX),
            );
            self.model
                .forward_batch(&rows, &mut self.kv, &mut self.scratch);
            let picks: Vec<usize> = (0..rows.len()).collect();
            self.model.logits_batch(&picks, &mut self.scratch);
        }
        let t_end = self.clock.now_s();
        let mut still_running = Vec::with_capacity(self.running.len());
        let mut advanced = 0;
        for (i, mut r) in std::mem::take(&mut self.running).into_iter().enumerate() {
            r.pos += 1;
            let next = argmax(self.scratch.logits_row(i)) as u32;
            r.generated.push(next);
            advanced += 1;
            self.emit(
                r.id,
                t_end,
                LifecycleEvent::DecodeStep {
                    generated: u32::try_from(r.generated.len()).unwrap_or(u32::MAX),
                },
            );
            if r.generated.len() >= r.max_new {
                self.retire(&mut r);
            } else {
                still_running.push(r);
            }
        }
        self.running = still_running;
        self.sink
            .counter_add(metrics::DECODE_BATCHES, self.track, 1);
        self.sink
            .counter_add(metrics::DECODE_TOKENS, self.track, advanced as u64);
        self.sink
            .observe(metrics::BATCH_SIZE, self.track, advanced as f64);
        self.emit_pool_gauges();
        StepKind::Decode { requests: advanced }
    }

    fn lifetime_blocks(tokens: usize) -> usize {
        tokens.div_ceil(16)
    }

    fn retire(&mut self, r: &mut Running) {
        self.reserved_blocks -= r.reserved;
        self.kv.release(r.id).expect("running request has KV");
        self.emit(r.id, self.clock.now_s(), LifecycleEvent::Finished);
        self.sink
            .counter_add(metrics::REQUESTS_FINISHED, self.track, 1);
        self.finished.push(FinishedGen {
            id: r.id,
            tokens: std::mem::take(&mut r.generated),
            first_token_step: r.first_token_step,
            completion_step: self.steps,
        });
    }

    /// Runs until all submitted requests finish; returns them in
    /// completion order.
    pub fn run_to_completion(&mut self) -> Vec<FinishedGen> {
        let mut idle_streak = 0;
        while !self.waiting.is_empty() || !self.running.is_empty() {
            match self.step() {
                StepKind::Idle => {
                    idle_streak += 1;
                    assert!(
                        idle_streak < 3,
                        "scheduler idle with work outstanding: admission livelock"
                    );
                }
                _ => idle_streak = 0,
            }
        }
        std::mem::take(&mut self.finished)
    }

    /// [`run_to_completion`] with a prefix cache consulted on every
    /// prefill step.
    ///
    /// [`run_to_completion`]: ContinuousBatcher::run_to_completion
    pub fn run_to_completion_with(&mut self, cache: &mut dyn PrefixReuse) -> Vec<FinishedGen> {
        let mut idle_streak = 0;
        while !self.waiting.is_empty() || !self.running.is_empty() {
            match self.step_with(Some(cache)) {
                StepKind::Idle => {
                    idle_streak += 1;
                    assert!(
                        idle_streak < 3,
                        "scheduler idle with work outstanding: admission livelock"
                    );
                }
                _ => idle_streak = 0,
            }
        }
        std::mem::take(&mut self.finished)
    }

    /// Free blocks in the paged KV pool (cache-pinned blocks count as
    /// used).
    #[must_use]
    pub fn kv_free_blocks(&self) -> usize {
        self.kv.free_blocks()
    }

    /// Total blocks in the paged KV pool.
    #[must_use]
    pub fn kv_total_blocks(&self) -> usize {
        self.kv.total_blocks()
    }

    /// Mutable access to the KV pool, for prefix-cache maintenance that
    /// needs both the cache and the pool (e.g. releasing every cached
    /// block at shutdown to verify nothing leaks).
    pub fn kv_mut(&mut self) -> &mut PagedKv {
        &mut self.kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TinyConfig;

    fn model() -> Model {
        Model::random(&TinyConfig::tiny(), 42)
    }

    fn req(id: u64, prompt: Vec<u32>, max_new: usize) -> GenRequest {
        GenRequest {
            id,
            prompt,
            max_new,
        }
    }

    #[test]
    fn batched_equals_standalone() {
        // Continuous batching must not change any request's output
        // versus running it alone — scheduling is about *when*, not
        // *what*.
        let m = model();
        let solo_a = m.generate(&[1, 2, 3], 6);
        let solo_b = m.generate(&[9, 8], 5);
        let mut batcher = ContinuousBatcher::new(m, 4096);
        batcher.submit(req(0, vec![1, 2, 3], 6)).unwrap();
        batcher.submit(req(1, vec![9, 8], 5)).unwrap();
        let mut done = batcher.run_to_completion();
        done.sort_by_key(|f| f.id);
        assert_eq!(done[0].tokens, solo_a);
        assert_eq!(done[1].tokens, solo_b);
    }

    #[test]
    fn interleaving_decodes_share_steps() {
        let m = model();
        let mut batcher = ContinuousBatcher::new(m, 4096);
        for i in 0..4 {
            batcher.submit(req(i, vec![1 + i as u32, 2], 5)).unwrap();
        }
        let done = batcher.run_to_completion();
        assert_eq!(done.len(), 4);
        // All four decode together: completion steps must coincide.
        let steps: Vec<u64> = done.iter().map(|f| f.completion_step).collect();
        assert!(steps.windows(2).all(|w| w[0] == w[1]), "{steps:?}");
    }

    #[test]
    fn admission_respects_kv_capacity() {
        let m = model();
        // Pool of 64 tokens (4 blocks): one 48-token lifetime (3 blocks)
        // fits, two at once do not.
        let mut batcher = ContinuousBatcher::new(m, 64);
        batcher.submit(req(0, vec![1; 24], 24)).unwrap();
        batcher.submit(req(1, vec![2; 24], 24)).unwrap();
        let k1 = batcher.step();
        assert!(
            matches!(k1, StepKind::Prefill { requests: 1, .. }),
            "{k1:?}"
        );
        // Second stays waiting until the first finishes.
        assert_eq!(batcher.waiting_len(), 1);
        let done = batcher.run_to_completion();
        assert_eq!(done.len(), 2);
        // Serialized: distinct completion steps.
        assert_ne!(done[0].completion_step, done[1].completion_step);
    }

    #[test]
    fn token_budget_limits_prefill_batch() {
        let m = model();
        let mut batcher = ContinuousBatcher::new(m, 4096).with_token_budget(10);
        batcher.submit(req(0, vec![1; 6], 2)).unwrap();
        batcher.submit(req(1, vec![2; 6], 2)).unwrap();
        let k = batcher.step();
        // 6 + 6 > 10: only the first admits this step.
        assert!(matches!(k, StepKind::Prefill { requests: 1, .. }), "{k:?}");
        assert_eq!(batcher.running_len() + batcher.waiting_len(), 2);
    }

    #[test]
    fn prefill_prioritized_over_decode() {
        let m = model();
        let mut batcher = ContinuousBatcher::new(m, 4096);
        batcher.submit(req(0, vec![1, 2], 4)).unwrap();
        assert!(matches!(batcher.step(), StepKind::Prefill { .. }));
        batcher.submit(req(1, vec![3, 4], 4)).unwrap();
        // New arrival preempts the decode of request 0 at the next step.
        assert!(matches!(batcher.step(), StepKind::Prefill { .. }));
        assert!(matches!(batcher.step(), StepKind::Decode { requests: 2 }));
    }

    #[test]
    fn idle_when_empty() {
        let m = model();
        let mut batcher = ContinuousBatcher::new(m, 1024);
        assert_eq!(batcher.step(), StepKind::Idle);
    }

    #[test]
    fn telemetry_recorder_captures_real_engine_lifecycles() {
        use distserve_telemetry::Recorder;

        let m = model();
        let plain: Vec<Vec<u32>> = (0..3u64)
            .map(|i| m.generate(&[1 + i as u32, 2, 3], 4))
            .collect();
        let rec = Arc::new(Recorder::new());
        let sink: Arc<dyn TelemetrySink> = rec.clone();
        let mut batcher = ContinuousBatcher::new(m, 4096).with_sink(sink, 3);
        for i in 0..3u64 {
            batcher.submit(req(i, vec![1 + i as u32, 2, 3], 4)).unwrap();
        }
        batcher.submit(req(9, vec![5, 6], 1)).unwrap(); // Retires at prefill.
        let mut done = batcher.run_to_completion();
        done.sort_by_key(|f| f.id);
        // Instrumentation must not change what is generated.
        for i in 0..3usize {
            assert_eq!(done[i].tokens, plain[i]);
        }

        let snap = rec.snapshot();
        assert_eq!(
            snap.track_names().get(&3).map(String::as_str),
            Some("tinyllm[3]")
        );
        let lifecycles = snap.lifecycles();
        assert_eq!(lifecycles.len(), 4);
        for (id, lc) in &lifecycles {
            lc.validate()
                .unwrap_or_else(|e| panic!("request {id}: {e}"));
        }
        // The single-token request never decodes.
        assert!(lifecycles[&9]
            .events
            .iter()
            .all(|(_, k)| !matches!(k, LifecycleEvent::DecodeStep { .. })));
        // Slices: at least one prefill and one decode span, all on track 3
        // with real (non-negative) durations.
        assert!(snap.slices.iter().any(|s| s.name == "prefill"));
        assert!(snap.slices.iter().any(|s| s.name == "decode"));
        for s in &snap.slices {
            assert_eq!(s.track, 3);
            assert!(s.end_s >= s.start_s);
        }
        // Counters reconcile with the workload: 3 × 3 + 2 = 11 prompt
        // tokens, 4 requests finished, 3 × 3 = 9 decode advances.
        assert_eq!(snap.metrics.counter(metrics::PREFILL_TOKENS, 3), 11);
        assert_eq!(snap.metrics.counter(metrics::REQUESTS_FINISHED, 3), 4);
        assert_eq!(snap.metrics.counter(metrics::DECODE_TOKENS, 3), 9);
        // Terminal gauges: nothing queued, nothing running, pool drained.
        assert_eq!(snap.metrics.gauge(metrics::DECODE_LOAD, 3), Some(0.0));
        assert_eq!(snap.metrics.gauge(metrics::KV_UTILIZATION, 3), Some(0.0));
        // The engine's compute width is recorded once at sink attach.
        let threads = snap
            .metrics
            .gauge(metrics::COMPUTE_THREADS, 3)
            .expect("compute_threads gauge");
        assert!(threads >= 1.0);
    }

    #[test]
    fn single_token_request_retires_at_prefill() {
        let m = model();
        let solo = m.generate(&[4, 5, 6], 1);
        let mut batcher = ContinuousBatcher::new(m, 1024);
        batcher.submit(req(7, vec![4, 5, 6], 1)).unwrap();
        let done = batcher.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tokens, solo);
        assert_eq!(done[0].first_token_step, done[0].completion_step);
    }

    #[test]
    fn empty_prompt_is_refused() {
        let mut batcher = ContinuousBatcher::new(model(), 1024);
        assert_eq!(
            batcher.submit(req(0, vec![], 4)),
            Err(SubmitError::EmptyPrompt)
        );
        assert_eq!(batcher.waiting_len(), 0);
    }

    #[test]
    fn out_of_vocab_token_is_refused() {
        // TinyConfig::tiny() has a 128-token vocabulary.
        let mut batcher = ContinuousBatcher::new(model(), 1024);
        assert_eq!(
            batcher.submit(req(0, vec![1, 128, 2], 4)),
            Err(SubmitError::TokenOutOfVocab {
                token: 128,
                vocab: 128
            })
        );
        assert_eq!(batcher.waiting_len(), 0);
        // Refused before admission, so no KV was registered for it.
        assert_eq!(batcher.kv_free_blocks(), batcher.kv_total_blocks());
    }

    #[test]
    fn request_past_max_seq_is_refused() {
        // max_seq is 256: 200 + 57 positions do not fit, 200 + 56 do.
        let mut batcher = ContinuousBatcher::new(model(), 4096);
        assert_eq!(
            batcher.submit(req(0, vec![1; 200], 57)),
            Err(SubmitError::PastMaxSeq {
                tokens: 257,
                max_seq: 256
            })
        );
        batcher.submit(req(1, vec![1; 200], 56)).unwrap();
        // A caller-supplied length cannot overflow the check.
        assert!(matches!(
            batcher.submit(req(2, vec![1], usize::MAX)),
            Err(SubmitError::PastMaxSeq { .. })
        ));
    }

    #[test]
    fn lifetime_larger_than_the_pool_is_refused() {
        // A 64-token pool is 4 blocks; 40 + 40 tokens need 5.
        let mut batcher = ContinuousBatcher::new(model(), 64);
        assert_eq!(
            batcher.submit(req(0, vec![1; 40], 40)),
            Err(SubmitError::ExceedsKvPool { blocks: 5, pool: 4 })
        );
        assert_eq!(batcher.waiting_len(), 0);
    }

    #[test]
    fn prompt_over_the_token_budget_is_refused() {
        let mut batcher = ContinuousBatcher::new(model(), 4096).with_token_budget(8);
        assert_eq!(
            batcher.submit(req(0, vec![1; 9], 2)),
            Err(SubmitError::OverTokenBudget {
                prompt: 9,
                budget: 8
            })
        );
        batcher.submit(req(1, vec![1; 8], 2)).unwrap();
    }

    #[test]
    fn valid_request_behind_refused_ones_completes() {
        // Queued, the oversized request would sit at the queue head
        // forever (the run ends in "admission livelock") and the
        // out-of-vocab one would panic mid-step.
        let m = model();
        let solo = m.generate(&[3, 4, 5], 4);
        let mut batcher = ContinuousBatcher::new(m, 64);
        assert!(batcher.submit(req(0, vec![1; 40], 40)).is_err());
        assert!(batcher.submit(req(1, vec![500], 4)).is_err());
        assert!(batcher.submit(req(2, vec![], 4)).is_err());
        batcher.submit(req(3, vec![3, 4, 5], 4)).unwrap();
        let done = batcher.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 3);
        assert_eq!(done[0].tokens, solo);
    }

    #[test]
    fn refused_request_emits_a_rejected_lifecycle() {
        use distserve_telemetry::Recorder;

        let rec = Arc::new(Recorder::new());
        let sink: Arc<dyn TelemetrySink> = rec.clone();
        let mut batcher = ContinuousBatcher::new(model(), 1024).with_sink(sink, 1);
        assert!(batcher.submit(req(5, vec![], 1)).is_err());
        let snap = rec.snapshot();
        let lifecycles = snap.lifecycles();
        let kinds: Vec<LifecycleEvent> = lifecycles[&5].events.iter().map(|&(_, k)| k).collect();
        assert_eq!(kinds, [LifecycleEvent::Arrived, LifecycleEvent::Rejected]);
        lifecycles[&5].validate().expect("well-formed lifecycle");
        assert_eq!(snap.metrics.counter(metrics::REQUESTS_REJECTED, 1), 1);
    }

    #[test]
    fn zero_token_request_finishes_at_prefill() {
        // `max_new == 0` with a block-aligned prompt: no tokens, like
        // `Model::generate`, and exactly the admitted reservation is
        // released, so the whole pool admits again afterwards.
        let m = model();
        assert!(m.generate(&[3; 32], 0).is_empty());
        let mut batcher = ContinuousBatcher::new(m, 64);
        batcher.submit(req(0, vec![3; 32], 0)).unwrap();
        let done = batcher.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!(done[0].tokens.is_empty());
        assert_eq!(done[0].first_token_step, done[0].completion_step);
        assert_eq!(batcher.reserved_blocks, 0);
        batcher.submit(req(1, vec![4; 32], 32)).unwrap();
        let k = batcher.step();
        assert!(matches!(k, StepKind::Prefill { requests: 1, .. }), "{k:?}");
    }
}
