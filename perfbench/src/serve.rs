//! The real-engine workloads: one `tinyllm` server, an open-loop load
//! generator on the engine's caller thread, and the output checks.
//!
//! The server is identical for `chat` and `multiturn`; only the traffic
//! differs. Each phase (a rung of the rate ladder, or the offline batch)
//! runs on a fresh server so no cache state leaks between phases.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distserve_prefix::PrefixCache;
use distserve_telemetry::{metrics as tm, Recorder, TelemetrySink};
use tinyllm::scheduler::{FinishedGen, StepKind};
use tinyllm::{
    ComputeConfig, ContinuousBatcher, GenRequest, Model, PagedKv, Precision, PrefixReuse,
    TinyConfig,
};

use crate::schedule::{Request, Schedule, MAX_SEQ, VOCAB};
use crate::spans::{Tracer, NO_REQ};

/// Time-to-first-token limit, seconds.
pub const TTFT_LIMIT_S: f64 = 1.0;
/// Time-per-output-token limit, seconds.
pub const TPOT_LIMIT_S: f64 = 0.05;
/// KV block size, tokens.
pub const BLOCK: usize = 16;
/// Prefix-cache capacity, blocks: below the multi-turn live history set,
/// so the cache evicts.
pub const CACHE_BLOCKS: usize = 512;
/// The batcher's fixed cap on concurrently running requests.
pub const MAX_RUNNING: usize = 64;
/// Worker-pool lanes, set explicitly (never from the environment).
pub const THREADS: usize = 2;
/// Every `REFERENCE_EVERY`-th schedule request is regenerated with the
/// reference tier and must match token for token.
pub const REFERENCE_EVERY: u64 = 16;

/// The served model's shape: 6.0M parameters, 24 MB of f32 weights —
/// larger than a core's L2, so decode GEMMs stream weights and batching
/// pays.
#[must_use]
pub fn model_config() -> TinyConfig {
    TinyConfig {
        layers: 6,
        hidden: 256,
        heads: 8,
        ffn: 1024,
        vocab: VOCAB as usize,
        max_seq: MAX_SEQ,
    }
}

/// KV pool, blocks. Admission reserves lifetimes against the whole pool
/// but ignores blocks only the prefix cache holds, so the pool covers
/// the largest possible reservation (every running slot at the longest
/// lifetime) plus the cache: no append can run out of blocks.
#[must_use]
pub fn kv_blocks() -> usize {
    MAX_RUNNING * MAX_SEQ.div_ceil(BLOCK) + CACHE_BLOCKS
}

/// A fresh server over `model`: batcher (KV pool allocated) plus cache.
/// The token budget covers the longest possible prompt, so every prompt
/// is admissible.
fn server(model: &Model, sink: Option<&Arc<Recorder>>) -> (ContinuousBatcher, PrefixCache) {
    let mut batcher =
        ContinuousBatcher::new(model.clone(), kv_blocks() * BLOCK).with_token_budget(MAX_SEQ);
    let mut cache = PrefixCache::new(BLOCK, CACHE_BLOCKS);
    if let Some(rec) = sink {
        let sink: Arc<dyn TelemetrySink> = rec.clone();
        batcher = batcher.with_sink(Arc::clone(&sink), 1);
        cache = cache.with_sink(sink, 1);
    }
    (batcher, cache)
}

/// Server set-up as a user pays it: model build and weight packing, KV
/// pool and cache allocation, and one short request so the worker pool
/// is spawned. Returns the model and the seconds taken.
#[must_use]
pub fn setup() -> (Model, f64) {
    let t = Instant::now();
    let model = Model::random_with(
        &model_config(),
        2024,
        ComputeConfig {
            precision: Precision::F32,
            threads: THREADS,
        },
    );
    let (mut batcher, mut cache) = server(&model, None);
    batcher.submit(GenRequest {
        id: 0,
        prompt: (1..=32).collect(),
        max_new: 1,
    });
    let done = batcher.run_to_completion_with(&mut cache);
    assert_eq!(done.len(), 1, "warm-up request finishes");
    drop((batcher, cache));
    (model, t.elapsed().as_secs_f64())
}

/// Prefix-cache wrapper: records how many prompt tokens each admitted
/// request reuses and, when tracing, times every call into the cache.
struct TimedCache<'a> {
    cache: &'a mut PrefixCache,
    tracer: &'a mut Tracer,
    layer: &'a mut LayerTotals,
    matched: Vec<usize>,
}

impl PrefixReuse for TimedCache<'_> {
    fn match_blocks(&mut self, tokens: &[u32]) -> Vec<usize> {
        let t = Instant::now();
        let h = self.tracer.open("prefix.match", NO_REQ);
        let out = self.cache.match_blocks(tokens);
        self.tracer.close(h, None);
        if self.tracer.enabled() {
            self.layer.prefix_match_s += t.elapsed().as_secs_f64();
        }
        // The batcher always recomputes the last prompt token.
        self.matched
            .push(out.len().min((tokens.len() - 1) / BLOCK) * BLOCK);
        out
    }

    fn offer(&mut self, tokens: &[u32], blocks: &[usize], kv: &mut PagedKv) {
        let t = Instant::now();
        let h = self.tracer.open("prefix.offer", NO_REQ);
        self.cache.offer(tokens, blocks, kv);
        self.tracer.close(h, None);
        if self.tracer.enabled() {
            self.layer.prefix_offer_s += t.elapsed().as_secs_f64();
        }
    }
}

/// One scheduler step as the load generator saw it.
#[derive(Debug, Clone)]
struct StepRec {
    index: u64,
    kind: StepKind,
    start: f64,
    end: f64,
    waiting_before: usize,
    /// Reused prompt tokens of each request a prefill step admitted, in
    /// admission order.
    matched: Vec<usize>,
}

/// Layer counters summed over every phase of a run.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub lag_s: Vec<f64>,
    pub queue_wait_s: Vec<f64>,
    pub wall_s: f64,
    pub prefill_s: f64,
    pub decode_s: f64,
    pub prefill_steps: u64,
    pub decode_steps: u64,
    pub blocked_steps: u64,
    pub prefill_tokens: u64,
    pub decode_rows: u64,
    pub decode_step_s: Vec<f64>,
    pub gaps: u64,
    pub stalled_gaps: u64,
    pub kv_used_frac: Vec<f64>,
    pub prefill_gflop: f64,
    pub decode_gflop: f64,
    pub pool_busy_s: f64,
    pub pool_span_s: f64,
    pub pool_dispatch_wait_s: f64,
    pub prefix_lookups: u64,
    pub prefix_hits: u64,
    pub prefix_lookup_tokens: u64,
    pub prefix_matched_tokens: u64,
    pub prefix_inserted: u64,
    pub prefix_evictions: u64,
    pub prefix_owned_max: usize,
    pub prefix_match_s: f64,
    pub prefix_offer_s: f64,
    pub telemetry_prefill_tokens: u64,
}

/// FLOPs of one forward row attending over `ctx` positions (the four
/// GEMMs plus QKᵀ and PV), from the tensor shapes.
fn row_flop(cfg: &TinyConfig, ctx: usize) -> f64 {
    let h = cfg.hidden as f64;
    let gemm = 2.0 * (4.0 * h * h + 2.0 * h * cfg.ffn as f64);
    let attn = 4.0 * h * ctx as f64;
    cfg.layers as f64 * (gemm + attn)
}

/// FLOPs of one logits row.
fn logits_flop(cfg: &TinyConfig) -> f64 {
    2.0 * cfg.hidden as f64 * cfg.vocab as f64
}

/// Bytes of f32 weights one forward pass streams at least once, computed
/// from the shapes.
#[must_use]
pub fn weight_bytes(cfg: &TinyConfig) -> f64 {
    let h = cfg.hidden as f64;
    4.0 * (cfg.layers as f64 * (4.0 * h * h + 2.0 * h * cfg.ffn as f64) + cfg.vocab as f64 * h)
}

/// One rung of a ladder: `requests` schedule requests offered at `rate`
/// req/s (0 = all at once, the offline batch).
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub requests: usize,
}

/// Outcome of one rung.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Offered rate, requests/s (0 for the offline batch).
    pub rate: f64,
    pub sent: usize,
    /// Finished in time and met both limits.
    pub ok: usize,
    /// Unfinished at the drain deadline. They are finished afterwards,
    /// untimed, so their outputs are still checked; they miss both limits.
    pub late: usize,
    /// Failed an output check or never finished.
    pub failed: usize,
    pub ttft_s: Vec<f64>,
    pub itl_s: Vec<f64>,
    pub output_tokens: usize,
    /// Inter-token gaps, and those that spanned a prefill step.
    pub gaps: u64,
    pub stalled_gaps: u64,
    /// First arrival to the last in-time completion, seconds.
    pub makespan_s: f64,
}

impl Phase {
    /// Share of requests sent that met both limits.
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.ok as f64 / self.sent as f64
        }
    }
}

/// One request as a ladder offers it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Engine sequence id, unique within the ladder.
    pub id: u64,
    /// Rung index.
    pub rung: usize,
    /// Due time from the ladder's start, seconds.
    pub due: f64,
    pub prompt: Vec<u32>,
    pub max_new: usize,
}

/// Prompt of `r` as rung `rung` replays it: every token shifted by a
/// per-rung offset. The schedule's structure (lengths, arrivals, shared
/// prefixes within the rung) is unchanged, but no rung can hit blocks a
/// previous rung left in the prefix cache.
fn replayed_prompt(r: &Request, rung: usize) -> Vec<u32> {
    let shift = (rung as u64 * 1013) % u64::from(VOCAB - 1);
    r.prompt
        .iter()
        .map(|&t| 1 + ((u64::from(t) - 1 + shift) % u64::from(VOCAB - 1)) as u32)
        .collect()
}

/// The ladder's requests: rung after rung, each replaying the first
/// `requests` of `schedule` time-scaled to its rate, the next rung's
/// first arrival one inter-arrival gap after the previous rung's last.
#[must_use]
pub fn jobs(schedule: &Schedule, rungs: &[Rung], salt_base: usize) -> Vec<Job> {
    let mut out = Vec::new();
    let mut start = 0.0;
    for (k, rung) in rungs.iter().enumerate() {
        let reqs = &schedule.requests[..rung.requests];
        for r in reqs {
            out.push(Job {
                id: out.len() as u64,
                rung: k,
                due: if rung.rate > 0.0 {
                    start + r.due_s(rung.rate)
                } else {
                    start
                },
                prompt: replayed_prompt(r, salt_base + k),
                max_new: r.max_new,
            });
        }
        if rung.rate > 0.0 {
            start += reqs.last().map_or(0.0, |r| r.due_s(rung.rate)) + 1.0 / rung.rate;
        }
    }
    out
}

/// Serves a ladder on one fresh server: open loop, arrivals from `jobs`,
/// rungs back to back so each rung starts from the load the previous one
/// left (a step-up load test). Timing stops at the drain deadline, past
/// which no request still running can meet both limits; leftovers are
/// finished untimed so their outputs can be checked, and count late.
/// Returns one [`Phase`] per rung and the outputs by job id.
pub fn run_ladder(
    model: &Model,
    jobs: &[Job],
    rungs: &[Rung],
    tracer: &mut Tracer,
    layer: &mut LayerTotals,
) -> (Vec<Phase>, HashMap<u64, Vec<u32>>) {
    let recorder = tracer.enabled().then(|| Arc::new(Recorder::new()));
    let (mut batcher, mut cache) = server(model, recorder.as_ref());
    let deadline_s = jobs
        .iter()
        .map(|j| j.due + TTFT_LIMIT_S + (j.max_new - 1) as f64 * TPOT_LIMIT_S)
        .fold(0.0, f64::max);
    let n = jobs.len();
    let mut submitted_at = vec![f64::NAN; n];
    let mut steps: Vec<StepRec> = Vec::new();
    let mut next = 0;
    let ladder_span = tracer.open("loadgen.ladder", NO_REQ);
    let pool_before = model.pool_utilization();
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut idle_streak = 0;
    loop {
        while next < n && jobs[next].due <= now() {
            let j = &jobs[next];
            let req = GenRequest {
                id: j.id,
                prompt: j.prompt.clone(),
                max_new: j.max_new,
            };
            tracer.span("scheduler.submit", j.id, || batcher.submit(req));
            submitted_at[next] = now();
            layer.lag_s.push(submitted_at[next] - j.due);
            next += 1;
        }
        let t = now();
        // Three idle steps in a row with work outstanding mean nothing
        // can ever be admitted: stop rather than spin to the deadline.
        if t >= deadline_s || idle_streak >= 3 {
            break;
        }
        if batcher.waiting_len() + batcher.running_len() == 0 {
            if next == n {
                break;
            }
            let wait = (jobs[next].due - t).min(deadline_s - t).max(0.0);
            std::thread::sleep(Duration::from_secs_f64(wait));
            continue;
        }
        let waiting_before = batcher.waiting_len();
        let h = tracer.open("scheduler.step", NO_REQ);
        let t0 = now();
        let mut timed = TimedCache {
            cache: &mut cache,
            tracer: &mut *tracer,
            layer: &mut *layer,
            matched: Vec::new(),
        };
        let kind = batcher.step_with(Some(&mut timed));
        let matched = timed.matched;
        let t1 = now();
        tracer.close(
            h,
            Some(match kind {
                StepKind::Prefill { .. } => "scheduler.prefill",
                StepKind::Decode { .. } => "scheduler.decode",
                StepKind::Idle => "scheduler.idle",
            }),
        );
        idle_streak = if kind == StepKind::Idle {
            idle_streak + 1
        } else {
            0
        };
        steps.push(StepRec {
            index: batcher.steps(),
            kind,
            start: t0,
            end: t1,
            waiting_before,
            matched,
        });
        let total = batcher.kv_total_blocks();
        layer
            .kv_used_frac
            .push((total - batcher.kv_free_blocks()) as f64 / total as f64);
        layer.prefix_owned_max = layer.prefix_owned_max.max(cache.owned_blocks());
    }
    layer.wall_s += now();
    tracer.close(ladder_span, None);
    let pool_after = model.pool_utilization();
    for (b, a) in pool_before.workers.iter().zip(&pool_after.workers) {
        layer.pool_busy_s += a.busy_s - b.busy_s;
        layer.pool_span_s += (a.busy_s + a.idle_s) - (b.busy_s + b.idle_s);
    }
    layer.pool_dispatch_wait_s += pool_after.dispatch_wait_s - pool_before.dispatch_wait_s;

    // Drain untimed, outside the profile. A clean drain yields every
    // request's output; a livelocked one (which the server's sizing
    // rules out) fails them all.
    let profiling = distserve_prof::enabled();
    distserve_prof::set_enabled(false);
    let mut untraced = Tracer::new(false);
    let mut idle = 0;
    while batcher.waiting_len() + batcher.running_len() > 0 && idle < 3 {
        let mut timed = TimedCache {
            cache: &mut cache,
            tracer: &mut untraced,
            layer: &mut *layer,
            matched: Vec::new(),
        };
        idle = match batcher.step_with(Some(&mut timed)) {
            StepKind::Idle => idle + 1,
            _ => 0,
        };
    }
    let finished = if idle < 3 {
        batcher.run_to_completion_with(&mut cache)
    } else {
        Vec::new()
    };
    distserve_prof::set_enabled(profiling);

    let stats = cache.stats();
    layer.prefix_lookups += stats.hits + stats.misses;
    layer.prefix_hits += stats.hits;
    layer.prefix_lookup_tokens += stats.lookup_tokens;
    layer.prefix_matched_tokens += stats.matched_tokens;
    layer.prefix_inserted += stats.inserted_blocks;
    layer.prefix_evictions += stats.evictions;
    if let Some(rec) = &recorder {
        layer.telemetry_prefill_tokens += rec.snapshot().metrics.counter(tm::PREFILL_TOKENS, 1);
    }
    account(
        model.config(),
        jobs,
        rungs,
        &submitted_at,
        &steps,
        finished,
        layer,
    )
}

/// Turns step records and finished generations into per-rung latency,
/// SLO verdicts, and layer counters.
fn account(
    cfg: &TinyConfig,
    jobs: &[Job],
    rungs: &[Rung],
    submitted_at: &[f64],
    steps: &[StepRec],
    finished: Vec<FinishedGen>,
    layer: &mut LayerTotals,
) -> (Vec<Phase>, HashMap<u64, Vec<u32>>) {
    let by_step: HashMap<u64, &StepRec> = steps.iter().map(|s| (s.index, s)).collect();
    let decode_idx: Vec<u64> = steps
        .iter()
        .filter(|s| matches!(s.kind, StepKind::Decode { .. }))
        .map(|s| s.index)
        .collect();
    let last_timed = steps.last().map_or(0, |s| s.index);

    // Admission order within each prefill step (FIFO = job order), to
    // pair requests with the reused-token counts the cache recorded.
    let mut admitted: HashMap<u64, Vec<usize>> = HashMap::new();
    for f in &finished {
        admitted
            .entry(f.first_token_step)
            .or_default()
            .push(usize::try_from(f.id).expect("job ids index jobs"));
    }
    let mut matched_of = vec![0usize; jobs.len()];
    for (step, mut idx) in admitted {
        idx.sort_unstable();
        if let Some(s) = by_step.get(&step) {
            for (i, m) in idx.into_iter().zip(&s.matched) {
                matched_of[i] = *m;
            }
        }
    }

    let mut phases: Vec<Phase> = rungs
        .iter()
        .map(|r| Phase {
            rate: r.rate,
            sent: r.requests,
            ..Phase::default()
        })
        .collect();
    let mut outputs = HashMap::new();
    let mut done = vec![false; jobs.len()];
    for f in finished {
        let i = usize::try_from(f.id).expect("job ids index jobs");
        let j = &jobs[i];
        let phase = &mut phases[j.rung];
        done[i] = true;
        // Decode steps that advanced this request: every decode step
        // after its admitting prefill, up to its completion.
        let lo = decode_idx.partition_point(|&d| d <= f.first_token_step);
        let hi = decode_idx.partition_point(|&d| d <= f.completion_step);
        let in_time = f.completion_step <= last_timed;
        if f.tokens.len() != j.max_new || (in_time && hi - lo != j.max_new - 1) {
            phase.failed += 1;
            continue;
        }
        outputs.insert(j.id, f.tokens);
        let plen = j.prompt.len();
        if f.first_token_step <= last_timed {
            layer.prefill_gflop += ((matched_of[i]..plen)
                .map(|p| row_flop(cfg, p + 1))
                .sum::<f64>()
                + logits_flop(cfg))
                / 1e9;
            layer
                .queue_wait_s
                .push(by_step[&f.first_token_step].start - submitted_at[i]);
        }
        layer.decode_gflop += (1..=hi - lo)
            .map(|k| row_flop(cfg, plen + k) + logits_flop(cfg))
            .sum::<f64>()
            / 1e9;
        if !in_time {
            phase.late += 1;
            continue;
        }
        let mut times = vec![by_step[&f.first_token_step].end];
        times.extend(decode_idx[lo..hi].iter().map(|d| by_step[d].end));
        let first = times[0];
        let last = times[times.len() - 1];
        let ttft = first - j.due;
        let tpot = if times.len() > 1 {
            (last - first) / (times.len() - 1) as f64
        } else {
            0.0
        };
        phase.ttft_s.push(ttft);
        phase.itl_s.extend(times.windows(2).map(|w| w[1] - w[0]));
        // A gap spans a prefill step when its two decode steps are not
        // adjacent: only prefill steps run while requests are decoding.
        let mut prev = f.first_token_step;
        for &d in &decode_idx[lo..hi] {
            phase.gaps += 1;
            if d > prev + 1 {
                phase.stalled_gaps += 1;
            }
            prev = d;
        }
        phase.output_tokens += j.max_new;
        phase.makespan_s = phase.makespan_s.max(last - jobs[0].due);
        if ttft <= TTFT_LIMIT_S && tpot <= TPOT_LIMIT_S {
            phase.ok += 1;
        }
    }
    for (i, d) in done.iter().enumerate() {
        if !d {
            phases[jobs[i].rung].failed += 1;
        }
    }
    for p in &phases {
        layer.gaps += p.gaps;
        layer.stalled_gaps += p.stalled_gaps;
    }

    for s in steps {
        let dt = s.end - s.start;
        match s.kind {
            StepKind::Prefill { tokens, .. } => {
                layer.prefill_steps += 1;
                layer.prefill_s += dt;
                layer.prefill_tokens += tokens as u64;
            }
            StepKind::Decode { requests } => {
                layer.decode_steps += 1;
                layer.decode_s += dt;
                layer.decode_rows += requests as u64;
                layer.decode_step_s.push(dt);
            }
            StepKind::Idle => {}
        }
        // Requests waited but the step admitted none of them.
        if s.waiting_before > 0 && !matches!(s.kind, StepKind::Prefill { .. }) {
            layer.blocked_steps += 1;
        }
    }
    (phases, outputs)
}

/// Reference check: a fixed 1-in-[`REFERENCE_EVERY`] sample of the
/// finished requests (by job id) is regenerated with the bit-exact
/// reference tier, two at a time on two threads, and must match token
/// for token. `between` runs after every round of two. Regenerations are
/// memoized by prompt. Returns `(checked, mismatched)`.
pub fn reference_check(
    model: &Model,
    jobs: &[Job],
    outputs: &HashMap<u64, Vec<u32>>,
    memo: &mut HashMap<(Vec<u32>, usize), Vec<u32>>,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(&mut Tracer),
) -> (usize, usize) {
    let sampled: Vec<(&Job, &Vec<u32>)> = jobs
        .iter()
        .filter(|j| j.id % REFERENCE_EVERY == 0)
        .filter_map(|j| outputs.get(&j.id).map(|got| (j, got)))
        .collect();
    let mut todo: Vec<(Vec<u32>, usize)> = sampled
        .iter()
        .map(|(j, _)| (j.prompt.clone(), j.max_new))
        .filter(|k| !memo.contains_key(k))
        .collect();
    todo.sort();
    todo.dedup();
    // Longest first, so the two regenerations of a round take about as
    // long as each other.
    todo.sort_by_key(|(prompt, max_new)| std::cmp::Reverse(prompt.len() + max_new));
    for round in todo.chunks(2) {
        let h = tracer.open("reference.generate", NO_REQ);
        let regenerated: Vec<Vec<u32>> = std::thread::scope(|s| {
            let workers: Vec<_> = round
                .iter()
                .map(|(prompt, max_new)| s.spawn(move || model.generate(prompt, *max_new)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference generation does not panic"))
                .collect()
        });
        tracer.close(h, None);
        for (key, tokens) in round.iter().cloned().zip(regenerated) {
            memo.insert(key, tokens);
        }
        between(tracer);
    }
    let bad = sampled
        .iter()
        .filter(|(j, got)| memo[&(j.prompt.clone(), j.max_new)] != **got)
        .count();
    (sampled.len(), bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_replays_the_schedule_per_rung() {
        let schedule = Schedule::chat(3, 24);
        let rungs = [
            Rung {
                rate: 2.0,
                requests: 24,
            },
            Rung {
                rate: 4.0,
                requests: 16,
            },
            Rung {
                rate: 0.0,
                requests: 8,
            },
        ];
        let jobs = jobs(&schedule, &rungs, 0);
        assert_eq!(jobs.len(), 48);
        assert!(jobs
            .windows(2)
            .all(|w| w[0].due <= w[1].due && w[0].id + 1 == w[1].id));
        for (k, rung) in rungs.iter().enumerate() {
            let mine: Vec<&Job> = jobs.iter().filter(|j| j.rung == k).collect();
            assert_eq!(mine.len(), rung.requests);
            for (j, r) in mine.iter().zip(&schedule.requests) {
                // Same lengths, different tokens: no cross-rung cache hits.
                assert_eq!((j.prompt.len(), j.max_new), (r.prompt.len(), r.max_new));
                assert_eq!(j.prompt == r.prompt, k == 0);
                assert!(j.prompt.iter().all(|&t| t > 0 && t < VOCAB));
            }
        }
    }

    #[test]
    fn server_sizing_rules_out_livelock_and_pool_exhaustion() {
        // Every prompt is admissible in one step, and the pool covers
        // every running slot at the longest lifetime plus the cache.
        assert!(MAX_SEQ >= Schedule::multiturn(1, 64).max_lifetime());
        assert!(kv_blocks() >= MAX_RUNNING * MAX_SEQ.div_ceil(BLOCK) + CACHE_BLOCKS);
    }
}
