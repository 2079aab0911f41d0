//! Tail-based trace sampling at O(live requests) memory.
//!
//! Head-based sampling (decide at arrival) cannot keep "every trace
//! that went wrong" — whether a request missed its SLO is only known at
//! its terminal event. The [`TailSampler`] therefore buffers each live
//! trace's spans in a pooled arena and decides *at the root span*
//! (emitted last, carrying the outcome flags): keep every interesting
//! trace (nonzero [`span_flags`]) plus a deterministic 1-in-N reservoir
//! of healthy ones, recycle everything else.
//!
//! Memory is bounded by construction, not by luck:
//!
//! - live arenas ≤ in-flight requests, and freed arenas are reused;
//! - each arena holds at most `max_spans_per_trace` spans (overflow
//!   counted in [`SamplerStats::truncated_spans`]);
//! - at most `max_kept` traces are retained between
//!   [`TailSampler::take_kept`] calls (overflow counted in
//!   [`SamplerStats::dropped_over_cap`] — never silent).
//!
//! A 10M-request `ScaleSim` run with a `TailSampler` attached stays
//! flat-RSS; `tests/tracing.rs` gates exactly that.

use std::sync::Mutex;

use distserve_simcore::FastHashMap;
use distserve_telemetry::{trace_id, SpanEvent, SpanKind, TelemetrySink};

/// Salt for the reservoir hash, so reservoir membership is independent
/// of the trace-id derivation seed.
const RESERVOIR_SALT: u64 = 0x7A11_5A3F_1E5E_7201;

/// Sampling policy.
#[derive(Debug, Clone, Copy)]
pub struct TailSamplerConfig {
    /// Keep roughly one in this many *uninteresting* traces as a
    /// deterministic reservoir (hash of the trace id, so re-runs keep
    /// the identical set). `0` keeps none.
    pub sample_every: u64,
    /// Retain at most this many traces between [`TailSampler::take_kept`]
    /// calls; further keep-worthy traces are dropped and counted.
    pub max_kept: usize,
    /// Per-trace span cap; spans beyond it are dropped and counted.
    pub max_spans_per_trace: usize,
}

impl Default for TailSamplerConfig {
    fn default() -> Self {
        TailSamplerConfig {
            sample_every: 1024,
            max_kept: 4096,
            max_spans_per_trace: 256,
        }
    }
}

/// Counters describing what the sampler saw, kept, and shed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Traces finalized (root span observed).
    pub finished: u64,
    /// Traces finalized with nonzero outcome flags.
    pub interesting: u64,
    /// Traces currently retained.
    pub kept: u64,
    /// Keep-worthy traces dropped because `max_kept` was reached.
    pub dropped_over_cap: u64,
    /// Spans dropped because their trace hit `max_spans_per_trace`.
    pub truncated_spans: u64,
    /// Traces currently buffering (root span not yet seen).
    pub live: u64,
    /// Recycled arenas waiting for reuse.
    pub pooled: u64,
}

struct Inner {
    /// trace id → arena index, for traces still buffering.
    live: FastHashMap<u64, usize>,
    /// Span arenas; indices never shrink, freed ones go on `free`.
    arenas: Vec<Vec<SpanEvent>>,
    free: Vec<usize>,
    /// Finalized keep-worthy traces, root span last.
    kept: Vec<Vec<SpanEvent>>,
    stats: SamplerStats,
}

/// The tail-based sampling sink (see module docs).
pub struct TailSampler {
    cfg: TailSamplerConfig,
    inner: Mutex<Inner>,
}

impl TailSampler {
    /// A sampler with the given policy.
    #[must_use]
    pub fn new(cfg: TailSamplerConfig) -> Self {
        TailSampler {
            cfg,
            inner: Mutex::new(Inner {
                live: FastHashMap::default(),
                arenas: Vec::new(),
                free: Vec::new(),
                kept: Vec::new(),
                stats: SamplerStats::default(),
            }),
        }
    }

    /// The active policy.
    #[must_use]
    pub fn config(&self) -> TailSamplerConfig {
        self.cfg
    }

    /// Whether the deterministic reservoir selects `tid` (independent
    /// of span content, so identical across runs and replays).
    #[must_use]
    pub fn reservoir_keeps(&self, tid: u64) -> bool {
        self.cfg.sample_every > 0
            && trace_id(RESERVOIR_SALT, tid).is_multiple_of(self.cfg.sample_every)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> SamplerStats {
        let mut inner = self.inner.lock().expect("sampler lock");
        inner.stats.kept = inner.kept.len() as u64;
        inner.stats.live = inner.live.len() as u64;
        inner.stats.pooled = inner.free.len() as u64;
        inner.stats
    }

    /// Drains the kept traces (each with its root span last), freeing
    /// their memory for subsequent keeps.
    #[must_use]
    pub fn take_kept(&self) -> Vec<Vec<SpanEvent>> {
        std::mem::take(&mut self.inner.lock().expect("sampler lock").kept)
    }
}

impl Default for TailSampler {
    fn default() -> Self {
        TailSampler::new(TailSamplerConfig::default())
    }
}

impl TelemetrySink for TailSampler {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, s: SpanEvent) {
        let mut inner = self.inner.lock().expect("sampler lock");
        let tid = s.ctx.trace_id;
        let is_root = s.kind == SpanKind::Request && s.ctx.span_id == 0;
        if !is_root {
            let idx = match inner.live.get(&tid) {
                Some(&idx) => idx,
                None => {
                    let idx = if let Some(idx) = inner.free.pop() {
                        idx
                    } else {
                        inner.arenas.push(Vec::new());
                        inner.arenas.len() - 1
                    };
                    inner.live.insert(tid, idx);
                    idx
                }
            };
            if inner.arenas[idx].len() < self.cfg.max_spans_per_trace {
                inner.arenas[idx].push(s);
            } else {
                inner.stats.truncated_spans += 1;
            }
            return;
        }
        // Root span: finalize.
        inner.stats.finished += 1;
        let interesting = s.payload != 0;
        if interesting {
            inner.stats.interesting += 1;
        }
        let keep = interesting || self.reservoir_keeps(tid);
        let idx = inner.live.remove(&tid);
        if keep {
            if inner.kept.len() < self.cfg.max_kept {
                let mut trace = match idx {
                    Some(i) => {
                        // Swap the arena out for an empty one; the slot
                        // stays pooled for the next trace.
                        let t = std::mem::take(&mut inner.arenas[i]);
                        inner.free.push(i);
                        t
                    }
                    None => Vec::new(),
                };
                trace.push(s);
                inner.kept.push(trace);
                return;
            }
            inner.stats.dropped_over_cap += 1;
        }
        if let Some(i) = idx {
            inner.arenas[i].clear();
            inner.free.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_telemetry::{span_flags, TraceCtx, NO_PARENT};

    fn root(tid: u64, flags: u32) -> SpanEvent {
        SpanEvent {
            ctx: TraceCtx::root(tid),
            request: tid,
            tenant: 0,
            track: 0,
            kind: SpanKind::Request,
            start_s: 0.0,
            end_s: 1.0,
            payload: flags,
        }
    }

    fn child(tid: u64, span: u32, kind: SpanKind) -> SpanEvent {
        SpanEvent {
            ctx: TraceCtx::root(tid).child(span),
            request: tid,
            tenant: 0,
            track: 0,
            kind,
            start_s: 0.1,
            end_s: 0.5,
            payload: 0,
        }
    }

    #[test]
    fn keeps_interesting_drops_healthy() {
        let s = TailSampler::new(TailSamplerConfig {
            sample_every: 0,
            ..TailSamplerConfig::default()
        });
        for tid in 1..=100u64 {
            s.span(child(tid, 1, SpanKind::PrefillExec));
            let flags = if tid % 10 == 0 {
                span_flags::SLO_MISS
            } else {
                0
            };
            s.span(root(tid, flags));
        }
        let stats = s.stats();
        assert_eq!(stats.finished, 100);
        assert_eq!(stats.interesting, 10);
        assert_eq!(stats.kept, 10);
        assert_eq!(stats.live, 0);
        let kept = s.take_kept();
        assert_eq!(kept.len(), 10);
        for t in &kept {
            assert_eq!(t.len(), 2);
            let r = t.last().unwrap();
            assert_eq!(r.kind, SpanKind::Request);
            assert_ne!(r.payload, 0);
            assert_eq!(r.ctx.parent, NO_PARENT);
        }
        assert_eq!(s.stats().kept, 0, "take_kept drains");
    }

    #[test]
    fn reservoir_is_deterministic_and_roughly_one_in_n() {
        let s = TailSampler::new(TailSamplerConfig {
            sample_every: 16,
            ..TailSamplerConfig::default()
        });
        let picks: Vec<u64> = (1..=4096u64).filter(|&t| s.reservoir_keeps(t)).collect();
        let again: Vec<u64> = (1..=4096u64).filter(|&t| s.reservoir_keeps(t)).collect();
        assert_eq!(picks, again);
        // 4096/16 = 256 expected; allow wide slack for hash variance.
        assert!(
            (128..=512).contains(&picks.len()),
            "reservoir picked {} of 4096 at 1-in-16",
            picks.len()
        );
    }

    #[test]
    fn arenas_recycle_and_caps_count() {
        let s = TailSampler::new(TailSamplerConfig {
            sample_every: 0,
            max_kept: 2,
            max_spans_per_trace: 3,
        });
        // 50 sequential traces, never more than one live: the pool must
        // stay at a single arena.
        for tid in 1..=50u64 {
            for span in 1..=5u32 {
                s.span(child(tid, span, SpanKind::DecodeExec));
            }
            s.span(root(tid, span_flags::SLO_MISS));
        }
        let stats = s.stats();
        assert_eq!(stats.kept, 2, "max_kept caps retention");
        assert_eq!(stats.dropped_over_cap, 48);
        // 2 spans over the 3-span cap, per trace.
        assert_eq!(stats.truncated_spans, 100);
        assert_eq!(stats.pooled, 1, "one arena, recycled 50 times");
        let kept = s.take_kept();
        assert_eq!(kept[0].len(), 4, "3 children + root");
    }

    #[test]
    fn rootless_spans_stay_live_and_bounded() {
        let s = TailSampler::default();
        for tid in 1..=8u64 {
            s.span(child(tid, 1, SpanKind::KvTransfer));
        }
        let stats = s.stats();
        assert_eq!(stats.live, 8);
        assert_eq!(stats.finished, 0);
    }
}
