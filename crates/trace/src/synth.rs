//! Lifecycle-event → causal-span synthesis.
//!
//! The engine simulators and `tinyllm`'s scheduler emit flat
//! [`LifecycleEvent`]s, not spans — they predate the span family, and
//! their event stream is already the ground truth for attribution. The
//! [`SpanSynthesizer`] sits between any such emitter and a span
//! consumer (typically the [`crate::TailSampler`]): it watches each
//! request's lifecycle, and at the terminal event folds the boundaries
//! into the same parent/child span family the scale simulator emits
//! natively — so disaggregated, colocated, and chunked engine runs all
//! produce linkable traces without touching the engines themselves.
//!
//! Outcome flags on the root span come from the lifecycle (`Rejected` →
//! `SHED`, `Failed` → `FAILED`, any `Retried` → `RETRIED`) plus
//! optional SLO thresholds ([`SpanSynthesizer::with_slos`]) for
//! `SLO_MISS`, judged by the request records' rule: TTFT ends at the
//! first `PrefillEnd`, and TPOT spreads completion minus that first
//! token over the tokens after it.

use std::sync::{Arc, Mutex};

use distserve_simcore::FastHashMap;
use distserve_telemetry::{
    span_flags, trace_id, Event, LifecycleEvent, RequestKey, Slice, SpanEvent, SpanKind,
    TelemetrySink, TraceCtx, TrackId,
};

/// Track id used for synthesized spans — lifecycle events carry no
/// instance track, so spans land on one logical request lane.
const SYNTH_TRACK: TrackId = u32::MAX;

/// Per-request lifecycle boundaries, folded incrementally.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    tenant: u32,
    arrived: f64,
    prefill_queued: Option<f64>,
    prefill_start: Option<f64>,
    prefill_end: Option<f64>,
    /// The first `PrefillEnd`: a fault-driven re-prefill emits another,
    /// but the first token was already out.
    first_token: Option<f64>,
    kv_start: Option<f64>,
    kv_end: Option<f64>,
    decode_queued: Option<f64>,
    first_step: Option<f64>,
    last_step: f64,
    steps: u32,
    generated: u32,
    retried: bool,
}

/// The synthesizing sink (see module docs). Forwards everything it
/// receives to `inner` unchanged, plus the spans it derives.
pub struct SpanSynthesizer {
    inner: Arc<dyn TelemetrySink>,
    seed: u64,
    ttft_slo: Option<f64>,
    tpot_slo: Option<f64>,
    pending: Mutex<FastHashMap<RequestKey, Pending>>,
}

impl SpanSynthesizer {
    /// Wraps `inner`, deriving trace ids from `seed` (use the run seed,
    /// so decision logs and replays agree on ids).
    #[must_use]
    pub fn new(inner: Arc<dyn TelemetrySink>, seed: u64) -> Self {
        SpanSynthesizer {
            inner,
            seed,
            ttft_slo: None,
            tpot_slo: None,
            pending: Mutex::new(FastHashMap::default()),
        }
    }

    /// Adds SLO thresholds: finished requests exceeding either get
    /// `SLO_MISS` on their root span (which makes the tail sampler keep
    /// them).
    #[must_use]
    pub fn with_slos(mut self, ttft_s: f64, tpot_s: f64) -> Self {
        self.ttft_slo = Some(ttft_s);
        self.tpot_slo = Some(tpot_s);
        self
    }

    /// Requests whose terminal event has not arrived yet.
    #[must_use]
    pub fn live(&self) -> usize {
        self.pending.lock().expect("span synthesizer lock").len()
    }

    /// Emits the span family for `req` ending at `end_s` with the given
    /// terminal kind.
    fn finalize(&self, req: RequestKey, p: &Pending, end_s: f64, terminal: LifecycleEvent) {
        let root = TraceCtx::root(trace_id(self.seed, req));
        let mut next_span = 1u32;
        let mut emit = |kind: SpanKind, start_s: f64, end_s: f64, payload: u32| {
            let ctx = root.child(next_span);
            next_span += 1;
            self.inner.span(SpanEvent {
                ctx,
                request: req,
                tenant: p.tenant,
                track: SYNTH_TRACK,
                kind,
                start_s,
                end_s: end_s.max(start_s),
                payload,
            });
        };
        if let (Some(q), Some(s)) = (p.prefill_queued, p.prefill_start.or(p.prefill_end)) {
            emit(SpanKind::PrefillQueue, q, s, 0);
        }
        if let (Some(s), Some(e)) = (p.prefill_start, p.prefill_end) {
            emit(SpanKind::PrefillExec, s, e, 0);
        }
        if let (Some(s), Some(e)) = (p.kv_start, p.kv_end) {
            emit(SpanKind::KvTransfer, s, e, 0);
        }
        let decode_from = p.decode_queued.or(p.kv_end).or(p.prefill_end);
        if let (Some(d), Some(f)) = (p.decode_queued, p.first_step) {
            emit(SpanKind::DecodeQueue, d, f, 0);
        }
        if let Some(from) = decode_from {
            if p.steps > 0 {
                emit(SpanKind::DecodeExec, from, p.last_step, p.steps);
            }
        }

        let mut flags = 0u32;
        match terminal {
            LifecycleEvent::Rejected => flags |= span_flags::SHED,
            LifecycleEvent::Failed => flags |= span_flags::FAILED,
            _ => {}
        }
        if p.retried {
            flags |= span_flags::RETRIED;
        }
        if let (LifecycleEvent::Finished, Some(first)) = (terminal, p.first_token) {
            let ttft = first - p.arrived;
            let tpot = if p.generated > 1 {
                (end_s - first) / f64::from(p.generated - 1)
            } else {
                0.0
            };
            if self.ttft_slo.is_some_and(|slo| ttft > slo)
                || self.tpot_slo.is_some_and(|slo| tpot > slo)
            {
                flags |= span_flags::SLO_MISS;
            }
        }
        self.inner.span(SpanEvent {
            ctx: root,
            request: req,
            tenant: p.tenant,
            track: SYNTH_TRACK,
            kind: SpanKind::Request,
            start_s: p.arrived,
            end_s,
            payload: flags,
        });
    }
}

impl TelemetrySink for SpanSynthesizer {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, ev: Event) {
        {
            let mut pending = self.pending.lock().expect("span synthesizer lock");
            let p = pending.entry(ev.request).or_default();
            p.tenant = ev.tenant;
            match ev.kind {
                LifecycleEvent::Arrived => p.arrived = ev.time_s,
                LifecycleEvent::PrefillQueued => {
                    // Keep the first attempt's queue entry; retries
                    // re-enter here but the span covers the whole wait.
                    if p.prefill_queued.is_none() {
                        p.prefill_queued = Some(ev.time_s);
                    }
                }
                LifecycleEvent::PrefillStart => p.prefill_start = Some(ev.time_s),
                LifecycleEvent::PrefillEnd => {
                    p.prefill_end = Some(ev.time_s);
                    p.first_token.get_or_insert(ev.time_s);
                }
                LifecycleEvent::KvMigrateStart => {
                    if p.kv_start.is_none() {
                        p.kv_start = Some(ev.time_s);
                    }
                }
                LifecycleEvent::KvMigrateEnd => p.kv_end = Some(ev.time_s),
                LifecycleEvent::DecodeQueued => {
                    if p.decode_queued.is_none() {
                        p.decode_queued = Some(ev.time_s);
                    }
                }
                LifecycleEvent::DecodeStep { generated } => {
                    p.first_step.get_or_insert(ev.time_s);
                    p.last_step = ev.time_s;
                    p.steps += 1;
                    p.generated = generated;
                }
                LifecycleEvent::Retried { .. } => p.retried = true,
                LifecycleEvent::Finished | LifecycleEvent::Rejected | LifecycleEvent::Failed => {
                    let p = pending.remove(&ev.request).expect("just inserted");
                    drop(pending);
                    self.finalize(ev.request, &p, ev.time_s, ev.kind);
                    self.inner.event(ev);
                    return;
                }
            }
        }
        self.inner.event(ev);
    }

    fn slice(&self, s: Slice) {
        self.inner.slice(s);
    }

    fn span(&self, s: SpanEvent) {
        self.inner.span(s);
    }

    fn declare_track(&self, id: TrackId, name: &str) {
        self.inner.declare_track(id, name);
    }

    fn counter_add(&self, name: &'static str, instance: TrackId, delta: u64) {
        self.inner.counter_add(name, instance, delta);
    }

    fn gauge_set(&self, name: &'static str, instance: TrackId, value: f64) {
        self.inner.gauge_set(name, instance, value);
    }

    fn observe(&self, name: &'static str, instance: TrackId, value: f64) {
        self.inner.observe(name, instance, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_telemetry::Recorder;

    fn feed(sink: &SpanSynthesizer, req: u64, tenant: u32, seq: &[(f64, LifecycleEvent)]) {
        for &(t, kind) in seq {
            sink.event(Event {
                request: req,
                tenant,
                time_s: t,
                kind,
            });
        }
    }

    #[test]
    fn disagg_lifecycle_becomes_full_span_family() {
        let rec = Arc::new(Recorder::new());
        let synth = SpanSynthesizer::new(rec.clone(), 7).with_slos(0.25, 0.05);
        feed(
            &synth,
            1,
            2,
            &[
                (0.0, LifecycleEvent::Arrived),
                (0.0, LifecycleEvent::PrefillQueued),
                (0.1, LifecycleEvent::PrefillStart),
                (0.3, LifecycleEvent::PrefillEnd),
                (0.3, LifecycleEvent::KvMigrateStart),
                (0.35, LifecycleEvent::KvMigrateEnd),
                (0.35, LifecycleEvent::DecodeQueued),
                (0.4, LifecycleEvent::DecodeStep { generated: 1 }),
                (0.5, LifecycleEvent::DecodeStep { generated: 2 }),
                (0.5, LifecycleEvent::Finished),
            ],
        );
        assert_eq!(synth.live(), 0);
        let snap = rec.snapshot();
        let kinds: Vec<SpanKind> = snap.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::PrefillQueue,
                SpanKind::PrefillExec,
                SpanKind::KvTransfer,
                SpanKind::DecodeQueue,
                SpanKind::DecodeExec,
                SpanKind::Request,
            ]
        );
        let root = snap.spans.last().unwrap();
        assert_eq!(root.ctx.span_id, 0);
        assert_eq!(root.tenant, 2);
        // TTFT 0.3 > 0.25 → SLO miss flag.
        assert_eq!(root.payload & span_flags::SLO_MISS, span_flags::SLO_MISS);
        for s in &snap.spans[..snap.spans.len() - 1] {
            assert_eq!(s.ctx.parent, 0);
            assert_eq!(s.ctx.trace_id, root.ctx.trace_id);
        }
        assert_eq!(root.ctx.trace_id, trace_id(7, 1));
        // The decode exec span carries the step count.
        let de = snap
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::DecodeExec)
            .unwrap();
        assert_eq!(de.payload, 2);
        // The raw lifecycle events were forwarded untouched.
        assert_eq!(snap.events.len(), 10);
    }

    #[test]
    fn rejection_and_retry_set_flags() {
        let rec = Arc::new(Recorder::new());
        let synth = SpanSynthesizer::new(rec.clone(), 7);
        feed(
            &synth,
            5,
            0,
            &[
                (0.0, LifecycleEvent::Arrived),
                (0.0, LifecycleEvent::Rejected),
            ],
        );
        feed(
            &synth,
            6,
            0,
            &[
                (0.0, LifecycleEvent::Arrived),
                (0.0, LifecycleEvent::PrefillQueued),
                (0.2, LifecycleEvent::Retried { attempt: 1 }),
                (0.3, LifecycleEvent::Failed),
            ],
        );
        let snap = rec.snapshot();
        let roots: std::collections::HashMap<u64, u32> = snap
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request)
            .map(|s| (s.request, s.payload))
            .collect();
        assert_eq!(roots[&5], span_flags::SHED);
        assert_eq!(roots[&6], span_flags::FAILED | span_flags::RETRIED);
    }
}
