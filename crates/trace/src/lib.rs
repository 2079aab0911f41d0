//! Causal request tracing for the routed fleet: tail-based sampling,
//! span synthesis, and a flight recorder.
//!
//! DistServe splits one request across tiers — router, prefill replica,
//! KV transfer, decode replica — which is exactly when flat logs stop
//! answering "where did *this* request's latency go". This crate turns
//! the telemetry layer's causal spans ([`distserve_telemetry::SpanEvent`],
//! parent/child via [`distserve_telemetry::TraceCtx`]) into an
//! operable tracing pipeline:
//!
//! * [`TailSampler`] — keep-at-the-tail sampling: every SLO-violating,
//!   shed, retried, or failed trace survives, healthy traffic is
//!   reservoir-sampled 1-in-N, and memory stays O(live requests) via
//!   pooled span arenas. 10M-request `ScaleSim` runs stay flat-RSS.
//! * [`SpanSynthesizer`] — adapts engines that emit flat
//!   [`distserve_telemetry::LifecycleEvent`]s (the token-granular
//!   simulator, `tinyllm`'s scheduler) into the same span family, so
//!   disaggregated, colocated, and chunked runs all produce linkable
//!   traces.
//! * [`FlightRecorder`] — a fixed-size ring of recent lifecycle events
//!   dumped to Perfetto when a burn-rate alert or fault storm fires.
//!
//! Nothing here writes trace JSON itself: kept traces and the flight
//! recorder's window go into a [`distserve_telemetry::Recording`], whose
//! `perfetto_json` draws each trace as a waterfall process (one lane per
//! span kind, decode steps expanded at export time).
//!
//! Trace ids are pure functions of `(seed, request id)`
//! ([`distserve_telemetry::trace_id`], re-exported here), so a
//! `router::DecisionRecord`'s `trace_id` joins the decision log to the
//! exported waterfall, and replayed runs keep identical trace sets.
//!
//! ```
//! use std::sync::Arc;
//! use distserve_trace::{TailSampler, TailSamplerConfig};
//! use distserve_telemetry::{
//!     span_flags, Recording, SpanEvent, SpanKind, TelemetrySink, TraceCtx,
//! };
//!
//! let sampler = Arc::new(TailSampler::new(TailSamplerConfig::default()));
//! // ... attach to ScaleSim::set_tracing / a SpanSynthesizer and run ...
//! let root = TraceCtx::root(distserve_trace::trace_id(7, 42));
//! sampler.span(SpanEvent {
//!     ctx: root.child(1), request: 42, tenant: 0, track: 0,
//!     kind: SpanKind::PrefillExec, start_s: 0.0, end_s: 0.2, payload: 0,
//! });
//! sampler.span(SpanEvent {
//!     ctx: root, request: 42, tenant: 0, track: 0,
//!     kind: SpanKind::Request, start_s: 0.0, end_s: 0.9,
//!     payload: span_flags::SLO_MISS,
//! });
//! let kept = sampler.take_kept();
//! assert_eq!(kept.len(), 1);
//! let waterfalls = Recording { spans: kept.concat(), ..Recording::default() };
//! assert!(waterfalls.perfetto_json().contains("prefill_exec"));
//! ```

mod flight;
mod sampler;
mod synth;

pub use distserve_telemetry::trace_id;
pub use flight::{FlightRecorder, IncidentDump};
pub use sampler::{SamplerStats, TailSampler, TailSamplerConfig};
pub use synth::SpanSynthesizer;
