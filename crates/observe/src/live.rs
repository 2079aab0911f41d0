//! The live aggregating sink: a [`TelemetrySink`] that folds lifecycle
//! events into a [`SloWindow`] and per-instance utilization counters as
//! they are emitted, instead of buffering a full recording.
//!
//! This is the online half of the observatory: engines tee their
//! telemetry into a `Recorder` (for post-run export) *and* an
//! [`ObserverSink`] (for windowed attainment the replanner can act on)
//! via [`TeeSink`](distserve_telemetry::TeeSink).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard};

use distserve_telemetry::{
    metrics, Event, LifecycleEvent, RequestKey, Slice, TelemetrySink, TrackId,
};

use crate::window::{BucketStats, SloWindow, WindowStats};

/// In-flight request state: enough to compute TTFT/TPOT at completion.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: f64,
    first_token: Option<f64>,
    steps: u32,
}

/// Per-track busy accounting folded from slices.
#[derive(Debug, Clone, Copy, Default)]
struct TrackUse {
    busy_secs: f64,
    batches: u64,
    tokens: u64,
    first_start: f64,
    last_end: f64,
}

/// Per-instance utilization snapshot.
#[derive(Debug, Clone)]
pub struct InstanceUse {
    /// Telemetry track id.
    pub track: TrackId,
    /// Declared track name (e.g. `prefill[0] tp1·pp1`).
    pub name: String,
    /// Summed slice durations.
    pub busy_secs: f64,
    /// Busy fraction of the global observed span.
    pub utilization: f64,
    /// Batches executed.
    pub batches: u64,
    /// Tokens processed.
    pub tokens: u64,
}

/// Last-seen load gauges for one track, stamped with the observer clock.
#[derive(Debug, Clone, Copy, Default)]
struct LoadGauges {
    queued_tokens: f64,
    decode_load: f64,
    kv_utilization: f64,
    /// Observer-clock time of the last gauge update.
    stamped: f64,
}

/// Per-instance load as the router frontend reads it. Values come from
/// the engine's queue/decode/KV gauges; an instance with **no** gauge
/// sample inside the live window reports all-zero load (never a stale
/// last value — an idle instance stops emitting gauges precisely
/// because nothing is happening on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceLoad {
    /// Telemetry track id (= engine instance index).
    pub track: TrackId,
    /// Prompt tokens waiting in the prefill queue.
    pub queued_tokens: f64,
    /// Active decode slots (group members + overflow + pending pulls).
    pub decode_load: f64,
    /// KV pool occupancy in `[0, 1]`.
    pub kv_utilization: f64,
    /// Seconds since the last gauge sample (`f64::INFINITY` when the
    /// track never reported).
    pub age_secs: f64,
}

#[derive(Debug)]
struct Inner {
    window: SloWindow,
    pending: HashMap<RequestKey, Pending>,
    tracks: BTreeMap<TrackId, TrackUse>,
    names: BTreeMap<TrackId, String>,
    loads: BTreeMap<TrackId, LoadGauges>,
    /// Latest telemetry timestamp seen (events and slices carry times;
    /// gauges are stamped with this clock on arrival).
    clock: f64,
    /// Freshness horizon for [`ObserverSink::load_snapshot`]: the live
    /// window span.
    horizon_secs: f64,
}

/// A [`TelemetrySink`] that maintains windowed SLO attainment and
/// per-instance utilization online.
#[derive(Debug)]
pub struct ObserverSink {
    inner: Mutex<Inner>,
}

impl ObserverSink {
    /// Creates an observer judging against the given SLOs over a
    /// sliding window of `buckets × bucket_secs` seconds.
    #[must_use]
    pub fn new(ttft_slo: f64, tpot_slo: f64, bucket_secs: f64, buckets: usize) -> Self {
        ObserverSink {
            inner: Mutex::new(Inner {
                window: SloWindow::new(ttft_slo, tpot_slo, bucket_secs, buckets),
                pending: HashMap::new(),
                tracks: BTreeMap::new(),
                names: BTreeMap::new(),
                loads: BTreeMap::new(),
                clock: 0.0,
                horizon_secs: bucket_secs * buckets as f64,
            }),
        }
    }

    /// The observer's state. A panic while updating poisons it, and every
    /// later access panics rather than read a half-updated window.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("live observer lock")
    }

    /// Current windowed statistics.
    #[must_use]
    pub fn stats(&self) -> WindowStats {
        self.lock().window.stats()
    }

    /// Per-bucket attainment series, ascending epoch.
    #[must_use]
    pub fn series(&self) -> Vec<BucketStats> {
        self.lock().window.series()
    }

    /// Per-instance utilization over the observed span.
    #[must_use]
    pub fn utilization(&self) -> Vec<InstanceUse> {
        let inner = self.lock();
        let span_start = inner
            .tracks
            .values()
            .map(|t| t.first_start)
            .fold(f64::INFINITY, f64::min);
        let span_end = inner
            .tracks
            .values()
            .map(|t| t.last_end)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (span_end - span_start).max(f64::EPSILON);
        inner
            .tracks
            .iter()
            .map(|(&track, u)| InstanceUse {
                track,
                name: inner
                    .names
                    .get(&track)
                    .cloned()
                    .unwrap_or_else(|| format!("track {track}")),
                busy_secs: u.busy_secs,
                utilization: (u.busy_secs / span).min(1.0),
                batches: u.batches,
                tokens: u.tokens,
            })
            .collect()
    }

    /// Requests seen but not yet terminal (diagnostic).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.lock().pending.len()
    }

    /// Per-instance load snapshot for the router frontend, one entry per
    /// known track in track order.
    ///
    /// A track whose last gauge sample is older than the live window —
    /// or that never emitted one — reports **zero** load, not the stale
    /// last value: a drained instance stops emitting queue gauges, and
    /// carrying its final (possibly busy) reading forward would make the
    /// router forever avoid exactly the replicas that are free. (Same bug
    /// class as the prefill-gauge fix in the attribution layer.)
    #[must_use]
    pub fn load_snapshot(&self) -> Vec<InstanceLoad> {
        let inner = self.lock();
        inner
            .names
            .keys()
            .chain(inner.loads.keys())
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|track| {
                let sample = inner.loads.get(&track);
                let age = sample.map_or(f64::INFINITY, |s| inner.clock - s.stamped);
                match sample {
                    Some(s) if age <= inner.horizon_secs => InstanceLoad {
                        track,
                        queued_tokens: s.queued_tokens,
                        decode_load: s.decode_load,
                        kv_utilization: s.kv_utilization,
                        age_secs: age,
                    },
                    _ => InstanceLoad {
                        track,
                        queued_tokens: 0.0,
                        decode_load: 0.0,
                        kv_utilization: 0.0,
                        age_secs: age,
                    },
                }
            })
            .collect()
    }
}

impl TelemetrySink for ObserverSink {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, ev: Event) {
        let mut inner = self.lock();
        inner.clock = inner.clock.max(ev.time_s);
        match ev.kind {
            LifecycleEvent::Arrived => {
                inner.pending.insert(
                    ev.request,
                    Pending {
                        arrival: ev.time_s,
                        first_token: None,
                        steps: 0,
                    },
                );
            }
            LifecycleEvent::PrefillEnd => {
                if let Some(p) = inner.pending.get_mut(&ev.request) {
                    p.first_token.get_or_insert(ev.time_s);
                }
            }
            LifecycleEvent::DecodeStep { .. } => {
                if let Some(p) = inner.pending.get_mut(&ev.request) {
                    p.steps += 1;
                }
            }
            LifecycleEvent::Finished => {
                if let Some(p) = inner.pending.remove(&ev.request) {
                    let first_token = p.first_token.unwrap_or(ev.time_s);
                    let ttft = first_token - p.arrival;
                    let tpot =
                        (p.steps > 0).then(|| (ev.time_s - first_token) / f64::from(p.steps));
                    inner.window.record_finished(ev.time_s, ttft, tpot);
                }
            }
            LifecycleEvent::Rejected => {
                inner.pending.remove(&ev.request);
                inner.window.record_rejected(ev.time_s);
            }
            LifecycleEvent::Failed => {
                inner.pending.remove(&ev.request);
                inner.window.record_failed(ev.time_s);
            }
            _ => {}
        }
    }

    fn slice(&self, s: Slice) {
        let mut inner = self.lock();
        inner.clock = inner.clock.max(s.end_s);
        let u = inner.tracks.entry(s.track).or_insert(TrackUse {
            first_start: s.start_s,
            last_end: s.end_s,
            ..TrackUse::default()
        });
        u.busy_secs += s.end_s - s.start_s;
        u.batches += 1;
        u.tokens += u64::from(s.tokens);
        u.first_start = u.first_start.min(s.start_s);
        u.last_end = u.last_end.max(s.end_s);
    }

    fn declare_track(&self, id: TrackId, name: &str) {
        self.lock().names.insert(id, name.to_string());
    }

    fn gauge_set(&self, name: &'static str, instance: TrackId, value: f64) {
        let mut inner = self.lock();
        let clock = inner.clock;
        let g = inner.loads.entry(instance).or_default();
        match name {
            metrics::PREFILL_QUEUE_TOKENS => g.queued_tokens = value,
            metrics::DECODE_LOAD => g.decode_load = value,
            metrics::KV_UTILIZATION => g.kv_utilization = value,
            _ => return,
        }
        g.stamped = clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(request: RequestKey, time_s: f64, kind: LifecycleEvent) -> Event {
        Event {
            request,
            tenant: 0,
            time_s,
            kind,
        }
    }

    #[test]
    fn observer_folds_lifecycles_into_window() {
        use LifecycleEvent as E;
        let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
        obs.event(ev(1, 0.0, E::Arrived));
        obs.event(ev(1, 0.2, E::PrefillEnd));
        obs.event(ev(1, 0.3, E::DecodeStep { generated: 2 }));
        obs.event(ev(1, 0.4, E::DecodeStep { generated: 3 }));
        obs.event(ev(1, 0.4, E::Finished));
        obs.event(ev(2, 0.1, E::Arrived));
        obs.event(ev(2, 0.1, E::Rejected));
        assert_eq!(obs.in_flight(), 0);
        let s = obs.stats();
        assert_eq!(s.finished, 1);
        assert_eq!(s.rejected, 1);
        // TTFT 0.2 ≤ 0.25, TPOT 0.1 ≤ 0.1; the rejection halves it.
        assert!((s.attainment - 0.5).abs() < 1e-12);
        assert!((s.ttft_p50.unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn observer_counts_failures() {
        use LifecycleEvent as E;
        let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
        obs.event(ev(1, 0.0, E::Arrived));
        obs.event(ev(1, 0.2, E::PrefillEnd));
        obs.event(ev(1, 0.3, E::Retried { attempt: 1 }));
        obs.event(ev(1, 0.4, E::Failed));
        obs.event(ev(2, 0.0, E::Arrived));
        obs.event(ev(2, 0.2, E::PrefillEnd));
        obs.event(ev(2, 0.3, E::Finished));
        assert_eq!(obs.in_flight(), 0);
        let s = obs.stats();
        assert_eq!(s.failed, 1);
        assert_eq!(s.finished, 1);
        assert_eq!(s.requests, 2);
        assert!((s.attainment - 0.5).abs() < 1e-12);
    }

    #[test]
    fn observer_tracks_utilization() {
        let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
        obs.declare_track(0, "prefill[0]");
        obs.slice(Slice {
            track: 0,
            name: "prefill",
            start_s: 0.0,
            end_s: 0.5,
            batch: 1,
            tokens: 128,
        });
        obs.slice(Slice {
            track: 1,
            name: "decode",
            start_s: 0.5,
            end_s: 1.0,
            batch: 2,
            tokens: 2,
        });
        let u = obs.utilization();
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].name, "prefill[0]");
        assert!((u[0].busy_secs - 0.5).abs() < 1e-12);
        // Each track busy half the 1 s global span.
        assert!((u[0].utilization - 0.5).abs() < 1e-12);
        assert_eq!(u[1].name, "track 1");
        assert_eq!(u[1].tokens, 2);
    }

    #[test]
    fn load_snapshot_reads_fresh_gauges() {
        use LifecycleEvent as E;
        let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
        obs.declare_track(0, "prefill[0]");
        obs.declare_track(1, "decode[1]");
        obs.event(ev(1, 5.0, E::Arrived));
        obs.gauge_set(metrics::PREFILL_QUEUE_TOKENS, 0, 512.0);
        obs.gauge_set(metrics::DECODE_LOAD, 1, 7.0);
        obs.gauge_set(metrics::KV_UTILIZATION, 1, 0.4);
        let snap = obs.load_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].queued_tokens, 512.0);
        assert_eq!(snap[1].decode_load, 7.0);
        assert_eq!(snap[1].kv_utilization, 0.4);
        assert_eq!(snap[0].age_secs, 0.0);
    }

    /// Regression: an instance whose gauges went quiet must read as
    /// idle, not at its last (stale) load. Same bug class as the
    /// prefill-gauge staleness fix in the attribution layer: a drained
    /// instance emits no gauges precisely because it has no work, and a
    /// router trusting the stale value would shun the freest replica.
    #[test]
    fn load_snapshot_stale_gauges_fall_back_to_zero() {
        use LifecycleEvent as E;
        // 16 × 1 s live window.
        let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
        obs.declare_track(0, "prefill[0]");
        obs.declare_track(1, "prefill[1]");
        // Both instances report load early.
        obs.event(ev(1, 1.0, E::Arrived));
        obs.gauge_set(metrics::PREFILL_QUEUE_TOKENS, 0, 4096.0);
        obs.gauge_set(metrics::PREFILL_QUEUE_TOKENS, 1, 4096.0);
        // Much later, only instance 1 is still reporting.
        obs.event(ev(2, 100.0, E::Arrived));
        obs.gauge_set(metrics::PREFILL_QUEUE_TOKENS, 1, 64.0);
        let snap = obs.load_snapshot();
        // Instance 0's sample is 99 s old — outside the 16 s window: it
        // must read as zero, not 4096.
        assert_eq!(snap[0].queued_tokens, 0.0);
        assert!((snap[0].age_secs - 99.0).abs() < 1e-9);
        assert_eq!(snap[1].queued_tokens, 64.0);
    }

    /// A track that never emitted a gauge reads as zero with infinite
    /// age (not missing from the snapshot).
    #[test]
    fn load_snapshot_covers_silent_tracks() {
        let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
        obs.declare_track(0, "prefill[0]");
        obs.declare_track(1, "decode[1]");
        obs.gauge_set(metrics::DECODE_LOAD, 1, 3.0);
        let snap = obs.load_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].queued_tokens, 0.0);
        assert_eq!(snap[0].decode_load, 0.0);
        assert!(snap[0].age_secs.is_infinite());
        assert_eq!(snap[1].decode_load, 3.0);
    }
}
