//! The recording sink, its immutable snapshot, and per-request
//! lifecycle reconstruction/validation.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::event::{Event, LifecycleEvent, RequestKey, Slice, SpanEvent, TenantId, TrackId};
use crate::registry::MetricsRegistry;
use crate::sink::TelemetrySink;

#[derive(Debug, Default)]
struct RecorderInner {
    events: Vec<Event>,
    slices: Vec<Slice>,
    spans: Vec<SpanEvent>,
    tracks: BTreeMap<TrackId, String>,
    metrics: MetricsRegistry,
}

/// A [`TelemetrySink`] that records everything in memory.
///
/// Interior-mutable behind one mutex so engines can share it by
/// reference (`&Recorder` implements the sink trait); take a
/// [`Recorder::snapshot`] when the run finishes to export.
///
/// # Examples
///
/// ```
/// use distserve_telemetry::{Event, LifecycleEvent, Recorder, TelemetrySink};
///
/// let rec = Recorder::new();
/// rec.event(Event { request: 0, tenant: 0, time_s: 1.0, kind: LifecycleEvent::Arrived });
/// assert_eq!(rec.snapshot().events.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The recorded state. A panic while recording poisons it, and every
    /// later access panics rather than read a half-written record.
    fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().expect("recorder lock")
    }

    /// Clones out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Recording {
        let inner = self.lock();
        Recording {
            events: inner.events.clone(),
            slices: inner.slices.clone(),
            spans: inner.spans.clone(),
            tracks: inner.tracks.clone(),
            metrics: inner.metrics.clone(),
        }
    }
}

impl TelemetrySink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, ev: Event) {
        self.lock().events.push(ev);
    }

    fn slice(&self, s: Slice) {
        self.lock().slices.push(s);
    }

    fn span(&self, s: SpanEvent) {
        self.lock().spans.push(s);
    }

    fn declare_track(&self, id: TrackId, name: &str) {
        self.lock().tracks.insert(id, name.to_string());
    }

    fn counter_add(&self, name: &'static str, instance: TrackId, delta: u64) {
        self.lock().metrics.counter_add(name, instance, delta);
    }

    fn gauge_set(&self, name: &'static str, instance: TrackId, value: f64) {
        self.lock().metrics.gauge_set(name, instance, value);
    }

    fn observe(&self, name: &'static str, instance: TrackId, value: f64) {
        self.lock().metrics.observe(name, instance, value);
    }
}

/// An immutable snapshot of a [`Recorder`], ready for export.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Lifecycle events in emission order.
    pub events: Vec<Event>,
    /// Execution slices in emission order.
    pub slices: Vec<Slice>,
    /// Causal spans in emission order.
    pub spans: Vec<SpanEvent>,
    /// Declared track names.
    pub tracks: BTreeMap<TrackId, String>,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

impl Recording {
    /// Groups events by request, preserving emission order within each
    /// request (engines emit in causal order, so this is also time
    /// order — [`Lifecycle::validate`] checks exactly that).
    #[must_use]
    pub fn lifecycles(&self) -> BTreeMap<RequestKey, Lifecycle> {
        let mut out: BTreeMap<RequestKey, Lifecycle> = BTreeMap::new();
        for ev in &self.events {
            let lc = out.entry(ev.request).or_default();
            lc.tenant = ev.tenant;
            lc.events.push((ev.time_s, ev.kind));
        }
        out
    }

    /// Tracks that appear in slices but were never declared get a
    /// generated name; returns the union, keyed by id.
    #[must_use]
    pub fn track_names(&self) -> BTreeMap<TrackId, String> {
        let mut out = self.tracks.clone();
        for s in &self.slices {
            out.entry(s.track)
                .or_insert_with(|| format!("track {}", s.track));
        }
        out
    }
}

/// One request's lifecycle events, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lifecycle {
    /// Tenant the request belongs to (from its events; `0` default).
    pub tenant: TenantId,
    /// `(time_s, event)` pairs as emitted.
    pub events: Vec<(f64, LifecycleEvent)>,
}

impl Lifecycle {
    /// First event time, if any.
    #[must_use]
    pub fn start(&self) -> Option<f64> {
        self.events.first().map(|&(t, _)| t)
    }

    /// Last event time, if any.
    #[must_use]
    pub fn end(&self) -> Option<f64> {
        self.events.last().map(|&(t, _)| t)
    }

    /// Time of the first occurrence of an event kind (matched by name,
    /// so any `DecodeStep` payload matches).
    #[must_use]
    pub fn first(&self, kind: LifecycleEvent) -> Option<f64> {
        self.events
            .iter()
            .find(|(_, e)| e.name() == kind.name())
            .map(|&(t, _)| t)
    }

    /// Retry attempts recorded, i.e. the number of `Retried` events.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, LifecycleEvent::Retried { .. }))
            .count() as u32
    }

    /// Checks the lifecycle is *monotone* and *complete*:
    ///
    /// * timestamps never decrease in emission order;
    /// * the first event is `Arrived`, the last is terminal
    ///   (`Finished`/`Rejected`/`Failed`), and nothing follows a
    ///   terminal event;
    /// * paired events are complete and ordered *within an attempt* —
    ///   no `PrefillEnd` without an open `PrefillStart`, no
    ///   `KvMigrateEnd` without an open `KvMigrateStart`. A `Retried`
    ///   event abandons the attempt in progress (its open pairs are
    ///   forgiven), and a lifecycle ending in `Failed` may leave pairs
    ///   open — the fault interrupted them. Only `Finished` demands
    ///   fully closed pairs;
    /// * `Retried.attempt` numbers strictly increase from 1;
    /// * `DecodeStep.generated` strictly increases — retries *resume*
    ///   token counts (delivered tokens are never re-delivered).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.events.is_empty() {
            return Err("empty lifecycle".into());
        }
        if self.events[0].1 != LifecycleEvent::Arrived {
            return Err(format!(
                "first event {} != Arrived",
                self.events[0].1.name()
            ));
        }
        let (_, last) = self.events[self.events.len() - 1];
        if !last.is_terminal() {
            return Err(format!("last event {} not terminal", last.name()));
        }
        let mut prev_t = f64::NEG_INFINITY;
        let mut prefill_open = false;
        let mut migrate_open = false;
        let mut last_generated: Option<u32> = None;
        let mut last_attempt: u32 = 0;
        for (i, &(t, ev)) in self.events.iter().enumerate() {
            if t < prev_t {
                return Err(format!(
                    "{} at {t} precedes previous event at {prev_t}",
                    ev.name()
                ));
            }
            prev_t = t;
            if i + 1 < self.events.len() && ev.is_terminal() {
                return Err(format!("{} followed by further events", ev.name()));
            }
            match ev {
                LifecycleEvent::PrefillStart => prefill_open = true,
                LifecycleEvent::PrefillEnd => {
                    if !prefill_open {
                        return Err("PrefillEnd without PrefillStart".into());
                    }
                    prefill_open = false;
                }
                LifecycleEvent::KvMigrateStart => migrate_open = true,
                LifecycleEvent::KvMigrateEnd => {
                    if !migrate_open {
                        return Err("KvMigrateEnd without KvMigrateStart".into());
                    }
                    migrate_open = false;
                }
                LifecycleEvent::Retried { attempt } => {
                    if attempt <= last_attempt {
                        return Err(format!(
                            "Retried attempt {attempt} after attempt {last_attempt}"
                        ));
                    }
                    last_attempt = attempt;
                    // The interrupted attempt's open pairs are abandoned.
                    prefill_open = false;
                    migrate_open = false;
                }
                LifecycleEvent::DecodeStep { generated } => {
                    if let Some(prev) = last_generated {
                        if generated <= prev {
                            return Err(format!("DecodeStep generated {generated} after {prev}"));
                        }
                    }
                    last_generated = Some(generated);
                }
                _ => {}
            }
        }
        // Only a cleanly finished request must close its pairs; Failed
        // lifecycles were interrupted mid-pair by construction.
        if last == LifecycleEvent::Finished {
            if prefill_open {
                return Err("PrefillStart without PrefillEnd".into());
            }
            if migrate_open {
                return Err("KvMigrateStart without KvMigrateEnd".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LifecycleEvent as E;

    fn rec_events(rec: &Recorder, req: RequestKey, evs: &[(f64, E)]) {
        for &(t, kind) in evs {
            rec.event(Event {
                request: req,
                tenant: 0,
                time_s: t,
                kind,
            });
        }
    }

    #[test]
    fn full_disaggregated_lifecycle_validates() {
        let rec = Recorder::new();
        rec_events(
            &rec,
            3,
            &[
                (0.0, E::Arrived),
                (0.0, E::PrefillQueued),
                (0.1, E::PrefillStart),
                (0.2, E::PrefillEnd),
                (0.2, E::KvMigrateStart),
                (0.25, E::KvMigrateEnd),
                (0.25, E::DecodeQueued),
                (0.3, E::DecodeStep { generated: 2 }),
                (0.35, E::DecodeStep { generated: 3 }),
                (0.35, E::Finished),
            ],
        );
        let lc = rec.snapshot().lifecycles();
        assert_eq!(lc.len(), 1);
        let l = &lc[&3];
        l.validate().unwrap();
        assert_eq!(l.start(), Some(0.0));
        assert_eq!(l.end(), Some(0.35));
        assert_eq!(l.first(E::PrefillEnd), Some(0.2));
        assert_eq!(l.first(E::DecodeStep { generated: 0 }), Some(0.3));
    }

    #[test]
    fn violations_are_caught() {
        let cases: Vec<(&str, Vec<(f64, E)>)> = vec![
            ("empty", vec![]),
            ("first", vec![(0.0, E::PrefillStart), (1.0, E::Finished)]),
            ("terminal", vec![(0.0, E::Arrived), (1.0, E::PrefillStart)]),
            (
                "precedes previous event",
                vec![(1.0, E::Arrived), (0.5, E::Finished)],
            ),
            (
                "PrefillEnd without",
                vec![(0.0, E::Arrived), (1.0, E::PrefillEnd), (2.0, E::Finished)],
            ),
            (
                "KvMigrateEnd without",
                vec![
                    (0.0, E::Arrived),
                    (1.0, E::KvMigrateEnd),
                    (2.0, E::Finished),
                ],
            ),
            (
                "without PrefillEnd",
                vec![
                    (0.0, E::Arrived),
                    (1.0, E::PrefillStart),
                    (2.0, E::Finished),
                ],
            ),
            (
                "generated",
                vec![
                    (0.0, E::Arrived),
                    (1.0, E::DecodeStep { generated: 2 }),
                    (2.0, E::DecodeStep { generated: 2 }),
                    (3.0, E::Finished),
                ],
            ),
            (
                "followed by further",
                vec![(0.0, E::Arrived), (1.0, E::Finished), (2.0, E::Finished)],
            ),
        ];
        for (needle, evs) in cases {
            let l = Lifecycle {
                tenant: 0,
                events: evs.clone(),
            };
            let err = l.validate().expect_err(needle);
            assert!(err.contains(needle), "case {needle}: got {err:?}");
        }
    }

    #[test]
    fn rejected_is_a_valid_terminal() {
        let l = Lifecycle {
            tenant: 0,
            events: vec![(0.0, E::Arrived), (0.0, E::Rejected)],
        };
        l.validate().unwrap();
    }

    #[test]
    fn retry_loop_validates() {
        // Prefill crashed mid-batch: the first PrefillStart never ends,
        // Retried abandons it, the second attempt completes.
        let l = Lifecycle {
            tenant: 0,
            events: vec![
                (0.0, E::Arrived),
                (0.0, E::PrefillQueued),
                (0.1, E::PrefillStart),
                (0.2, E::Retried { attempt: 1 }),
                (0.2, E::PrefillQueued),
                (0.3, E::PrefillStart),
                (0.4, E::PrefillEnd),
                (0.4, E::KvMigrateStart),
                (0.5, E::Retried { attempt: 2 }),
                (0.6, E::KvMigrateStart),
                (0.7, E::KvMigrateEnd),
                (0.7, E::DecodeQueued),
                (0.8, E::DecodeStep { generated: 2 }),
                (0.8, E::Finished),
            ],
        };
        l.validate().unwrap();
        assert_eq!(l.retries(), 2);
    }

    #[test]
    fn failed_terminal_forgives_open_pairs() {
        let l = Lifecycle {
            tenant: 0,
            events: vec![
                (0.0, E::Arrived),
                (0.0, E::PrefillQueued),
                (0.1, E::PrefillStart),
                (0.2, E::Retried { attempt: 1 }),
                (0.3, E::PrefillStart),
                (0.4, E::Failed),
            ],
        };
        l.validate().unwrap();
        // ...but a *Finished* lifecycle must still close its pairs.
        let mut bad = l.clone();
        bad.events.last_mut().unwrap().1 = E::Finished;
        assert!(bad.validate().unwrap_err().contains("without PrefillEnd"));
    }

    #[test]
    fn retry_attempts_must_increase() {
        let l = Lifecycle {
            tenant: 0,
            events: vec![
                (0.0, E::Arrived),
                (0.1, E::Retried { attempt: 2 }),
                (0.2, E::Retried { attempt: 2 }),
                (0.3, E::Failed),
            ],
        };
        assert!(l.validate().unwrap_err().contains("after attempt"));
    }

    #[test]
    fn recorder_collects_all_channels() {
        let rec = Recorder::new();
        assert!(rec.enabled());
        rec.declare_track(0, "prefill[0]");
        rec.slice(Slice {
            track: 0,
            name: "prefill",
            start_s: 0.0,
            end_s: 0.1,
            batch: 2,
            tokens: 256,
        });
        rec.slice(Slice {
            track: 5,
            name: "decode",
            start_s: 0.1,
            end_s: 0.2,
            batch: 4,
            tokens: 4,
        });
        rec.counter_add("tokens", 0, 2);
        rec.gauge_set("depth", 0, 1.0);
        rec.observe("batch_size", 0, 2.0);
        let snap = rec.snapshot();
        assert_eq!(snap.slices.len(), 2);
        assert_eq!(snap.metrics.counter("tokens", 0), 2);
        // Undeclared track 5 gets a generated name.
        let names = snap.track_names();
        assert_eq!(names[&0], "prefill[0]");
        assert_eq!(names[&5], "track 5");
    }
}
