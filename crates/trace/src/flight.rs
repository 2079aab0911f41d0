//! The flight recorder: a fixed-size ring of recent lifecycle events,
//! dumped on demand.
//!
//! Incident debugging needs the events *leading up to* the trigger —
//! a burn-rate alert, a fault storm — not a full-run recording that was
//! never affordable at fleet scale. The [`FlightRecorder`] keeps the
//! last `capacity` lifecycle events in a preallocated ring (O(1) per
//! event, no growth, oldest overwritten); when something fires, dump
//! the window as Perfetto instant events with
//! [`FlightRecorder::dump_perfetto`] and read the final seconds like a
//! cockpit recorder.
//!
//! Attach it alongside other sinks with `telemetry::TeeSink`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use distserve_telemetry::{Event, Recording, TelemetrySink, LIFECYCLE_TRACK};

struct Ring {
    buf: Vec<Event>,
    /// Next write position (the oldest retained event once wrapped).
    head: usize,
    total: u64,
}

/// Fixed-size lifecycle-event ring (see module docs).
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        FlightRecorder {
            cap: capacity,
            inner: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                total: 0,
            }),
        }
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events observed over the recorder's lifetime (retained plus
    /// overwritten).
    #[must_use]
    pub fn total_seen(&self) -> u64 {
        self.inner.lock().expect("flight recorder lock").total
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn window(&self) -> Vec<Event> {
        let ring = self.inner.lock().expect("flight recorder lock");
        let mut out = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() == self.cap {
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
        } else {
            out.extend_from_slice(&ring.buf);
        }
        out
    }

    /// Dumps the retained window as Chrome trace-event JSON through
    /// [`Recording::perfetto_json`]: one instant per lifecycle event
    /// (lane per tenant) in a process named `flight recorder: {reason}
    /// ({n} retained of {total} seen)`. Load next to the waterfall file
    /// to see fleet state around the trigger.
    #[must_use]
    pub fn dump_perfetto(&self, reason: &str) -> String {
        let events = self.window();
        let name = format!(
            "flight recorder: {reason} ({} retained of {} seen)",
            events.len(),
            self.total_seen()
        );
        Recording {
            events,
            tracks: BTreeMap::from([(LIFECYCLE_TRACK, name)]),
            ..Recording::default()
        }
        .perfetto_json()
    }
}

/// One incident's full evidence bundle (see
/// [`FlightRecorder::dump_incident`]): the event window as Perfetto
/// JSON plus the self-profiler's view of where compute time was going
/// when the trigger fired.
pub struct IncidentDump {
    /// Chrome trace-event JSON of the retained event window.
    pub perfetto: String,
    /// Self-contained flamegraph SVG of the profiler snapshot (an
    /// empty-but-valid SVG when the profiler is disabled).
    pub flamegraph_svg: String,
    /// The same snapshot as folded-stack text (`a;b;c <self_ns>`), for
    /// grepping and external flamegraph tooling.
    pub folded: String,
}

impl FlightRecorder {
    /// Dumps the retained window *and* a snapshot of the continuous
    /// self-profiler, so a fault storm leaves behind both *what
    /// happened* (the event ring) and *where the time went* (the
    /// flamegraph) in one bundle. The profiler is left running and its
    /// accumulators untouched.
    #[must_use]
    pub fn dump_incident(&self, reason: &str) -> IncidentDump {
        let profile = distserve_prof::snapshot();
        IncidentDump {
            perfetto: self.dump_perfetto(reason),
            flamegraph_svg: profile.flamegraph_svg(&format!("incident: {reason}")),
            folded: profile.folded(),
        }
    }
}

impl TelemetrySink for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, ev: Event) {
        let mut ring = self.inner.lock().expect("flight recorder lock");
        ring.total += 1;
        if ring.buf.len() < self.cap {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % self.cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_telemetry::LifecycleEvent;

    fn ev(req: u64, t: f64) -> Event {
        Event {
            request: req,
            tenant: (req % 3) as u32,
            time_s: t,
            kind: LifecycleEvent::Arrived,
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.event(ev(i, i as f64));
        }
        assert_eq!(fr.total_seen(), 10);
        let w = fr.window();
        assert_eq!(w.len(), 4);
        let ids: Vec<u64> = w.iter().map(|e| e.request).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest first");
    }

    #[test]
    fn partial_ring_dumps_cleanly() {
        let fr = FlightRecorder::new(100);
        fr.event(ev(1, 0.5));
        fr.event(ev(2, 0.75));
        let json = fr.dump_perfetto("burn alert tenant 1");
        assert!(json.contains("burn alert tenant 1"));
        assert!(json.contains("(2 retained of 2 seen)"));
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
        assert!(json.contains("\"ts\":500000"));
    }

    #[test]
    fn dump_parses_and_round_trips_the_reason() {
        for reason in ["tenant 1's burn", "naïve storm", "a \"quoted\\path\"\n"] {
            let fr = FlightRecorder::new(4);
            fr.event(ev(1, 0.5));
            let json = fr.dump_perfetto(reason);
            let v: serde_json::Value = serde_json::from_str(&json).expect("dump parses");
            let names: Vec<&str> = v["traceEvents"]
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| e["name"] == "process_name")
                .filter_map(|e| e["args"]["name"].as_str())
                .collect();
            let expected = format!("flight recorder: {reason} (1 retained of 1 seen)");
            assert_eq!(names, [expected.as_str()]);
        }
    }

    #[test]
    fn incident_dump_bundles_perfetto_and_flamegraph() {
        let fr = FlightRecorder::new(16);
        fr.event(ev(1, 0.5));
        distserve_prof::set_enabled(true);
        {
            let _g = distserve_prof::scope("incident_work");
            std::hint::black_box(0u64);
        }
        let dump = fr.dump_incident("storm test");
        distserve_prof::set_enabled(false);
        assert!(dump.perfetto.contains("storm test"));
        assert!(dump.flamegraph_svg.starts_with("<svg"));
        assert!(dump.flamegraph_svg.contains("incident_work"));
        assert!(dump.folded.contains("incident_work"));
    }

    #[test]
    fn memory_is_capacity_bounded() {
        let fr = FlightRecorder::new(8);
        for i in 0..100_000u64 {
            fr.event(ev(i, i as f64 * 1e-3));
        }
        let ring = fr.inner.lock().expect("flight recorder lock");
        assert_eq!(ring.buf.len(), 8);
        assert_eq!(ring.buf.capacity(), 8);
    }
}
