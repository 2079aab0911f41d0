//! Exporters: Chrome/Perfetto trace JSON, Prometheus text format, and a
//! per-request lifecycle CSV.
//!
//! [`Recording::perfetto_json`] is the workspace's one Chrome
//! trace-event writer: the flight recorder's dump and the tail
//! sampler's kept traces are written by building a [`Recording`] and
//! calling it. It writes the JSON-object flavour
//! (`{"displayTimeUnit":"ms","traceEvents":[…]}`), which
//! `ui.perfetto.dev` opens directly, under one set of conventions:
//! timestamps and durations in microseconds with three decimals, and
//! every string through one JSON escaper.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::event::{LifecycleEvent, SpanEvent, SpanKind, TrackId, NO_PARENT};
use crate::recorder::Recording;
use crate::registry::MetricsRegistry;

/// Pseudo-track (Chrome `pid`) carrying request lifecycle instants. A
/// track declared under this id names the lifecycle process.
pub const LIFECYCLE_TRACK: TrackId = 1_000_000;

/// Most per-step slices written for one [`SpanKind::DecodeExec`] span;
/// longer decodes coalesce several steps per slice (the
/// `steps_per_slice` arg says how many).
pub const MAX_STEP_SLICES: u32 = 64;

/// A string as a quoted JSON string literal.
struct Json<'a>(&'a str);

impl fmt::Display for Json<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Seconds → trace microseconds, clamped finite.
fn us(t: f64) -> f64 {
    if t.is_finite() {
        t * 1e6
    } else {
        0.0
    }
}

/// `spans` grouped by trace id: traces in first-seen order, each trace's
/// spans in emission order.
fn traces(spans: &[SpanEvent]) -> Vec<Vec<&SpanEvent>> {
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out: Vec<Vec<&SpanEvent>> = Vec::new();
    for s in spans {
        let i = *index.entry(s.ctx.trace_id).or_insert_with(|| {
            out.push(Vec::new());
            out.len() - 1
        });
        out[i].push(s);
    }
    out
}

/// The `traceEvents` array under construction: one event per line.
struct Events {
    out: String,
    first: bool,
}

impl Events {
    fn push(&mut self, event: fmt::Arguments<'_>) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('\n');
        let _ = self.out.write_fmt(event);
    }

    /// A metadata event naming process `pid` (`what` = `process_name`)
    /// or its lane `tid` (`what` = `thread_name`).
    fn name(&mut self, what: &str, pid: u64, tid: u32, name: &str) {
        self.push(format_args!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\
             \"args\":{{\"name\":{}}}}}",
            Json(name)
        ));
    }

    /// One trace's waterfall as process `pid`: each span a `B`/`E` pair
    /// on its kind's lane (`tid` = the kind's declaration index), each
    /// `DecodeExec` also expanded into per-step `X` slices on the
    /// `decode_step` lane.
    fn waterfall(&mut self, pid: u64, root: &SpanEvent, spans: &[&SpanEvent]) {
        let name = format!(
            "req {} tenant {} trace {:016x}",
            root.request, root.tenant, root.ctx.trace_id
        );
        self.name("process_name", pid, 0, &name);
        let mut lanes_seen = 0u32;
        let mut open_lane = |events: &mut Self, kind: SpanKind| {
            let l = kind as u32;
            if lanes_seen & (1 << l) == 0 {
                lanes_seen |= 1 << l;
                events.name("thread_name", pid, l, kind.name());
            }
            l
        };
        for s in spans {
            let l = open_lane(self, s.kind);
            self.push(format_args!(
                "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{l},\"ts\":{:.3},\"name\":{},\
                 \"cat\":\"span\",\"args\":{{\"trace_id\":\"{:016x}\",\"span\":{},\
                 \"parent\":{},\"track\":{},\"tenant\":{},\"payload\":{}}}}}",
                us(s.start_s),
                Json(s.kind.name()),
                s.ctx.trace_id,
                s.ctx.span_id,
                i64::from(s.ctx.parent as i32),
                i64::from(s.track as i32),
                s.tenant,
                s.payload
            ));
            self.push(format_args!(
                "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{l},\"ts\":{:.3}}}",
                us(s.end_s)
            ));
            if s.kind == SpanKind::DecodeExec && s.payload > 1 && s.end_s > s.start_s {
                let l = open_lane(self, SpanKind::DecodeStep);
                self.decode_steps(pid, l, s);
            }
        }
    }

    /// Splits a `DecodeExec` span's `payload` steps evenly over at most
    /// [`MAX_STEP_SLICES`] `X` slices.
    fn decode_steps(&mut self, pid: u64, tid: u32, s: &SpanEvent) {
        let steps = s.payload;
        let per_slice = steps.div_ceil(steps.min(MAX_STEP_SLICES));
        let at =
            |step: u32| us(s.start_s + (s.end_s - s.start_s) * f64::from(step) / f64::from(steps));
        let mut emitted = 0u32;
        while emitted < steps {
            let batch = per_slice.min(steps - emitted);
            let (t0, t1) = (at(emitted), at(emitted + batch));
            self.push(format_args!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{t0:.3},\"dur\":{:.3},\
                 \"name\":{},\"cat\":\"step\",\"args\":{{\"step\":{},\
                 \"steps_per_slice\":{batch},\"parent\":{}}}}}",
                t1 - t0,
                Json(SpanKind::DecodeStep.name()),
                emitted + 1,
                s.ctx.span_id
            ));
            emitted += batch;
        }
    }
}

impl Recording {
    /// Renders the Chrome/Perfetto trace JSON of all three parts of the
    /// recording:
    ///
    /// * each instance track is a process (`pid` = track id) whose batch
    ///   executions are complete (`ph: "X"`) slices with batch size and
    ///   token count in `args`;
    /// * every lifecycle event is an instant on [`LIFECYCLE_TRACK`], on
    ///   one thread lane per tenant (`tid` = tenant);
    /// * spans are grouped by trace id in first-seen order, one process
    ///   per trace numbered above every track id and
    ///   [`LIFECYCLE_TRACK`]; each [`SpanKind`] gets one lane of
    ///   `B`/`E` pairs, and each `DecodeExec` span also expands into at
    ///   most [`MAX_STEP_SLICES`] per-step `X` slices. A trace without a
    ///   root span is skipped.
    #[must_use]
    pub fn perfetto_json(&self) -> String {
        let mut ev = Events {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            first: true,
        };
        let mut processes = self.track_names();
        if !self.events.is_empty() {
            processes
                .entry(LIFECYCLE_TRACK)
                .or_insert_with(|| "lifecycle".into());
        }
        for (&id, name) in &processes {
            ev.name("process_name", u64::from(id), 0, name);
        }
        for s in &self.slices {
            ev.push(format_args!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":0,\"name\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"batch\":{},\"tokens\":{}}}}}",
                s.track,
                Json(s.name),
                us(s.start_s),
                (us(s.end_s) - us(s.start_s)).max(0.0),
                s.batch,
                s.tokens
            ));
        }
        for e in &self.events {
            ev.push(format_args!(
                "{{\"ph\":\"i\",\"pid\":{LIFECYCLE_TRACK},\"tid\":{},\"s\":\"t\",\
                 \"name\":{},\"ts\":{:.3},\"args\":{{\"request\":{},\"tenant\":{}}}}}",
                e.tenant,
                Json(e.kind.name()),
                us(e.time_s),
                e.request,
                e.tenant
            ));
        }
        // Trace processes are numbered above every other process.
        let top = processes
            .keys()
            .next_back()
            .map_or(LIFECYCLE_TRACK, |&id| id.max(LIFECYCLE_TRACK));
        let mut pid = u64::from(top);
        for spans in traces(&self.spans) {
            if let Some(root) = spans.iter().find(|s| s.ctx.parent == NO_PARENT) {
                pid += 1;
                ev.waterfall(pid, root, &spans);
            }
        }
        ev.out.push_str("\n]}\n");
        ev.out
    }

    /// Renders the per-request lifecycle CSV: one row per request, one
    /// column per boundary (empty when the request skipped a stage),
    /// plus the decode-step count, the failure timestamp (empty unless
    /// the request terminally failed), the retry count, and the tenant
    /// the request belongs to.
    #[must_use]
    pub fn lifecycle_csv(&self) -> String {
        let mut out = String::from(
            "request,arrived,prefill_queued,prefill_start,prefill_end,\
             kv_migrate_start,kv_migrate_end,decode_queued,first_decode_step,\
             finished,rejected,decode_steps,failed,retries,tenant\n",
        );
        for (req, lc) in self.lifecycles() {
            let cell = |kind: LifecycleEvent| -> String {
                lc.first(kind).map_or(String::new(), |t| format!("{t:.9}"))
            };
            let steps = lc
                .events
                .iter()
                .filter(|(_, e)| matches!(e, LifecycleEvent::DecodeStep { .. }))
                .count();
            let retries = lc.retries();
            let tenant = lc.tenant;
            let _ = writeln!(
                out,
                "{req},{},{},{},{},{},{},{},{},{},{},{steps},{},{retries},{tenant}",
                cell(LifecycleEvent::Arrived),
                cell(LifecycleEvent::PrefillQueued),
                cell(LifecycleEvent::PrefillStart),
                cell(LifecycleEvent::PrefillEnd),
                cell(LifecycleEvent::KvMigrateStart),
                cell(LifecycleEvent::KvMigrateEnd),
                cell(LifecycleEvent::DecodeQueued),
                cell(LifecycleEvent::DecodeStep { generated: 0 }),
                cell(LifecycleEvent::Finished),
                cell(LifecycleEvent::Rejected),
                cell(LifecycleEvent::Failed),
            );
        }
        out
    }

    /// Renders the registry as Prometheus text format (see
    /// [`prometheus_text`]).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.metrics)
    }
}

fn prom_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Renders a [`MetricsRegistry`] in Prometheus text exposition format.
/// Metric names get a `distserve_` prefix; the instance label carries
/// the track id; counters get the conventional `_total` suffix.
#[must_use]
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_header = "";
    for (name, instance, value) in reg.counters() {
        if name != last_header {
            let _ = writeln!(out, "# TYPE distserve_{name}_total counter");
            last_header = name;
        }
        let _ = writeln!(
            out,
            "distserve_{name}_total{{instance=\"{instance}\"}} {value}"
        );
    }
    last_header = "";
    for (name, instance, value) in reg.gauges() {
        if name != last_header {
            let _ = writeln!(out, "# TYPE distserve_{name} gauge");
            last_header = name;
        }
        let _ = writeln!(
            out,
            "distserve_{name}{{instance=\"{instance}\"}} {}",
            prom_value(value)
        );
    }
    last_header = "";
    for (name, instance, hist) in reg.histograms() {
        if name != last_header {
            let _ = writeln!(out, "# TYPE distserve_{name} histogram");
            last_header = name;
        }
        for (bound, cum) in hist.cumulative() {
            let _ = writeln!(
                out,
                "distserve_{name}_bucket{{instance=\"{instance}\",le=\"{}\"}} {cum}",
                prom_value(bound)
            );
        }
        let _ = writeln!(
            out,
            "distserve_{name}_sum{{instance=\"{instance}\"}} {}",
            prom_value(hist.sum())
        );
        let _ = writeln!(
            out,
            "distserve_{name}_count{{instance=\"{instance}\"}} {}",
            hist.total()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Slice, TraceCtx};
    use crate::recorder::Recorder;
    use crate::sink::TelemetrySink;
    use LifecycleEvent as E;

    fn sample_recording() -> Recording {
        let rec = Recorder::new();
        rec.declare_track(0, "prefill[0] \"tp1\"");
        rec.declare_track(1, "decode[1]");
        rec.slice(Slice {
            track: 0,
            name: "prefill",
            start_s: 0.010,
            end_s: 0.043,
            batch: 2,
            tokens: 1024,
        });
        rec.slice(Slice {
            track: 1,
            name: "decode",
            start_s: 0.050,
            end_s: 0.065,
            batch: 4,
            tokens: 4,
        });
        for (t, kind) in [
            (0.0, E::Arrived),
            (0.0, E::PrefillQueued),
            (0.010, E::PrefillStart),
            (0.043, E::PrefillEnd),
            (0.050, E::DecodeStep { generated: 2 }),
            (0.065, E::Finished),
        ] {
            rec.event(Event {
                request: 7,
                tenant: 2,
                time_s: t,
                kind,
            });
        }
        rec.counter_add("prefill_tokens", 0, 1024);
        rec.gauge_set("kv_utilization", 1, 0.25);
        rec.observe("batch_size", 0, 2.0);
        rec.snapshot()
    }

    #[test]
    fn perfetto_json_parses_and_has_slices() {
        let json = sample_recording().perfetto_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        // 2 track names + lifecycle name + 2 slices + 6 instants.
        let slices: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0]["args"]["tokens"].as_u64(), Some(1024));
        // µs timestamps.
        assert!((slices[0]["ts"].as_f64().unwrap() - 10_000.0).abs() < 1e-6);
        assert!((slices[0]["dur"].as_f64().unwrap() - 33_000.0).abs() < 1e-6);
        let instants: Vec<_> = events.iter().filter(|e| e["ph"] == "i").collect();
        assert_eq!(instants.len(), 6);
        // One lane per tenant.
        assert!(instants.iter().all(|e| e["tid"].as_u64() == Some(2)));
        // Escaped track name survives the round trip.
        let meta: Vec<_> = events.iter().filter(|e| e["ph"] == "M").collect();
        assert!(meta
            .iter()
            .any(|e| e["args"]["name"] == "prefill[0] \"tp1\""));
    }

    fn span(trace: u64, id: u32, kind: SpanKind, start: f64, end: f64, payload: u32) -> SpanEvent {
        let root = TraceCtx::root(trace);
        SpanEvent {
            ctx: if id == 0 { root } else { root.child(id) },
            request: 42,
            tenant: 1,
            track: 3,
            kind,
            start_s: start,
            end_s: end,
            payload,
        }
    }

    fn parse(r: &Recording) -> Vec<serde_json::Value> {
        let v: serde_json::Value = serde_json::from_str(&r.perfetto_json()).expect("valid JSON");
        v["traceEvents"].as_array().unwrap().to_vec()
    }

    fn count(events: &[serde_json::Value], ph: &str) -> usize {
        events.iter().filter(|e| e["ph"] == ph).count()
    }

    #[test]
    fn waterfall_has_matched_pairs_and_expanded_steps() {
        let mut r = sample_recording();
        r.spans = vec![
            span(9, 1, SpanKind::RouterDecision, 0.0, 0.0, 0),
            span(9, 2, SpanKind::PrefillQueue, 0.0, 0.1, 0),
            span(5, 0, SpanKind::Request, 0.0, 0.5, 0),
            span(9, 3, SpanKind::PrefillExec, 0.1, 0.3, 256),
            span(9, 4, SpanKind::KvTransfer, 0.3, 0.31, 256),
            span(9, 5, SpanKind::DecodeExec, 0.31, 0.95, 4),
            span(9, 0, SpanKind::Request, 0.0, 0.95, 1),
        ];
        r.tracks.insert(LIFECYCLE_TRACK + 7, "late track".into());
        let events = parse(&r);
        assert_eq!(count(&events, "B"), 7, "one B per span");
        assert_eq!(count(&events, "E"), 7, "matched B/E pairs");
        // 2 batch slices + 4 decode steps expanded into 4 X slices.
        assert_eq!(count(&events, "X"), 6);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["name"] == "process_name")
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        // Traces in first-seen order: trace 9, then trace 5.
        let first = names
            .iter()
            .position(|n| n.ends_with("trace 0000000000000009"));
        let second = names
            .iter()
            .position(|n| n.ends_with("trace 0000000000000005"));
        assert!(first.unwrap() < second.unwrap(), "{names:?}");
        let trace_pids: Vec<u64> = events
            .iter()
            .filter(|e| e["ph"] == "B")
            .filter_map(|e| e["pid"].as_u64())
            .collect();
        let floor = u64::from(LIFECYCLE_TRACK) + 7;
        assert!(trace_pids.iter().all(|&p| p > floor), "{trace_pids:?}");
        let step = events
            .iter()
            .find(|e| e["name"] == "decode_step" && e["ph"] == "X");
        assert_eq!(step.unwrap()["ts"].as_f64(), Some(310_000.0));
        let root = events
            .iter()
            .find(|e| e["ph"] == "B" && e["name"] == "request")
            .unwrap();
        assert_eq!(root["args"]["parent"].as_f64(), Some(-1.0));
    }

    #[test]
    fn long_decodes_coalesce_to_the_slice_cap() {
        let r = Recording {
            spans: vec![
                span(9, 1, SpanKind::DecodeExec, 0.0, 10.0, 1000),
                span(9, 0, SpanKind::Request, 0.0, 10.0, 0),
            ],
            ..Recording::default()
        };
        let events = parse(&r);
        let steps: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert!(
            steps.len() <= MAX_STEP_SLICES as usize,
            "{} step slices",
            steps.len()
        );
        assert_eq!(steps[0]["args"]["steps_per_slice"].as_u64(), Some(16));
        let covered: u64 = steps
            .iter()
            .filter_map(|e| e["args"]["steps_per_slice"].as_u64())
            .sum();
        assert_eq!(covered, 1000);
    }

    #[test]
    fn empty_input_is_valid_and_rootless_traces_skipped() {
        assert!(parse(&Recording::default()).is_empty());
        let rootless = Recording {
            spans: vec![span(9, 1, SpanKind::PrefillExec, 0.0, 1.0, 0)],
            ..Recording::default()
        };
        assert!(parse(&rootless).is_empty());
    }

    #[test]
    fn prometheus_text_format() {
        let text = sample_recording().prometheus_text();
        assert!(text.contains("# TYPE distserve_prefill_tokens_total counter"));
        assert!(text.contains("distserve_prefill_tokens_total{instance=\"0\"} 1024"));
        assert!(text.contains("# TYPE distserve_kv_utilization gauge"));
        assert!(text.contains("distserve_kv_utilization{instance=\"1\"} 0.25"));
        assert!(text.contains("distserve_batch_size_bucket{instance=\"0\",le=\"2\"} 0"));
        assert!(text.contains("distserve_batch_size_bucket{instance=\"0\",le=\"4\"} 1"));
        assert!(text.contains("distserve_batch_size_bucket{instance=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("distserve_batch_size_count{instance=\"0\"} 1"));
    }

    #[test]
    fn lifecycle_csv_rows() {
        let csv = sample_recording().lifecycle_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("request,arrived"));
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells[0], "7");
        assert_eq!(cells[1], "0.000000000"); // arrived
        assert_eq!(cells[5], ""); // no KV migration
        assert_eq!(cells[11], "1"); // one decode step
        assert_eq!(lines[0].split(',').nth(14), Some("tenant"));
        assert_eq!(cells[14], "2"); // tenant carried through
    }

    #[test]
    fn rejected_requests_appear_in_csv_with_attribution() {
        // A rejected request must not vanish from the per-request export:
        // its row carries the rejection timestamp so downstream attainment
        // accounting can count it as an SLO miss.
        let rec = Recorder::new();
        for (t, kind) in [(0.5, E::Arrived), (0.5, E::Rejected)] {
            rec.event(Event {
                request: 9,
                tenant: 0,
                time_s: t,
                kind,
            });
        }
        let snap = rec.snapshot();
        let lc = &snap.lifecycles()[&9];
        lc.validate().unwrap();
        let csv = snap.lifecycle_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells[0], "9");
        assert_eq!(cells[1], "0.500000000"); // arrived
        assert_eq!(cells[9], ""); // never finished
        assert_eq!(cells[10], "0.500000000"); // rejected
        assert_eq!(cells[11], "0"); // no decode steps
    }

    #[test]
    fn failed_and_retried_requests_appear_in_csv() {
        let rec = Recorder::new();
        for (t, kind) in [
            (0.0, E::Arrived),
            (0.0, E::PrefillQueued),
            (0.1, E::PrefillStart),
            (0.2, E::Retried { attempt: 1 }),
            (0.3, E::PrefillStart),
            (0.4, E::Retried { attempt: 2 }),
            (0.5, E::Failed),
        ] {
            rec.event(Event {
                request: 11,
                tenant: 1,
                time_s: t,
                kind,
            });
        }
        let snap = rec.snapshot();
        snap.lifecycles()[&11].validate().unwrap();
        let csv = snap.lifecycle_csv();
        let lines: Vec<&str> = csv.lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(header[12], "failed");
        assert_eq!(header[13], "retries");
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells[9], ""); // never finished
        assert_eq!(cells[12], "0.500000000"); // failed timestamp
        assert_eq!(cells[13], "2"); // two retries
    }

    #[test]
    fn empty_recording_exports_cleanly() {
        let r = Recording::default();
        let v: serde_json::Value = serde_json::from_str(&r.perfetto_json()).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 0);
        assert_eq!(r.prometheus_text(), "");
        assert_eq!(r.lifecycle_csv().lines().count(), 1);
    }
}
