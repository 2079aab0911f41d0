//! Telemetry-sink overhead on the real engine's hot path: batch-16
//! fused decode with the default no-op sink versus two live sinks.
//!
//! - **telemetry**: a `Recorder`. The scheduler emits one `DecodeStep`
//!   event per request per step plus batch counters and pool gauges, so
//!   the recorder pays one mutex lock and a few `Vec` pushes per decode
//!   iteration. Writes `BENCH_telemetry.json`.
//! - **observe**: the full observability stack, a `TeeSink` fanning out
//!   to a `Recorder` and an `ObserverSink` that keeps windowed
//!   histograms online. Writes `BENCH_observe.json` and asserts the
//!   budget.
//!
//! Both arms use `distserve_bench::overhead`'s fixture and paired
//! estimator; every request finishes on the last timed step, so the
//! finish accounting is timed too. Budget: < 3% over the no-op sink.

use std::sync::Arc;

use distserve_bench::overhead::{
    paired, prefilled, step_times, Estimate, BATCH, BUDGET_PCT, DECODE_STEPS, ROUNDS,
};
use distserve_observe::ObserverSink;
use distserve_telemetry::{Recorder, TeeSink, TelemetrySink};
use serde::Value;
use tinyllm::{Model, TinyConfig};

/// Writes one arm's `BENCH_<name>.json` at the repository root.
fn write(name: &str, on_key: &str, est: Estimate, count: (&str, u64)) {
    let provenance = distserve_bench::sentinel::Provenance::capture("TinyConfig::small()", 5);
    let doc = Value::Object(vec![
        ("provenance".into(), provenance.value()),
        ("config".into(), Value::Str("TinyConfig::small()".into())),
        ("batch".into(), Value::UInt(BATCH as u64)),
        ("decode_steps".into(), Value::UInt(DECODE_STEPS as u64)),
        ("rounds".into(), Value::UInt(ROUNDS as u64)),
        ("noop_ms".into(), Value::Float(est.base_s * 1e3)),
        (on_key.into(), Value::Float(est.on_s() * 1e3)),
        ("overhead_pct".into(), Value::Float(est.overhead_pct())),
        (count.0.into(), Value::UInt(count.1)),
        ("budget_pct".into(), Value::Float(BUDGET_PCT)),
    ]);
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench results");
    std::fs::write(&path, json + "\n").expect("write BENCH json");
    println!(
        "wrote {path} (noop {:.3} ms, {on_key} {:.3} ms, overhead {:+.2}%, {} {})",
        est.base_s * 1e3,
        est.on_s() * 1e3,
        est.overhead_pct(),
        count.0,
        count.1
    );
}

fn main() {
    let model = Model::random(&TinyConfig::small(), 5);
    let noop = || step_times(&mut prefilled(&model, BATCH, None));

    // Fresh sinks per on run: steady-state cost, not an ever-growing
    // recorder buffer. The counts come from the last on run.
    let mut events = 0;
    let telemetry = paired(|on| {
        if !on {
            return noop();
        }
        let rec = Arc::new(Recorder::new());
        let steps = step_times(&mut prefilled(&model, BATCH, Some(rec.clone())));
        events = rec.snapshot().events.len() as u64;
        steps
    });
    write(
        "telemetry",
        "recording_ms",
        telemetry,
        ("events_per_run", events),
    );

    let mut finished = 0;
    let observe = paired(|on| {
        if !on {
            return noop();
        }
        let obs = Arc::new(ObserverSink::new(5.0, 1.0, 0.5, 64));
        let tee = TeeSink::new(vec![
            Arc::new(Recorder::new()) as Arc<dyn TelemetrySink>,
            obs.clone() as Arc<dyn TelemetrySink>,
        ]);
        let steps = step_times(&mut prefilled(&model, BATCH, Some(Arc::new(tee))));
        finished = obs.stats().finished;
        steps
    });
    write("observe", "tee_ms", observe, ("finished_per_run", finished));

    let overhead_pct = observe.overhead_pct();
    assert!(
        overhead_pct < BUDGET_PCT,
        "observability overhead {overhead_pct:.2}% blew the {BUDGET_PCT}% budget"
    );
    println!("observe within the {BUDGET_PCT}% budget");
}
