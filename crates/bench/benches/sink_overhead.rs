//! Telemetry-sink overhead on the real engine's hot path: batch-16
//! fused decode with the default no-op sink versus two live sinks.
//!
//! - **telemetry**: a `Recorder`. The scheduler emits one `DecodeStep`
//!   event per request per step plus batch counters and pool gauges, so
//!   the recorder pays one mutex lock and a few `Vec` pushes per decode
//!   iteration. Saves `BENCH_telemetry.json`.
//! - **observe**: the full observability stack, a `TeeSink` fanning out
//!   to a `Recorder` and an `ObserverSink` that keeps windowed
//!   histograms online. Saves `BENCH_observe.json` and asserts the
//!   budget.
//!
//! Both arms use `distserve_bench::overhead`'s fixture and paired
//! estimator; every request finishes on the last timed step, so the
//! finish accounting is timed too. Budget: < 3% over the no-op sink.
//! Each record is appended to `BENCH_history.jsonl` as well.

use std::sync::Arc;

use distserve_bench::overhead::{paired, prefilled, step_times, Estimate, BATCH, BUDGET_PCT};
use distserve_bench::sentinel::{BenchRecord, Provenance};
use distserve_observe::ObserverSink;
use distserve_telemetry::{Recorder, TeeSink, TelemetrySink};
use tinyllm::{Model, TinyConfig};

/// Saves one arm's record as `BENCH_<name>.json`: the estimate plus
/// `overhead.<count>`, what the last on run's sink saw.
fn save(name: &str, est: Estimate, count: &str, value: u64) {
    let mut rec = BenchRecord::new(Provenance::capture("TinyConfig::small()", 5));
    est.push_to(&mut rec);
    rec.push(format!("overhead.{count}"), value as f64, "count");
    rec.save(name).expect("save the BENCH record");
    println!(
        "saved BENCH_{name}.json (noop {:.3} ms, on {:.3} ms, overhead {:+.2}%, {count} {value})",
        est.base_s * 1e3,
        est.on_s() * 1e3,
        est.overhead_pct(),
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
    save("telemetry", telemetry, "events_per_run", events);

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
    save("observe", observe, "finished_per_run", finished);

    let overhead_pct = observe.overhead_pct();
    assert!(
        overhead_pct < BUDGET_PCT,
        "observability overhead {overhead_pct:.2}% blew the {BUDGET_PCT}% budget"
    );
    println!("observe within the {BUDGET_PCT}% budget");
}
