//! Telemetry demo: serve a trace with recording enabled and export the
//! run as Perfetto + Prometheus + CSV artifacts.
//!
//! Serves a fixed-length trace on a disaggregated prefill/decode pair
//! (sim-clock telemetry), then runs the same request shape through the
//! real `tinyllm` engine (wall-clock telemetry — a separate recording,
//! since one recording must not mix clock domains). Writes:
//!
//! - `trace.perfetto.json` — open at <https://ui.perfetto.dev>; one
//!   track per GPU instance, one slice per batch, and every lifecycle
//!   event (decode steps included) as an instant on its tenant's lane.
//! - `metrics.prom` — Prometheus text exposition of the sim run.
//! - `requests.csv` — per-request lifecycle timestamps of the sim run.
//! - `tinyllm.perfetto.json` / `tinyllm.prom` — the real-engine run.
//!
//! The demo self-validates before writing: the trace JSON must parse,
//! every instance track must carry at least one slice, every lifecycle
//! event must appear as an instant, and every request lifecycle must be
//! well-formed.
//!
//! Run with: `cargo run --release --example telemetry_demo`

use std::sync::Arc;

use distserve::cluster::Cluster;
use distserve::core::{serve_trace_with_sink, Table};
use distserve::engine::{FidelityConfig, InstanceRole, InstanceSpec};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::placement::TraceSource;
use distserve::telemetry::{Recorder, Recording, TelemetrySink};
use distserve::workload::datasets::FixedLengths;
use tinyllm::{ContinuousBatcher, GenRequest, Model, TinyConfig};

fn main() {
    // --- Simulated disaggregated serving, recorded ---------------------
    let cost = RooflineModel::a100();
    let cluster = Cluster::single_node(2);
    let arch = OptModel::Opt13B.arch();
    let specs = vec![
        InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .expect("valid prefill instance"),
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 1)]],
        )
        .expect("valid decode instance"),
    ];
    let dataset = FixedLengths {
        input_len: 512,
        output_len: 64,
    };
    let trace = dataset.make_trace(4.0, 200, 7);

    let rec = Recorder::new();
    let outcome = serve_trace_with_sink(
        &cost,
        &cluster,
        &arch,
        specs,
        &trace,
        FidelityConfig::ideal(),
        7,
        &rec,
    )
    .expect("deployment is valid");
    let snap = rec.snapshot();
    std::fs::write("trace.perfetto.json", validate(&snap, "sim")).expect("write trace");
    std::fs::write("metrics.prom", snap.prometheus_text()).expect("write metrics");
    std::fs::write("requests.csv", snap.lifecycle_csv()).expect("write csv");

    // --- Real-engine run (wall clock), recorded separately --------------
    let model = Model::random(&TinyConfig::small(), 42);
    let tiny_rec = Arc::new(Recorder::new());
    let sink: Arc<dyn TelemetrySink> = tiny_rec.clone();
    let mut batcher = ContinuousBatcher::new(model, 8192).with_sink(sink, 0);
    for i in 0..8u64 {
        batcher
            .submit(GenRequest {
                id: i,
                prompt: vec![1 + i as u32 % 7, 2, 3, 4],
                max_new: 16,
            })
            .expect("valid request");
    }
    let done = batcher.run_to_completion();
    let tiny_snap = tiny_rec.snapshot();
    std::fs::write("tinyllm.perfetto.json", validate(&tiny_snap, "tinyllm")).expect("write trace");
    std::fs::write("tinyllm.prom", tiny_snap.prometheus_text()).expect("write metrics");

    // --- Summary ---------------------------------------------------------
    let mut table = Table::new(vec!["artifact", "contents"]);
    table.row(vec![
        "trace.perfetto.json".into(),
        format!(
            "{} slices, {} events, {} tracks",
            snap.slices.len(),
            snap.events.len(),
            snap.track_names().len()
        ),
    ]);
    table.row(vec![
        "metrics.prom".into(),
        format!("{} requests served", outcome.records.len()),
    ]);
    table.row(vec![
        "requests.csv".into(),
        format!("{} lifecycle rows", snap.lifecycles().len()),
    ]);
    table.row(vec![
        "tinyllm.perfetto.json".into(),
        format!(
            "{} slices over {} generations",
            tiny_snap.slices.len(),
            done.len()
        ),
    ]);
    print!("{}", table.render());
    println!("open trace.perfetto.json at https://ui.perfetto.dev");
}

/// Self-check: the recording must round-trip as valid trace JSON with at
/// least one slice per instance track and one instant per lifecycle
/// event, and every request's lifecycle must be well-formed. Panics
/// (failing the demo and the CI step that runs it) otherwise; returns
/// the trace JSON.
fn validate(snap: &Recording, label: &str) -> String {
    let json = snap.perfetto_json();
    let parsed: serde_json::Value =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{label}: trace JSON invalid: {e}"));
    let events = parsed["traceEvents"]
        .as_array()
        .unwrap_or_else(|| panic!("{label}: traceEvents missing"));
    for (&track, name) in &snap.track_names() {
        let slices = events
            .iter()
            .filter(|e| {
                e["ph"].as_str() == Some("X") && e["pid"].as_u64() == Some(u64::from(track))
            })
            .count();
        assert!(slices >= 1, "{label}: track {track} ({name}) has no slices");
    }
    let instants = events.iter().filter(|e| e["ph"] == "i").count();
    assert_eq!(instants, snap.events.len(), "{label}: lifecycle instants");
    for (id, lc) in &snap.lifecycles() {
        lc.validate()
            .unwrap_or_else(|e| panic!("{label}: request {id}: {e}"));
    }
    println!("{label}: trace validated ({} trace events)", events.len());
    json
}
