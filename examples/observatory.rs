//! The goodput observatory, end to end: serve a disaggregated trace
//! near capacity (with admission control rejecting the overflow),
//! attribute every request's latency, diagnose the bottleneck, render
//! the dashboard, and serve it live over HTTP.
//!
//! Self-validates before writing anything: attribution must telescope
//! exactly to each request's end-to-end latency, the dashboard must be
//! a self-contained HTML document, and the Prometheus endpoint must
//! answer over a real socket. Writes:
//!
//! - `dashboard.html` — open in any browser; inline SVG, no JS.
//! - `observatory.port` — the ephemeral port the live server bound.
//!
//! Set `OBSERVATORY_SERVE_SECS=30` to keep the server up for 30 s
//! after the self-checks (CI probes it from a separate process); the
//! server also exits early when something GETs `/quit`.
//!
//! Run with: `cargo run --release --example observatory`

use std::sync::Arc;

use distserve::cluster::Cluster;
use distserve::engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::observe::{
    attribute, diagnose, http_get, render_dashboard, MetricsServer, ObserverSink,
};
use distserve::placement::TraceSource;
use distserve::telemetry::{Recorder, TeeSink, TelemetrySink};
use distserve::workload::datasets::FixedLengths;
use tinyllm::{ContinuousBatcher, GenRequest, Model, TinyConfig};

const TTFT_SLO: f64 = 0.6;
const TPOT_SLO: f64 = 0.04;

fn main() {
    // --- A disaggregated pair pushed past its admission cap ------------
    let cost = RooflineModel::a100_conservative();
    let cluster = Cluster::single_node(2);
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
    let trace = FixedLengths {
        input_len: 512,
        output_len: 48,
    }
    .make_trace(30.0, 400, 9);

    let rec = Arc::new(Recorder::new());
    let observer = Arc::new(ObserverSink::new(TTFT_SLO, TPOT_SLO, 2.0, 64));
    let tee = TeeSink::new(vec![
        rec.clone() as Arc<dyn TelemetrySink>,
        observer.clone() as Arc<dyn TelemetrySink>,
    ]);
    let out = ServingSim::new(
        SimConfig::new(OptModel::Opt13B.arch()).with_admission_cap(24),
        &cost,
        &cluster,
        specs,
    )
    .expect("valid deployment")
    .with_sink(&tee)
    .run(&trace);
    println!(
        "served {} requests, rejected {} at the admission cap",
        out.records.len(),
        out.rejected.len()
    );

    // --- Self-check: attribution telescopes exactly ---------------------
    let snap = rec.snapshot();
    let mut checked = 0usize;
    for (key, lc) in &snap.lifecycles() {
        let attr = attribute(lc).unwrap_or_else(|e| panic!("request {key}: {e}"));
        if let (Some(t), Some(d)) = (&attr.ttft, &attr.decode) {
            let parts = t.batch_formation + t.queueing + t.exec + t.migration + d.total;
            assert!(
                (parts - attr.end_to_end).abs() < 1e-9,
                "request {key}: attribution drifted: {parts} vs {}",
                attr.end_to_end
            );
            checked += 1;
        }
    }
    println!("attribution exact on all {checked} finished requests");

    // --- Bottleneck diagnosis -------------------------------------------
    let report = diagnose(&snap, TTFT_SLO, TPOT_SLO, 2.0, 64).expect("diagnosable recording");
    print!("{}", report.render());

    // --- Dashboard ------------------------------------------------------
    let html = render_dashboard(&report, "DistServe observatory");
    assert!(html.contains("<svg"), "dashboard must carry inline SVG");
    assert!(
        html.trim_end().ends_with("</html>"),
        "dashboard must be complete"
    );
    assert!(
        !html.contains("<script"),
        "dashboard must work offline, no JS"
    );
    std::fs::write("dashboard.html", &html).expect("write dashboard.html");
    println!("wrote dashboard.html ({} bytes)", html.len());

    // --- Live endpoint: dashboard at /, Prometheus text at /metrics -----
    let prom = snap.prometheus_text();
    let index = Arc::new(move || html.clone());
    let metrics = Arc::new(move || prom.clone());
    let server = MetricsServer::start(0, index, metrics).expect("bind an ephemeral port");
    let addr = server.addr();
    std::fs::write("observatory.port", format!("{}\n", addr.port())).expect("write port file");

    // Self-probe over the real socket before declaring victory.
    let body = http_get(addr, "/metrics").expect("GET /metrics");
    assert!(
        body.contains("distserve_requests_finished_total"),
        "metrics endpoint must expose the finished counter"
    );
    let page = http_get(addr, "/").expect("GET /");
    assert!(
        page.contains("<svg"),
        "served dashboard must match the file"
    );
    println!("serving dashboard + metrics at http://{addr}/");

    // --- The same observability on the real engine ----------------------
    let model = Model::random(&TinyConfig::small(), 23);
    let tiny_obs = Arc::new(ObserverSink::new(5.0, 1.0, 0.5, 64));
    let sink: Arc<dyn TelemetrySink> = tiny_obs.clone();
    let mut batcher = ContinuousBatcher::new(model, 4096).with_sink(sink, 0);
    for i in 0..6u64 {
        batcher
            .submit(GenRequest {
                id: i,
                prompt: vec![1 + i as u32 % 5, 2, 3, 4],
                max_new: 12,
            })
            .expect("valid request");
    }
    let done = batcher.run_to_completion();
    let tiny_stats = tiny_obs.stats();
    println!(
        "tinyllm (wall clock): {} generations, windowed TTFT p50 {:.1} ms",
        done.len(),
        tiny_stats.ttft_p50.unwrap_or(0.0) * 1e3
    );

    // --- Optionally stay up for an external probe -----------------------
    let serve_secs: u64 = std::env::var("OBSERVATORY_SERVE_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if serve_secs > 0 {
        println!("serving for up to {serve_secs}s (GET /quit to stop early)");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(serve_secs);
        while std::time::Instant::now() < deadline && !server.is_shutdown() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }
    server.stop();
    println!("observatory done");
}
