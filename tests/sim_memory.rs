//! Memory of a long detailed-simulator run. `ServingSim` takes a trace's
//! arrivals one at a time and holds a request's state only while it is in
//! flight, so serving 100,000 requests at a sustainable rate grows the
//! process's peak RSS by little more than the outcome's records. The test
//! has a binary of its own, so no other test moves the peak it reads.

use distserve::cluster::Cluster;
use distserve::core::serve_trace;
use distserve::engine::{FidelityConfig, InstanceRole, InstanceSpec, RequestRecord};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::placement::TraceSource;
use distserve::workload::Dataset;

/// A `/proc/self/status` field in KiB.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One OPT-13B prefill and one decode instance serve 100,000 ShareGPT
/// requests at 1.5 req/s, which they sustain. Peak RSS may grow by the
/// records plus 4 MiB for everything in flight. Holding every request's
/// state and arrival from the start instead adds about 20 MiB.
#[test]
fn long_serve_trace_holds_only_live_state() {
    const REQUESTS: usize = 100_000;
    let cost = RooflineModel::a100_conservative();
    let cluster = Cluster::single_node(2);
    let arch = OptModel::Opt13B.arch();
    let specs = [InstanceRole::Prefill, InstanceRole::Decode]
        .into_iter()
        .zip(0..)
        .map(|(role, gpu)| {
            let stages = vec![vec![cluster.gpu(0, gpu)]];
            InstanceSpec::new(role, ParallelismConfig::SINGLE, stages).expect("valid instance")
        })
        .collect();
    let trace = Dataset::ShareGpt.make_trace(1.5, REQUESTS, 3);
    let Some(before) = status_kib("VmHWM:") else {
        eprintln!("no /proc/self/status; skipping the RSS assertion");
        return;
    };
    let out = serve_trace(
        &cost,
        &cluster,
        &arch,
        specs,
        &trace,
        FidelityConfig::detailed(),
        3,
    )
    .expect("valid deployment");
    let grew = status_kib("VmHWM:").expect("status readable") - before;
    assert_eq!(out.records.len(), REQUESTS, "every request completes");
    let ttft = out.records.iter().map(RequestRecord::ttft).sum::<f64>() / REQUESTS as f64;
    assert!(
        ttft < 1.0,
        "mean TTFT {ttft:.2} s: the rate is not sustained"
    );
    let records = (out.records.capacity() * std::mem::size_of::<RequestRecord>()) as u64 / 1024;
    eprintln!("peak RSS grew {grew} KiB; records take {records} KiB");
    assert!(
        grew < records + 4 * 1024,
        "a {REQUESTS}-request run grew peak RSS by {grew} KiB; its records take {records} KiB"
    );
}
