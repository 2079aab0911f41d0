//! Integration tests for the observe crate: attribution exactness
//! against the engine's own records across serving modes, windowed
//! attainment accounting of rejections, and wall-clock exactness on
//! the real tinyllm engine.

use std::sync::Arc;

use distserve::cluster::Cluster;
use distserve::engine::{
    ColocatedPolicy, InstanceRole, InstanceSpec, ServingSim, SimConfig, SimOutcome,
};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::observe::{attribute, ObserverSink, Outcome};
use distserve::placement::TraceSource;
use distserve::telemetry::{Recorder, TeeSink, TelemetrySink};
use distserve::workload::datasets::FixedLengths;
use tinyllm::{ContinuousBatcher, GenRequest, Model, TinyConfig};

const EPS: f64 = 1e-9;

fn cost() -> RooflineModel {
    RooflineModel::a100_conservative()
}

fn spec(cluster: &Cluster, role: InstanceRole, gpu: u32) -> InstanceSpec {
    InstanceSpec::new(
        role,
        ParallelismConfig::SINGLE,
        vec![vec![cluster.gpu(0, gpu)]],
    )
    .unwrap()
}

/// Runs a recorded simulation and checks, for every finished request,
/// that the attribution components telescope exactly to the engine's
/// own TTFT and end-to-end figures.
fn check_exactness(label: &str, cfg: SimConfig, cluster: &Cluster, specs: Vec<InstanceSpec>) {
    let cost = cost();
    let trace = FixedLengths {
        input_len: 384,
        output_len: 24,
    }
    .make_trace(12.0, 120, 11);
    let rec = Recorder::new();
    let out: SimOutcome = ServingSim::new(cfg, &cost, cluster, specs)
        .unwrap()
        .with_sink(&rec)
        .run(&trace);
    assert_eq!(out.records.len(), 120, "{label}: lost requests");

    let by_id: std::collections::HashMap<u64, _> =
        out.records.iter().map(|r| (r.id.0, r)).collect();
    let snap = rec.snapshot();
    let lifecycles = snap.lifecycles();
    assert_eq!(lifecycles.len(), 120, "{label}: lifecycles missing");

    for (key, lc) in &lifecycles {
        let attr = attribute(lc).unwrap_or_else(|e| panic!("{label}: request {key}: {e}"));
        assert_eq!(attr.outcome, Outcome::Finished);
        let r = by_id[key];

        let ttft = attr.ttft.expect("finished request has a TTFT");
        let parts = ttft.batch_formation + ttft.queueing + ttft.exec + ttft.migration;
        assert!(
            (parts - ttft.total).abs() < EPS,
            "{label}: request {key}: TTFT parts {parts} != total {}",
            ttft.total
        );
        assert!(
            (ttft.total - r.ttft()).abs() < EPS,
            "{label}: request {key}: attributed TTFT {} != engine {}",
            ttft.total,
            r.ttft()
        );

        let dec = attr.decode.expect("finished request has a decode phase");
        let parts = dec.migration_wait + dec.migration + dec.queueing + dec.step_exec + dec.stall;
        assert!(
            (parts - dec.total).abs() < EPS,
            "{label}: request {key}: decode parts {parts} != total {}",
            dec.total
        );

        let e2e = r.completion.since(r.arrival);
        assert!(
            (ttft.total + dec.total - attr.end_to_end).abs() < EPS
                && (attr.end_to_end - e2e).abs() < EPS,
            "{label}: request {key}: TTFT {} + decode {} != end-to-end {e2e}",
            ttft.total,
            dec.total
        );
    }
}

#[test]
fn attribution_exact_on_disaggregated_serving() {
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    check_exactness(
        "disagg",
        SimConfig::new(OptModel::Opt13B.arch()),
        &cluster,
        specs,
    );
}

#[test]
fn attribution_exact_on_colocated_serving() {
    let cluster = Cluster::single_node(1);
    let specs = vec![spec(&cluster, InstanceRole::Colocated, 0)];
    check_exactness(
        "coloc",
        SimConfig::new(OptModel::Opt13B.arch()),
        &cluster,
        specs,
    );
}

#[test]
fn attribution_exact_on_chunked_prefill_serving() {
    let cluster = Cluster::single_node(1);
    let specs = vec![
        spec(&cluster, InstanceRole::Colocated, 0).with_policy(ColocatedPolicy {
            chunked_prefill: Some(256),
            ..ColocatedPolicy::default()
        }),
    ];
    check_exactness(
        "chunked",
        SimConfig::new(OptModel::Opt13B.arch()),
        &cluster,
        specs,
    );
}

/// Rejections must count against windowed attainment and goodput: with
/// SLOs so loose every *finished* request meets them, attainment still
/// sits below 1.0 by exactly the rejected fraction.
#[test]
fn windowed_attainment_counts_rejections_as_misses() {
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    let cost = cost();
    let trace = FixedLengths {
        input_len: 512,
        output_len: 16,
    }
    .make_trace(80.0, 120, 5);
    let obs = ObserverSink::new(1e9, 1e9, 1.0, 4096);
    let out = ServingSim::new(
        SimConfig::new(OptModel::Opt13B.arch()).with_admission_cap(4),
        &cost,
        &cluster,
        specs,
    )
    .unwrap()
    .with_sink(&obs)
    .run(&trace);
    assert!(!out.rejected.is_empty(), "cap must reject under this load");

    let stats = obs.stats();
    assert_eq!(stats.finished, out.records.len() as u64);
    assert_eq!(stats.rejected, out.rejected.len() as u64);
    assert_eq!(stats.requests, 120);
    let expected = out.records.len() as f64 / 120.0;
    assert!(
        (stats.attainment - expected).abs() < EPS,
        "attainment {} should equal finished fraction {expected}",
        stats.attainment
    );
    assert!(stats.attainment < 1.0);
    // The engine's own attainment agrees with the windowed view.
    assert!((out.attainment(1e9, 1e9) - stats.attainment).abs() < EPS);
}

/// Wall-clock telemetry from the real engine must attribute exactly
/// too: the decomposition is built by telescoping, so even with OS
/// timer jitter in the stamps, components re-sum to the recorded
/// end-to-end figure within a timer tick.
#[test]
fn tinyllm_wall_clock_attribution_is_exact() {
    const TICK: f64 = 1e-6; // one microsecond — a generous timer tick
    let model = Model::random(&TinyConfig::small(), 17);
    let rec = Arc::new(Recorder::new());
    let obs = Arc::new(ObserverSink::new(10.0, 10.0, 0.5, 64));
    let tee: Arc<dyn TelemetrySink> = Arc::new(TeeSink::new(vec![
        rec.clone() as Arc<dyn TelemetrySink>,
        obs.clone() as Arc<dyn TelemetrySink>,
    ]));
    let mut batcher = ContinuousBatcher::new(model, 4096).with_sink(tee, 0);
    for i in 0..6u64 {
        batcher
            .submit(GenRequest {
                id: i,
                prompt: vec![1 + i as u32 % 5, 2, 3],
                max_new: 8,
            })
            .expect("valid request");
    }
    let done = batcher.run_to_completion();
    assert_eq!(done.len(), 6);

    let snap = rec.snapshot();
    let lifecycles = snap.lifecycles();
    assert_eq!(lifecycles.len(), 6);
    for (key, lc) in &lifecycles {
        let attr = attribute(lc).unwrap_or_else(|e| panic!("tinyllm request {key}: {e}"));
        let ttft = attr.ttft.expect("ttft");
        let dec = attr.decode.expect("decode");
        let parts = ttft.batch_formation
            + ttft.queueing
            + ttft.exec
            + ttft.migration
            + dec.migration_wait
            + dec.migration
            + dec.queueing
            + dec.step_exec
            + dec.stall;
        assert!(
            (parts - attr.end_to_end).abs() < TICK,
            "tinyllm request {key}: parts {parts} != end-to-end {}",
            attr.end_to_end
        );
    }
    // The live window saw the same six requests finish.
    let stats = obs.stats();
    assert_eq!(stats.finished, 6);
    assert_eq!(stats.rejected, 0);
}
