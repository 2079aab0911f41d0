//! Chaos acceptance: fault injection end-to-end.
//!
//! Two contracts the fault subsystem must honor, asserted against the
//! observe crate's windows and the telemetry recorder:
//!
//! 1. **No silent drops.** Under a decode-instance crash every offered
//!    request still reaches a terminal state (finished, rejected, or
//!    failed), and every recorded lifecycle validates.
//! 2. **Goodput recovers.** After the capacity loss arms the replanning
//!    controller and placement reruns over the surviving GPUs, windowed
//!    goodput returns to ≥ 90% of its pre-fault level.

use std::sync::Arc;

use distserve::cluster::Cluster;
use distserve::core::recovery::assemble_report;
use distserve::core::replan::ReplanDecision;
use distserve::core::{Application, CapacityObservation, Planner, ReplanController};
use distserve::engine::spec::InstanceRole;
use distserve::engine::{InstanceSpec, ServingSim, SimConfig};
use distserve::faults::{FaultKind, FaultSchedule, GoodputSample, RetryPolicy};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::observe::ObserverSink;
use distserve::placement::alg1::SearchParams;
use distserve::simcore::SimRng;
use distserve::telemetry::{Recorder, TeeSink};
use distserve::workload::{Dataset, Request, RequestId, Trace, TraceBuilder};

#[test]
fn decode_crash_drops_no_request_silently() {
    let cluster = Cluster::single_node(4);
    let cost = RooflineModel::a100();
    let specs = vec![
        InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .unwrap(),
        InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 1)]],
        )
        .unwrap(),
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 2)]],
        )
        .unwrap(),
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 3)]],
        )
        .unwrap(),
    ];
    let mut rng = SimRng::seed(42);
    let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(6.0)
        .num_requests(240)
        .build(&mut rng);
    // Crash one decoding instance mid-run (it restarts after 4 s), and
    // poke a transfer failure at the survivor while it is absorbing the
    // extra load.
    let schedule = FaultSchedule::new()
        .with(
            10.0,
            FaultKind::InstanceCrash {
                instance: 2,
                downtime_secs: 4.0,
            },
        )
        .with(11.0, FaultKind::KvTransferFailure { instance: 3 });
    let recorder = Recorder::new();
    let sim = ServingSim::new(
        SimConfig::new(OptModel::Opt13B.arch()).with_seed(42),
        &cost,
        &cluster,
        specs,
    )
    .unwrap();
    let out = sim
        .with_faults(&schedule, RetryPolicy::default())
        .with_sink(&recorder)
        .run(&trace);

    // Conservation: every offered request reached a terminal state.
    assert_eq!(
        out.records.len() + out.rejected.len() + out.failed.len(),
        trace.len(),
        "request lost: {} finished, {} rejected, {} failed of {}",
        out.records.len(),
        out.rejected.len(),
        out.failed.len(),
        trace.len()
    );
    // The crash actually disturbed service.
    assert!(
        out.instances[2].downtime_secs > 3.9,
        "victim recorded {} s of downtime",
        out.instances[2].downtime_secs
    );
    // Every recorded lifecycle is well-formed and terminal.
    let snap = recorder.snapshot();
    let lifecycles = snap.lifecycles();
    assert_eq!(lifecycles.len(), trace.len());
    for (req, lc) in lifecycles {
        lc.validate()
            .unwrap_or_else(|e| panic!("request {req}: {e}"));
        let &(_, last) = lc.events.last().expect("non-empty lifecycle");
        assert!(last.is_terminal(), "request {req} ended on {last:?}");
    }
}

#[test]
fn goodput_recovers_after_capacity_replan() {
    let mut cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100();
    let arch = Application::ChatbotOpt13B.model().arch();
    let slo = Application::ChatbotOpt13B.slo();

    // Plan for a rate that needs several units.
    let rate = 24.0;
    let specs = {
        let mut planner = Planner::new(&cost, &cluster, arch.clone());
        planner.params = SearchParams {
            probe_requests: 128,
            search_iters: 4,
            ..planner.params
        };
        let d = planner
            .plan_distserve(&Dataset::ShareGpt, slo, rate)
            .expect("plans");
        planner.materialize(&d).expect("fits")
    };
    let victim = specs
        .iter()
        .position(|s| s.role == InstanceRole::Decode)
        .expect("has a decode instance");
    assert!(
        specs
            .iter()
            .filter(|s| s.role == InstanceRole::Decode)
            .count()
            > 1,
        "test needs surviving decode instances"
    );

    let fault_at = 20.0;
    let schedule = FaultSchedule::new().with(fault_at, FaultKind::GpuLoss { instance: victim });
    let mut rng = SimRng::seed(7);
    let trace_ab = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(rate)
        .num_requests(1200)
        .build(&mut rng);
    let recorder = Arc::new(Recorder::new());
    let observer = Arc::new(ObserverSink::new(slo.ttft, slo.tpot, 5.0, 128));
    let tee = TeeSink::new(vec![recorder.clone(), observer.clone()]);
    let cfg = SimConfig::new(arch.clone()).with_seed(7);
    let out_ab = ServingSim::new(cfg, &cost, &cluster, specs.clone())
        .expect("chaos phase serves")
        .with_faults(&schedule, RetryPolicy::default())
        .with_sink(&tee)
        .run(&trace_ab);
    assert_eq!(
        out_ab.records.len() + out_ab.rejected.len() + out_ab.failed.len(),
        trace_ab.len()
    );

    // Report the dead hardware and let the controller replan.
    for stage in &specs[victim].stages {
        for &gpu in stage {
            cluster.fail_gpu(gpu).unwrap();
        }
    }
    let mut controller = ReplanController::new(120.0, 10.0, slo);
    for r in trace_ab.requests() {
        controller.observe(r);
    }
    controller.baseline();
    controller.observe_capacity(CapacityObservation::from_cluster(&cluster, 1));
    assert!(controller.capacity_lost().is_some());
    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        probe_requests: 128,
        search_iters: 4,
        ..planner.params
    };
    let recovery_specs = match controller.poll(&planner) {
        ReplanDecision::Replanned(d) => planner.materialize(&d).expect("recovery plan fits"),
        other => panic!("expected capacity replan, got {other:?}"),
    };
    assert_eq!(controller.replans(), 1);

    // Continue the same traffic on the recovery deployment, into the
    // same observe window.
    let offset = trace_ab.span() + 1.0;
    let mut rng_c = SimRng::seed(8);
    let cont: Vec<Request> = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(rate)
        .num_requests(600)
        .build(&mut rng_c)
        .requests()
        .iter()
        .map(|r| Request {
            id: RequestId(r.id.0 + 100_000),
            arrival: r.arrival.after(offset),
            input_len: r.input_len,
            output_len: r.output_len,
            tenant: r.tenant,
        })
        .collect();
    let trace_c = Trace::new(cont);
    let cfg = SimConfig::new(arch.clone()).with_seed(8);
    let out_c = ServingSim::new(cfg, &cost, &cluster, recovery_specs)
        .expect("recovery phase serves")
        .with_sink(&tee)
        .run(&trace_c);
    assert_eq!(
        out_c.records.len() + out_c.rejected.len() + out_c.failed.len(),
        trace_c.len()
    );

    // Judge recovery on the windowed goodput series.
    let series = observer.series();
    let pre: Vec<f64> = series
        .iter()
        .filter(|b| b.start_s < fault_at && b.finished + b.rejected + b.failed > 0)
        .map(|b| b.goodput_rps)
        .collect();
    assert!(!pre.is_empty(), "no pre-fault buckets");
    let baseline = pre.iter().sum::<f64>() / pre.len() as f64;
    // Recovered goodput: buckets fully inside the phase-C arrival span
    // (excluding the drain tail after arrivals stop).
    let span_c = trace_c.span();
    let post: Vec<f64> = series
        .iter()
        .filter(|b| b.start_s >= offset && b.start_s + 5.0 <= offset + span_c)
        .map(|b| b.goodput_rps)
        .collect();
    assert!(!post.is_empty(), "no post-replan buckets");
    let recovered = post.iter().sum::<f64>() / post.len() as f64;
    assert!(
        recovered >= 0.9 * baseline,
        "goodput did not recover: baseline {baseline:.2} rps, recovered {recovered:.2} rps"
    );

    // The assembled availability report agrees.
    let samples: Vec<GoodputSample> = series
        .iter()
        .map(|b| GoodputSample {
            start_s: b.start_s,
            goodput_rps: b.goodput_rps,
        })
        .collect();
    let mut report = assemble_report(&samples, &schedule, &out_ab, 0);
    report.finished += out_c.records.len() as u64;
    // The report sees the same story: a dip, then goodput back at ≥90%
    // of baseline within the run (its recovered-goodput average also
    // spans the post-arrival drain tail, so judge recovery by the
    // recovery time, not the tail mean).
    assert!(
        report.dip_goodput_rps < report.baseline_goodput_rps,
        "report: {}",
        report.render()
    );
    assert!(
        report.recovery_secs.is_some(),
        "goodput never returned to ≥90% of baseline: {}",
        report.render()
    );
    let json = report.to_json();
    assert!(json.contains("\"recovery_frac\""));
}
