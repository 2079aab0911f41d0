//! End-to-end integration: plan → materialize → serve, across systems.

use distserve::cluster::Cluster;
use distserve::core::{rate_sweep, serve_trace, Application, Planner};
use distserve::engine::{FidelityConfig, InstanceSpec};
use distserve::models::RooflineModel;
use distserve::placement::alg1::SearchParams;
use distserve::placement::deploy::Deployment;
use distserve::placement::goodput::served_goodput;
use distserve::placement::{HighPlacement, TraceSource};

/// Per-GPU goodput of a fixed deployment measured with the full
/// simulator: the largest per-GPU rate whose attainment meets the target.
fn per_gpu_goodput(
    cost: &RooflineModel,
    cluster: &Cluster,
    app: Application,
    specs: &[InstanceSpec],
) -> f64 {
    let (arch, slo, dataset) = (app.model().arch(), app.slo(), app.dataset());
    let params = SearchParams {
        probe_requests: 200,
        probe_secs: 60.0,
        search_iters: 6,
        seed: 13,
        ..SearchParams::default()
    };
    let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
    served_goodput(cost, cluster, &arch, specs, &dataset, slo, &params) / f64::from(gpus)
}

fn quick_params() -> SearchParams {
    SearchParams {
        max_tp: 4,
        max_pp: 2,
        probe_requests: 256,
        probe_secs: 60.0,
        search_iters: 6,
        ..SearchParams::default()
    }
}

#[test]
fn chatbot_13b_full_pipeline() {
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();
    let deployment = planner
        .plan_distserve(&app.dataset(), slo, 8.0)
        .expect("13B chatbot plans");
    let specs = planner.materialize(&deployment).expect("fits the testbed");

    // The materialized deployment must carry 80% of the planned rate
    // within SLO (planning probes are coarse, so operators run with
    // headroom — §4.3's replanning absorbs drift).
    let trace = app.dataset().make_trace(8.0 * 0.8, 400, 21);
    let outcome = serve_trace(
        &cost,
        &cluster,
        &arch,
        specs,
        &trace,
        FidelityConfig::ideal(),
        21,
    )
    .expect("valid deployment");
    assert_eq!(outcome.records.len(), 400);
    let att = outcome.attainment(slo.ttft, slo.tpot);
    assert!(att >= 0.85, "planned deployment attains only {att}");

    // Every record's timeline must be ordered and self-consistent.
    for r in &outcome.records {
        assert!(r.prefill_start >= r.arrival);
        assert!(r.first_token >= r.prefill_start);
        assert!(r.transfer_done >= r.first_token);
        assert!(r.decode_start >= r.transfer_done);
        assert!(r.completion >= r.decode_start);
        let b = r.breakdown();
        assert!((b.total() - r.total_latency()).abs() < 1e-9);
    }
}

#[test]
fn disaggregation_dominates_colocation_latency() {
    // The paper's core claim (Figures 1 and 8), asserted as tail-latency
    // dominance at a matched per-GPU rate: disaggregation removes the
    // prefill-decoding interference, so both P90 TTFT and P90 TPOT are
    // lower than the colocated baseline's. (Goodput *factors* are noisy
    // near flat attainment curves; the figure harnesses report them.)
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();

    let distserve = planner
        .plan_distserve(&app.dataset(), slo, 8.0)
        .expect("plans");
    let ds_specs = planner.materialize(&distserve).expect("fits");
    let ds_gpus: u32 = ds_specs.iter().map(InstanceSpec::num_gpus).sum();
    let vllm = planner.plan_vllm(app.vllm_parallelism(), 1).expect("valid");
    let vllm_specs = planner.materialize(&vllm).expect("fits");

    // A per-GPU rate where the colocated baseline is pressured but not
    // collapsed.
    let per_gpu_rate = 1.5;
    let run = |specs: Vec<InstanceSpec>, gpus: u32, seed: u64| {
        let rate = per_gpu_rate * f64::from(gpus);
        let trace = app
            .dataset()
            .make_trace(rate, ((rate * 60.0) as usize).max(300), seed);
        serve_trace(
            &cost,
            &cluster,
            &arch,
            specs,
            &trace,
            FidelityConfig::ideal(),
            seed,
        )
        .expect("valid deployment")
    };
    for seed in [13u64, 14, 15] {
        let ds = run(ds_specs.clone(), ds_gpus, seed);
        let vl = run(vllm_specs.clone(), 1, seed);
        // Interference removal shows directly in the first token: the
        // dedicated prefill instances keep tail TTFT below the colocated
        // baseline's.
        let ds_ttft = ds.ttft_summary().percentile(0.9);
        let vl_ttft = vl.ttft_summary().percentile(0.9);
        assert!(
            ds_ttft < vl_ttft,
            "seed {seed}: DS P90 TTFT {ds_ttft:.3} !< vLLM {vl_ttft:.3}"
        );
        // Decoding batches *up to* the TPOT SLO (that is the point of the
        // dedicated decode instance): raw TPOT may exceed the lightly
        // loaded baseline's, but it must respect the SLO.
        let ds_tpot = ds.tpot_summary().percentile(0.9);
        assert!(
            ds_tpot <= slo.tpot,
            "seed {seed}: DS P90 TPOT {ds_tpot:.4} > SLO {:.4}",
            slo.tpot
        );
        // And the joint SLO attainment never regresses vs the baseline.
        let a_ds = ds.attainment(slo.ttft, slo.tpot);
        let a_vl = vl.attainment(slo.ttft, slo.tpot);
        assert!(
            a_ds >= a_vl - 0.02,
            "seed {seed}: DS attainment {a_ds:.3} below vLLM {a_vl:.3}"
        );
    }
}

#[test]
fn summarization_shows_large_factor() {
    // §6.2: the long-prompt workload is where colocation hurts most —
    // vLLM's TPOT attainment collapses while DistServe's holds.
    let app = Application::SummarizationOpt66B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();

    let vllm = planner.plan_vllm(app.vllm_parallelism(), 1).expect("valid");
    let vllm_specs = planner.materialize(&vllm).expect("fits");
    let g_vl = per_gpu_goodput(&cost, &cluster, app, &vllm_specs);

    let distserve = planner
        .plan_distserve(&app.dataset(), slo, g_vl * 8.0)
        .expect("plans");
    let ds_specs = planner.materialize(&distserve).expect("fits");
    let g_ds = per_gpu_goodput(&cost, &cluster, app, &ds_specs);

    // §6.2 reports 4.48x on this workload; our synthetic LongBench and
    // calibrated engine land a smaller but clear win (~1.5x, see
    // EXPERIMENTS.md).
    assert!(
        g_ds > 1.3 * g_vl,
        "DistServe {g_ds:.3} rps/GPU vs vLLM {g_vl:.3} rps/GPU"
    );

    // And vLLM's failure past its knee is TPOT-driven (decoding starved
    // by long prefills).
    let pts = rate_sweep(
        &cost,
        &cluster,
        &arch,
        &vllm_specs,
        &app.dataset(),
        slo,
        &[g_vl * 2.0],
        300,
        9,
    )
    .unwrap();
    assert!(
        pts[0].tpot_attainment < 0.9,
        "expected vLLM TPOT collapse past the knee, got {}",
        pts[0].tpot_attainment
    );
}

#[test]
fn high_affinity_plan_on_ib_cluster() {
    // On an InfiniBand cluster the planner uses Algorithm 1 and the
    // resulting cross-node-capable deployment still meets its SLOs.
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::high_affinity(4, 8);
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();
    let deployment = planner
        .plan_distserve(&app.dataset(), slo, 6.0)
        .expect("plans");
    assert!(matches!(deployment, Deployment::High(_)));
    let specs = planner.materialize(&deployment).expect("fits");
    // Serve with 20% headroom below the planned rate.
    let trace = app.dataset().make_trace(6.0 * 0.8, 300, 33);
    let outcome = serve_trace(
        &cost,
        &cluster,
        &arch,
        specs,
        &trace,
        FidelityConfig::ideal(),
        33,
    )
    .unwrap();
    let att = outcome.attainment(slo.ttft, slo.tpot);
    assert!(att >= 0.8, "attainment {att}");
}

/// Golden replay gate: a routed run's decision log is serialized JSON;
/// this fixture pins the exact decisions for a fixed (config, trace,
/// seed) triple, and re-running from the fixture must reproduce the
/// live outcome record-for-record. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test end_to_end golden_replay` after
/// any intentional routing change.
#[test]
fn golden_replay_fixture_reproduces_routed_run() {
    use distserve::engine::{ServingSim, SimConfig};
    use distserve::models::{OptModel, ParallelismConfig};
    use distserve::router::{log_from_json, log_to_json, RouterPolicy};
    use distserve::workload::Dataset;

    let cost = RooflineModel::a100();
    let cluster = Cluster::single_node(4);
    let arch = OptModel::Opt13B.arch();
    let planner = Planner::new(&cost, &cluster, arch.clone());
    let plan = planner
        .plan_vllm(ParallelismConfig::SINGLE, 2)
        .expect("plans");
    let specs = planner.materialize(&plan).expect("fits");
    let trace = Dataset::ShareGpt.make_trace(3.0, 40, 21);

    let cfg = SimConfig::new(arch).with_seed(21);
    let (live, log) = ServingSim::new_routed(
        cfg.clone(),
        &cost,
        &cluster,
        specs.clone(),
        RouterPolicy::default(),
    )
    .expect("routed run")
    .run_logged(&trace);
    let json = log_to_json(&log).expect("serializes");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/router_replay.golden.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("write fixture");
    }
    let golden = std::fs::read_to_string(path).expect("fixture exists");
    assert_eq!(
        json, golden,
        "decision log drifted from the golden fixture; if the routing \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );

    let fixture_log = log_from_json(&golden).expect("fixture parses");
    let (replayed, replay_log) =
        ServingSim::new_replayed(cfg, &cost, &cluster, specs, &fixture_log)
            .expect("replayed run")
            .run_logged(&trace);
    assert_eq!(replayed.records, live.records, "byte-identical outcome");
    assert_eq!(replayed.rejected, live.rejected);
    assert_eq!(replayed.failed, live.failed);
    assert_eq!(replayed.makespan, live.makespan);
    assert_eq!(replay_log, fixture_log, "replay re-emits the golden log");
}

/// One plan as a line: each parallelism, the replica or unit count, and
/// the exact bits of every goodput (the value beside them is for the
/// reader; the bits are what must not move).
fn plan_line(plan: &Deployment) -> String {
    let g = |x: f64| format!("{:#018x} ({x:.4} rps)", x.to_bits());
    match plan {
        Deployment::High(p) => format!(
            "high: prefill {} x{} goodput {}; decode {} x{} goodput {}",
            p.prefill.par,
            p.num_prefill,
            g(p.prefill.goodput),
            p.decode.par,
            p.num_decode,
            g(p.decode.goodput)
        ),
        Deployment::Low(p) => format!(
            "low: prefill {} + decode {} x{} units, unit goodput {}",
            p.prefill_par,
            p.decode_par,
            p.num_units,
            g(p.unit_goodput)
        ),
        Deployment::Coloc(p) => format!(
            "coloc: {} x{} goodput {}",
            p.par,
            p.num_replicas,
            g(p.goodput)
        ),
    }
}

/// The planner golden's search: instances up to tp4 × pp2, 64-request
/// probes covering 10 s, 10 bisection rounds, two threads.
fn golden_params() -> SearchParams {
    SearchParams {
        max_tp: 4,
        max_pp: 2,
        probe_requests: 64,
        probe_secs: 10.0,
        search_iters: 10,
        threads: 2,
        seed: 0,
    }
}

/// Planner golden: the OPT-13B chatbot planned by Algorithm 1 on a
/// high-affinity cluster, by Algorithm 2 on the paper testbed and by
/// vLLM++, each pinned by parallelism, replica and unit counts and the
/// bits of every goodput. A change that moves a plan on purpose
/// re-records `tests/fixtures/planner.golden.txt` with `UPDATE_GOLDEN=1
/// cargo test --test end_to_end planner_plans_match_golden` and says why.
#[test]
fn planner_plans_match_golden() {
    let app = Application::ChatbotOpt13B;
    let cost = RooflineModel::a100_conservative();
    let (slo, dataset) = (app.slo(), app.dataset());
    let planner = |cluster| {
        let mut p = Planner::new(&cost, cluster, app.model().arch());
        p.params = golden_params();
        p
    };
    let (high, testbed) = (Cluster::high_affinity(4, 8), Cluster::paper_testbed());
    let plans = [
        planner(&high).plan_distserve_high(&dataset, slo, 6.0),
        planner(&testbed).plan_distserve_low(&dataset, slo, 6.0),
        planner(&testbed).plan_vllm_plus_plus(&dataset, slo, 6.0),
    ];
    let got: String = plans
        .iter()
        .map(|p| plan_line(p.as_ref().expect("OPT-13B plans")) + "\n")
        .collect();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/planner.golden.txt"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write fixture");
    }
    let golden = std::fs::read_to_string(path).expect("fixture exists");
    assert_eq!(
        got, golden,
        "plans drifted from the golden fixture; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and say why"
    );
}

/// `cluster` with GPUs 3 and up of every node failed.
fn three_gpus_per_node(mut cluster: Cluster) -> Cluster {
    for node in 0..cluster.num_nodes() {
        for index in 3..cluster.gpus_per_node() {
            cluster.fail_gpu(cluster.gpu(node, index)).unwrap();
        }
    }
    cluster
}

/// Plans on a shrunk cluster, as a capacity replan hands the planner
/// (§4.3), must deploy there: on the paper testbed with GPUs 3–7 of every
/// node failed, Algorithm 2 (the OPT-13B chatbot at 8 req/s, instances up
/// to tp4 × pp2, default probes) and vLLM++ (the golden's search at
/// 6 req/s) each return a plan that materializes, because both probe the
/// layouts `materialize` gives the healthy GPUs. On `high_affinity(4, 8)`
/// shrunk the same way, Algorithm 1 (the OPT-66B chatbot at 1 and 2 req/s,
/// the planner's default instance bounds, 64-request/10 s probes, 6
/// rounds) picks only instances the healthy GPUs can host: one of each
/// phase materializes. Its replica counts at these rates need more than
/// the 12 healthy GPUs (Algorithm 1 sizes for the rate, not the cluster),
/// so `plan_distserve` refuses both plans, naming the GPUs needed and the
/// GPUs healthy; at 0.5 req/s it returns a plan that deploys whole.
#[test]
fn plans_on_a_degraded_cluster_materialize() {
    let app = Application::ChatbotOpt13B;
    let cost = RooflineModel::a100_conservative();
    let (slo, dataset) = (app.slo(), app.dataset());
    let cluster = three_gpus_per_node(Cluster::paper_testbed());
    let mut planner = Planner::new(&cost, &cluster, app.model().arch());
    planner.params = SearchParams {
        max_tp: 4,
        max_pp: 2,
        threads: 2,
        ..planner.params.clone()
    };
    let low = planner
        .plan_distserve_low(&dataset, slo, 8.0)
        .expect("Algorithm 2 plans");
    planner.params = golden_params();
    let coloc = planner
        .plan_vllm_plus_plus(&dataset, slo, 6.0)
        .expect("vLLM++ plans");
    for plan in [low, coloc] {
        if let Err(e) = planner.materialize(&plan) {
            panic!("{} does not deploy: {e}", plan_line(&plan));
        }
    }

    let app = Application::ChatbotOpt66B;
    let (slo, dataset) = (app.slo(), app.dataset());
    let high = three_gpus_per_node(Cluster::high_affinity(4, 8));
    let mut alg1 = Planner::new(&cost, &high, app.model().arch());
    alg1.params = SearchParams {
        probe_requests: 64,
        probe_secs: 10.0,
        search_iters: 6,
        threads: 2,
        ..alg1.params.clone()
    };
    for rate in [1.0, 2.0] {
        let Ok(Deployment::High(plan)) = alg1.plan_distserve_high(&dataset, slo, rate) else {
            panic!("Algorithm 1 plans at {rate} req/s");
        };
        for (num_prefill, num_decode) in [(1, 0), (0, 1)] {
            let one = Deployment::High(HighPlacement {
                num_prefill,
                num_decode,
                ..plan.clone()
            });
            if let Err(e) = alg1.materialize(&one) {
                panic!("{} at {rate} req/s does not deploy: {e}", plan_line(&one));
            }
        }
        // The whole plan outgrows the 12 healthy GPUs, so the planner's
        // entry refuses it and says why.
        let (need, healthy) = (plan.total_gpus(), high.available_gpus());
        assert!(need > healthy, "{need} GPUs planned at {rate} req/s");
        match alg1.plan_distserve(&dataset, slo, rate) {
            Ok(d) => panic!("{} at {rate} req/s returned Ok", plan_line(&d)),
            Err(e) => assert!(
                e.contains(&format!("needs {need} GPUs"))
                    && e.contains(&format!("{healthy} are healthy")),
                "{e}"
            ),
        }
    }
    // At 0.5 req/s the plan fits, and `plan_distserve` returns it whole.
    let plan = alg1
        .plan_distserve(&dataset, slo, 0.5)
        .expect("Algorithm 1 plans at 0.5 req/s");
    if let Err(e) = alg1.materialize(&plan) {
        panic!("{} at 0.5 req/s does not deploy: {e}", plan_line(&plan));
    }
}
