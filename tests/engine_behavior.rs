//! Targeted behavioral tests of the serving engines: dispatch balance,
//! admission under tiny KV pools, decode-batch overflow, pull-based
//! transfer backpressure, and telemetry lifecycle invariants.

use proptest::prelude::*;

use distserve::cluster::Cluster;
use distserve::engine::sim::InstanceStats;
use distserve::engine::{
    ColocatedPolicy, InstanceRole, InstanceSpec, RequestRecord, ServingSim, SimConfig, SimOutcome,
};
use distserve::faults::{FaultKind, FaultSchedule, RetryPolicy, StormConfig};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::placement::TraceSource;
use distserve::router::{DecisionRecord, RouterPolicy};
use distserve::simcore::{SimRng, SimTime};
use distserve::telemetry::{metrics, Event, Recorder, Recording, Slice};
use distserve::workload::datasets::FixedLengths;
use distserve::workload::{Dataset, Request, RequestId, Trace, TraceBuilder};

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

fn run(
    cluster: &Cluster,
    cfg: SimConfig,
    specs: Vec<InstanceSpec>,
    n: usize,
    rate: f64,
) -> SimOutcome {
    let cost = cost();
    let trace = FixedLengths {
        input_len: 256,
        output_len: 32,
    }
    .make_trace(rate, n, 5);
    ServingSim::new(cfg, &cost, cluster, specs)
        .unwrap()
        .run(&trace)
}

#[test]
fn shortest_queue_dispatch_balances_prefill_instances() {
    let cluster = Cluster::single_node(3);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Prefill, 1),
        spec(&cluster, InstanceRole::Decode, 2),
    ];
    // Near joint capacity, so arrivals almost always see outstanding
    // work and the shortest-queue metric actually discriminates. (At low
    // load both counters read zero and ties legitimately go to the first
    // instance.)
    let out = run(
        &cluster,
        SimConfig::new(OptModel::Opt13B.arch()),
        specs,
        300,
        25.0,
    );
    // First tokens produced on the two prefill instances should split
    // roughly evenly under shortest-queue dispatch.
    let p0 = out.instances[0].tokens_out as f64;
    let p1 = out.instances[1].tokens_out as f64;
    assert_eq!(p0 + p1, 300.0);
    let imbalance = (p0 - p1).abs() / 300.0;
    assert!(imbalance < 0.2, "prefill imbalance {imbalance}");
    // All decoding happened on the decode instance.
    assert_eq!(out.instances[2].tokens_out, 300 * 31);
}

#[test]
fn least_loaded_dispatch_balances_decode_instances() {
    let cluster = Cluster::single_node(3);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
        spec(&cluster, InstanceRole::Decode, 2),
    ];
    let out = run(
        &cluster,
        SimConfig::new(OptModel::Opt13B.arch()),
        specs,
        300,
        8.0,
    );
    let d0 = out.instances[1].tokens_out as f64;
    let d1 = out.instances[2].tokens_out as f64;
    assert_eq!(d0 + d1, 300.0 * 31.0);
    let imbalance = (d0 - d1).abs() / (d0 + d1);
    assert!(imbalance < 0.2, "decode imbalance {imbalance}");
}

#[test]
fn decode_overflow_queue_engages_and_drains() {
    // Cap the decode batch far below the concurrency the trace creates:
    // extra requests must wait in the overflow queue and still finish.
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    let mut cfg = SimConfig::new(OptModel::Opt13B.arch());
    cfg.max_decode_batch = 4;
    let out = run(&cluster, cfg, specs, 120, 30.0);
    assert_eq!(out.records.len(), 120);
    // With batch 4 and ~30 rps of arrivals, decode queueing must be
    // visible in the breakdown.
    let b = out.breakdown_totals();
    assert!(
        b.decode_queue > 0.0,
        "expected overflow-induced decode queueing"
    );
}

#[test]
fn tiny_decode_pool_backpressures_into_prefill_buffer() {
    // Give the decode instance almost no KV pool by serving a model whose
    // shard almost fills its GPU... simpler: shrink the margin knob so
    // the pool is small relative to demand, then check transfers stall
    // (transfer stage time >> wire time) without losing requests.
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    let mut cfg = SimConfig::new(OptModel::Opt13B.arch());
    // A 66% margin leaves only ~3.5 GB of KV pool per instance — room
    // for ~14 concurrent requests against ~20 in steady state.
    cfg.mem_margin = 0.66;
    let out = run(&cluster, cfg, specs, 80, 20.0);
    assert_eq!(out.records.len(), 80, "backpressure must not lose requests");
    let b = out.breakdown_totals();
    // Waiting-to-be-pulled time dwarfs pure wire time.
    let wire: f64 = out.records.iter().map(|r| r.transfer_active).sum();
    assert!(
        b.transfer > 5.0 * wire,
        "expected pull stalls: stage {} vs wire {wire}",
        b.transfer
    );
    // And the decode pool saturated at some point.
    assert!(out.instances[1].kv_peak_utilization > 0.9);
}

#[test]
fn decode_pipeline_groups_interleave() {
    // A pp=2 decode instance forms two micro-batch groups; both must see
    // work and the instance must produce every token.
    let cluster = Cluster::single_node(3);
    let decode = InstanceSpec::new(
        InstanceRole::Decode,
        ParallelismConfig::new(1, 2),
        vec![vec![cluster.gpu(0, 1)], vec![cluster.gpu(0, 2)]],
    )
    .unwrap();
    let specs = vec![spec(&cluster, InstanceRole::Prefill, 0), decode];
    let out = run(
        &cluster,
        SimConfig::new(OptModel::Opt13B.arch()),
        specs,
        200,
        15.0,
    );
    assert_eq!(out.records.len(), 200);
    assert_eq!(out.instances[1].tokens_out, 200 * 31);
    // Two groups interleaving means at least ~2x the batches a single
    // group of the same size would commit.
    assert!(
        out.instances[1].batches > 62,
        "batches {}",
        out.instances[1].batches
    );
}

#[test]
fn makespan_and_busy_accounting_consistent() {
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    let out = run(
        &cluster,
        SimConfig::new(OptModel::Opt13B.arch()),
        specs,
        150,
        10.0,
    );
    // No instance can be busy longer than the simulation ran.
    for s in &out.instances {
        assert!(
            s.busy_secs <= out.makespan.as_secs() + 1e-9,
            "busy {} > makespan {}",
            s.busy_secs,
            out.makespan
        );
    }
    // Completions are ordered and the makespan is the last one.
    let last = out.records.iter().map(|r| r.completion).max().unwrap();
    assert_eq!(last, out.makespan);
}

// --- Queue-depth gauge hygiene (observability) ----------------------

/// The exported queue-depth gauges must be re-published on dequeue, not
/// only on enqueue: after a run fully drains, the last written value
/// has to be zero or a scrape would report phantom backlog forever.
#[test]
fn queue_depth_gauges_fall_to_zero_after_drain() {
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    let trace = FixedLengths {
        input_len: 256,
        output_len: 8,
    }
    .make_trace(20.0, 60, 5);
    let cost = cost();
    let rec = Recorder::new();
    let out = ServingSim::new(
        SimConfig::new(OptModel::Opt13B.arch()),
        &cost,
        &cluster,
        specs,
    )
    .unwrap()
    .with_sink(&rec)
    .run(&trace);
    assert_eq!(out.records.len(), 60);
    let snap = rec.snapshot();
    assert_eq!(
        snap.metrics.gauge(metrics::PREFILL_QUEUE_DEPTH, 0),
        Some(0.0),
        "depth gauge must end at zero after the queue drains"
    );
    assert_eq!(
        snap.metrics.gauge(metrics::PREFILL_QUEUE_TOKENS, 0),
        Some(0.0),
        "token gauge must end at zero after the queue drains"
    );
}

/// Same invariant for the planner's prefill phase-sim, which batches on
/// a different code path.
#[test]
fn phase_sim_queue_depth_gauge_falls_to_zero() {
    use distserve::placement::phase_sim::{prefill_ttfts_with_sink, PhaseSimConfig};

    let cluster = Cluster::single_node(1);
    let cfg = PhaseSimConfig::new(OptModel::Opt13B.arch(), cluster.gpu_spec().clone());
    let trace = FixedLengths {
        input_len: 256,
        output_len: 8,
    }
    .make_trace(20.0, 60, 5);
    let rec = Recorder::new();
    let s = prefill_ttfts_with_sink(&cost(), &cfg, ParallelismConfig::SINGLE, &trace, &rec);
    assert_eq!(s.count(), 60);
    let snap = rec.snapshot();
    assert_eq!(
        snap.metrics.gauge(metrics::PREFILL_QUEUE_DEPTH, 0),
        Some(0.0),
        "phase-sim depth gauge must end at zero"
    );
    assert_eq!(
        snap.metrics.gauge(metrics::PREFILL_QUEUE_TOKENS, 0),
        Some(0.0),
        "phase-sim token gauge must end at zero"
    );
}

// --- Admission control ----------------------------------------------

/// With a queue cap, overload sheds load as `Rejected` lifecycles that
/// are visible in telemetry and count against attainment.
#[test]
fn admission_cap_rejects_with_full_attribution() {
    let cluster = Cluster::single_node(2);
    let specs = vec![
        spec(&cluster, InstanceRole::Prefill, 0),
        spec(&cluster, InstanceRole::Decode, 1),
    ];
    // A burst far beyond one prefill instance's service rate with a
    // 4-deep queue must reject some arrivals.
    let trace = FixedLengths {
        input_len: 512,
        output_len: 8,
    }
    .make_trace(80.0, 120, 5);
    let cost = cost();
    let rec = Recorder::new();
    let out = ServingSim::new(
        SimConfig::new(OptModel::Opt13B.arch()).with_admission_cap(4),
        &cost,
        &cluster,
        specs,
    )
    .unwrap()
    .with_sink(&rec)
    .run(&trace);
    assert!(!out.rejected.is_empty(), "expected rejections under burst");
    assert_eq!(
        out.records.len() + out.rejected.len(),
        120,
        "every request must be accounted for"
    );
    // Attainment denominators include the rejections: with generous
    // SLOs, attainment equals the completed fraction exactly.
    let completed_frac = out.records.len() as f64 / 120.0;
    assert!((out.attainment(1e9, 1e9) - completed_frac).abs() < 1e-12);
    assert!((out.ttft_attainment(1e9) - completed_frac).abs() < 1e-12);

    let snap = rec.snapshot();
    let lifecycles = snap.lifecycles();
    assert_eq!(lifecycles.len(), 120);
    for id in &out.rejected {
        let lc = &lifecycles[&id.0];
        lc.validate()
            .unwrap_or_else(|e| panic!("rejected request {}: {e}", id.0));
        assert_eq!(lc.events.len(), 2, "rejection is Arrived → Rejected");
    }
    let rejected_total: u64 = (0..2u32)
        .map(|i| snap.metrics.counter(metrics::REQUESTS_REJECTED, i))
        .sum();
    assert_eq!(rejected_total as usize, out.rejected.len());
    // The CSV surfaces the rejection column for those rows.
    let csv = snap.lifecycle_csv();
    let rejected_rows = csv
        .lines()
        .skip(1)
        .filter(|l| !l.split(',').nth(10).unwrap_or("").is_empty())
        .count();
    assert_eq!(rejected_rows, out.rejected.len());
}

// --- Telemetry lifecycle properties ---------------------------------

fn arb_trace(max_requests: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec((1u32..1024, 1u32..96, 0.0f64..20.0), 1..max_requests).prop_map(
        |entries| {
            let requests = entries
                .into_iter()
                .enumerate()
                .map(|(i, (input, output, at))| Request {
                    id: RequestId(i as u64),
                    arrival: SimTime::from_secs(at),
                    input_len: input,
                    output_len: output,
                    tenant: 0,
                })
                .collect();
            Trace::new(requests)
        },
    )
}

fn record_run(cluster: &Cluster, specs: Vec<InstanceSpec>, trace: &Trace) -> Recording {
    let cost = cost();
    let rec = Recorder::new();
    let _ = ServingSim::new(
        SimConfig::new(OptModel::Opt13B.arch()),
        &cost,
        cluster,
        specs,
    )
    .unwrap()
    .with_sink(&rec)
    .run(trace);
    rec.snapshot()
}

/// Shared invariant: one well-formed lifecycle per request — `Arrived`
/// first (at the request's arrival time), timestamps monotone, paired
/// start/end events matched, and a terminal event last — and the
/// finished-requests counter reconciles with the trace.
fn assert_lifecycles_complete(snap: &Recording, trace: &Trace, instances: u32) {
    let lifecycles = snap.lifecycles();
    assert_eq!(lifecycles.len(), trace.len());
    for req in trace.requests() {
        let lc = &lifecycles[&req.id.0];
        lc.validate()
            .unwrap_or_else(|e| panic!("request {}: {e}", req.id.0));
        let (t0, first) = lc.events[0];
        assert_eq!(first.name(), "Arrived");
        assert!((t0 - req.arrival.as_secs()).abs() < 1e-12);
    }
    let finished: u64 = (0..instances)
        .map(|i| snap.metrics.counter(metrics::REQUESTS_FINISHED, i))
        .sum();
    assert_eq!(finished as usize, trace.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn telemetry_lifecycles_monotone_and_complete(
        trace in arb_trace(48),
        chunk_sel in 0u32..512,
    ) {
        // Below 64 means "no chunking" (vLLM-style alternation), so both
        // colocated schedulers get proptest coverage.
        let chunk = (chunk_sel >= 64).then_some(chunk_sel);
        // Disaggregated pair: lifecycles include the KvMigrate stage.
        let cluster = Cluster::single_node(2);
        let specs = vec![
            spec(&cluster, InstanceRole::Prefill, 0),
            spec(&cluster, InstanceRole::Decode, 1),
        ];
        let snap = record_run(&cluster, specs, &trace);
        assert_lifecycles_complete(&snap, &trace, 2);

        // Colocated instance, vLLM-style or SARATHI-chunked per `chunk`:
        // same invariants, no migration stage.
        let coloc_cluster = Cluster::single_node(1);
        let coloc = spec(&coloc_cluster, InstanceRole::Colocated, 0).with_policy(ColocatedPolicy {
            chunked_prefill: chunk,
            ..ColocatedPolicy::default()
        });
        let snap = record_run(&coloc_cluster, vec![coloc], &trace);
        assert_lifecycles_complete(&snap, &trace, 1);
        assert!(snap.events.iter().all(|e| !e.kind.name().starts_with("KvMigrate")));
    }
}

// --- Golden serving outcomes ----------------------------------------

/// FNV-1a over 64-bit words and strings.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn time(&mut self, t: SimTime) {
        self.f64(t.as_secs());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Digest of every outcome field, the routed decision log, and the
/// recorded lifecycle-event and execution-slice streams, f64s as bit
/// patterns. The exhaustive destructures make a new field a compile
/// error here until it is pinned too.
fn outcome_digest(out: &SimOutcome, log: &[DecisionRecord], rec: &Recording) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in &out.records {
        let RequestRecord {
            id,
            input_len,
            output_len,
            arrival,
            prefill_start,
            first_token,
            transfer_done,
            decode_start,
            completion,
            transfer_active,
        } = *r;
        h.word(id.0);
        h.word(u64::from(input_len));
        h.word(u64::from(output_len));
        for t in [
            arrival,
            prefill_start,
            first_token,
            transfer_done,
            decode_start,
            completion,
        ] {
            h.time(t);
        }
        h.f64(transfer_active);
    }
    for ids in [&out.rejected, &out.failed] {
        h.word(ids.len() as u64);
        for id in ids {
            h.word(id.0);
        }
    }
    h.time(out.makespan);
    for s in &out.instances {
        let InstanceStats {
            role,
            num_gpus,
            busy_secs,
            batches,
            kv_peak_utilization,
            tokens_out,
            downtime_secs,
        } = *s;
        h.str(&format!("{role:?}"));
        h.word(u64::from(num_gpus));
        h.f64(busy_secs);
        h.word(batches);
        h.f64(kv_peak_utilization);
        h.word(tokens_out);
        h.f64(downtime_secs);
    }
    for d in log {
        let DecisionRecord {
            request,
            kind,
            target,
            decode,
            retry_after_secs,
            over_capacity,
            trace_id,
            prefix_group,
            matched_tokens,
        } = *d;
        h.word(request);
        h.str(&format!("{kind:?}"));
        h.word(target as u64);
        h.word(decode as u64);
        h.f64(retry_after_secs);
        h.word(u64::from(over_capacity));
        h.word(trace_id);
        h.word(prefix_group);
        h.word(u64::from(matched_tokens));
    }
    for e in &rec.events {
        let Event {
            request,
            tenant,
            time_s,
            kind,
        } = *e;
        h.word(request);
        h.word(u64::from(tenant));
        h.f64(time_s);
        h.str(&format!("{kind:?}"));
    }
    for s in &rec.slices {
        let Slice {
            track,
            name,
            start_s,
            end_s,
            batch,
            tokens,
        } = *s;
        h.word(u64::from(track));
        h.str(name);
        h.f64(start_s);
        h.f64(end_s);
        h.word(u64::from(batch));
        h.word(u64::from(tokens));
    }
    h.0
}

/// The golden deployments on the paper testbed, with each one's arrival
/// rate and whether the router decides its dispatch. Split pairs across
/// nodes pull KV over 25 Gbps, so transfer faults find pulls in flight.
fn golden_deployments(c: &Cluster) -> Vec<(&'static str, Vec<InstanceSpec>, f64, bool)> {
    let at = |role, node, gpu| {
        InstanceSpec::new(
            role,
            ParallelismConfig::SINGLE,
            vec![vec![c.gpu(node, gpu)]],
        )
        .unwrap()
    };
    let chunked = |gpu| {
        at(InstanceRole::Colocated, 0, gpu).with_policy(ColocatedPolicy {
            chunked_prefill: Some(256),
            ..ColocatedPolicy::default()
        })
    };
    let tp2_prefill = InstanceSpec::new(
        InstanceRole::Prefill,
        ParallelismConfig::new(2, 1),
        vec![vec![c.gpu(0, 0), c.gpu(0, 1)]],
    )
    .unwrap();
    let pp2_decode = InstanceSpec::new(
        InstanceRole::Decode,
        ParallelismConfig::new(1, 2),
        vec![vec![c.gpu(0, 2)], vec![c.gpu(0, 3)]],
    )
    .unwrap();
    vec![
        (
            "2P+2D",
            vec![
                at(InstanceRole::Prefill, 0, 0),
                at(InstanceRole::Prefill, 0, 1),
                at(InstanceRole::Decode, 1, 0),
                at(InstanceRole::Decode, 1, 1),
            ],
            8.0,
            false,
        ),
        ("tp2 P + pp2 D", vec![tp2_prefill, pp2_decode], 6.0, false),
        (
            "2C",
            vec![
                at(InstanceRole::Colocated, 0, 0),
                at(InstanceRole::Colocated, 0, 1),
            ],
            4.0,
            false,
        ),
        ("2C chunked", vec![chunked(0), chunked(1)], 4.0, false),
        (
            "routed P+D+C",
            vec![
                at(InstanceRole::Prefill, 0, 0),
                at(InstanceRole::Decode, 1, 0),
                at(InstanceRole::Decode, 1, 1),
                at(InstanceRole::Colocated, 0, 1),
            ],
            6.0,
            true,
        ),
    ]
}

/// Runs one golden configuration and returns `[completed, rejected,
/// failed, digest]`. The stressed variant switches on detailed
/// fidelity, a fault storm over every instance, a one-retry budget, the analytic
/// prefix hit model, an admission cap (a bounded-wait queue cap when
/// routed), and a small decode batch so the decode overflow queue
/// engages.
fn golden_run(specs: Vec<InstanceSpec>, rate: f64, routed: bool, stressed: bool) -> [u64; 4] {
    const N: usize = 600;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100();
    let mut rng = SimRng::seed(2024);
    let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(rate)
        .num_requests(N)
        .build(&mut rng);
    let mut cfg = SimConfig::new(OptModel::Opt13B.arch()).with_seed(11);
    let mut storm = FaultSchedule::new();
    let mut retry = RetryPolicy::default();
    let mut policy = RouterPolicy::default();
    if stressed {
        cfg = cfg
            .detailed()
            .with_prefix_model(0.5, 0.6)
            .with_admission_cap(6);
        cfg.max_decode_batch = 12;
        storm = FaultSchedule::storm(
            17,
            &StormConfig {
                horizon_secs: N as f64 / rate,
                count: 30,
                instances: specs.len(),
                mean_downtime_secs: 8.0,
            },
        );
        retry.max_retries = 1;
        policy = RouterPolicy {
            queue_cap: 4,
            max_wait_secs: 0.5,
            retry_gap_secs: 0.1,
            ..policy
        };
    }
    let sim = if routed {
        ServingSim::new_routed(cfg, &cost, &cluster, specs, policy)
    } else {
        ServingSim::new(cfg, &cost, &cluster, specs)
    };
    let rec = Recorder::new();
    let (out, log) = sim
        .unwrap()
        .with_faults(&storm, retry)
        .with_sink(&rec)
        .run_logged(&trace);
    let digest = outcome_digest(&out, &log, &rec.snapshot());
    [
        out.records.len() as u64,
        out.rejected.len() as u64,
        out.failed.len() as u64,
        digest,
    ]
}

/// Golden `ServingSim` outcomes for every dispatch path: split,
/// tensor/pipeline-parallel split, colocated, chunked colocated and
/// routed, each ideal and stressed. Any change to dispatch order, jitter
/// draws, fault recovery or telemetry emission order moves a digest.
#[test]
fn serving_sim_outcomes_match_golden() {
    let cluster = Cluster::paper_testbed();
    let got: Vec<(&str, [u64; 4])> = golden_deployments(&cluster)
        .into_iter()
        .flat_map(|(name, specs, rate, routed)| {
            [false, true].map(|stressed| (name, golden_run(specs.clone(), rate, routed, stressed)))
        })
        .collect();
    let expected: [(&str, [u64; 4]); 10] = [
        ("2P+2D", [600, 0, 0, 0x2724_2c82_201e_6eb4]),
        ("2P+2D", [395, 99, 106, 0xe32b_1a3c_1dd8_84d6]),
        ("tp2 P + pp2 D", [600, 0, 0, 0x1c06_2176_2f80_527a]),
        ("tp2 P + pp2 D", [511, 83, 6, 0x6d0b_5307_518c_50a8]),
        ("2C", [600, 0, 0, 0xf4b4_7b85_0086_b2ac]),
        ("2C", [372, 218, 10, 0xa263_1360_be50_957b]),
        ("2C chunked", [600, 0, 0, 0x872c_0cd1_b51a_2cb1]),
        ("2C chunked", [388, 200, 12, 0xecdf_1ace_e143_a617]),
        ("routed P+D+C", [600, 0, 0, 0xdf66_c25a_bcba_343c]),
        ("routed P+D+C", [519, 77, 4, 0xde29_8127_6236_b1b2]),
    ];
    assert_eq!(got, expected);
}

/// A permanent GPU loss while the decoder drains must not stall the
/// simulator. The drain parks KV pulls behind the decoder's maintenance
/// window and the loss cancels that window, so the parked pulls must
/// fail or move to a live decoder instead of waiting for a recovery that
/// never comes. The stressed "tp2 P + pp2 D" set-up with a 20-fault
/// storm that drains the decoder at 83.2 s, plus the loss at 85 s.
#[test]
fn gpu_loss_during_drain_ends_every_request() {
    const N: usize = 600;
    let rate = 6.0;
    let cluster = Cluster::paper_testbed();
    let (_, specs, ..) = golden_deployments(&cluster)
        .into_iter()
        .find(|(name, ..)| *name == "tp2 P + pp2 D")
        .expect("golden deployment");
    let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(rate)
        .num_requests(N)
        .build(&mut SimRng::seed(2024));
    let mut cfg = SimConfig::new(OptModel::Opt13B.arch())
        .with_seed(11)
        .detailed()
        .with_prefix_model(0.5, 0.6)
        .with_admission_cap(6);
    cfg.max_decode_batch = 12;
    let storm = FaultSchedule::storm(
        17,
        &StormConfig {
            horizon_secs: N as f64 / rate,
            count: 20,
            instances: 2,
            mean_downtime_secs: 6.0,
        },
    )
    .with(85.0, FaultKind::GpuLoss { instance: 1 });
    let retry = RetryPolicy {
        max_retries: 1,
        ..RetryPolicy::default()
    };
    let out = ServingSim::new(cfg, &RooflineModel::a100(), &cluster, specs)
        .unwrap()
        .with_faults(&storm, retry)
        .run(&trace);
    assert_eq!(out.records.len() + out.rejected.len() + out.failed.len(), N);
    assert!(!out.failed.is_empty(), "the lost decoder's work fails");
}
