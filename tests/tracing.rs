//! Tracing-pipeline gates: tail-sampling determinism, flat memory, the
//! Perfetto export pinned by a golden fixture, and synthesized SLO flags
//! that agree with the request records.
//!
//! The tracing design leans on two load-bearing claims:
//!
//! 1. **Determinism.** Trace ids are pure functions of `(seed, request
//!    id)` and the reservoir is a salted hash of the trace id, so two
//!    runs of the same seeded simulation — router state rebuilt from
//!    scratch each time — must keep the *identical* set of traces,
//!    span for span. Anything less and a trace file cannot be joined
//!    to a decision log after the fact.
//! 2. **Flat RSS.** The tail sampler buffers spans in pooled arenas
//!    bounded by live requests, so tracing a multi-million-request
//!    `ScaleSim` run must not grow memory with request count.
//!
//! Case counts honor `PROPTEST_CASES`; the RSS gate scales with
//! `TRACE_RSS_REQUESTS` (CI runs the 10M-request version).

use std::sync::Arc;

use proptest::prelude::*;

use distserve::cluster::Cluster;
use distserve::engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve::faults::{FaultKind, FaultSchedule, RetryPolicy};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::placement::TraceSource;
use distserve::router::{Assignment, FleetSpec, RouterPolicy, ScaleSim, ScaleSlo, ServiceProfile};
use distserve::telemetry::{span_flags, Recorder, SpanKind, NO_PARENT};
use distserve::trace::{SpanSynthesizer, TailSampler, TailSamplerConfig};
use distserve::workload::datasets::FixedLengths;
use distserve::workload::{Dataset, RequestStream};

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One traced run: fresh sim (router state rebuilt from scratch), fresh
/// sampler, fixed seeds throughout. Returns each kept trace as
/// `(trace_id, span count, root payload)`, sorted.
fn traced_run(
    sim_seed: u64,
    stream_seed: u64,
    rate: f64,
    n: usize,
    fleet: FleetSpec,
) -> Vec<(u64, usize, u32)> {
    let sampler = Arc::new(TailSampler::new(TailSamplerConfig {
        sample_every: 64,
        ..TailSamplerConfig::default()
    }));
    let mut sim = ScaleSim::new(
        fleet,
        RouterPolicy {
            queue_cap: 4,
            max_wait_secs: 0.5,
            retry_gap_secs: 0.1,
        },
        ScaleSlo {
            ttft_s: 0.4,
            tpot_s: 0.1,
        },
        Assignment::Routed,
        sim_seed,
    );
    sim.set_tracing(sampler.clone(), sim_seed);
    let stream = RequestStream::poisson(Dataset::ShareGpt.sampler(), rate, stream_seed).take(n);
    let out = sim.run(stream);
    assert_eq!(out.completed + out.shed, out.offered, "conservation");

    let mut kept: Vec<(u64, usize, u32)> = sampler
        .take_kept()
        .iter()
        .map(|t| {
            let root = t
                .iter()
                .find(|s| s.ctx.parent == NO_PARENT)
                .expect("kept traces are finalized");
            (root.ctx.trace_id, t.len(), root.payload)
        })
        .collect();
    kept.sort_unstable();
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Two independent traced runs at the same seeds keep the identical
    /// trace set — same trace ids, same span counts, same outcome
    /// flags — even though every piece of state (router, sim, sampler)
    /// was rebuilt in between.
    #[test]
    fn tail_sampled_trace_sets_are_deterministic(
        sim_seed in 0u64..1_000_000,
        stream_seed in 0u64..1_000_000,
        rate in 50.0f64..250.0,
        prefill in 1u32..4,
        colocated in 1u32..4,
    ) {
        let fleet = FleetSpec {
            prefill,
            decode: prefill.max(1),
            colocated,
            profile: ServiceProfile::a100_13b(),
        };
        let n = 3_000;
        let a = traced_run(sim_seed, stream_seed, rate, n, fleet);
        let b = traced_run(sim_seed, stream_seed, rate, n, fleet);
        prop_assert!(!a.is_empty(), "overdriven runs must keep traces");
        prop_assert_eq!(a, b);
    }

    /// A different trace seed relabels every trace but keeps the same
    /// simulation outcome — tracing never perturbs the simulation.
    #[test]
    fn trace_seed_never_perturbs_the_simulation(
        seed in 0u64..100_000,
    ) {
        let fleet = FleetSpec {
            prefill: 2,
            decode: 2,
            colocated: 2,
            profile: ServiceProfile::a100_13b(),
        };
        let run = |trace_seed: u64| {
            let sampler = Arc::new(TailSampler::default());
            let mut sim = ScaleSim::new(
                fleet,
                RouterPolicy::default(),
                ScaleSlo { ttft_s: 0.4, tpot_s: 0.1 },
                Assignment::Routed,
                seed,
            );
            sim.set_tracing(sampler, trace_seed);
            let stream =
                RequestStream::poisson(Dataset::ShareGpt.sampler(), 150.0, seed).take(2_000);
            let out = sim.run(stream);
            (out.completed, out.shed, out.slo_ok)
        };
        prop_assert_eq!(run(seed), run(seed ^ 0xDEAD_BEEF));
    }
}

fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The flat-RSS gate: a traced `ScaleSim` run over millions of requests
/// (10M with `TRACE_RSS_REQUESTS=10000000`, CI's setting) must not grow
/// peak RSS by more than 64 MiB — the tail sampler's arenas recycle and
/// the kept set is capped, so memory is O(live requests), not O(n).
#[test]
fn traced_scale_sim_holds_flat_rss() {
    let n: usize = std::env::var("TRACE_RSS_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    let Some(before) = peak_rss_kib() else {
        eprintln!("no /proc/self/status; skipping RSS assertion");
        return;
    };
    let sampler = Arc::new(TailSampler::new(TailSamplerConfig::default()));
    let mut sim = ScaleSim::new(
        FleetSpec {
            prefill: 6,
            decode: 10,
            colocated: 8,
            profile: ServiceProfile::a100_13b(),
        },
        RouterPolicy {
            queue_cap: 4,
            max_wait_secs: 0.5,
            retry_gap_secs: 0.1,
        },
        ScaleSlo {
            ttft_s: 0.4,
            tpot_s: 0.1,
        },
        Assignment::Routed,
        7,
    );
    sim.set_tracing(sampler.clone(), 7);
    let stream = RequestStream::poisson(Dataset::ShareGpt.sampler(), 220.0, 11).take(n);
    let out = sim.run(stream);
    assert_eq!(out.completed + out.shed, out.offered);

    let stats = sampler.stats();
    assert_eq!(stats.finished, out.offered, "every request finalized");
    assert!(stats.kept > 0, "an overdriven run keeps traces");
    assert!(
        stats.kept <= sampler.config().max_kept as u64,
        "kept set respects the cap"
    );
    assert_eq!(stats.live, 0, "no trace left buffering after drain");

    let after = peak_rss_kib().expect("status readable");
    let grew_kib = after.saturating_sub(before);
    assert!(
        grew_kib < 64 * 1024,
        "traced {n}-request run grew peak RSS by {grew_kib} KiB (cap 64 MiB)"
    );
}

/// Pins the workspace's one Perfetto writer byte for byte. A small
/// disaggregated `ServingSim` run is recorded through a
/// `SpanSynthesizer` into a `Recorder`, so the file holds instance
/// slices, lifecycle instants and span waterfalls. Regenerate
/// deliberately with `UPDATE_GOLDEN=1 cargo test --test tracing
/// perfetto_export_matches_golden` after an intentional format change.
#[test]
fn perfetto_export_matches_golden() {
    let cluster = Cluster::single_node(2);
    let instance = |role, gpu| {
        InstanceSpec::new(
            role,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, gpu)]],
        )
        .expect("valid instance")
    };
    let specs = vec![
        instance(InstanceRole::Prefill, 0),
        instance(InstanceRole::Decode, 1),
    ];
    let trace = FixedLengths {
        input_len: 256,
        output_len: 6,
    }
    .make_trace(8.0, 4, 3);
    let rec = Arc::new(Recorder::new());
    let synth = SpanSynthesizer::new(rec.clone(), 3).with_slos(0.4, 0.1);
    let cost = RooflineModel::a100();
    let cfg = SimConfig::new(OptModel::Opt13B.arch()).with_seed(3);
    let _ = ServingSim::new(cfg, &cost, &cluster, specs)
        .expect("deployment is valid")
        .with_sink(&synth)
        .run(&trace);
    let snap = rec.snapshot();
    assert!(!snap.slices.is_empty() && !snap.events.is_empty() && !snap.spans.is_empty());
    let json = snap.perfetto_json();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/perfetto.golden.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("write fixture");
    }
    let golden = std::fs::read_to_string(path).expect("fixture exists");
    assert_eq!(
        json, golden,
        "Perfetto export drifted from the golden fixture; if the format \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Serves `trace` on one node (a prefill instance on GPU 0, then
/// `decoders` decode instances) under `faults`, OPT-13B at ideal
/// fidelity and seed 3, through a `SpanSynthesizer` with SLOs
/// `(ttft, tpot)`. Returns, per request with a root span, whether the
/// root carries `SLO_MISS` and whether the request's record misses an
/// SLO (no record: not finished, so no miss), plus how many roots carry
/// `RETRIED`.
fn root_flags_and_record_misses(
    decoders: u32,
    trace: &distserve::workload::Trace,
    faults: &FaultSchedule,
    (ttft, tpot): (f64, f64),
) -> (Vec<(u64, bool, bool)>, usize) {
    let cluster = Cluster::single_node(1 + decoders);
    let instance = |role, gpu| {
        InstanceSpec::new(
            role,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, gpu)]],
        )
        .expect("valid instance")
    };
    let specs = std::iter::once(instance(InstanceRole::Prefill, 0))
        .chain((1..=decoders).map(|g| instance(InstanceRole::Decode, g)))
        .collect();
    let rec = Arc::new(Recorder::new());
    let synth = SpanSynthesizer::new(rec.clone(), 3).with_slos(ttft, tpot);
    let cost = RooflineModel::a100();
    let cfg = SimConfig::new(OptModel::Opt13B.arch()).with_seed(3);
    let outcome = ServingSim::new(cfg, &cost, &cluster, specs)
        .expect("deployment is valid")
        .with_faults(faults, RetryPolicy::default())
        .with_sink(&synth)
        .run(trace);
    let roots: Vec<_> = rec
        .snapshot()
        .spans
        .into_iter()
        .filter(|s| s.kind == SpanKind::Request)
        .collect();
    let retried = roots
        .iter()
        .filter(|s| s.payload & span_flags::RETRIED != 0)
        .count();
    let verdicts = roots
        .iter()
        .map(|root| {
            let record_misses = outcome
                .records
                .iter()
                .find(|r| r.id.0 == root.request)
                .is_some_and(|r| !(r.ttft() <= ttft && r.tpot() <= tpot));
            let flagged = root.payload & span_flags::SLO_MISS != 0;
            (root.request, flagged, record_misses)
        })
        .collect();
    (verdicts, retried)
}

/// A synthesized root span carries `SLO_MISS` exactly when its request's
/// record misses an SLO: two-token requests, whose TPOT is the time from
/// their first token to completion, and requests that a decode crash
/// sends back through prefill after their first token was out.
#[test]
fn synthesized_slo_flags_match_record_verdicts() {
    let two_tokens = FixedLengths {
        input_len: 256,
        output_len: 2,
    }
    .make_trace(8.0, 200, 3);
    let (verdicts, _) =
        root_flags_and_record_misses(1, &two_tokens, &FaultSchedule::new(), (0.3, 0.02));
    assert!(
        verdicts.iter().any(|v| v.2),
        "some two-token request misses"
    );
    assert_flags_match("two-token", &verdicts);

    let crash = FaultSchedule::new().with(
        4.0,
        FaultKind::InstanceCrash {
            instance: 1,
            downtime_secs: 3.0,
        },
    );
    let long = FixedLengths {
        input_len: 512,
        output_len: 64,
    }
    .make_trace(3.0, 60, 3);
    let (verdicts, retried) = root_flags_and_record_misses(2, &long, &crash, (0.3, 0.1));
    assert!(retried > 0, "the crash re-prefills some request");
    assert_flags_match("decode crash", &verdicts);
}

fn assert_flags_match(run: &str, verdicts: &[(u64, bool, bool)]) {
    for &(id, flagged, record_misses) in verdicts {
        assert_eq!(
            flagged, record_misses,
            "{run}: request {id} flagged {flagged}, record misses {record_misses}"
        );
    }
}
