//! Tracing-pipeline gates: tail-sampling determinism, flat memory, and
//! the Perfetto export pinned by a golden fixture.
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
use distserve::core::serve_trace_with_sink;
use distserve::engine::{FidelityConfig, InstanceRole, InstanceSpec};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::placement::TraceSource;
use distserve::router::{Assignment, FleetSpec, RouterPolicy, ScaleSim, ScaleSlo, ServiceProfile};
use distserve::telemetry::{Recorder, NO_PARENT};
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
    serve_trace_with_sink(
        &RooflineModel::a100(),
        &cluster,
        &OptModel::Opt13B.arch(),
        specs,
        &trace,
        FidelityConfig::ideal(),
        3,
        &synth,
    )
    .expect("deployment is valid");
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
