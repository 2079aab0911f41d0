//! Causal tracing, burn-rate control, and the flight recorder, end to
//! end — the observability loop over the routed fleet:
//!
//! 1. **Traced fleet at scale.** A multi-tenant mix (two steady tenants
//!    plus one that floods) streams through the request-granular
//!    `ScaleSim` with a `TailSampler` attached: every span family flows
//!    through the sampler, but only SLO-violating/shed/retried traces
//!    and a 1-in-N reservoir survive, so memory stays flat at any
//!    request count. Completions drain into a per-tenant
//!    `TenantBurnMonitor`; a burn alert throttles that tenant at the
//!    router (half queue cap, no bounded-wait grace) and arms the
//!    replanning controller via a below-floor `SloObservation`.
//! 2. **Flight recorder under a fault storm.** The token-granular
//!    engine serves a trace through a seeded `FaultSchedule::storm`
//!    with a `SpanSynthesizer` (lifecycle → spans, same tail sampler
//!    policy) and a `FlightRecorder` teed in; the storm's first fault
//!    triggers a Perfetto dump of the last moments before impact.
//! 3. **Overhead.** The real `tinyllm` decode hot path with the no-op
//!    sink versus the full tracing chain (synthesizer → tail sampler),
//!    under `distserve_bench::overhead`'s paired estimator, <3% budget.
//!    Every request finishes inside the timed window, so span
//!    finalization and tail sampling are timed.
//!
//! Saves `BENCH_trace.json` (and appends it to `BENCH_history.jsonl`),
//! and writes `trace_waterfalls.json` (Perfetto; load in
//! ui.perfetto.dev), `flight_recorder.json`, and `trace_dashboard.html`
//! (per-tenant burn panel + waterfall SVG).
//!
//! Set `TRACE_FLIGHT_REQUESTS=100000` for a CI-sized smoke.
//!
//! Run with: `cargo run --release --example trace_flight`

use std::sync::Arc;
use std::time::Instant;

use distserve::cluster::Cluster;
use distserve::core::{ReplanController, SloObservation};
use distserve::engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve::faults::{FaultSchedule, RetryPolicy, StormConfig};
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::observe::{
    tenant_panel, trace_waterfall_svg, BurnConfig, BurnEvent, TenantBurnMonitor,
};
use distserve::placement::{SloSpec, TraceSource};
use distserve::router::{Assignment, FleetSpec, RouterPolicy, ScaleSim, ScaleSlo, ServiceProfile};
use distserve::telemetry::{Recording, TelemetrySink, NO_PARENT};
use distserve::trace::{FlightRecorder, SpanSynthesizer, TailSampler, TailSamplerConfig};
use distserve::workload::datasets::FixedLengths;
use distserve::workload::{Dataset, MultiTenantMix, TenantSpec};
use distserve_bench::overhead::{paired, prefilled, step_times, Estimate, BATCH, BUDGET_PCT};
use distserve_bench::sentinel::{BenchRecord, Provenance};
use tinyllm::{Model, TinyConfig};

/// Same fleet as `router_scale`: 6 prefill + 8 colocated entry replicas
/// absorb ~200 rps within SLO.
fn fleet() -> FleetSpec {
    FleetSpec {
        prefill: 6,
        decode: 10,
        colocated: 8,
        profile: ServiceProfile::a100_13b(),
    }
}

fn slo() -> ScaleSlo {
    ScaleSlo {
        ttft_s: 0.4,
        tpot_s: 0.1,
    }
}

fn policy() -> RouterPolicy {
    RouterPolicy {
        queue_cap: 4,
        max_wait_secs: 0.5,
        retry_gap_secs: 0.1,
    }
}

/// Three tenants: two steady, one at triple their combined rate — the
/// flood pushes the fleet past capacity, so the flooding tenant burns
/// its error budget and the control loop has a real decision to make.
fn mix() -> MultiTenantMix {
    MultiTenantMix::new(
        vec![
            TenantSpec {
                name: "chatbot".into(),
                rate: 40.0,
                sampler: Dataset::ShareGpt.sampler(),
            },
            TenantSpec {
                name: "summarizer".into(),
                rate: 20.0,
                sampler: Dataset::LongBench.sampler(),
            },
            TenantSpec {
                name: "batch-flood".into(),
                rate: 180.0,
                sampler: Dataset::ShareGpt.sampler(),
            },
        ],
        20_240_808,
    )
}

fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct FleetRun {
    offered: u64,
    completed: u64,
    shed: u64,
    wall_secs: f64,
    kept: usize,
    interesting: u64,
    alerts: Vec<(u32, f64)>,
    throttled: Vec<u32>,
    replan_armed: bool,
    waterfalls: String,
    panel: String,
    waterfall_svg: String,
}

/// Part 1: the traced, burn-controlled fleet.
fn traced_fleet(n: u64) -> FleetRun {
    let sampler = Arc::new(TailSampler::new(TailSamplerConfig::default()));
    let mut sim = ScaleSim::new(fleet(), policy(), slo(), Assignment::Routed, 7);
    sim.set_tracing(sampler.clone(), 7);
    sim.log_completions(true);

    let mut monitor = TenantBurnMonitor::new(BurnConfig {
        attainment_target: 0.9,
        fast_window_s: 20.0,
        slow_window_s: 120.0,
        threshold: 3.0,
        min_requests: 50,
    });
    let mut controller =
        ReplanController::new(120.0, 0.3, SloSpec::new(slo().ttft_s, slo().tpot_s))
            .with_attainment_floor(0.9);
    let budget = 1.0 - monitor.config().attainment_target;

    let mut alerts: Vec<(u32, f64)> = Vec::new();
    let mut throttled: Vec<u32> = Vec::new();
    let started = Instant::now();
    for (_, req) in mix().take(n as usize) {
        sim.offer(&req);
        for c in sim.drain_completions().collect::<Vec<_>>() {
            let ok = !c.shed && c.slo_ok;
            match monitor.record(c.tenant, c.time_s, ok) {
                Some(BurnEvent::Fired {
                    tenant,
                    time_s,
                    fast_burn,
                    ..
                }) => {
                    alerts.push((tenant, time_s));
                    sim.set_tenant_throttle(tenant, true);
                    throttled.push(tenant);
                    // The burn reading is the windowed attainment signal:
                    // arm §4.3 replanning from the same evidence.
                    let r = monitor.reading(tenant);
                    controller.observe_attainment(SloObservation {
                        window_secs: monitor.config().fast_window_s,
                        requests: r.total.min(u64::from(u32::MAX)),
                        attainment: 1.0 - fast_burn * budget,
                        ttft_attainment: 1.0 - fast_burn * budget,
                        tpot_attainment: 1.0,
                    });
                }
                Some(BurnEvent::Cleared { tenant, time_s }) => {
                    alerts.push((tenant, time_s));
                    sim.set_tenant_throttle(tenant, false);
                }
                None => {}
            }
        }
    }
    sim.drain();
    let completions: Vec<_> = sim.drain_completions().collect();
    for c in completions {
        monitor.record(c.tenant, c.time_s, !c.shed && c.slo_ok);
    }
    let out = sim.finish();
    let wall_secs = started.elapsed().as_secs_f64();

    let stats = sampler.stats();
    let kept = sampler.take_kept();
    let panel = tenant_panel(&monitor);
    let svg = kept
        .iter()
        .find(|t| {
            t.iter()
                .any(|s| s.ctx.parent == NO_PARENT && s.payload != 0)
        })
        .map(|t| trace_waterfall_svg(t))
        .unwrap_or_default();
    FleetRun {
        offered: out.offered,
        completed: out.completed,
        shed: out.shed,
        wall_secs,
        kept: kept.len(),
        interesting: stats.interesting,
        alerts,
        throttled,
        replan_armed: controller.slo_eroded().is_some(),
        waterfalls: Recording {
            spans: kept[..kept.len().min(64)].concat(),
            ..Recording::default()
        }
        .perfetto_json(),
        panel,
        waterfall_svg: svg,
    }
}

/// Part 2: token-granular engine under a fault storm, with the
/// synthesizer turning lifecycle events into spans and the flight
/// recorder capturing the moments before impact.
fn storm_flight(sampler: &Arc<TailSampler>) -> (distserve::trace::IncidentDump, u64) {
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
    .make_trace(24.0, 600, 9);

    let storm = FaultSchedule::storm(
        11,
        &StormConfig {
            horizon_secs: 20.0,
            count: 4,
            instances: 2,
            mean_downtime_secs: 3.0,
        },
    );
    let first_fault = storm.faults().first().expect("storm is non-empty");
    let reason = format!(
        "fault storm: {} at t={:.2}s ({} faults scheduled)",
        first_fault.kind.name(),
        first_fault.at,
        storm.len()
    );

    let recorder = Arc::new(FlightRecorder::new(512));
    let synth = Arc::new(
        SpanSynthesizer::new(sampler.clone() as Arc<dyn TelemetrySink>, 7).with_slos(0.6, 0.04),
    );
    let tee = distserve::telemetry::TeeSink::new(vec![
        synth as Arc<dyn TelemetrySink>,
        recorder.clone() as Arc<dyn TelemetrySink>,
    ]);
    // Profile the storm run so the incident dump carries a flamegraph of
    // where simulation time went around the trigger.
    distserve::prof::set_enabled(true);
    let cfg = SimConfig::new(OptModel::Opt13B.arch()).with_seed(7);
    let out = ServingSim::new(cfg, &cost, &cluster, specs)
        .expect("storm run serves")
        .with_faults(&storm, RetryPolicy::default())
        .with_sink(&tee)
        .run(&trace);
    let dump = recorder.dump_incident(&reason);
    distserve::prof::set_enabled(false);
    println!(
        "  storm run: {} finished, {} rejected, {} failed under {} faults",
        out.records.len(),
        out.rejected.len(),
        out.failed.len(),
        storm.len()
    );
    (dump, recorder.total_seen())
}

/// Part 3: tracing overhead on the real engine's decode hot path.
/// Returns the estimate and the traces the last traced run's sampler
/// finalized.
fn overhead_estimate() -> (Estimate, u64) {
    let model = Model::random(&TinyConfig::small(), 5);
    let mut traces = 0;
    let est = paired(|on| {
        if !on {
            return step_times(&mut prefilled(&model, BATCH, None));
        }
        // Fresh chain per on run: steady-state cost, not buffer growth.
        let sampler = Arc::new(TailSampler::new(TailSamplerConfig::default()));
        let synth = SpanSynthesizer::new(sampler.clone(), 5).with_slos(5.0, 1.0);
        let steps = step_times(&mut prefilled(&model, BATCH, Some(Arc::new(synth))));
        traces = sampler.stats().finished;
        steps
    });
    (est, traces)
}

fn main() {
    let n: u64 = std::env::var("TRACE_FLIGHT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    println!(
        "trace_flight: {n} requests over {} tenants ({:.0} rps combined), fleet {}P/{}D/{}C",
        mix().tenant_names().len(),
        mix().total_rate(),
        fleet().prefill,
        fleet().decode,
        fleet().colocated,
    );

    // --- Part 1: traced fleet with the burn control loop ----------------
    let rss_before = peak_rss_kib();
    let run = traced_fleet(n);
    let rss_after = peak_rss_kib();
    println!(
        "  fleet: {} offered, {} completed, {} shed in {:.2}s wall ({:.0} sim-req/s)",
        run.offered,
        run.completed,
        run.shed,
        run.wall_secs,
        run.offered as f64 / run.wall_secs,
    );
    println!(
        "  sampler: kept {} traces ({} interesting finishes seen)",
        run.kept, run.interesting,
    );
    let fired: Vec<_> = run.alerts.iter().take(4).collect();
    println!(
        "  burn loop: {} alert transitions (first: {fired:?}), throttled tenants {:?}, replan armed: {}",
        run.alerts.len(),
        run.throttled,
        run.replan_armed,
    );

    // Self-checks: the loop must demonstrably close.
    assert_eq!(run.completed + run.shed, run.offered, "conservation");
    assert!(run.kept > 0, "tail sampler kept no traces");
    assert!(
        !run.alerts.is_empty() && !run.throttled.is_empty(),
        "the flooding tenant must fire a burn alert that throttles it"
    );
    assert!(
        run.throttled.contains(&2),
        "the flooding tenant (index 2) should be among the throttled"
    );
    assert!(
        run.replan_armed,
        "burn alert must arm the replan controller"
    );
    let b = run.waterfalls.matches("\"ph\":\"B\"").count();
    let e = run.waterfalls.matches("\"ph\":\"E\"").count();
    assert!(b > 0 && b == e, "waterfall must have matched B/E pairs");
    assert!(
        run.waterfall_svg.contains("<svg"),
        "dashboard waterfall renders"
    );

    std::fs::write("trace_waterfalls.json", &run.waterfalls).expect("write trace_waterfalls.json");
    println!(
        "  wrote trace_waterfalls.json ({} kept traces, {} B/E pairs)",
        run.kept, b
    );

    // --- Part 2: fault storm into the flight recorder --------------------
    let sampler = Arc::new(TailSampler::new(TailSamplerConfig::default()));
    let (incident, seen) = storm_flight(&sampler);
    let flight_json = &incident.perfetto;
    assert!(
        flight_json.contains("fault storm"),
        "dump must carry the trigger reason"
    );
    assert!(flight_json.matches("\"ph\":\"i\"").count() > 0);
    assert!(
        incident.flamegraph_svg.contains("sim_run"),
        "incident flamegraph must show the simulation hot path"
    );
    std::fs::write("flight_recorder.json", flight_json).expect("write flight_recorder.json");
    std::fs::write("incident_flamegraph.svg", &incident.flamegraph_svg)
        .expect("write incident_flamegraph.svg");
    println!(
        "  wrote flight_recorder.json + incident_flamegraph.svg \
         ({seen} lifecycle events seen, ring dump on storm)",
    );
    let engine_kept = sampler.take_kept();
    println!(
        "  engine path: synthesizer kept {} traces through the same sampler",
        engine_kept.len()
    );

    // --- Dashboard artifact ----------------------------------------------
    let html = format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>trace flight</title><style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2rem;color:#222}}\
         table{{border-collapse:collapse}}td,th{{border:1px solid #ddd;padding:.3rem .7rem}}\
         .alert{{color:#d53e4f;font-weight:600}}\
         .empty{{color:#888;font-style:italic}}</style></head><body>\n\
         <h1>Per-tenant SLO burn</h1>\n{}\n\
         <h1>Sampled waterfall (interesting request)</h1>\n{}\n</body></html>\n",
        run.panel, run.waterfall_svg
    );
    assert!(!html.contains("<script"), "dashboard must stay offline");
    std::fs::write("trace_dashboard.html", &html).expect("write trace_dashboard.html");
    println!("  wrote trace_dashboard.html ({} bytes)", html.len());

    // --- Part 3: overhead ------------------------------------------------
    let (est, traces) = overhead_estimate();
    let overhead_pct = est.overhead_pct();
    println!(
        "  overhead: noop {:.3} ms, traced {:.3} ms → {overhead_pct:+.2}% (budget {BUDGET_PCT}%), \
         {traces} traces per run",
        est.base_s * 1e3,
        est.on_s() * 1e3
    );
    if overhead_pct >= BUDGET_PCT {
        eprintln!(
            "  WARN: tracing overhead {overhead_pct:.2}% is over the {BUDGET_PCT}% budget on this host"
        );
    }

    let mut rec = BenchRecord::new(Provenance::capture(
        "trace_flight: three-tenant mix, fleet 6P/10D/8C",
        7,
    ));
    let flag = |b: bool| f64::from(u8::from(b));
    let kib = |v: Option<u64>| v.unwrap_or(0) as f64;
    rec.push("workload.requests", run.offered as f64, "count")
        .push("traced.wall_s", run.wall_secs, "s")
        .push(
            "traced.sim_req_s",
            run.offered as f64 / run.wall_secs,
            "req/s",
        )
        .push("traced.peak_rss_before_kib", kib(rss_before), "KiB")
        .push("traced.peak_rss_after_kib", kib(rss_after), "KiB")
        .push("trace.kept", run.kept as f64, "count")
        .push("trace.interesting", run.interesting as f64, "count")
        .push("burn.alerts", run.alerts.len() as f64, "count")
        .push(
            "burn.throttled_tenants",
            run.throttled.len() as f64,
            "count",
        )
        .push("replan_armed", flag(run.replan_armed), "bool");
    est.push_to(&mut rec);
    rec.push("overhead.traces_per_run", traces as f64, "count");
    rec.save("trace").expect("save BENCH_trace.json");
    println!("  saved BENCH_trace.json");
}
