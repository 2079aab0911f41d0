//! Continuous self-profiler harness: profile a ≥1M-request routed
//! `ScaleSim` run *and* the real tinyllm batch-16 decode loop, render
//! the merged flamegraph, and feed the perf-regression sentinel.
//!
//! Four artifacts come out of one run:
//!
//! - `profile_fleet_flamegraph.svg` — self-contained icicle flamegraph
//!   (no JavaScript, no external fetches) of everything the profiler
//!   saw: router phases (`workload_gen`/`route_offer`/`drain_events`),
//!   tinyllm kernels (`forward_batch` down to `qkv_gemm`), and the
//!   worker-pool job scopes from the compute threads.
//! - `profile_fleet.folded.txt` — the same data as folded stacks for
//!   external flamegraph tooling and grep.
//! - `profile_dashboard.html` — the flamegraph and per-worker pool
//!   utilization panels as one offline dashboard page.
//! - `BENCH_prof.json` — profiler overhead on the batch-16 decode loop
//!   (`distserve_bench::overhead`'s paired estimator; budget <3%),
//!   decode and sim throughput, and the sentinel's verdicts against the
//!   bench-history ledger. The run's key metrics are appended to
//!   `BENCH_history.jsonl` with a full provenance stamp.
//!
//! Self-validates: the flamegraph's leaf re-sum (Σ self time) must match
//! the profile total within 1%, and the profile must contain both the
//! router and kernel hot paths.
//!
//! Env knobs: `PROFILE_FLEET_REQUESTS=100000` for a CI-sized smoke;
//! `PROFILE_FLEET_INJECT_SLOWDOWN_PCT=10` fakes a decode regression in
//! the *current* record only (the ledger is not polluted) so CI can
//! prove the sentinel catches it.
//!
//! Run with: `cargo run --release --example profile_fleet`

use std::time::Instant;

use distserve::observe::{pool_panel, profile_panel};
use distserve::prof;
use distserve::router::{Assignment, FleetSpec, RouterPolicy, ScaleSim, ScaleSlo, ServiceProfile};
use distserve::workload::{Dataset, DiurnalCurve, RequestStream};
use distserve_bench::overhead::{
    paired, prefilled, step_times, BATCH, BUDGET_PCT, DECODE_STEPS, ROUNDS,
};
use distserve_bench::sentinel::{
    self, append_record, check, load_ledger, render_verdicts, BenchRecord, KEY_METRICS,
};
use serde::Value;
use tinyllm::{Model, TinyConfig};

const SIM_RUNS: usize = 3;
const SENTINEL_K: f64 = 3.0;

/// The routed fleet-scale run under the profiler, same fleet and diurnal
/// overload shape as `router_scale`. Returns simulated requests/sec —
/// the best of [`SIM_RUNS`] identical runs, since a single wall-clock
/// window carries whatever the host's neighbors were doing that second
/// (the profiler accumulates across all runs, which only adds samples).
fn profiled_sim(n: u64) -> f64 {
    (0..SIM_RUNS)
        .map(|_| profiled_sim_once(n))
        .fold(f64::NEG_INFINITY, f64::max)
}

fn profiled_sim_once(n: u64) -> f64 {
    let fleet = FleetSpec {
        prefill: 6,
        decode: 10,
        colocated: 8,
        profile: ServiceProfile::a100_13b(),
    };
    let policy = RouterPolicy {
        queue_cap: 4,
        max_wait_secs: 0.5,
        retry_gap_secs: 0.1,
        ..RouterPolicy::default()
    };
    let slo = ScaleSlo {
        ttft_s: 0.4,
        tpot_s: 0.1,
    };
    let stream = RequestStream::diurnal(
        Dataset::ShareGpt.sampler(),
        DiurnalCurve::new(150.0, 0.5, 3600.0),
        20_240_624,
    )
    .take(n as usize);
    let sim = ScaleSim::new(fleet, policy, slo, Assignment::Routed, 7);
    prof::set_enabled(true);
    let started = Instant::now();
    let out = sim.run(stream);
    let wall = started.elapsed().as_secs_f64();
    prof::set_enabled(false);
    assert_eq!(
        out.completed + out.shed,
        out.offered,
        "request conservation"
    );
    n as f64 / wall
}

fn main() {
    let n: u64 = std::env::var("PROFILE_FLEET_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let inject_pct: f64 = std::env::var("PROFILE_FLEET_INJECT_SLOWDOWN_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    println!(
        "profile_fleet: batch-{BATCH} decode x{ROUNDS} paired rounds, then {n} routed requests"
    );

    // --- Part 1: profiler overhead on the real decode hot path ----------
    let model = Model::random(&TinyConfig::small(), 5);
    let est = paired(|on| {
        prof::set_enabled(on);
        let steps = step_times(&mut prefilled(&model, BATCH, None));
        prof::set_enabled(false);
        steps
    });
    let (off_s, on_s, overhead_pct) = (est.base_s, est.on_s(), est.overhead_pct());
    let decode_tok_s = (BATCH * DECODE_STEPS) as f64 / off_s;
    println!(
        "  decode: {DECODE_STEPS} steps off {:.1} µs/step, on {:.1} µs/step → overhead \
         {overhead_pct:+.2}% (budget {BUDGET_PCT}%), {decode_tok_s:.0} tok/s",
        off_s / DECODE_STEPS as f64 * 1e6,
        on_s / DECODE_STEPS as f64 * 1e6,
    );
    if overhead_pct >= BUDGET_PCT {
        eprintln!(
            "  WARN: profiler overhead {overhead_pct:.2}% is over the {BUDGET_PCT}% budget on this host"
        );
    }

    // --- Part 2: profiled fleet-scale routed run -------------------------
    let sim_req_s = profiled_sim(n);
    println!(
        "  sim: {n} requests routed at {sim_req_s:.0} sim-req/s under the profiler \
         (best of {SIM_RUNS} runs)"
    );

    // --- Part 3: flamegraph + folded stacks + dashboard ------------------
    let profile = prof::snapshot();
    let total_s = profile.total_ns() as f64 / 1e9;
    let resum_err_pct = if profile.total_ns() > 0 {
        (profile.self_ns_sum() as f64 - profile.total_ns() as f64).abs() / profile.total_ns() as f64
            * 100.0
    } else {
        f64::NAN
    };
    assert!(
        resum_err_pct < 1.0,
        "flamegraph leaf re-sum must match the total within 1% (err {resum_err_pct:.3}%)"
    );
    let svg = profile.flamegraph_svg("profile_fleet: routed sim + batch-16 decode");
    let folded = profile.folded();
    assert!(
        folded.contains("route_offer") && folded.contains("forward_batch"),
        "profile must cover both the router and kernel hot paths"
    );
    assert!(
        !svg.contains("<script") && !svg.contains("href") && !svg.contains("@import"),
        "flamegraph must stay self-contained"
    );
    std::fs::write("profile_fleet_flamegraph.svg", &svg)
        .expect("write profile_fleet_flamegraph.svg");
    std::fs::write("profile_fleet.folded.txt", &folded).expect("write profile_fleet.folded.txt");

    let util = model.pool_utilization();
    let workers: Vec<(f64, f64, u64)> = util
        .workers
        .iter()
        .map(|w| (w.busy_s, w.idle_s, w.jobs))
        .collect();
    let html = format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>profile fleet</title><style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2rem;color:#222}}\
         table{{border-collapse:collapse}}td,th{{border:1px solid #ddd;padding:.3rem .7rem}}\
         th{{background:#f0f0f3}}h2{{font-size:1.1rem;margin-top:1.5rem}}\
         .empty{{color:#888;font-style:italic}}</style></head><body>\n\
         <h1>Self-profiler: fleet sim + decode</h1>\n\
         <h2>Flamegraph</h2>\n{}\n\
         <h2>Worker pool ({} lanes)</h2>\n{}\n\
         </body></html>\n",
        profile_panel(&profile, "profile_fleet"),
        util.lanes,
        pool_panel(&workers, util.dispatch_wait_s, util.dispatches),
    );
    assert!(!html.contains("<script"), "dashboard must stay offline");
    std::fs::write("profile_dashboard.html", &html).expect("write profile_dashboard.html");
    println!(
        "  wrote profile_fleet_flamegraph.svg ({} paths, {total_s:.3} s attributed, \
         re-sum err {resum_err_pct:.4}%), profile_fleet.folded.txt, profile_dashboard.html",
        profile.node_count(),
    );

    // --- Part 4: sentinel — ledger append + regression check -------------
    let provenance =
        sentinel::Provenance::capture("TinyConfig::small() batch16 + diurnal routed sim", 7);
    let reported_tok_s = decode_tok_s / (1.0 + inject_pct / 100.0);
    if inject_pct != 0.0 {
        println!("  injecting synthetic {inject_pct:.0}% decode slowdown into the current record");
    }
    let current = BenchRecord::new(
        provenance.clone(),
        vec![
            ("decode_tok_s".into(), reported_tok_s),
            ("sim_req_s".into(), sim_req_s),
            ("prof_overhead_pct".into(), overhead_pct),
        ],
    );
    let history = load_ledger("BENCH_history.jsonl");
    let verdicts = check(&history, &current, KEY_METRICS, SENTINEL_K);
    let regressed = verdicts.iter().any(|v| v.regressed);
    println!(
        "  sentinel vs {} ledger records:\n{}",
        history.len(),
        render_verdicts(&verdicts)
    );
    if regressed {
        eprintln!("  WARN: sentinel flagged a regression (see verdicts above)");
    }
    // Synthetic-slowdown runs exist to prove detection; keep them out of
    // the ledger so they don't drag the baseline down.
    if inject_pct == 0.0 {
        append_record("BENCH_history.jsonl", &current).expect("append BENCH_history.jsonl");
        println!("  appended provenance-stamped record to BENCH_history.jsonl");
    }

    let verdict_values: Vec<Value> = verdicts
        .iter()
        .map(|v| {
            Value::Object(vec![
                ("metric".into(), Value::Str(v.metric.clone())),
                ("baseline_median".into(), Value::Float(v.baseline_median)),
                ("noise_sigma".into(), Value::Float(v.noise_sigma)),
                ("current".into(), Value::Float(v.current)),
                ("threshold".into(), Value::Float(v.threshold)),
                ("samples".into(), Value::UInt(v.samples as u64)),
                ("enough_history".into(), Value::Bool(v.enough_history)),
                ("regressed".into(), Value::Bool(v.regressed)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("provenance".into(), provenance.value()),
        ("batch".into(), Value::UInt(BATCH as u64)),
        ("decode_steps".into(), Value::UInt(DECODE_STEPS as u64)),
        ("rounds".into(), Value::UInt(ROUNDS as u64)),
        (
            "decode_step_off_us".into(),
            Value::Float(off_s / DECODE_STEPS as f64 * 1e6),
        ),
        (
            "decode_step_on_us".into(),
            Value::Float(on_s / DECODE_STEPS as f64 * 1e6),
        ),
        ("overhead_pct".into(), Value::Float(overhead_pct)),
        ("budget_pct".into(), Value::Float(BUDGET_PCT)),
        ("decode_tok_s".into(), Value::Float(reported_tok_s)),
        ("sim_requests".into(), Value::UInt(n)),
        ("sim_req_s".into(), Value::Float(sim_req_s)),
        (
            "profile".into(),
            Value::Object(vec![
                ("paths".into(), Value::UInt(profile.node_count() as u64)),
                ("total_s".into(), Value::Float(total_s)),
                ("self_resum_err_pct".into(), Value::Float(resum_err_pct)),
            ]),
        ),
        (
            "sentinel".into(),
            Value::Object(vec![
                ("history_len".into(), Value::UInt(history.len() as u64)),
                ("k".into(), Value::Float(SENTINEL_K)),
                ("injected_slowdown_pct".into(), Value::Float(inject_pct)),
                ("regressed".into(), Value::Bool(regressed)),
                ("verdicts".into(), Value::Array(verdict_values)),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench results");
    std::fs::write("BENCH_prof.json", json + "\n").expect("write BENCH_prof.json");
    println!("  wrote BENCH_prof.json");
}
