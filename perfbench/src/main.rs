//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat|multiturn|planner --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per phase, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` the run is made
//! twice, untraced then traced, and the metrics are the per-layer
//! breakdown of the traced run plus the traced-minus-untraced difference
//! of every end-to-end metric. The traced run's spans are written to
//! `perfbench/out/` as Perfetto trace-event JSON. See `README.md`.

mod cores;
mod plan;
mod schedule;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::time::Instant;

use distserve_cluster::Cluster;
use distserve_core::Application;
use distserve_prof::{NodeStat, Profile};

use schedule::Schedule;
use serve::{LayerTotals, Phase};
use spans::Tracer;
use stats::{mean, median, quantile, Metrics};

/// Set-ups timed per run; `setup_s` reports their median.
const SETUP_REPS: usize = 7;
/// Run length the per-workload request counts are sized for, seconds.
const BASE_SECONDS: f64 = 25.0;
/// Where the traced run writes its spans (inside the checkout).
const OUT_DIR: &str = "perfbench/out";

/// End-to-end metric names, in report order.
const E2E: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fleet_sim_req_s", "req/s"),
];

/// Per-layer metric names, in report order. A workload that never calls
/// into a layer reports that layer's counts and times as 0.
const PER_LAYER: [(&str, &str); 70] = [
    ("serving.offline_tok_s", "tok/s"),
    ("serving.goodput_rps", "req/s"),
    ("serving.ttft_p50_s", "s"),
    ("serving.ttft_p90_s", "s"),
    ("serving.itl_p50_s", "s"),
    ("serving.itl_p99_s", "s"),
    ("loadgen.lag_p99_s", "s"),
    ("scheduler.queue_wait_p50_s", "s"),
    ("scheduler.queue_wait_p90_s", "s"),
    ("scheduler.prefill_frac", "frac"),
    ("scheduler.decode_frac", "frac"),
    ("scheduler.idle_frac", "frac"),
    ("scheduler.prefill_steps", "count"),
    ("scheduler.decode_steps", "count"),
    ("scheduler.prefill_tokens_per_step", "tok"),
    ("scheduler.decode_batch_mean", "req"),
    ("scheduler.prefill_s_per_token", "s"),
    ("scheduler.decode_step_p50_s", "s"),
    ("scheduler.stall_frac", "frac"),
    ("scheduler.blocked_steps", "count"),
    ("kv.used_frac_mean", "frac"),
    ("kv.used_frac_max", "frac"),
    ("engine.prefill.qkv_gemm_s", "s"),
    ("engine.prefill.fused_attn_s", "s"),
    ("engine.prefill.out_proj_gemm_s", "s"),
    ("engine.prefill.ffn_s", "s"),
    ("engine.prefill.logits_s", "s"),
    ("engine.prefill.kv_append_s", "s"),
    ("engine.decode.qkv_gemm_s", "s"),
    ("engine.decode.fused_attn_s", "s"),
    ("engine.decode.out_proj_gemm_s", "s"),
    ("engine.decode.ffn_s", "s"),
    ("engine.decode.logits_s", "s"),
    ("engine.decode.kv_append_s", "s"),
    ("engine.prefill.gflop", "GFLOP"),
    ("engine.decode.gflop", "GFLOP"),
    ("engine.decode.weight_gb", "GB"),
    ("engine.prefill.gflops", "GFLOP/s"),
    ("engine.decode.gflops", "GFLOP/s"),
    ("pool.busy_frac", "frac"),
    ("pool.dispatch_wait_s", "s"),
    ("pool.gemm_job_s", "s"),
    ("pool.attn_job_s", "s"),
    ("prefix.lookups", "count"),
    ("prefix.hit_rate", "frac"),
    ("prefix.token_hit_rate", "frac"),
    ("prefix.match_s", "s"),
    ("prefix.offer_s", "s"),
    ("prefix.inserted_blocks", "count"),
    ("prefix.evictions", "count"),
    ("prefix.owned_blocks_max", "count"),
    ("placement.plan_s", "s"),
    ("placement.alg1_s", "s"),
    ("placement.alg2_s", "s"),
    ("placement.planned_goodput_rps", "req/s"),
    ("placement.sim_attainment", "frac"),
    ("engine_sim.req_per_s", "req/s"),
    ("engine_sim.run_s", "s"),
    ("engine_sim.requests", "count"),
    ("engine_sim.ev_arrive_s", "s"),
    ("engine_sim.ev_prefill_done_s", "s"),
    ("engine_sim.ev_transfer_done_s", "s"),
    ("engine_sim.ev_decode_done_s", "s"),
    ("router.offer_s", "s"),
    ("router.drain_s", "s"),
    ("router.shed_frac", "frac"),
    ("router.requeues", "count"),
    ("router.prefix_hit_rate", "frac"),
    ("router.attainment", "frac"),
    ("workload.gen_s", "s"),
];

/// A real-engine workload: its rate ladder and offline batch.
struct RealSpec {
    name: &'static str,
    /// `(rate req/s, requests)` per rung at `BASE_SECONDS`, ascending.
    /// The lowest rung, where latency is read, sits near 40-50% of the
    /// parent commit's goodput and carries most requests; the finer
    /// rungs above it bracket the knee, and the top one fails.
    rungs: &'static [(f64, usize)],
    /// Requests in the offline batch at `BASE_SECONDS`.
    offline: usize,
}

/// Requests replayed after the top rung at its rate, uncounted, so the
/// top rung's last requests finish under load instead of on a draining
/// server.
const TRAIL: usize = 12;

const CHAT: RealSpec = RealSpec {
    name: "chat",
    rungs: &[(3.0, 24), (5.0, 12), (7.0, 12), (9.0, 12), (11.0, 12)],
    offline: 32,
};

const MULTITURN: RealSpec = RealSpec {
    name: "multiturn",
    rungs: &[(3.5, 24), (6.0, 12), (8.5, 12), (11.0, 12), (14.0, 12)],
    offline: 32,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = BASE_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "chat" | "multiturn" | "planner") {
        return Err(format!(
            "unknown workload {workload} (chat, multiturn, planner)"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one pass of a workload measured.
#[derive(Default)]
struct Pass {
    e2e: Metrics,
    layers: Metrics,
    attempted: usize,
    failed: usize,
    correct: bool,
    report: String,
}

/// Peak resident memory of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host-noise probe: a fixed integer-mixing loop independent of every
/// crate under test. Printed with the results, never used to normalize.
fn spin_probe_s() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Sums `total_ns` of nodes named `name` under a subtree.
fn sum_named(node: &NodeStat, name: &str) -> u64 {
    let own = if node.name == name { node.total_ns } else { 0 };
    own + node
        .children
        .iter()
        .map(|c| sum_named(c, name))
        .sum::<u64>()
}

/// Seconds in scopes named `name` anywhere below a scope in `phases`.
fn phase_scope_s(profile: &Profile, phases: &[&str], name: &str) -> f64 {
    fn walk(node: &NodeStat, phases: &[&str], name: &str) -> u64 {
        if phases.contains(&node.name.as_str()) {
            return node.children.iter().map(|c| sum_named(c, name)).sum();
        }
        node.children.iter().map(|c| walk(c, phases, name)).sum()
    }
    profile
        .roots
        .iter()
        .map(|r| walk(r, phases, name))
        .sum::<u64>() as f64
        / 1e9
}

/// Seconds in scopes named `name` anywhere in the profile.
fn scope_s(profile: &Profile, name: &str) -> f64 {
    profile
        .roots
        .iter()
        .map(|r| sum_named(r, name))
        .sum::<u64>() as f64
        / 1e9
}

fn phase_line(label: &str, p: &Phase) -> String {
    format!(
        "  {label:<10} rate {:>5.2}  sent {:>3}  ok {:>3}  late {:>3}  failed {:>2}  attainment {:.3}  ttft p50 {:.3}s p90 {:.3}s  itl p50 {:.4}s p99 {:.4}s  stalled {:.3}\n",
        p.rate,
        p.sent,
        p.ok,
        p.late,
        p.failed,
        p.attainment(),
        quantile(&p.ttft_s, 0.5),
        quantile(&p.ttft_s, 0.9),
        quantile(&p.itl_s, 0.5),
        quantile(&p.itl_s, 0.99),
        p.stalled_gaps as f64 / p.gaps.max(1) as f64,
    )
}

/// The serving figures (reported with the per-layer metrics) on one line.
fn serving_line(m: &Metrics) -> String {
    let v = |n: &str| m.get(n).unwrap_or(f64::NAN);
    format!(
        "  serving: offline {:.0} tok/s, goodput {:.2} req/s; at the lowest rung ttft p50 {:.3}s p90 {:.3}s, itl p50 {:.4}s p99 {:.4}s",
        v("serving.offline_tok_s"),
        v("serving.goodput_rps"),
        v("serving.ttft_p50_s"),
        v("serving.ttft_p90_s"),
        v("serving.itl_p50_s"),
        v("serving.itl_p99_s"),
    )
}

/// Planner, simulator, and fleet figures of one planning pass.
#[derive(Default)]
struct PlanFigures {
    plan_s: Vec<f64>,
    alg1_s: Vec<f64>,
    alg2_s: Vec<f64>,
    serve_req: u64,
    serve_wall_s: f64,
    serve_req_s: Vec<f64>,
    fleet_req_s: Vec<f64>,
    fleet: plan::Fleet,
    planned_goodput_rps: f64,
    sim_attainment: f64,
    complete: bool,
}

impl PlanFigures {
    fn layers(&self, m: &mut Metrics, profile: &Profile) {
        m.set("placement.plan_s", fastest(&self.plan_s), "s");
        m.set("placement.alg1_s", median_or_zero(&self.alg1_s), "s");
        m.set("placement.alg2_s", median_or_zero(&self.alg2_s), "s");
        m.set(
            "placement.planned_goodput_rps",
            self.planned_goodput_rps,
            "req/s",
        );
        m.set("placement.sim_attainment", self.sim_attainment, "frac");
        m.set("engine_sim.req_per_s", best(&self.serve_req_s), "req/s");
        m.set("engine_sim.run_s", self.serve_wall_s, "s");
        m.set("engine_sim.requests", self.serve_req as f64, "count");
        for ev in ["arrive", "prefill_done", "transfer_done", "decode_done"] {
            m.set(
                format!("engine_sim.ev_{ev}_s"),
                scope_s(profile, &format!("ev_{ev}")),
                "s",
            );
        }
        let f = &self.fleet;
        let offered = f.offered.max(1) as f64;
        m.set("router.offer_s", f.offer_s, "s");
        m.set("router.drain_s", f.drain_s, "s");
        m.set("router.shed_frac", f.shed as f64 / offered, "frac");
        m.set("router.requeues", f.requeues as f64, "count");
        m.set(
            "router.prefix_hit_rate",
            f.prefix_hits as f64 / offered,
            "frac",
        );
        m.set("router.attainment", f.slo_ok as f64 / offered, "frac");
        m.set("workload.gen_s", f.gen_s, "s");
    }
}

/// The shortest of repeated timings of identical work. Host noise on a
/// shared machine only ever slows a repetition down, so the fastest one
/// is the steadiest estimate of the code's own speed.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// The highest of repeated rates of identical work (see [`fastest`]).
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Session requests per routed-fleet run in the real workloads.
const SLICE_FLEET_REQUESTS: usize = 40_000;
/// Fleet runs per core in each slice of a real workload.
const SLICE_FLEET_RUNS: usize = 3;

/// Records one fleet run's throughput and counts.
fn add_fleet(fig: &mut PlanFigures, f: &plan::Fleet, requests: usize) {
    fig.complete &= f.conserved() && f.offered == requests as u64;
    fig.fleet_req_s.push(f.offered as f64 / f.wall_s());
    fig.fleet.add(f);
}

/// Runs the routed fleet `runs` times on every core over a fixed session
/// stream. The real workloads take these samples at many points of a
/// run, before, between, and after the serving phases, since a core's
/// speed changes for seconds at a time.
fn fleet_slice(fig: &mut PlanFigures, runs: usize, tracer: &mut Tracer) {
    for _ in 0..runs {
        for f in plan::run_fleet_per_core(SLICE_FLEET_REQUESTS, tracer) {
            add_fleet(fig, &f, SLICE_FLEET_REQUESTS);
        }
    }
}

/// One slice of a real workload's planning pass: plan a DistServe
/// placement (Algorithm 1, OPT-13B chatbot for 8 req/s on
/// `high_affinity(4, 8)`), verify it on a ShareGPT trace in the detailed
/// simulator, and run the routed fleet over multi-turn sessions; the
/// plan is made twice. The inputs are fixed, so the figures measure the
/// planner's and the simulators' speed on every workload; a run takes
/// three slices at different times and reports the best repetition.
fn plan_slice(fig: &mut PlanFigures, tracer: &mut Tracer) {
    const RATE: f64 = 8.0;
    /// Simulated requests per `serve_trace` call.
    const SERVE_REQUESTS: usize = 4_000;
    /// Minimum wall time of the simulator measurement, seconds.
    const MIN_S: f64 = 0.2;
    let plans: Vec<plan::Plan> = (0..2)
        .map(|_| {
            plan::plan(
                Application::ChatbotOpt13B,
                Cluster::high_affinity(4, 8),
                &distserve_workload::Dataset::ShareGpt,
                RATE,
                "placement.alg1",
                tracer,
            )
        })
        .collect();
    fig.plan_s.extend(plans.iter().map(|p| p.plan_s));
    fig.alg1_s.extend(plans.iter().map(|p| p.plan_s));
    let p = plans.into_iter().next_back().expect("two plans");
    fig.planned_goodput_rps = p.planned_goodput_rps;
    let trace = plan::sharegpt(RATE, SERVE_REQUESTS, plan::FIXED_SEED);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_S {
        let (out, wall) = plan::simulate(&p, &trace, plan::FIXED_SEED, tracer);
        fig.complete &= plan::all_completed(&out, &trace);
        fig.sim_attainment = out.attainment(p.slo.ttft, p.slo.tpot);
        fig.serve_req += trace.len() as u64;
        fig.serve_wall_s += wall;
        fig.serve_req_s.push(trace.len() as f64 / wall);
    }
    fleet_slice(fig, SLICE_FLEET_RUNS, tracer);
}

/// One pass of `chat` or `multiturn`.
fn run_real(spec: &RealSpec, seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let scale = |n: usize| ((n as f64 * seconds / BASE_SECONDS).round() as usize).max(4);
    let top = spec.rungs.last().expect("a ladder has rungs").0;
    let rungs: Vec<serve::Rung> = spec
        .rungs
        .iter()
        .chain(&[(top, TRAIL)])
        .map(|&(rate, n)| serve::Rung {
            rate,
            requests: scale(n),
        })
        .collect();
    let offline_rung = [serve::Rung {
        rate: 0.0,
        requests: scale(spec.offline),
    }];
    let n = rungs
        .iter()
        .chain(&offline_rung)
        .map(|r| r.requests)
        .max()
        .unwrap_or(0);
    let t = Instant::now();
    let schedule = match spec.name {
        "chat" => Schedule::chat(seed, n),
        _ => Schedule::multiturn(seed, n),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let _ = writeln!(
        pass.report,
        "  schedule: {n} requests, {} prompt tokens, {} output tokens, longest prompt {}",
        schedule
            .requests
            .iter()
            .map(|r| r.prompt.len())
            .sum::<usize>(),
        schedule.requests.iter().map(|r| r.max_new).sum::<usize>(),
        schedule.max_prompt()
    );
    assert!(
        schedule.max_lifetime() <= schedule::MAX_SEQ,
        "lifetimes fit max_seq"
    );

    let setups: Vec<(tinyllm::Model, f64)> = (0..SETUP_REPS).map(|_| serve::setup()).collect();
    let setup_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let model = setups.into_iter().last().expect("at least one set-up").0;

    let mut plan = PlanFigures {
        complete: true,
        ..PlanFigures::default()
    };
    plan_slice(&mut plan, tracer);
    let mut layer = LayerTotals::default();
    let offline_jobs = serve::jobs(&schedule, &offline_rung, 0);
    let (first_offline, first_offline_outputs) =
        serve::run_ladder(&model, &offline_jobs, &offline_rung, tracer, &mut layer);
    fleet_slice(&mut plan, SLICE_FLEET_RUNS, tracer);
    let ladder_jobs = serve::jobs(&schedule, &rungs, 0);
    let (phases, outputs) = serve::run_ladder(&model, &ladder_jobs, &rungs, tracer, &mut layer);
    for (i, p) in phases.iter().enumerate() {
        let label = if i + 1 < phases.len() {
            "rung"
        } else {
            "trail"
        };
        let _ = write!(pass.report, "{}", phase_line(label, p));
    }
    let ladder: Vec<(f64, f64, usize)> = phases[..phases.len() - 1]
        .iter()
        .map(|p| (p.rate, p.attainment(), p.sent))
        .collect();
    plan_slice(&mut plan, tracer);
    let (offline, offline_outputs) =
        serve::run_ladder(&model, &offline_jobs, &offline_rung, tracer, &mut layer);
    fleet_slice(&mut plan, SLICE_FLEET_RUNS, tracer);
    // The offline batch runs before and after the ladder; its throughput
    // is the better of the two, so a burst of host noise during one of
    // them does not decide the figure.
    let offline: Vec<Phase> = first_offline.into_iter().chain(offline).collect();
    for p in &offline {
        let _ = write!(pass.report, "{}", phase_line("offline", p));
    }
    let offline_tok_s = best(
        &offline
            .iter()
            .map(|p| p.output_tokens as f64 / p.makespan_s)
            .collect::<Vec<_>>(),
    );

    let tref = Instant::now();
    let mut memo = std::collections::HashMap::new();
    // One more fleet run per core after every round of regenerations.
    let mut between = |t: &mut Tracer| fleet_slice(&mut plan, 1, t);
    let (c1, m1) = serve::reference_check(
        &model,
        &ladder_jobs,
        &outputs,
        &mut memo,
        tracer,
        &mut between,
    );
    let (c2, m2) = serve::reference_check(
        &model,
        &offline_jobs,
        &offline_outputs,
        &mut memo,
        tracer,
        &mut between,
    );
    let (c3, m3) = serve::reference_check(
        &model,
        &offline_jobs,
        &first_offline_outputs,
        &mut memo,
        tracer,
        &mut between,
    );
    let (checked, mismatched) = (c1 + c2 + c3, m1 + m2 + m3);
    let _ = writeln!(
        pass.report,
        "  reference: {checked} sampled outputs regenerated ({} distinct, {:.2}s), {mismatched} mismatched",
        memo.len(),
        tref.elapsed().as_secs_f64()
    );
    plan_slice(&mut plan, tracer);

    let low = &phases[0];
    let e = &mut pass.e2e;
    e.set("setup_s", setup_s, "s");
    e.set("peak_rss_mb", peak_rss_mb(), "MB");
    e.set("fleet_sim_req_s", best(&plan.fleet_req_s), "req/s");

    pass.attempted = phases.iter().chain(&offline).map(|p| p.sent).sum();
    pass.failed = phases
        .iter()
        .chain(&offline)
        .map(|p| p.failed)
        .sum::<usize>()
        + mismatched;
    pass.correct = pass.failed == 0 && plan.complete;

    // Per-layer breakdown.
    let l = &layer;
    let m = &mut pass.layers;
    let wall = l.wall_s.max(f64::MIN_POSITIVE);
    let cfg = serve::model_config();
    m.set("loadgen.lag_p99_s", quantile(&l.lag_s, 0.99), "s");
    m.set("serving.offline_tok_s", offline_tok_s, "tok/s");
    m.set("serving.goodput_rps", stats::goodput(&ladder), "req/s");
    m.set("serving.ttft_p50_s", quantile(&low.ttft_s, 0.5), "s");
    m.set("serving.ttft_p90_s", quantile(&low.ttft_s, 0.9), "s");
    m.set("serving.itl_p50_s", quantile(&low.itl_s, 0.5), "s");
    m.set("serving.itl_p99_s", quantile(&low.itl_s, 0.99), "s");
    let _ = writeln!(pass.report, "{}", serving_line(m));
    m.set(
        "scheduler.queue_wait_p50_s",
        quantile(&l.queue_wait_s, 0.5),
        "s",
    );
    m.set(
        "scheduler.queue_wait_p90_s",
        quantile(&l.queue_wait_s, 0.9),
        "s",
    );
    m.set("scheduler.prefill_frac", l.prefill_s / wall, "frac");
    m.set("scheduler.decode_frac", l.decode_s / wall, "frac");
    m.set(
        "scheduler.idle_frac",
        1.0 - (l.prefill_s + l.decode_s) / wall,
        "frac",
    );
    m.set("scheduler.prefill_steps", l.prefill_steps as f64, "count");
    m.set("scheduler.decode_steps", l.decode_steps as f64, "count");
    m.set(
        "scheduler.prefill_tokens_per_step",
        l.prefill_tokens as f64 / l.prefill_steps.max(1) as f64,
        "tok",
    );
    m.set(
        "scheduler.decode_batch_mean",
        l.decode_rows as f64 / l.decode_steps.max(1) as f64,
        "req",
    );
    m.set(
        "scheduler.prefill_s_per_token",
        l.prefill_s / l.prefill_tokens.max(1) as f64,
        "s",
    );
    m.set(
        "scheduler.decode_step_p50_s",
        quantile(&l.decode_step_s, 0.5),
        "s",
    );
    m.set(
        "scheduler.stall_frac",
        l.stalled_gaps as f64 / l.gaps.max(1) as f64,
        "frac",
    );
    m.set("scheduler.blocked_steps", l.blocked_steps as f64, "count");
    m.set("kv.used_frac_mean", mean(&l.kv_used_frac), "frac");
    m.set(
        "kv.used_frac_max",
        l.kv_used_frac.iter().copied().fold(0.0, f64::max),
        "frac",
    );
    let profile = distserve_prof::snapshot();
    for (phase, scopes) in [
        ("prefill", &["prefill", "suffix_prefill"][..]),
        ("decode", &["decode"][..]),
    ] {
        for k in [
            "qkv_gemm",
            "fused_attn",
            "out_proj_gemm",
            "ffn",
            "logits",
            "kv_append",
        ] {
            m.set(
                format!("engine.{phase}.{k}_s"),
                phase_scope_s(&profile, scopes, k),
                "s",
            );
        }
    }
    m.set("engine.prefill.gflop", l.prefill_gflop, "GFLOP");
    m.set("engine.decode.gflop", l.decode_gflop, "GFLOP");
    m.set(
        "engine.decode.weight_gb",
        l.decode_steps as f64 * serve::weight_bytes(&cfg) / 1e9,
        "GB",
    );
    m.set(
        "engine.prefill.gflops",
        l.prefill_gflop / l.prefill_s.max(f64::MIN_POSITIVE),
        "GFLOP/s",
    );
    m.set(
        "engine.decode.gflops",
        l.decode_gflop / l.decode_s.max(f64::MIN_POSITIVE),
        "GFLOP/s",
    );
    m.set(
        "pool.busy_frac",
        l.pool_busy_s / l.pool_span_s.max(f64::MIN_POSITIVE),
        "frac",
    );
    m.set("pool.dispatch_wait_s", l.pool_dispatch_wait_s, "s");
    m.set("pool.gemm_job_s", scope_s(&profile, "pool_gemm_job"), "s");
    m.set("pool.attn_job_s", scope_s(&profile, "pool_attn_job"), "s");
    let lookups = l.prefix_lookups.max(1) as f64;
    m.set("prefix.lookups", l.prefix_lookups as f64, "count");
    m.set("prefix.hit_rate", l.prefix_hits as f64 / lookups, "frac");
    m.set(
        "prefix.token_hit_rate",
        l.prefix_matched_tokens as f64 / l.prefix_lookup_tokens.max(1) as f64,
        "frac",
    );
    m.set("prefix.match_s", l.prefix_match_s, "s");
    m.set("prefix.offer_s", l.prefix_offer_s, "s");
    m.set("prefix.inserted_blocks", l.prefix_inserted as f64, "count");
    m.set("prefix.evictions", l.prefix_evictions as f64, "count");
    m.set(
        "prefix.owned_blocks_max",
        l.prefix_owned_max as f64,
        "count",
    );
    plan.layers(m, &profile);
    m.set("workload.gen_s", plan.fleet.gen_s + gen_s, "s");
    if tracer.enabled() && l.telemetry_prefill_tokens != l.prefill_tokens {
        // The recording sink and the load generator must agree on the
        // prompt tokens every timed prefill step processed. (The sink
        // also sees the untimed drain, so it may only count more.)
        pass.correct &= l.telemetry_prefill_tokens >= l.prefill_tokens;
    }
    let _ = writeln!(
        pass.report,
        "  plan: alg1 {:.3}s, serve_trace {:.0} req/s (medians); fleet {:.0} req/s median, {:.0} fastest of {} runs; all complete: {}",
        median(&plan.plan_s),
        median(&plan.serve_req_s),
        median(&plan.fleet_req_s),
        best(&plan.fleet_req_s),
        plan.fleet_req_s.len(),
        plan.complete
    );
    pass
}

/// One pass of `planner`: repeated plan / verify / fleet cycles for the
/// run length, plus the planned deployment's simulated serving figures.
fn run_planner(seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
    /// Rates the OPT-13B and OPT-66B deployments are planned for, req/s.
    const PLAN_RATE: f64 = 8.0;
    const PLAN_RATE_66B: f64 = 2.0;
    /// Verification trace per plan (long enough to time).
    const VERIFY_REQUESTS: usize = 20_000;
    /// Session requests per fleet run.
    const FLEET_REQUESTS: usize = 500_000;
    /// Requests in the simulated ladder and offline batch.
    const LADDER_REQUESTS: usize = 2_000;
    const RUNGS: [f64; 5] = [2.0, 4.0, 6.0, 8.0, 10.0];

    /// The planner's set-up: verification trace, cost model, clusters.
    fn setup(setups: &mut Vec<f64>) -> distserve_workload::Trace {
        let t = Instant::now();
        let trace = plan::sharegpt(1.0, VERIFY_REQUESTS, plan::FIXED_SEED);
        let cost = plan::cost();
        let clusters = (Cluster::paper_testbed(), Cluster::high_affinity(4, 8));
        std::hint::black_box((&cost, &clusters));
        setups.push(t.elapsed().as_secs_f64());
        trace
    }
    let mut pass = Pass::default();

    // Set-ups are timed at the start and before each cycle, up to
    // SETUP_REPS of them, so they are spread over the run.
    let mut setups = Vec::new();
    let verify_base = setup(&mut setups);
    setup(&mut setups);

    let mut fig = PlanFigures {
        complete: true,
        ..PlanFigures::default()
    };
    let mut first_plan = None;
    let start = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        cycles += 1;
        if setups.len() < SETUP_REPS {
            setup(&mut setups);
        }
        let a = plan::plan(
            Application::ChatbotOpt13B,
            Cluster::paper_testbed(),
            &distserve_workload::Dataset::ShareGpt,
            PLAN_RATE,
            "placement.alg2",
            tracer,
        );
        let b = plan::plan(
            Application::ChatbotOpt66B,
            Cluster::high_affinity(4, 8),
            &distserve_workload::Dataset::ShareGpt,
            PLAN_RATE_66B,
            "placement.alg1",
            tracer,
        );
        fig.alg2_s.push(a.plan_s);
        fig.alg1_s.push(b.plan_s);
        fig.plan_s.push(a.plan_s + b.plan_s);
        fig.planned_goodput_rps = a.planned_goodput_rps;
        let (mut req, mut wall) = (0u64, 0.0);
        for (i, p) in [&a, &b].into_iter().enumerate() {
            let trace = plan::scaled(&verify_base, p.rate);
            let (out, w) = plan::simulate(p, &trace, plan::FIXED_SEED, tracer);
            fig.complete &= plan::all_completed(&out, &trace);
            if i == 0 {
                fig.sim_attainment = out.attainment(p.slo.ttft, p.slo.tpot);
            }
            req += trace.len() as u64;
            wall += w;
        }
        fig.serve_req += req;
        fig.serve_wall_s += wall;
        fig.serve_req_s.push(req as f64 / wall);
        for f in plan::run_fleet_per_core(FLEET_REQUESTS, tracer) {
            add_fleet(&mut fig, &f, FLEET_REQUESTS);
        }
        if first_plan.is_none() {
            first_plan = Some(a);
        }
    }
    while setups.len() < SETUP_REPS {
        setup(&mut setups);
    }
    let a = first_plan.expect("at least one cycle");

    // The planned deployment served in simulation, measured like the
    // real workloads: a rate ladder over one time-scaled trace, latency
    // at the lowest rung, and an offline batch.
    let base = plan::sharegpt(1.0, LADDER_REQUESTS, seed.wrapping_add(1));
    let mut ladder = Vec::new();
    let mut lowest = None;
    for rate in RUNGS {
        let (out, _) = plan::simulate(&a, &plan::scaled(&base, rate), seed, tracer);
        ladder.push((rate, out.attainment(a.slo.ttft, a.slo.tpot), base.len()));
        if lowest.is_none() {
            lowest = Some(out);
        }
    }
    let lowest = lowest.expect("ladder has rungs");
    let offline_trace = plan::scaled(&base, 1e9);
    let (offline, _) = plan::simulate(&a, &offline_trace, seed, tracer);
    fig.complete &= plan::all_completed(&offline, &offline_trace);
    let out_tokens: f64 = offline_trace
        .requests()
        .iter()
        .map(|r| f64::from(r.output_len))
        .sum();
    let ttft: Vec<f64> = lowest.records.iter().map(|r| r.ttft()).collect();
    let tpot: Vec<f64> = lowest.records.iter().map(|r| r.tpot()).collect();

    let e = &mut pass.e2e;
    e.set("setup_s", median(&setups), "s");
    e.set("peak_rss_mb", peak_rss_mb(), "MB");
    e.set("fleet_sim_req_s", best(&fig.fleet_req_s), "req/s");

    let _ = writeln!(
        pass.report,
        "  {cycles} cycles: alg2 {:.3}s, alg1 {:.3}s (medians); planned goodput {:.2} req/s, sim attainment at {PLAN_RATE} req/s {:.3}",
        median(&fig.alg2_s),
        median(&fig.alg1_s),
        fig.planned_goodput_rps,
        fig.sim_attainment
    );
    let _ = writeln!(
        pass.report,
        "  fleet: {} offered, {} completed, {} shed; {:.0} req/s median, {:.0} fastest of {} runs {:?}; simulated ladder {:?}",
        fig.fleet.offered,
        fig.fleet.completed,
        fig.fleet.shed,
        median(&fig.fleet_req_s),
        best(&fig.fleet_req_s),
        fig.fleet_req_s.len(),
        fig.fleet_req_s.iter().map(|x| (x / 1e3).round()).collect::<Vec<_>>(),
        ladder
    );
    pass.attempted = (fig.serve_req + fig.fleet.offered) as usize;
    pass.failed = if fig.complete { 0 } else { 1 };
    pass.correct = fig.complete;

    let m = &mut pass.layers;
    let profile = distserve_prof::snapshot();
    m.set(
        "serving.offline_tok_s",
        out_tokens / offline.makespan.as_secs(),
        "tok/s",
    );
    m.set("serving.goodput_rps", stats::goodput(&ladder), "req/s");
    m.set("serving.ttft_p50_s", quantile(&ttft, 0.5), "s");
    m.set("serving.ttft_p90_s", quantile(&ttft, 0.9), "s");
    m.set("serving.itl_p50_s", quantile(&tpot, 0.5), "s");
    m.set("serving.itl_p99_s", quantile(&tpot, 0.99), "s");
    let _ = writeln!(pass.report, "{}", serving_line(m));
    fig.layers(m, &profile);
    pass
}

fn run(args: &Args, tracer: &mut Tracer) -> Pass {
    match args.workload.as_str() {
        "chat" => run_real(&CHAT, args.seed, args.seconds, tracer),
        "multiturn" => run_real(&MULTITURN, args.seed, args.seconds, tracer),
        _ => run_planner(args.seed, args.seconds, tracer),
    }
}

/// The git commit of the checkout, read from `.git` when there is one.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn provenance(args: &Args) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "provenance: git {} | {rustc} | cpu {cpu} | nproc {nproc} | compute threads {} | search threads {} | fleet sampled on {} cores | workload {} seed {} seconds {}",
        git_sha(),
        serve::THREADS,
        plan::SEARCH_THREADS,
        cores::count(),
        args.workload,
        args.seed,
        args.seconds
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&args));
    let noise_before = spin_probe_s();

    let mut untraced = Tracer::new(false);
    let base = run(&args, &mut untraced);
    print!("{}", base.report);
    let mut out = base;
    if args.trace {
        distserve_prof::reset();
        distserve_prof::set_enabled(true);
        let mut tracer = Tracer::new(true);
        let traced = run(&args, &mut tracer);
        distserve_prof::set_enabled(false);
        print!("traced run:\n{}", traced.report);
        let mut layers = Metrics::default();
        for (name, unit) in PER_LAYER {
            layers.set(name, traced.layers.get(name).unwrap_or(0.0), unit);
        }
        for (name, unit) in E2E {
            let d =
                traced.e2e.get(name).unwrap_or(f64::NAN) - out.e2e.get(name).unwrap_or(f64::NAN);
            layers.set(format!("overhead.{name}"), d, unit);
        }
        let path = format!("{OUT_DIR}/spans_{}_{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.perfetto_json()))
        {
            Ok(()) => println!("wrote {} spans to {path}", tracer.len()),
            Err(e) => println!("could not write spans to {path}: {e}"),
        }
        out = Pass {
            e2e: out.e2e,
            layers,
            attempted: out.attempted + traced.attempted,
            failed: out.failed + traced.failed,
            correct: out.correct && traced.correct,
            report: String::new(),
        };
    }
    let noise_after = spin_probe_s();
    println!("host noise probe: {noise_before:.4}s before, {noise_after:.4}s after (fixed work; not used to normalize)");

    let mut e2e = Metrics::default();
    for (name, unit) in E2E {
        e2e.set(name, out.e2e.get(name).unwrap_or(f64::NAN), unit);
    }
    let metrics = if args.trace { &out.layers } else { &e2e };
    for (name, value, unit) in metrics.iter() {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct && finite,
        out.attempted.max(1),
        out.failed,
        metrics.json()
    );
}
