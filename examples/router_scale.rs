//! Cluster-scale router harness: stream 10M requests through the
//! request-granular simulator, once through the EPP-style router and
//! once through a static round-robin baseline, at matched SLOs.
//!
//! The workload is a diurnal (non-homogeneous Poisson) curve whose peak
//! deliberately exceeds fleet capacity — the regime where load-aware
//! routing and admission control earn their keep. The trace is never
//! materialized: arrivals come from `workload::stream::RequestStream`,
//! so memory stays flat at any request count.
//!
//! Self-validates: both runs must conserve every request
//! (completed + shed == offered) and the routed run's goodput must be
//! at least the static baseline's. Saves `BENCH_sim.json` (and appends
//! it to `BENCH_history.jsonl`) with the wall-clock
//! simulated-requests-per-second figure `routed.sim_req_s` (target:
//! ≥1M/s).
//!
//! Set `ROUTER_SCALE_REQUESTS=100000` for a CI-sized smoke.
//!
//! Run with: `cargo run --release --example router_scale`

use std::time::Instant;

use distserve::router::{
    Assignment, FleetSpec, RouterPolicy, ScaleOutcome, ScaleSim, ScaleSlo, ServiceProfile,
};
use distserve::workload::{Dataset, DiurnalCurve, RequestStream};
use distserve_bench::push_scale_outcome;
use distserve_bench::sentinel::{BenchRecord, Provenance};

/// Fleet and workload for the scale run. 14 entry replicas (6 prefill +
/// 8 colocated) absorb ~100 rps within SLO; the diurnal peak pushes past
/// that so the router has real admission decisions to make.
fn fleet() -> FleetSpec {
    FleetSpec {
        prefill: 6,
        decode: 10,
        colocated: 8,
        profile: ServiceProfile::a100_13b(),
    }
}

fn curve() -> DiurnalCurve {
    // Mean 150 rps swinging 75..225 over a 1-hour simulated day: the
    // peak exceeds the fleet's ~200 rps TTFT-bounded entry capacity, so
    // admission control and load-aware lane choice decide the goodput.
    DiurnalCurve::new(150.0, 0.5, 3600.0)
}

fn slo() -> ScaleSlo {
    ScaleSlo {
        ttft_s: 0.4,
        tpot_s: 0.1,
    }
}

/// Admission tuned to the 0.4s TTFT SLO: a 4-deep prefill queue (~0.3s
/// at the mean ShareGPT prompt) is the deepest backlog that can still
/// meet it, so anything beyond that is shed quickly instead of being
/// served late and wasted.
fn policy() -> RouterPolicy {
    RouterPolicy {
        queue_cap: 4,
        max_wait_secs: 0.5,
        retry_gap_secs: 0.1,
    }
}

fn run(assignment: Assignment, n: u64) -> (ScaleOutcome, f64) {
    let stream =
        RequestStream::diurnal(Dataset::ShareGpt.sampler(), curve(), 20_240_624).take(n as usize);
    let sim = ScaleSim::new(fleet(), policy(), slo(), assignment, 7);
    let started = Instant::now();
    let out = sim.run(stream);
    (out, started.elapsed().as_secs_f64())
}

fn main() {
    let n: u64 = std::env::var("ROUTER_SCALE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    let c = curve();
    println!(
        "router_scale: {n} requests, diurnal {:.0}±{:.0}% rps over {:.0}s periods, fleet {}P/{}D/{}C",
        c.base_rate,
        c.amplitude * 100.0,
        c.period_secs,
        fleet().prefill,
        fleet().decode,
        fleet().colocated,
    );

    let (routed, routed_wall) = run(Assignment::Routed, n);
    let rate = routed.offered as f64 / routed_wall;
    println!(
        "  routed: {:.2}s wall ({:.0} sim-req/s), goodput {:.1} rps, attainment {:.3}, shed {}, ttft {:.3}s, tpot {:.4}s",
        routed_wall,
        rate,
        routed.goodput_rps(),
        routed.attainment(),
        routed.shed,
        routed.mean_ttft_s,
        routed.mean_tpot_s,
    );

    let (fixed, static_wall) = run(Assignment::Static, n);
    println!(
        "  static: {:.2}s wall, goodput {:.1} rps, attainment {:.3}, shed {}, ttft {:.3}s, tpot {:.4}s",
        static_wall,
        fixed.goodput_rps(),
        fixed.attainment(),
        fixed.shed,
        fixed.mean_ttft_s,
        fixed.mean_tpot_s,
    );

    // Self-checks: conservation on both paths, and routed goodput must
    // meet or beat static assignment at matched SLOs (the tentpole's
    // acceptance bar).
    assert_eq!(routed.completed + routed.shed, routed.offered);
    assert_eq!(fixed.completed + fixed.shed, fixed.offered);
    assert!(
        routed.goodput_rps() >= fixed.goodput_rps(),
        "routed goodput {:.2} rps fell below static baseline {:.2} rps",
        routed.goodput_rps(),
        fixed.goodput_rps()
    );
    if rate < 1_000_000.0 {
        eprintln!("  WARN: {rate:.0} sim-req/s is below the 1M/s target on this host");
    }

    let mut rec = BenchRecord::new(Provenance::capture(
        "router_scale: diurnal ShareGPT arrivals, fleet 6P/10D/8C",
        7,
    ));
    rec.push("workload.requests", n as f64, "count")
        .push("workload.base_rate_rps", c.base_rate, "req/s")
        .push("workload.amplitude", c.amplitude, "frac")
        .push("workload.period_s", c.period_secs, "s")
        .push("routed.wall_s", routed_wall, "s")
        .push("routed.sim_req_s", rate, "req/s")
        .push("static.wall_s", static_wall, "s");
    push_scale_outcome(&mut rec, "routed", &routed);
    push_scale_outcome(&mut rec, "static", &fixed);
    rec.save("sim").expect("save BENCH_sim.json");
    println!("  saved BENCH_sim.json ({rate:.0} sim-req/s)");
}
