//! Prefix-cache goodput harness: bit-exact KV reuse on the real engine,
//! then a million-request routed simulation of multi-turn chat at
//! matched SLOs, warm cache vs cold.
//!
//! Part 1 drives `tinyllm`'s continuous batcher twice over the same
//! shared-system-prompt workload — once cold, once through a
//! `distserve_prefix::PrefixCache` — and asserts the generated token
//! streams are byte-identical: cached prefills are an optimization, not
//! an approximation. Part 2 streams a multi-turn chatbot session mix
//! (`workload::sessions`) through the request-granular `ScaleSim`, once
//! with prefix lineages visible to the cache-affine router and once with
//! them stripped, and reports the goodput uplift at matched SLOs.
//!
//! Saves `BENCH_prefix.json` and appends it to `BENCH_history.jsonl`,
//! after the perf sentinel has judged its gated `prefix_hit_rate` and
//! `cached_goodput_rps` against the ledger.
//!
//! Set `PREFIX_GOODPUT_REQUESTS=100000` for a CI-sized smoke.
//!
//! Run with: `cargo run --release --example prefix_goodput`

use std::collections::HashMap;
use std::time::Instant;

use distserve::prefix::PrefixCache;
use distserve::router::{
    Assignment, FleetSpec, RouterPolicy, ScaleOutcome, ScaleSim, ScaleSlo, ServiceProfile,
};
use distserve::workload::{ChatConfig, ChatSessionStream, Dataset};
use distserve_bench::push_scale_outcome;
use distserve_bench::sentinel::{BenchRecord, Provenance};
use tinyllm::{ContinuousBatcher, GenRequest, Model, TinyConfig};

/// Tenants in the real-engine workload, each with a distinct system
/// prompt shared by all of its requests.
const TENANTS: usize = 3;
/// Requests per tenant.
const REQS_PER_TENANT: usize = 8;
/// Shared system-prompt length, tokens (4 KV blocks at block size 16).
const SYS_TOKENS: usize = 64;
/// Tokens generated per request.
const MAX_NEW: usize = 8;

/// The shared-prefix prompt set: per tenant, one fixed system prompt
/// followed by a short per-request user turn.
fn prompts() -> Vec<(u64, Vec<u32>)> {
    let mut out = Vec::new();
    for t in 0..TENANTS {
        let sys: Vec<u32> = (0..SYS_TOKENS)
            .map(|i| ((t * 131 + i * 17 + 7) % 512) as u32)
            .collect();
        for r in 0..REQS_PER_TENANT {
            let mut p = sys.clone();
            let user = 9 + (r % 8);
            p.extend((0..user).map(|i| ((r * 37 + i * 5 + t) % 512) as u32));
            out.push(((t * REQS_PER_TENANT + r) as u64, p));
        }
    }
    out
}

/// Runs the continuous batcher over `prompts`, optionally through a
/// prefix cache, returning outputs by id and the wall time. The token
/// budget forces sequential prefill batches so later requests can hit
/// prefixes inserted by earlier ones — the steady-state serving shape.
fn run_engine(cache: Option<&mut PrefixCache>) -> (HashMap<u64, Vec<u32>>, f64, usize) {
    let model = Model::random(&TinyConfig::small(), 2024);
    let mut batcher = ContinuousBatcher::new(model, 8192).with_token_budget(96);
    for (id, prompt) in prompts() {
        batcher
            .submit(GenRequest {
                id,
                prompt,
                max_new: MAX_NEW,
            })
            .expect("valid request");
    }
    let started = Instant::now();
    let finished = match cache {
        Some(c) => batcher.run_to_completion_with(c),
        None => batcher.run_to_completion(),
    };
    let wall = started.elapsed().as_secs_f64();
    let free = batcher.kv_free_blocks();
    let total = batcher.kv_total_blocks();
    let leaked_by_sequences = total - free;
    (
        finished.into_iter().map(|f| (f.id, f.tokens)).collect(),
        wall,
        leaked_by_sequences,
    )
}

/// Fleet for the scale run (same shape as `examples/router_scale.rs`).
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

fn chat_cfg() -> ChatConfig {
    // ~6 sessions/s × ~5 turns ≈ 30 rps of history-bearing prompts —
    // right at the fleet's cold prefill capacity, so warm prefills
    // convert directly into SLO-attaining completions.
    ChatConfig {
        session_rate: 6.0,
        mean_turns: 5.0,
        think_mean_s: 2.0,
        branch_prob: 0.1,
        system_prompt_tokens: 256,
        tenant: 0,
    }
}

fn run_scale(n: usize, warm: bool) -> (ScaleOutcome, f64) {
    let sim = ScaleSim::new(fleet(), policy(), slo(), Assignment::Routed, 7);
    let stream = ChatSessionStream::new(chat_cfg(), Dataset::ShareGpt.sampler(), 20_260_808)
        .take(n)
        .map(move |mut sr| {
            if !warm {
                sr.prefix_group = 0;
            }
            sr
        });
    let started = Instant::now();
    let out = sim.run_sessions(stream);
    (out, started.elapsed().as_secs_f64())
}

fn main() {
    // --- Part 1: real engine, bit-exact warm vs cold ---------------------
    println!(
        "== prefix_goodput: tinyllm {} tenants x {} requests, {}-token shared prompts ==",
        TENANTS, REQS_PER_TENANT, SYS_TOKENS
    );
    let (cold_out, cold_wall, cold_leak) = run_engine(None);
    let mut cache = PrefixCache::new(16, 256);
    let (warm_out, warm_wall, warm_leak) = {
        let (out, wall, leak) = run_engine(Some(&mut cache));
        (out, wall, leak)
    };
    assert_eq!(cold_leak, 0, "cold run leaked KV blocks");
    assert_eq!(
        warm_leak,
        cache.owned_blocks(),
        "blocks held beyond released sequences must all be cache-owned"
    );
    assert_eq!(warm_out.len(), cold_out.len());
    for (id, cold_tokens) in &cold_out {
        assert_eq!(
            warm_out.get(id),
            Some(cold_tokens),
            "request {id}: cached generation diverged from cold run"
        );
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared prompts must produce cache hits");
    assert!(stats.matched_tokens > 0);
    let engine_hit_rate = stats.hit_rate();
    let token_hit_rate = stats.token_hit_rate();
    println!(
        "  bit-exact \u{2713}  ({} requests; cache: {} hits / {} misses, {} matched tokens, token hit rate {:.3})",
        cold_out.len(),
        stats.hits,
        stats.misses,
        stats.matched_tokens,
        token_hit_rate,
    );
    println!(
        "  wall: cold {:.3}s, warm {:.3}s ({:.2}x)",
        cold_wall,
        warm_wall,
        cold_wall / warm_wall.max(1e-9)
    );

    // --- Part 2: million-request routed sim, warm vs cold ----------------
    let n: usize = std::env::var("PREFIX_GOODPUT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let cfg = chat_cfg();
    println!(
        "  scale: {n} requests, {:.0} sessions/s x ~{:.0} turns, {}-token system prompts",
        cfg.session_rate, cfg.mean_turns, cfg.system_prompt_tokens
    );
    let (warm, warm_scale_wall) = run_scale(n, true);
    let (cold, cold_scale_wall) = run_scale(n, false);
    let rate = warm.offered as f64 / warm_scale_wall;
    println!(
        "  warm: {:.2}s wall ({:.0} sim-req/s), goodput {:.1} rps, hit rate {:.3}, ttft {:.3}s",
        warm_scale_wall,
        rate,
        warm.goodput_rps(),
        warm.prefix_hit_rate(),
        warm.mean_ttft_s,
    );
    println!(
        "  cold: {:.2}s wall, goodput {:.1} rps, ttft {:.3}s",
        cold_scale_wall,
        cold.goodput_rps(),
        cold.mean_ttft_s,
    );

    // Self-checks: conservation, real hits only on the warm path, and
    // warm goodput must meet or beat cold at matched SLOs (the
    // tentpole's acceptance bar).
    assert_eq!(warm.completed + warm.shed, warm.offered);
    assert_eq!(cold.completed + cold.shed, cold.offered);
    assert_eq!(warm.offered, cold.offered);
    assert!(warm.prefix_hits > 0, "warm run saw no cache hits");
    assert_eq!(cold.prefix_hits, 0, "cold run must stay cold");
    assert!(
        warm.goodput_rps() >= cold.goodput_rps(),
        "warm goodput {:.2} rps fell below cold baseline {:.2} rps",
        warm.goodput_rps(),
        cold.goodput_rps()
    );
    let uplift = if cold.goodput_rps() > 0.0 {
        warm.goodput_rps() / cold.goodput_rps()
    } else {
        1.0
    };
    println!(
        "  goodput uplift {:.3}x at matched SLOs (ttft {:.1}s / tpot {:.2}s)",
        uplift,
        slo().ttft_s,
        slo().tpot_s
    );

    // --- BENCH_prefix.json + sentinel ledger -----------------------------
    let mut rec = BenchRecord::new(Provenance::capture(
        "multi-turn chat, shared 256-token system prompt",
        7,
    ));
    rec.push("prefix_hit_rate", warm.prefix_hit_rate(), "frac")
        .push("cached_goodput_rps", warm.goodput_rps(), "req/s")
        .push("workload.requests", n as f64, "count")
        .push("engine.requests", cold_out.len() as f64, "count")
        .push("engine.bit_exact", 1.0, "bool")
        .push("engine.cache_hits", stats.hits as f64, "count")
        .push("engine.cache_misses", stats.misses as f64, "count")
        .push("engine.matched_tokens", stats.matched_tokens as f64, "tok")
        .push("engine.token_hit_rate", token_hit_rate, "frac")
        .push("engine.cold_wall_s", cold_wall, "s")
        .push("engine.warm_wall_s", warm_wall, "s")
        .push("warm.goodput_uplift", uplift, "x");
    push_scale_outcome(&mut rec, "warm", &warm);
    push_scale_outcome(&mut rec, "cold", &cold);
    if rec.judge() {
        // CI sets PREFIX_GOODPUT_STRICT=1 to turn a sentinel regression
        // on cached_goodput_rps / prefix_hit_rate into a hard failure.
        assert!(
            std::env::var("PREFIX_GOODPUT_STRICT").is_err(),
            "sentinel flagged a regression (see verdicts above)"
        );
        eprintln!("  WARN: sentinel flagged a regression (see verdicts above)");
    }
    rec.save("prefix").expect("save BENCH_prefix.json");
    println!(
        "  saved BENCH_prefix.json (hit rate {:.3}, engine hit rate {:.3}), appended to BENCH_history.jsonl",
        warm.prefix_hit_rate(),
        engine_hit_rate,
    );
}
