//! Property tests for the router's pure decision core.
//!
//! The core contract (`route(&RouterState, &RequestFeatures) ->
//! Decision` is total, deterministic, and safe) is exercised over
//! randomized fleets and requests:
//!
//! - routing never selects a Down/Draining/Recovering replica;
//! - admission-control sheds only happen above the configured capacity
//!   bound (every viable path at/over `queue_cap`) with the wait budget
//!   exhausted;
//! - identical `(RouterState, RequestFeatures, seed)` always yields the
//!   identical `Decision`;
//! - a state edited through `RouterState::update` routes like one
//!   rebuilt from its snapshots, and each pick is the eligible replica
//!   with the least `(load, splitmix64(seed ^ id))`;
//! - assigned work is conserved end to end — no request is executed
//!   twice or silently dropped — in both the request-granular scale
//!   simulator and the token-granular engine, and engine runs replay
//!   exactly from their decision logs;
//! - the benchmark's routed session fleet reproduces a pinned outcome
//!   bit for bit.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! router job runs with `PROPTEST_CASES=512`).

use proptest::prelude::*;

use distserve::cluster::Cluster;
use distserve::core::Planner;
use distserve::engine::{ServingSim, SimConfig};
use distserve::faults::InstanceHealth;
use distserve::models::{OptModel, ParallelismConfig, RooflineModel};
use distserve::observe::ObserverSink;
use distserve::router::{
    route, Assignment, Decision, FleetSpec, ReplicaId, ReplicaRole, ReplicaSnapshot,
    RequestFeatures, RouterPolicy, RouterState, ScaleOutcome, ScaleSim, ScaleSlo, ServiceProfile,
    ShedReason,
};
use distserve::telemetry::{metrics, TelemetrySink};
use distserve::workload::{ChatConfig, ChatSessionStream, Dataset, RequestStream};

/// Case count from `PROPTEST_CASES`, falling back to `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One randomized replica: `(role, health, queue_depth, queued_tokens,
/// inflight_tokens, active_decodes)` selectors.
type ReplicaTuple = (u8, u8, u32, u64, u64, u32);

fn replica_strategy() -> impl Strategy<Value = ReplicaTuple> {
    (
        0u8..3,
        0u8..7,
        0u32..12,
        0u64..20_000,
        0u64..8_192,
        0u32..128,
    )
}

/// A [`ReplicaTuple`] whose load is a small multiple of 32 tokens, so
/// equally loaded replicas, and with them the tie-break, are common.
fn tie_prone_replica() -> impl Strategy<Value = ReplicaTuple> {
    (
        0u8..3,
        0u8..7,
        0u32..12,
        (0u64..4).prop_map(|t| t * 32),
        (0u64..2).prop_map(|t| t * 32),
        0u32..3,
    )
}

fn snapshot(id: ReplicaId, entry: ReplicaTuple) -> ReplicaSnapshot {
    let (role, health, queue_depth, queued, inflight, active) = entry;
    let role = match role {
        0 => ReplicaRole::Prefill,
        1 => ReplicaRole::Decode,
        _ => ReplicaRole::Colocated,
    };
    // Weight toward serving states so decisions are common, but cover
    // every health variant.
    let health = match health {
        0..=2 => InstanceHealth::Up,
        3 => InstanceHealth::Degraded { slowdown: 2.0 },
        4 => InstanceHealth::Draining,
        5 => InstanceHealth::Down,
        _ => InstanceHealth::Recovering,
    };
    ReplicaSnapshot {
        id,
        role,
        health,
        queue_depth,
        queued_tokens: queued,
        inflight_tokens: inflight,
        active_decodes: active,
        kv_utilization: (queued % 100) as f64 / 100.0,
    }
}

fn fleet_from(entries: Vec<ReplicaTuple>) -> Vec<ReplicaSnapshot> {
    entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| snapshot(ReplicaId(i as u32), entry))
        .collect()
}

/// SplitMix64's finalizer, the router's documented tie-break hash,
/// written out here so the reference below does not share the router's
/// code.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The selection rule by brute force: the replica of `role` passing
/// `eligible` with the least `(load, splitmix64(seed ^ id))`.
fn least_loaded(
    state: &RouterState,
    role: ReplicaRole,
    eligible: impl Fn(&ReplicaSnapshot) -> bool,
) -> Option<ReplicaId> {
    state
        .replicas()
        .iter()
        .filter(|r| r.role == role && eligible(r))
        .min_by_key(|r| (r.load(), splitmix64(state.seed() ^ u64::from(r.id.0))))
        .map(|r| r.id)
}

/// `(queue_cap, waited_secs, prompt, decode, seed)` request context.
fn request_strategy() -> impl Strategy<Value = (u32, f64, u32, u32, u64)> {
    (
        1u32..8,
        0.0f64..3.0,
        1u32..2_048,
        1u32..512,
        0u64..1_000_000,
    )
}

fn tight_policy(queue_cap: u32) -> RouterPolicy {
    RouterPolicy {
        queue_cap,
        max_wait_secs: 2.0,
        retry_gap_secs: 0.25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// Down/Draining/Recovering replicas are never selected, on either
    /// side of either path, and targets always carry the right role.
    #[test]
    fn route_never_selects_unavailable(
        entries in prop::collection::vec(replica_strategy(), 1..24),
        req in request_strategy(),
    ) {
        let (queue_cap, waited, prompt, decode, seed) = req;
        let fleet = fleet_from(entries);
        let state = RouterState::new(fleet, tight_policy(queue_cap), seed);
        let features = RequestFeatures {
            waited_secs: waited,
            ..RequestFeatures::arrival(seed, prompt, decode)
        };
        match route(&state, &features) {
            Decision::Disagg { prefill, decode } => {
                let p = &state.replicas()[prefill.0 as usize];
                let d = &state.replicas()[decode.0 as usize];
                prop_assert!(p.role == ReplicaRole::Prefill);
                prop_assert!(d.role == ReplicaRole::Decode);
                prop_assert!(p.health.accepts_new_work());
                prop_assert!(d.health.accepts_new_work());
            }
            Decision::Coloc { replica } => {
                let c = &state.replicas()[replica.0 as usize];
                prop_assert!(c.role == ReplicaRole::Colocated);
                prop_assert!(c.health.accepts_new_work());
            }
            Decision::Queue { .. } | Decision::Shed { .. } => {}
        }
    }

    /// Sheds only happen above the capacity bound: an `OverCapacity`
    /// shed requires every viable path to be at/over `queue_cap` AND an
    /// exhausted wait budget; `NoCapablePath` requires that no healthy
    /// path exists at all. Conversely, while any path has headroom the
    /// router must place the request.
    #[test]
    fn sheds_only_above_capacity_bound(
        entries in prop::collection::vec(replica_strategy(), 1..24),
        req in request_strategy(),
    ) {
        let (queue_cap, waited, prompt, decode, seed) = req;
        let fleet = fleet_from(entries);
        let policy = tight_policy(queue_cap);
        let state = RouterState::new(fleet, policy, seed);
        let features = RequestFeatures {
            waited_secs: waited,
            ..RequestFeatures::arrival(seed, prompt, decode)
        };

        let accepting = |role: ReplicaRole| {
            state
                .replicas()
                .iter()
                .any(|r| r.role == role && r.health.accepts_new_work())
        };
        let under_cap = |role: ReplicaRole| {
            state.replicas().iter().any(|r| {
                r.role == role && r.health.accepts_new_work() && r.queue_depth < queue_cap
            })
        };
        let split_open = under_cap(ReplicaRole::Prefill) && accepting(ReplicaRole::Decode);
        let coloc_open = under_cap(ReplicaRole::Colocated);
        let split_exists = accepting(ReplicaRole::Prefill) && accepting(ReplicaRole::Decode);
        let path_exists = split_exists || accepting(ReplicaRole::Colocated);

        match route(&state, &features) {
            Decision::Shed { reason: ShedReason::OverCapacity } => {
                prop_assert!(!split_open && !coloc_open, "shed with headroom available");
                prop_assert!(path_exists, "OverCapacity but no path at all");
                prop_assert!(
                    waited + policy.retry_gap_secs > policy.max_wait_secs,
                    "shed before the wait budget ran out"
                );
            }
            Decision::Shed { reason: ShedReason::NoCapablePath } => {
                prop_assert!(!path_exists, "NoCapablePath with a healthy path");
            }
            Decision::Queue { .. } => {
                prop_assert!(!split_open && !coloc_open, "queued with headroom available");
                prop_assert!(path_exists);
                prop_assert!(waited + policy.retry_gap_secs <= policy.max_wait_secs);
            }
            Decision::Disagg { .. } | Decision::Coloc { .. } => {
                prop_assert!(split_open || coloc_open);
            }
        }
    }

    /// Identical `(RouterState, RequestFeatures, seed)` — including a
    /// state rebuilt from scratch from the same snapshots — always
    /// yields the identical `Decision`.
    #[test]
    fn route_is_deterministic(
        entries in prop::collection::vec(replica_strategy(), 1..24),
        req in request_strategy(),
    ) {
        let (queue_cap, waited, prompt, decode, seed) = req;
        let fleet = fleet_from(entries);
        let policy = tight_policy(queue_cap);
        let features = RequestFeatures {
            waited_secs: waited,
            ..RequestFeatures::arrival(seed, prompt, decode)
        };
        let a = RouterState::new(fleet.clone(), policy, seed);
        let b = RouterState::new(fleet, policy, seed);
        let first = route(&a, &features);
        prop_assert_eq!(route(&a, &features), first, "same state, same call");
        prop_assert_eq!(route(&b, &features), first, "rebuilt state");
    }

    /// After random `update()` edits (any health, queue depths on both
    /// sides of the cap, loads that often tie), the edited state routes
    /// exactly like a state rebuilt from its snapshots, and with no
    /// prefix holder noted every replica a decision names is the eligible
    /// one with the least `(load, splitmix64(seed ^ id))`. Readmissions
    /// and a throttled tenant's halved cap change who is eligible.
    #[test]
    fn selection_rule_holds_under_updates(
        entries in prop::collection::vec(replica_strategy(), 1..25),
        edits in prop::collection::vec((any::<u32>(), tie_prone_replica()), 0..64),
        req in request_strategy(),
        flags in (any::<bool>(), any::<bool>(), any::<u32>(), 0u32..2_048, 0.0f64..1.0),
    ) {
        const TENANT: u32 = 3;
        let (queue_cap, waited, prompt, decode, seed) = req;
        let (readmission, throttled, holder_pick, matched, hit_prob) = flags;
        let n = entries.len() as u32;
        let policy = tight_policy(queue_cap);
        let mut state = RouterState::new(fleet_from(entries), policy, seed);
        for (pick, entry) in edits {
            let id = ReplicaId(pick % n);
            let fresh = snapshot(id, entry);
            state.update(id, |r| *r = ReplicaSnapshot { role: r.role, ..fresh });
        }
        state.set_tenant_throttle(TENANT, throttled);
        let mut rebuilt = RouterState::new(state.replicas().to_vec(), policy, seed);
        rebuilt.set_tenant_throttle(TENANT, throttled);
        let features = RequestFeatures {
            waited_secs: waited,
            readmission,
            ..RequestFeatures::arrival(seed, prompt, decode).with_tenant(TENANT)
        };

        let decision = route(&state, &features);
        prop_assert_eq!(route(&rebuilt, &features), decision, "rebuilt state");
        let cap = if throttled { (queue_cap / 2).max(1) } else { queue_cap };
        let admits = |r: &ReplicaSnapshot| {
            r.health.accepts_new_work() && (readmission || r.queue_depth < cap)
        };
        let prefill = least_loaded(&state, ReplicaRole::Prefill, admits);
        let decode = least_loaded(&state, ReplicaRole::Decode, |r| r.health.accepts_new_work());
        let coloc = least_loaded(&state, ReplicaRole::Colocated, admits);
        match decision {
            Decision::Disagg { prefill: p, decode: d } => {
                prop_assert_eq!(Some(p), prefill);
                prop_assert_eq!(Some(d), decode);
            }
            Decision::Coloc { replica } => prop_assert_eq!(Some(replica), coloc),
            Decision::Queue { .. } | Decision::Shed { .. } => {
                prop_assert!(coloc.is_none(), "colocated replica {:?} left unused", coloc);
                prop_assert!(
                    prefill.is_none() || decode.is_none(),
                    "split pair {:?}/{:?} left unused",
                    prefill,
                    decode
                );
            }
        }

        // With a prefix holder noted on both, they still agree.
        let holder = ReplicaId(holder_pick % n);
        state.note_prefix_served(7, holder);
        rebuilt.note_prefix_served(7, holder);
        let warm = features.with_prefix(7, matched, hit_prob);
        prop_assert_eq!(route(&state, &warm), route(&rebuilt, &warm), "rebuilt state, warm");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64).clamp(8, 256)))]

    /// Conservation through the scale simulator: every offered request
    /// is either completed or shed — none executed twice, none dropped.
    /// The workload streams straight from the generator (no Vec).
    #[test]
    fn scale_sim_conserves_work(
        rates in (5.0f64..80.0, 1u32..3, 1u32..3, 0u32..3, 0u64..1_000),
    ) {
        let (rate, prefill, decode, colocated, seed) = rates;
        let n = 600usize;
        let fleet = FleetSpec {
            prefill,
            decode,
            colocated,
            profile: ServiceProfile::a100_13b(),
        };
        let stream =
            RequestStream::poisson(Dataset::ShareGpt.sampler(), rate, seed).take(n);
        let out = ScaleSim::new(
            fleet,
            RouterPolicy { queue_cap: 4, max_wait_secs: 0.5, retry_gap_secs: 0.1 },
            ScaleSlo { ttft_s: 0.4, tpot_s: 0.1 },
            Assignment::Routed,
            seed,
        )
        .run(stream);
        prop_assert_eq!(out.offered, n as u64);
        prop_assert_eq!(out.completed + out.shed, out.offered);
    }
}

proptest! {
    // The engine property prices every token, so each case is ~three
    // orders of magnitude more work than a decision-core case; scale the
    // budget down while still tracking PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases((cases(64) / 8).clamp(4, 64)))]

    /// Conservation and replayability through the token-granular engine:
    /// offered == completed + rejected + failed, and re-running from the
    /// decision log reproduces the outcome exactly.
    #[test]
    fn engine_routed_conserves_and_replays(
        inputs in (1.0f64..6.0, 1u64..500),
    ) {
        let (rate, seed) = inputs;
        let cost = RooflineModel::a100();
        let cluster = Cluster::single_node(4);
        let arch = OptModel::Opt13B.arch();
        let planner = Planner::new(&cost, &cluster, arch.clone());
        let plan = planner.plan_vllm(ParallelismConfig::SINGLE, 2).unwrap();
        let specs = planner.materialize(&plan).unwrap();
        let trace = distserve::placement::TraceSource::make_trace(
            &Dataset::ShareGpt,
            rate,
            50,
            seed,
        );
        let cfg = SimConfig::new(arch).with_seed(seed);
        let (outcome, log) =
            ServingSim::new_routed(cfg.clone(), &cost, &cluster, specs.clone(), RouterPolicy::default())
                .unwrap()
                .run_logged(&trace);
        prop_assert_eq!(
            outcome.records.len() + outcome.rejected.len() + outcome.failed.len(),
            trace.len(),
            "request lost or duplicated"
        );
        let (replayed, replay_log) = ServingSim::new_replayed(cfg, &cost, &cluster, specs, &log)
            .unwrap()
            .run_logged(&trace);
        prop_assert_eq!(replayed.records, outcome.records);
        prop_assert_eq!(replayed.rejected, outcome.rejected);
        prop_assert_eq!(replayed.failed, outcome.failed);
        prop_assert_eq!(replay_log, log, "replay must re-emit the identical log");
    }
}

/// The benchmark's routed fleet: 6 prefill, 10 decode and 8 colocated
/// replicas behind the cache-affine router, fed multi-turn chat
/// sessions at `session_rate` conversations per second.
fn session_fleet(session_rate: f64, n: usize) -> ScaleOutcome {
    const SEED: u64 = 20_240_624;
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
    };
    let sessions = ChatSessionStream::new(
        ChatConfig {
            session_rate,
            mean_turns: 5.0,
            think_mean_s: 2.0,
            branch_prob: 0.1,
            system_prompt_tokens: 256,
            tenant: 0,
        },
        Dataset::ShareGpt.sampler(),
        SEED,
    );
    let slo = ScaleSlo {
        ttft_s: 0.4,
        tpot_s: 0.1,
    };
    ScaleSim::new(fleet, policy, slo, Assignment::Routed, SEED).run_sessions(sessions.take(n))
}

/// Every `ScaleOutcome` field, f64s as bit patterns. The exhaustive
/// destructure makes a new field a compile error here until it is
/// pinned too.
fn outcome_bits(out: ScaleOutcome) -> [u64; 10] {
    let ScaleOutcome {
        offered,
        completed,
        shed,
        slo_ok,
        requeues,
        sim_secs,
        mean_ttft_s,
        mean_tpot_s,
        prefix_hits,
        cached_prompt_tokens,
    } = out;
    [
        offered,
        completed,
        shed,
        slo_ok,
        requeues,
        prefix_hits,
        cached_prompt_tokens,
        sim_secs.to_bits(),
        mean_ttft_s.to_bits(),
        mean_tpot_s.to_bits(),
    ]
}

/// Golden fleet outcomes over 40,000 session requests each: the
/// benchmark's load (6 sessions/s, every request served) and twice it
/// (requeues and sheds). Any change to routing, prefix-cache
/// bookkeeping, or event ordering that alters a single decision moves
/// at least one of these numbers.
#[test]
fn fleet_outcome_matches_golden() {
    assert_eq!(
        outcome_bits(session_fleet(6.0, 40_000)),
        [
            40_000,
            40_000,
            0,
            35_840,
            0,
            30_230,
            63_369_630,
            0x4095_a939_591e_bc73,
            0x3fc6_b7bf_b10b_8cbb,
            0x3f9b_f7b4_81fd_4c57,
        ]
    );
    assert_eq!(
        outcome_bits(session_fleet(12.0, 40_000)),
        [
            40_000,
            22_478,
            17_522,
            3_216,
            125_409,
            8_367,
            11_373_296,
            0x4086_80b9_8cc8_caef,
            0x3ffb_7103_56c5_5bbd,
            0x3fa1_2daa_b1af_90ad,
        ]
    );
}

/// The tentpole's observe integration: per-instance load read from
/// `ObserverSink` windows feeds `ReplicaSnapshot`s, and the router
/// steers to the instance the window says is idle.
#[test]
fn observe_load_snapshot_feeds_routing() {
    let obs = ObserverSink::new(0.25, 0.1, 1.0, 16);
    obs.declare_track(0, "prefill[0]");
    obs.declare_track(1, "prefill[1]");
    obs.declare_track(2, "decode[2]");
    obs.event(distserve::telemetry::Event {
        request: 1,
        tenant: 0,
        time_s: 5.0,
        kind: distserve::telemetry::LifecycleEvent::Arrived,
    });
    obs.gauge_set(metrics::PREFILL_QUEUE_TOKENS, 0, 6_000.0);
    obs.gauge_set(metrics::PREFILL_QUEUE_TOKENS, 1, 12.0);
    obs.gauge_set(metrics::DECODE_LOAD, 2, 3.0);

    let roles = [
        ReplicaRole::Prefill,
        ReplicaRole::Prefill,
        ReplicaRole::Decode,
    ];
    let replicas: Vec<ReplicaSnapshot> = obs
        .load_snapshot()
        .into_iter()
        .map(|l| ReplicaSnapshot {
            id: ReplicaId(l.track),
            role: roles[l.track as usize],
            health: InstanceHealth::Up,
            queue_depth: 0,
            queued_tokens: l.queued_tokens as u64,
            inflight_tokens: 0,
            active_decodes: l.decode_load as u32,
            kv_utilization: l.kv_utilization,
        })
        .collect();
    let state = RouterState::new(replicas, RouterPolicy::default(), 9);
    let d = route(&state, &RequestFeatures::arrival(0, 512, 64));
    assert_eq!(
        d,
        Decision::Disagg {
            prefill: ReplicaId(1),
            decode: ReplicaId(2)
        },
        "router must prefer the instance the observe window reports idle"
    );
}
