//! The pure routing decision core.
//!
//! `route(&RouterState, &RequestFeatures) -> Decision` is a total,
//! deterministic function: no clocks, no RNG draws, no interior
//! mutability. Everything the router knows is in [`RouterState`]
//! (replica snapshots + policy + a tie-breaking seed) and everything
//! about the request is in [`RequestFeatures`]. Identical inputs produce
//! identical decisions, which is what makes the decision log replayable
//! and the core property-testable.
//!
//! ## Scoring
//!
//! All scores are integer token-equivalents (no float accumulation, so
//! cross-platform determinism is trivial). For a request with prompt
//! length `p` and predicted decode length `g`:
//!
//! - **split P/D path** via prefill replica `P` and decode replica `D`:
//!   `score = load(P) + p + transfer_penalty_tokens + load(D) + g`
//! - **colocated path** via replica `C`:
//!   `score = load(C) + p + g + p·active(C)·coloc_interference_num /
//!   coloc_interference_den`
//!
//! where `load(r) = queued_tokens + inflight_tokens +
//! active_decodes·decode_load_weight`. The last colocated term is the
//! paper's prefill/decoding interference: a long prompt executed on an
//! instance with many active decodes stalls all of them, so its cost
//! grows with `p × active`. At low load colocation wins (no KV transfer);
//! under decode pressure or with long prompts the split path wins —
//! exactly the EcoServe-style path migration the router exists for.
//!
//! ## Prefix-cache affinity
//!
//! Requests whose prompt opens with a reusable prefix (multi-turn
//! histories, shared system prompts) carry `prefix_group` /
//! `matched_tokens` / `prefix_hit_prob` features. The state tracks which
//! replica last served each group ([`RouterState::note_prefix_served`],
//! mutated *outside* `route()` like the throttle set, so the core stays
//! pure); scoring discounts the prefill term `p` by `matched ·
//! hit_prob` on that replica only — a cached prefill skips the matched
//! tokens, and only the holder has them resident. That single-replica
//! discount is what makes routing cache-affine (llm-d's endpoint-picker
//! heuristic): the holder wins ties and keeps the group's traffic, until
//! its load premium outgrows the discounted tokens.
//!
//! ## Admission
//!
//! A replica is *eligible* when its health accepts new work and its
//! prefill queue depth is under `queue_cap`. When no eligible replica
//! exists on any viable path but some replica still accepts work, the
//! router queues the request (bounded wait: retry every
//! `retry_gap_secs`, shed once `waited_secs + retry_gap_secs >
//! max_wait_secs`). Sheds therefore only happen above the configured
//! capacity bound — a property test enforces this.
//!
//! ## Tenant throttling
//!
//! A burn-rate monitor (see `observe::burn`) may mark a tenant
//! *throttled* via [`RouterState::set_tenant_throttle`]. Requests from a
//! throttled tenant face stricter admission — half the queue cap, and no
//! bounded-wait queueing (immediate shed when over the reduced cap) — so
//! a tenant burning its error budget stops displacing the others'
//! traffic. The throttle set is part of [`RouterState`], so `route()`
//! stays a pure function of `(state, features)`.

use distserve_faults::InstanceHealth;

use crate::lru::LruMap;

/// Index of a replica within [`RouterState`] (and within the engine's
/// instance vector when the state was built from a simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u32);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica{}", self.0)
    }
}

/// What a replica can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Dedicated prefill instance (split P/D path).
    Prefill,
    /// Dedicated decoding instance (split P/D path).
    Decode,
    /// vLLM-style instance running both phases.
    Colocated,
}

/// Point-in-time view of one replica, as the router sees it.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSnapshot {
    /// Replica identity.
    pub id: ReplicaId,
    /// Execution role.
    pub role: ReplicaRole,
    /// Health state (Down/Draining replicas are never selected).
    pub health: InstanceHealth,
    /// Requests waiting in the prefill queue (admission control input).
    pub queue_depth: u32,
    /// Prompt tokens waiting in the prefill queue.
    pub queued_tokens: u64,
    /// Prompt tokens launched but not finished prefilling.
    pub inflight_tokens: u64,
    /// Requests actively decoding on this replica.
    pub active_decodes: u32,
    /// KV pool occupancy in `[0, 1]`.
    pub kv_utilization: f64,
}

impl ReplicaSnapshot {
    /// An idle, healthy replica (useful as a baseline in tests).
    #[must_use]
    pub fn idle(id: ReplicaId, role: ReplicaRole) -> Self {
        ReplicaSnapshot {
            id,
            role,
            health: InstanceHealth::Up,
            queue_depth: 0,
            queued_tokens: 0,
            inflight_tokens: 0,
            active_decodes: 0,
            kv_utilization: 0.0,
        }
    }

    /// Load in token-equivalents under `policy`.
    #[must_use]
    pub fn load(&self, policy: &RouterPolicy) -> u64 {
        self.queued_tokens
            + self.inflight_tokens
            + u64::from(self.active_decodes) * policy.decode_load_weight
    }
}

/// Router configuration: scoring weights and the admission policy.
#[derive(Debug, Clone, Copy)]
pub struct RouterPolicy {
    /// Per-replica prefill-queue depth above which the replica stops
    /// being eligible for new arrivals (the admission capacity bound).
    pub queue_cap: u32,
    /// Total time a request may wait in the router queue before it is
    /// shed. `0.0` sheds immediately under overload.
    pub max_wait_secs: f64,
    /// Requeue interval while waiting for capacity.
    pub retry_gap_secs: f64,
    /// Token-equivalents of load contributed by one active decode.
    pub decode_load_weight: u64,
    /// Fixed token-equivalent cost of the split path's KV transfer.
    pub transfer_penalty_tokens: u64,
    /// Interference scaling for colocated prefills, as the rational
    /// `num/den` applied to `prompt × active_decodes`. Keep this small:
    /// interference is a transient per-step stall, and overpricing it
    /// herds all traffic onto the dedicated prefill lanes while the
    /// colocated lanes idle (exactly the TTFT collapse the router is
    /// supposed to prevent).
    pub coloc_interference_num: u64,
    /// Denominator of the interference scaling (never zero).
    pub coloc_interference_den: u64,
}

impl Default for RouterPolicy {
    fn default() -> Self {
        RouterPolicy {
            queue_cap: 64,
            max_wait_secs: 2.0,
            retry_gap_secs: 0.25,
            decode_load_weight: 32,
            transfer_penalty_tokens: 96,
            coloc_interference_num: 1,
            coloc_interference_den: 64,
        }
    }
}

/// Everything the decision core consults: replica snapshots, policy, and
/// the deterministic tie-breaking seed. Each role's replicas are kept in
/// tie-break order, so selection is one pass over that role.
#[derive(Debug, Clone)]
pub struct RouterState {
    replicas: Vec<ReplicaSnapshot>,
    policy: RouterPolicy,
    seed: u64,
    /// Per role, replica indices in ascending `mix(seed ^ id)`: the
    /// order in which equally loaded replicas win.
    tie_order: [Vec<u32>; 3],
    /// Tenants under burn-rate throttling, indexed by tenant id (grows
    /// on demand; absent entries mean unthrottled).
    throttled: Vec<bool>,
    /// Which replica last served each prefix group, forgetting the group
    /// noted longest ago at `PREFIX_GROUP_CAP`. Keeps std's randomly
    /// seeded hasher: group ids also arrive from decision logs read as
    /// JSON (`log_from_json`), which may carry ids crafted to collide.
    prefix_holders: LruMap<ReplicaId>,
}

/// Bound on tracked prefix groups: past this, the oldest noted group is
/// forgotten (matching a real cache's finite residency).
const PREFIX_GROUP_CAP: usize = 1 << 16;

fn role_slot(role: ReplicaRole) -> usize {
    match role {
        ReplicaRole::Prefill => 0,
        ReplicaRole::Decode => 1,
        ReplicaRole::Colocated => 2,
    }
}

/// SplitMix64 finalizer: the deterministic tie-break hash.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Refills `tie_order` from `replicas` in place. `mix` is a bijection,
/// so distinct ids never tie.
fn order_ties(tie_order: &mut [Vec<u32>; 3], replicas: &[ReplicaSnapshot], seed: u64) {
    for lane in tie_order.iter_mut() {
        lane.clear();
    }
    for (i, r) in replicas.iter().enumerate() {
        tie_order[role_slot(r.role)].push(i as u32);
    }
    for lane in tie_order.iter_mut() {
        lane.sort_unstable_by_key(|&i| mix(seed ^ u64::from(i)));
    }
}

impl RouterState {
    /// Builds a state over `replicas` (snapshot ids must equal their
    /// vector position) with tie-breaks salted by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot's id disagrees with its position or the
    /// policy's interference denominator is zero.
    #[must_use]
    pub fn new(replicas: Vec<ReplicaSnapshot>, policy: RouterPolicy, seed: u64) -> Self {
        assert!(policy.coloc_interference_den > 0, "zero denominator");
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i, "replica id must match position");
        }
        let mut tie_order = Default::default();
        order_ties(&mut tie_order, &replicas, seed);
        RouterState {
            replicas,
            policy,
            seed,
            tie_order,
            throttled: Vec::new(),
            prefix_holders: LruMap::new(PREFIX_GROUP_CAP),
        }
    }

    /// The replica snapshots, in id order.
    #[must_use]
    pub fn replicas(&self) -> &[ReplicaSnapshot] {
        &self.replicas
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &RouterPolicy {
        &self.policy
    }

    /// The tie-breaking seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rewrites the snapshot set in place, reusing all allocations (the
    /// engine refreshes one persistent state per arrival instead of
    /// building a new one).
    pub fn refresh<I: IntoIterator<Item = ReplicaSnapshot>>(&mut self, replicas: I) {
        self.replicas.clear();
        self.replicas.extend(replicas);
        for (i, r) in self.replicas.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i, "replica id must match position");
        }
        order_ties(&mut self.tie_order, &self.replicas, self.seed);
    }

    /// Applies `edit` to one snapshot in O(1). This is the scale
    /// simulator's hot path.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `edit` changes the role.
    pub fn update(&mut self, id: ReplicaId, edit: impl FnOnce(&mut ReplicaSnapshot)) {
        let i = id.0 as usize;
        let role = self.replicas[i].role;
        edit(&mut self.replicas[i]);
        assert!(self.replicas[i].role == role, "role is immutable");
    }

    /// Marks (or clears) burn-rate throttling for `tenant`. While
    /// throttled, the tenant's fresh arrivals face half the queue cap
    /// and are shed instead of queueing when over it.
    pub fn set_tenant_throttle(&mut self, tenant: u32, on: bool) {
        let i = tenant as usize;
        if i >= self.throttled.len() {
            if !on {
                return;
            }
            self.throttled.resize(i + 1, false);
        }
        self.throttled[i] = on;
    }

    /// Records that `replica` just served (and therefore now caches) a
    /// request of prefix group `group`. Called by the dispatch harness
    /// *after* acting on a decision — like [`Self::set_tenant_throttle`],
    /// mutation stays outside `route()` so the core remains pure. Group
    /// 0 (no reusable prefix) is ignored. Tracking is bounded at
    /// `PREFIX_GROUP_CAP` groups, the least recently noted forgotten
    /// first; each note is O(1).
    pub fn note_prefix_served(&mut self, group: u64, replica: ReplicaId) {
        if group != 0 {
            self.prefix_holders.upsert(group, |_| replica);
        }
    }

    /// The replica that last served `group`, if still tracked.
    #[must_use]
    pub fn prefix_holder(&self, group: u64) -> Option<ReplicaId> {
        if group == 0 {
            return None;
        }
        self.prefix_holders.get(group)
    }

    /// Whether `tenant` is currently throttled.
    #[must_use]
    pub fn tenant_throttled(&self, tenant: u32) -> bool {
        self.throttled
            .get(tenant as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Least-loaded replica of `role` passing `eligible`. Ties break on
    /// `mix(seed ^ id)` so equal replicas share work instead of herding
    /// onto the lowest id: the pass runs in tie order and keeps the first
    /// strict minimum of load.
    fn best(
        &self,
        role: ReplicaRole,
        mut eligible: impl FnMut(&ReplicaSnapshot) -> bool,
    ) -> Option<&ReplicaSnapshot> {
        let mut found: Option<(u64, &ReplicaSnapshot)> = None;
        for &i in &self.tie_order[role_slot(role)] {
            let r = &self.replicas[i as usize];
            if !eligible(r) {
                continue;
            }
            let load = r.load(&self.policy);
            if found.is_none_or(|(least, _)| load < least) {
                found = Some((load, r));
            }
        }
        found.map(|(_, r)| r)
    }

    /// Whether any replica of `role` currently accepts new work.
    fn any_accepting(&self, role: ReplicaRole) -> bool {
        self.replicas
            .iter()
            .any(|r| r.role == role && r.health.accepts_new_work())
    }
}

/// Feature vector of one arriving request.
#[derive(Debug, Clone, Copy)]
pub struct RequestFeatures {
    /// Request identity (only used for logging/tie-breaks, never for
    /// ordering decisions).
    pub id: u64,
    /// Prompt length in tokens.
    pub prompt_len: u32,
    /// Estimated decode length in tokens (a predictor output; the sim
    /// harness uses the oracle value).
    pub predicted_decode_len: u32,
    /// Tenant the request belongs to (`workload::TenantSpec` index; `0`
    /// for single-tenant workloads). Consulted against the state's
    /// throttle set.
    pub tenant: u32,
    /// Time this request has already spent queued at the router.
    pub waited_secs: f64,
    /// Re-dispatch after a fault: the system already admitted this
    /// request once, so admission control is bypassed.
    pub readmission: bool,
    /// Identity of the prompt's reusable-prefix lineage (conversation or
    /// shared system prompt); 0 = no reusable prefix. Consulted against
    /// the state's prefix-holder map for cache-affine placement.
    pub prefix_group: u64,
    /// Leading prompt tokens a warm prefix cache would skip (whole-block
    /// granularity is the executor's concern; the router treats this as
    /// an upper bound on saved prefill work).
    pub matched_tokens: u32,
    /// Probability the prefix is still resident where the group last
    /// ran (an analytic hit model or cache telemetry feeds this).
    pub prefix_hit_prob: f64,
}

impl RequestFeatures {
    /// Features for a fresh arrival.
    #[must_use]
    pub fn arrival(id: u64, prompt_len: u32, predicted_decode_len: u32) -> Self {
        RequestFeatures {
            id,
            prompt_len,
            predicted_decode_len,
            tenant: 0,
            waited_secs: 0.0,
            readmission: false,
            prefix_group: 0,
            matched_tokens: 0,
            prefix_hit_prob: 0.0,
        }
    }

    /// The same features tagged with a tenant id.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same features carrying prefix-cache context: the request's
    /// lineage, how many leading tokens a warm cache would skip, and the
    /// probability they are still resident on the lineage's holder.
    #[must_use]
    pub fn with_prefix(mut self, group: u64, matched_tokens: u32, hit_prob: f64) -> Self {
        self.prefix_group = group;
        self.matched_tokens = matched_tokens;
        self.prefix_hit_prob = hit_prob;
        self
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every eligible replica is at or over `queue_cap` and the wait
    /// budget is exhausted.
    OverCapacity,
    /// No healthy replica can execute the request on any path.
    NoCapablePath,
}

/// The routing verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Execute split: prefill on `prefill`, decode on the hinted replica
    /// (the engine re-binds decode at prefill completion per §4.3; the
    /// scale simulator uses the hint directly).
    Disagg {
        /// Chosen prefill replica.
        prefill: ReplicaId,
        /// Least-loaded decode replica at decision time.
        decode: ReplicaId,
    },
    /// Execute both phases on one colocated replica.
    Coloc {
        /// Chosen colocated replica.
        replica: ReplicaId,
    },
    /// All paths over capacity: hold the request and re-route after this
    /// many seconds.
    Queue {
        /// Retry delay, seconds.
        retry_after_secs: f64,
    },
    /// Reject the request.
    Shed {
        /// Why it was rejected.
        reason: ShedReason,
    },
}

/// Routes one request. Pure and deterministic: identical
/// `(RouterState, RequestFeatures)` pairs (including the state's seed)
/// always produce identical decisions.
#[must_use]
pub fn route(state: &RouterState, req: &RequestFeatures) -> Decision {
    route_with_holder(state, req, state.prefix_holder(req.prefix_group))
}

/// [`route`] for a caller that has already looked up `holder`, the
/// state's [`RouterState::prefix_holder`] for `req.prefix_group`.
pub(crate) fn route_with_holder(
    state: &RouterState,
    req: &RequestFeatures,
    holder: Option<ReplicaId>,
) -> Decision {
    let policy = state.policy;
    let throttled = state.tenant_throttled(req.tenant);
    // Throttled tenants face half the admission headroom (floor 1 so a
    // healthy idle fleet still serves them).
    let cap = if throttled {
        (policy.queue_cap / 2).max(1)
    } else {
        policy.queue_cap
    };
    let eligible = |r: &ReplicaSnapshot| {
        r.health.accepts_new_work() && (req.readmission || r.queue_depth < cap)
    };

    let prompt = u64::from(req.prompt_len);
    let predicted = u64::from(req.predicted_decode_len);

    // Prefix-cache discount: only the group's holder has the matched
    // tokens resident, and a warm prefill skips them. Quantized to
    // per-mille so scores stay integer-deterministic; capped at
    // `prompt − 1` (the final prompt token is always recomputed — its
    // logits seed decoding).
    let hit_pm = (req.prefix_hit_prob.clamp(0.0, 1.0) * 1000.0).round() as u64;
    let matched = u64::from(req.matched_tokens).min(prompt.saturating_sub(1));
    let saved_on = |id: ReplicaId| -> u64 {
        if holder == Some(id) {
            matched * hit_pm / 1000
        } else {
            0
        }
    };
    // The holder as a scoring candidate alongside the least-loaded pick
    // (it may carry more load yet win on discounted tokens).
    let holder_snap = holder.and_then(|id| state.replicas.get(id.0 as usize));

    // Split path: needs an eligible prefill replica and an accepting
    // decode replica (decode admission happens at transfer time against
    // KV capacity, not queue depth).
    let split = state.best(ReplicaRole::Prefill, eligible).and_then(|p| {
        let d = state.best(ReplicaRole::Decode, |r| r.health.accepts_new_work())?;
        let score_via = |p: &ReplicaSnapshot| {
            p.load(&policy)
                + (prompt - saved_on(p.id))
                + policy.transfer_penalty_tokens
                + d.load(&policy)
                + predicted
        };
        let mut pick = (score_via(p), p.id);
        if let Some(h) = holder_snap {
            if h.role == ReplicaRole::Prefill && h.id != p.id && eligible(h) {
                let hs = score_via(h);
                if hs < pick.0 {
                    pick = (hs, h.id);
                }
            }
        }
        Some((pick.0, pick.1, d.id))
    });

    // Colocated path: one replica runs both phases; its cost includes
    // the prefill/decoding interference term (on the *discounted*
    // prompt — cached tokens are never executed, so they stall no one).
    let coloc = state.best(ReplicaRole::Colocated, eligible).map(|c| {
        let score_via = |c: &ReplicaSnapshot| {
            let eff = prompt - saved_on(c.id);
            let interference = eff * u64::from(c.active_decodes) * policy.coloc_interference_num
                / policy.coloc_interference_den;
            c.load(&policy) + eff + predicted + interference
        };
        let mut pick = (score_via(c), c.id);
        if let Some(h) = holder_snap {
            if h.role == ReplicaRole::Colocated && h.id != c.id && eligible(h) {
                let hs = score_via(h);
                if hs < pick.0 {
                    pick = (hs, h.id);
                }
            }
        }
        pick
    });

    match (split, coloc) {
        (Some((s, p, d)), Some((c, _))) if s <= c => Decision::Disagg {
            prefill: p,
            decode: d,
        },
        (_, Some((_, c))) => Decision::Coloc { replica: c },
        (Some((_, p, d)), None) => Decision::Disagg {
            prefill: p,
            decode: d,
        },
        (None, None) => {
            // No eligible replica. If something still accepts work the
            // fleet is merely over its queue cap: wait (bounded) for
            // capacity. Otherwise nothing can run the request at all.
            let split_accepts = state.any_accepting(ReplicaRole::Prefill)
                && state.any_accepting(ReplicaRole::Decode);
            let path_exists = split_accepts || state.any_accepting(ReplicaRole::Colocated);
            if !path_exists {
                return Decision::Shed {
                    reason: ShedReason::NoCapablePath,
                };
            }
            // Throttled tenants don't get the bounded-wait grace: holding
            // their requests in the router queue is exactly the budget
            // burn the throttle exists to stop.
            if !throttled && req.waited_secs + policy.retry_gap_secs <= policy.max_wait_secs {
                Decision::Queue {
                    retry_after_secs: policy.retry_gap_secs,
                }
            } else {
                Decision::Shed {
                    reason: ShedReason::OverCapacity,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(spec: &[(ReplicaRole, u64, u32)]) -> Vec<ReplicaSnapshot> {
        spec.iter()
            .enumerate()
            .map(|(i, &(role, queued_tokens, queue_depth))| ReplicaSnapshot {
                queued_tokens,
                queue_depth,
                ..ReplicaSnapshot::idle(ReplicaId(i as u32), role)
            })
            .collect()
    }

    #[test]
    fn picks_least_loaded_prefill() {
        let state = RouterState::new(
            fleet(&[
                (ReplicaRole::Prefill, 4000, 3),
                (ReplicaRole::Prefill, 10, 1),
                (ReplicaRole::Decode, 0, 0),
            ]),
            RouterPolicy::default(),
            7,
        );
        let d = route(&state, &RequestFeatures::arrival(0, 512, 64));
        assert_eq!(
            d,
            Decision::Disagg {
                prefill: ReplicaId(1),
                decode: ReplicaId(2)
            }
        );
    }

    #[test]
    fn idle_coloc_beats_split_transfer_cost() {
        // With everything idle the colocated path avoids the KV
        // transfer penalty and wins.
        let state = RouterState::new(
            fleet(&[
                (ReplicaRole::Prefill, 0, 0),
                (ReplicaRole::Decode, 0, 0),
                (ReplicaRole::Colocated, 0, 0),
            ]),
            RouterPolicy::default(),
            7,
        );
        let d = route(&state, &RequestFeatures::arrival(0, 256, 64));
        assert_eq!(
            d,
            Decision::Coloc {
                replica: ReplicaId(2)
            }
        );
    }

    #[test]
    fn long_prompt_under_decode_pressure_splits() {
        let mut replicas = fleet(&[
            (ReplicaRole::Prefill, 0, 0),
            (ReplicaRole::Decode, 0, 0),
            (ReplicaRole::Colocated, 0, 0),
        ]);
        replicas[2].active_decodes = 48;
        let state = RouterState::new(replicas, RouterPolicy::default(), 7);
        let d = route(&state, &RequestFeatures::arrival(0, 1024, 64));
        assert!(
            matches!(d, Decision::Disagg { .. }),
            "interference must push the long prompt to the split path, got {d:?}"
        );
    }

    #[test]
    fn down_replicas_never_selected() {
        let mut replicas = fleet(&[
            (ReplicaRole::Prefill, 0, 0),
            (ReplicaRole::Prefill, 900, 2),
            (ReplicaRole::Decode, 0, 0),
        ]);
        replicas[0].health = InstanceHealth::Down;
        let state = RouterState::new(replicas, RouterPolicy::default(), 7);
        let d = route(&state, &RequestFeatures::arrival(0, 128, 32));
        assert_eq!(
            d,
            Decision::Disagg {
                prefill: ReplicaId(1),
                decode: ReplicaId(2)
            }
        );
    }

    #[test]
    fn overload_queues_then_sheds() {
        let policy = RouterPolicy {
            queue_cap: 2,
            max_wait_secs: 1.0,
            retry_gap_secs: 0.5,
            ..RouterPolicy::default()
        };
        let state = RouterState::new(
            fleet(&[(ReplicaRole::Prefill, 500, 2), (ReplicaRole::Decode, 0, 0)]),
            policy,
            7,
        );
        let mut req = RequestFeatures::arrival(0, 128, 32);
        assert_eq!(
            route(&state, &req),
            Decision::Queue {
                retry_after_secs: 0.5
            }
        );
        req.waited_secs = 1.0;
        assert_eq!(
            route(&state, &req),
            Decision::Shed {
                reason: ShedReason::OverCapacity
            }
        );
    }

    #[test]
    fn readmission_bypasses_queue_cap() {
        let policy = RouterPolicy {
            queue_cap: 1,
            ..RouterPolicy::default()
        };
        let state = RouterState::new(
            fleet(&[(ReplicaRole::Prefill, 500, 5), (ReplicaRole::Decode, 0, 0)]),
            policy,
            7,
        );
        let req = RequestFeatures {
            readmission: true,
            ..RequestFeatures::arrival(0, 128, 32)
        };
        assert!(matches!(route(&state, &req), Decision::Disagg { .. }));
    }

    #[test]
    fn no_capable_path_sheds_with_reason() {
        let mut replicas = fleet(&[(ReplicaRole::Prefill, 0, 0), (ReplicaRole::Decode, 0, 0)]);
        replicas[1].health = InstanceHealth::Down;
        let state = RouterState::new(replicas, RouterPolicy::default(), 7);
        let d = route(&state, &RequestFeatures::arrival(0, 128, 32));
        assert_eq!(
            d,
            Decision::Shed {
                reason: ShedReason::NoCapablePath
            }
        );
    }

    #[test]
    fn update_steers_selection() {
        let mut state = RouterState::new(
            fleet(&[
                (ReplicaRole::Prefill, 0, 0),
                (ReplicaRole::Prefill, 0, 0),
                (ReplicaRole::Decode, 0, 0),
            ]),
            RouterPolicy::default(),
            7,
        );
        // Pile work onto replica 0; selection must steer to replica 1.
        state.update(ReplicaId(0), |r| {
            r.queued_tokens = 100_000;
            r.queue_depth = 10;
        });
        let d = route(&state, &RequestFeatures::arrival(0, 128, 32));
        assert_eq!(
            d,
            Decision::Disagg {
                prefill: ReplicaId(1),
                decode: ReplicaId(2)
            }
        );
        // And back.
        state.update(ReplicaId(0), |r| {
            r.queued_tokens = 0;
            r.queue_depth = 0;
        });
        state.update(ReplicaId(1), |r| r.queued_tokens = 9_999);
        let d = route(&state, &RequestFeatures::arrival(1, 128, 32));
        assert_eq!(
            d,
            Decision::Disagg {
                prefill: ReplicaId(0),
                decode: ReplicaId(2)
            }
        );
    }

    #[test]
    fn throttled_tenant_faces_half_cap_and_no_queue_grace() {
        let policy = RouterPolicy {
            queue_cap: 4,
            max_wait_secs: 2.0,
            retry_gap_secs: 0.25,
            ..RouterPolicy::default()
        };
        // Queue depth 3: under the full cap (4) but at the throttled
        // cap (2).
        let mut state = RouterState::new(
            fleet(&[(ReplicaRole::Prefill, 500, 3), (ReplicaRole::Decode, 0, 0)]),
            policy,
            7,
        );
        let normal = RequestFeatures::arrival(0, 128, 32).with_tenant(1);
        assert!(matches!(route(&state, &normal), Decision::Disagg { .. }));

        state.set_tenant_throttle(1, true);
        assert!(state.tenant_throttled(1));
        // Same fleet, same request: now over the halved cap, and the
        // throttle also denies the bounded-wait queue.
        assert_eq!(
            route(&state, &normal),
            Decision::Shed {
                reason: ShedReason::OverCapacity
            }
        );
        // Other tenants are unaffected.
        let other = RequestFeatures::arrival(1, 128, 32).with_tenant(0);
        assert!(matches!(route(&state, &other), Decision::Disagg { .. }));

        state.set_tenant_throttle(1, false);
        assert!(!state.tenant_throttled(1));
        assert!(matches!(route(&state, &normal), Decision::Disagg { .. }));
    }

    #[test]
    fn throttle_set_grows_on_demand_and_defaults_off() {
        let mut state = RouterState::new(
            fleet(&[(ReplicaRole::Colocated, 0, 0)]),
            RouterPolicy::default(),
            7,
        );
        assert!(!state.tenant_throttled(900));
        // Clearing an unknown tenant must not allocate.
        state.set_tenant_throttle(900, false);
        assert!(!state.tenant_throttled(900));
        state.set_tenant_throttle(3, true);
        assert!(state.tenant_throttled(3));
        assert!(!state.tenant_throttled(2));
    }

    #[test]
    fn prefix_holder_wins_despite_load_premium() {
        // Replica 0 holds the group's prefix but carries more load than
        // replica 1. The discount (900 of 1000 prompt tokens at
        // certainty) outweighs the 500-token load premium.
        let mut state = RouterState::new(
            fleet(&[
                (ReplicaRole::Prefill, 600, 1),
                (ReplicaRole::Prefill, 100, 0),
                (ReplicaRole::Decode, 0, 0),
            ]),
            RouterPolicy::default(),
            7,
        );
        state.note_prefix_served(42, ReplicaId(0));
        assert_eq!(state.prefix_holder(42), Some(ReplicaId(0)));
        let req = RequestFeatures::arrival(0, 1000, 64).with_prefix(42, 900, 1.0);
        assert_eq!(
            route(&state, &req),
            Decision::Disagg {
                prefill: ReplicaId(0),
                decode: ReplicaId(2)
            }
        );
        // Without the prefix context the load premium decides.
        let cold = RequestFeatures::arrival(1, 1000, 64);
        assert_eq!(
            route(&state, &cold),
            Decision::Disagg {
                prefill: ReplicaId(1),
                decode: ReplicaId(2)
            }
        );
        // A low hit probability shrinks the discount below the premium.
        let stale = RequestFeatures::arrival(2, 1000, 64).with_prefix(42, 900, 0.2);
        assert_eq!(
            route(&state, &stale),
            Decision::Disagg {
                prefill: ReplicaId(1),
                decode: ReplicaId(2)
            }
        );
    }

    #[test]
    fn coloc_discount_applies_to_interference_too() {
        // The colocated holder discounts both the prefill tokens and
        // the interference they would have caused.
        let mut replicas = fleet(&[
            (ReplicaRole::Colocated, 300, 0),
            (ReplicaRole::Colocated, 0, 0),
        ]);
        replicas[0].active_decodes = 8;
        let mut state = RouterState::new(replicas, RouterPolicy::default(), 7);
        state.note_prefix_served(9, ReplicaId(0));
        // Load premium: 300 + 8·32 = 556 token-equivalents. Discount at
        // full certainty: 960 prompt tokens + 960·8/64 = 120
        // interference tokens.
        let req = RequestFeatures::arrival(0, 1024, 32).with_prefix(9, 960, 1.0);
        assert_eq!(
            route(&state, &req),
            Decision::Coloc {
                replica: ReplicaId(0)
            }
        );
        let cold = RequestFeatures::arrival(1, 1024, 32);
        assert_eq!(
            route(&state, &cold),
            Decision::Coloc {
                replica: ReplicaId(1)
            }
        );
    }

    #[test]
    fn ineligible_holder_loses_affinity() {
        let mut replicas = fleet(&[
            (ReplicaRole::Prefill, 0, 70), // Over the queue cap.
            (ReplicaRole::Prefill, 50, 0),
            (ReplicaRole::Decode, 0, 0),
        ]);
        replicas[0].queued_tokens = 10;
        let mut state = RouterState::new(replicas, RouterPolicy::default(), 7);
        state.note_prefix_served(5, ReplicaId(0));
        let req = RequestFeatures::arrival(0, 800, 64).with_prefix(5, 512, 1.0);
        assert_eq!(
            route(&state, &req),
            Decision::Disagg {
                prefill: ReplicaId(1),
                decode: ReplicaId(2)
            }
        );
    }

    #[test]
    fn matched_tokens_capped_below_prompt() {
        // A (bogus) claim of matching the whole prompt must still leave
        // one token of prefill in the score: matched is capped at
        // prompt − 1, so the saturating subtraction never underflows
        // and scores stay ordered.
        let mut state = RouterState::new(
            fleet(&[(ReplicaRole::Prefill, 0, 0), (ReplicaRole::Decode, 0, 0)]),
            RouterPolicy::default(),
            7,
        );
        state.note_prefix_served(3, ReplicaId(0));
        let req = RequestFeatures::arrival(0, 64, 8).with_prefix(3, 5000, 1.0);
        assert!(matches!(route(&state, &req), Decision::Disagg { .. }));
    }

    #[test]
    fn prefix_tracking_is_bounded_and_group_zero_ignored() {
        let mut state = RouterState::new(
            fleet(&[(ReplicaRole::Colocated, 0, 0)]),
            RouterPolicy::default(),
            7,
        );
        state.note_prefix_served(0, ReplicaId(0));
        assert_eq!(state.prefix_holder(0), None);
        // Overflow the cap; the earliest groups are forgotten, the
        // newest survive, and re-notes neither grow the map nor let a
        // still-noted group age out.
        let last = PREFIX_GROUP_CAP as u64 + 10;
        for g in 1..=last {
            state.note_prefix_served(g, ReplicaId(0));
            state.note_prefix_served(7, ReplicaId(0));
        }
        for _ in 0..(4 * PREFIX_GROUP_CAP) {
            state.note_prefix_served(7, ReplicaId(0));
        }
        assert_eq!(state.prefix_holder(1), None);
        assert_eq!(state.prefix_holder(last), Some(ReplicaId(0)));
        assert_eq!(state.prefix_holder(7), Some(ReplicaId(0)));
        assert_eq!(state.prefix_holders.len(), PREFIX_GROUP_CAP);
    }
}
