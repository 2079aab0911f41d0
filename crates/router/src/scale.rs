//! Cluster-scale routed serving simulator.
//!
//! The engine's token-granular simulator (`distserve_engine`-level
//! fidelity) prices every decode iteration; that is the right tool for
//! latency attribution but caps out far below the request volumes a
//! frontend tier must be tested at. This module trades token granularity
//! for *request* granularity: each replica is a calibrated service
//! model (serial prefill clock, concurrency-priced decode pool), so one
//! request costs a bounded amount of routing work plus two
//! future-event-list operations, and 10M+ requests stream through in
//! seconds.
//!
//! Hot-path design, per the profile of `engine/src/sim.rs`:
//!
//! - **No per-request allocation.** In-flight requests live in a pooled
//!   slab (`ScaleSim::pool`) with an intrusive free list; the decision
//!   log, records, and hash maps of the engine path are all absent.
//! - **One pass per role.** Load changes edit the router's snapshots in
//!   place ([`RouterState::update`], O(1)) instead of rebuilding the
//!   state per arrival. Routing makes one pass over each role's
//!   replicas, kept in tie-break order, so it costs O(fleet) with no
//!   hashing (the fleets here hold at most a few dozen replicas).
//! - **O(1) prefix directories.** A request with a prefix lineage adds
//!   a fixed number of hash probes, whatever the directories hold: one
//!   holder lookup and one read of the holder's directory while routing,
//!   then one upsert into the target's directory (returning what it
//!   cached before) and one into the router's holder map when prefill is
//!   booked.
//! - **Streaming workload.** Arrivals come from any
//!   `Iterator<Item = Request>` (see `distserve_workload`'s streaming
//!   generators), so the trace is never materialized.
//!
//! Two optional hooks keep those properties while making runs
//! observable:
//!
//! - **Causal tracing** ([`ScaleSim::set_tracing`]): every request
//!   emits a parent/child span family ([`SpanEvent`]) — router decision,
//!   prefill queue/exec, KV transfer, decode — into a
//!   [`TelemetrySink`]; pair it with `distserve_trace::TailSampler` to
//!   keep only the interesting traces at O(live requests) memory.
//! - **Completion log** ([`ScaleSim::log_completions`]): per-request
//!   `(tenant, time, slo_ok, shed)` tuples for burn-rate monitors,
//!   drained between steps of the step-driven API ([`ScaleSim::offer`]
//!   / [`ScaleSim::drain_until`]) so a driver can throttle tenants
//!   mid-run ([`ScaleSim::set_tenant_throttle`]).
//!
//! Everything is deterministic given the workload stream and seed.

use std::hash::BuildHasherDefault;
use std::sync::Arc;

use distserve_simcore::{EventQueue, FxHasher, SimTime};
use distserve_telemetry::{
    span_flags, trace_id, SpanEvent, SpanKind, TelemetrySink, TraceCtx, NOOP,
};
use distserve_workload::{Request, SessionRequest};

use crate::decision::{
    route_with_holder, Decision, ReplicaId, ReplicaRole, ReplicaSnapshot, RequestFeatures,
    RouterPolicy, RouterState,
};
use crate::lru::LruMap;

/// Calibrated per-replica service model, seconds.
#[derive(Debug, Clone, Copy)]
pub struct ServiceProfile {
    /// Fixed prefill launch overhead.
    pub prefill_fixed_s: f64,
    /// Prefill compute per prompt token.
    pub prefill_per_token_s: f64,
    /// Fixed KV-transfer latency (split path only).
    pub transfer_fixed_s: f64,
    /// KV-transfer wire time per prompt token (split path only).
    pub transfer_per_token_s: f64,
    /// Decode step time at concurrency 1.
    pub decode_step_base_s: f64,
    /// Added step time per concurrent decode (batching pressure).
    pub decode_step_per_active_s: f64,
    /// Added step time on a colocated replica whose prefill lane is
    /// busy (the interference term the split path removes).
    pub coloc_interference_s: f64,
}

impl ServiceProfile {
    /// Roughly an A100 serving a 13B model (the paper's chatbot point):
    /// ~130 ms to prefill 512 tokens, ~25 ms decode steps that stretch
    /// under batching, ~1.5 ms to move a 512-token KV cache.
    #[must_use]
    pub fn a100_13b() -> Self {
        ServiceProfile {
            prefill_fixed_s: 0.004,
            prefill_per_token_s: 0.000_25,
            transfer_fixed_s: 0.000_8,
            transfer_per_token_s: 0.000_001_5,
            decode_step_base_s: 0.025,
            decode_step_per_active_s: 0.000_15,
            coloc_interference_s: 0.012,
        }
    }
}

/// Fleet composition for a scale run.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Dedicated prefill replicas.
    pub prefill: u32,
    /// Dedicated decode replicas.
    pub decode: u32,
    /// Colocated replicas.
    pub colocated: u32,
    /// Shared service model.
    pub profile: ServiceProfile,
}

impl FleetSpec {
    /// Total replica count.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.prefill + self.decode + self.colocated
    }

    fn roles(&self) -> impl Iterator<Item = ReplicaRole> + '_ {
        std::iter::repeat_n(ReplicaRole::Prefill, self.prefill as usize)
            .chain(std::iter::repeat_n(
                ReplicaRole::Decode,
                self.decode as usize,
            ))
            .chain(std::iter::repeat_n(
                ReplicaRole::Colocated,
                self.colocated as usize,
            ))
    }
}

/// SLO thresholds used for goodput accounting.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSlo {
    /// Time to first token, seconds.
    pub ttft_s: f64,
    /// Time per output token, seconds.
    pub tpot_s: f64,
}

/// Routing mode for a run.
#[derive(Debug, Clone, Copy)]
pub enum Assignment {
    /// The EPP-style decision core: load-aware path choice + admission.
    Routed,
    /// Static hash assignment over entry replicas (prefill + colocated),
    /// no load awareness, no admission control — the baseline the
    /// routed goodput must beat at matched SLOs.
    Static,
}

/// Aggregated outcome of one scale run (no per-request records are
/// retained — the point is to stream).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScaleOutcome {
    /// Requests offered.
    pub offered: u64,
    /// Requests that completed decoding.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Completions meeting both SLOs.
    pub slo_ok: u64,
    /// Router requeue consultations (bounded-wait holds).
    pub requeues: u64,
    /// Simulated span from first arrival to last completion, seconds.
    pub sim_secs: f64,
    /// Mean TTFT over completions, seconds.
    pub mean_ttft_s: f64,
    /// Mean TPOT over completions, seconds.
    pub mean_tpot_s: f64,
    /// Requests whose booked prefill was discounted by a prefix-cache
    /// hit on the replica that served them.
    pub prefix_hits: u64,
    /// Total prompt tokens skipped across those hits.
    pub cached_prompt_tokens: u64,
}

impl ScaleOutcome {
    /// Goodput: SLO-attaining completions per simulated second.
    #[must_use]
    pub fn goodput_rps(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.slo_ok as f64 / self.sim_secs
        } else {
            0.0
        }
    }

    /// Fraction of *offered* requests that met both SLOs (sheds count
    /// as misses, exactly like the engine's attainment).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.offered > 0 {
            self.slo_ok as f64 / self.offered as f64
        } else {
            0.0
        }
    }

    /// Fraction of offered requests whose prefill was served (at least
    /// partially) out of a replica's prefix cache.
    #[must_use]
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.offered > 0 {
            self.prefix_hits as f64 / self.offered as f64
        } else {
            0.0
        }
    }
}

/// One terminal request outcome, for burn-rate monitors driving the
/// step-driven API. Only populated when [`ScaleSim::log_completions`]
/// is on, and meant to be drained every step — the buffer is the only
/// per-request state that outlives the slot.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Tenant the request belonged to.
    pub tenant: u32,
    /// Simulated completion (or shed) time, seconds.
    pub time_s: f64,
    /// Whether admission shed the request.
    pub shed: bool,
    /// Whether the completion met both SLOs (`false` for sheds).
    pub slo_ok: bool,
}

/// Scale-sim events. Requests are identified by pool slot, not id — the
/// slab is the only per-request state.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Prefill (and, split path, transfer) finished for the slot.
    FirstToken(u32),
    /// Decoding finished for the slot.
    Done(u32),
    /// A queued request re-consults the router.
    Retry(u32),
}

/// Pooled per-request state. `next_free` makes freed slots an intrusive
/// free list, so steady-state runs allocate nothing.
#[derive(Debug, Clone, Copy)]
struct Slot {
    req_id: u64,
    arrival: SimTime,
    prompt: u32,
    decode_len: u32,
    tenant: u32,
    waited_secs: f64,
    ttft_s: f64,
    tpot_s: f64,
    prefill_on: ReplicaId,
    decode_on: ReplicaId,
    /// Reusable-prefix lineage (0 = none; see
    /// [`SessionRequest::prefix_group`]).
    prefix_group: u64,
    /// Prompt tokens actually booked on the prefill lane (prompt minus
    /// any prefix-cache discount; set when prefill is booked).
    billed_tokens: u32,
    /// Next span id to allocate for this request's trace (0 is the
    /// root, so children start at 1).
    next_span: u32,
    next_free: u32,
}

const NO_SLOT: u32 = u32::MAX;

/// Track id stamped on spans that ran on no replica (router-side work,
/// shed roots).
const NO_TRACK: u32 = u32::MAX;

/// Per-replica service state (parallel to the router's snapshots).
#[derive(Debug, Clone, Copy)]
struct Server {
    role: ReplicaRole,
    /// Serial prefill lane: next instant the lane is free.
    prefill_free_at: SimTime,
    /// Concurrent decodes.
    active: u32,
}

/// Prefix-group lineages a replica may cache concurrently. Sized like a
/// real radix cache bounded by KV capacity: big enough that a tenant mix
/// of system prompts fits, small enough that per-session lineages churn.
const GROUPS_PER_SERVER: usize = 256;

/// Emulated per-replica prefix-cache directory: a bounded LRU of
/// `(group → cached prefix tokens)`, refreshed each time the replica
/// prefills a prompt of the group. This is the request-granular
/// abstraction of `distserve_prefix::PrefixCache` — no token content,
/// just how much of a lineage's prompt the replica could serve from
/// cache. In session workloads every request carries a group and
/// consults directories twice (a read while routing, an upsert when
/// prefill is booked), each an O(1) hash probe. Group ids come from
/// in-process workload generators, so the directories hash them with the
/// fixed-multiplier [`FxHasher`] instead of SipHash.
type GroupCache = LruMap<u32, BuildHasherDefault<FxHasher>>;

/// The request-granular simulator.
pub struct ScaleSim {
    fleet: FleetSpec,
    slo: ScaleSlo,
    assignment: Assignment,
    state: RouterState,
    servers: Vec<Server>,
    prefix_dirs: Vec<GroupCache>,
    events: EventQueue<Ev>,
    pool: Vec<Slot>,
    free_head: u32,
    outcome: ScaleOutcome,
    ttft_sum: f64,
    tpot_sum: f64,
    last_completion: SimTime,
    first_arrival: Option<SimTime>,
    rr_cursor: u64,
    sink: Arc<dyn TelemetrySink>,
    /// Cached `sink.enabled()` so the untraced hot path pays nothing.
    traced: bool,
    trace_seed: u64,
    completions: Vec<Completion>,
    completions_on: bool,
}

impl ScaleSim {
    /// Builds a simulator over `fleet` with the given routing policy.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet or a fleet with prefill but no decode
    /// replicas (no executable path).
    #[must_use]
    pub fn new(
        fleet: FleetSpec,
        policy: RouterPolicy,
        slo: ScaleSlo,
        assignment: Assignment,
        seed: u64,
    ) -> Self {
        assert!(fleet.total() > 0, "empty fleet");
        assert!(
            fleet.prefill == 0 || fleet.decode > 0,
            "prefill replicas need at least one decode replica"
        );
        assert!(
            fleet.prefill > 0 || fleet.colocated > 0,
            "fleet has no entry replicas"
        );
        let replicas: Vec<ReplicaSnapshot> = fleet
            .roles()
            .enumerate()
            .map(|(i, role)| ReplicaSnapshot::idle(ReplicaId(i as u32), role))
            .collect();
        let servers = replicas
            .iter()
            .map(|r| Server {
                role: r.role,
                prefill_free_at: SimTime::ZERO,
                active: 0,
            })
            .collect();
        let prefix_dirs = vec![GroupCache::new(GROUPS_PER_SERVER); fleet.total() as usize];
        ScaleSim {
            fleet,
            slo,
            assignment,
            state: RouterState::new(replicas, policy, seed),
            servers,
            prefix_dirs,
            events: EventQueue::new(),
            pool: Vec::new(),
            free_head: NO_SLOT,
            outcome: ScaleOutcome::default(),
            ttft_sum: 0.0,
            tpot_sum: 0.0,
            last_completion: SimTime::ZERO,
            first_arrival: None,
            rr_cursor: 0,
            sink: Arc::new(NOOP),
            traced: false,
            trace_seed: seed,
            completions: Vec::new(),
            completions_on: false,
        }
    }

    /// Attaches a span sink (e.g. `distserve_trace::TailSampler`) and
    /// the seed trace ids are derived from. Every request then emits its
    /// causal span family; with the default no-op sink the run pays
    /// nothing.
    pub fn set_tracing(&mut self, sink: Arc<dyn TelemetrySink>, trace_seed: u64) {
        self.traced = sink.enabled();
        self.sink = sink;
        self.trace_seed = trace_seed;
    }

    /// Turns per-request completion logging on or off (see
    /// [`Completion`]). Drain with [`ScaleSim::drain_completions`] or
    /// the buffer grows with every terminal request.
    pub fn log_completions(&mut self, on: bool) {
        self.completions_on = on;
    }

    /// Drains the buffered completions accumulated since the last call.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.completions.drain(..)
    }

    /// Marks (or clears) burn-rate throttling for `tenant` on the
    /// underlying router state — the admission arm of the burn-rate
    /// control loop.
    pub fn set_tenant_throttle(&mut self, tenant: u32, on: bool) {
        self.state.set_tenant_throttle(tenant, on);
    }

    fn alloc_slot(&mut self, slot: Slot) -> u32 {
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            self.free_head = self.pool[idx as usize].next_free;
            self.pool[idx as usize] = slot;
            idx
        } else {
            self.pool.push(slot);
            (self.pool.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, idx: u32) {
        self.pool[idx as usize].next_free = self.free_head;
        self.free_head = idx;
    }

    /// Requests pulled per chunk by [`ScaleSim::run`]'s profiled loop.
    pub const RUN_CHUNK: usize = 1024;

    /// Runs requests from `stream` to completion and returns the
    /// aggregated outcome. Equivalent to [`ScaleSim::offer`]-ing every
    /// request, then [`ScaleSim::drain`] + [`ScaleSim::finish`].
    ///
    /// Requests are pulled and offered in chunks so the profiler can
    /// attribute workload generation separately from routing and event
    /// processing at ~2 scopes per [`ScaleSim::RUN_CHUNK`] requests —
    /// per-request
    /// scopes would dwarf the sub-microsecond hot path at millions of
    /// sim-requests per second. Offer order (and thus every outcome) is
    /// identical to the unchunked loop.
    pub fn run(mut self, stream: impl IntoIterator<Item = Request>) -> ScaleOutcome {
        let mut it = stream.into_iter();
        let mut buf: Vec<Request> = Vec::with_capacity(Self::RUN_CHUNK);
        loop {
            {
                let _prof = distserve_prof::scope("workload_gen");
                buf.clear();
                while buf.len() < Self::RUN_CHUNK {
                    let Some(r) = it.next() else { break };
                    buf.push(r);
                }
            }
            if buf.is_empty() {
                break;
            }
            let _prof = distserve_prof::scope("route_offer");
            for r in &buf {
                self.offer(r);
            }
        }
        {
            let _prof = distserve_prof::scope("drain_events");
            self.drain();
        }
        self.finish()
    }

    /// Feeds one arrival, first processing every simulator event at or
    /// before its arrival instant so the router sees loads exactly as
    /// they stood when the request landed. Arrivals must be offered in
    /// time order.
    pub fn offer(&mut self, r: &Request) {
        self.offer_with_prefix(r, 0);
    }

    /// [`ScaleSim::offer`] with a reusable-prefix lineage id (0 = no
    /// shared prefix). Grouped requests are routed cache-affine and the
    /// chosen replica's booked prefill is discounted by the prefix it
    /// already caches for the group.
    pub fn offer_with_prefix(&mut self, r: &Request, prefix_group: u64) {
        self.drain_until(r.arrival);
        self.on_arrival(r, prefix_group);
    }

    /// Runs a session-structured workload (see
    /// `distserve_workload::sessions`) to completion, carrying each
    /// request's prefix lineage into routing and prefill pricing.
    pub fn run_sessions(
        mut self,
        stream: impl IntoIterator<Item = SessionRequest>,
    ) -> ScaleOutcome {
        let mut it = stream.into_iter();
        let mut buf: Vec<SessionRequest> = Vec::with_capacity(Self::RUN_CHUNK);
        loop {
            {
                let _prof = distserve_prof::scope("workload_gen");
                buf.clear();
                while buf.len() < Self::RUN_CHUNK {
                    let Some(r) = it.next() else { break };
                    buf.push(r);
                }
            }
            if buf.is_empty() {
                break;
            }
            let _prof = distserve_prof::scope("route_offer");
            for r in &buf {
                self.offer_with_prefix(&r.request, r.prefix_group);
            }
        }
        {
            let _prof = distserve_prof::scope("drain_events");
            self.drain();
        }
        self.finish()
    }

    /// Processes every pending event at or before `t`.
    pub fn drain_until(&mut self, t: SimTime) {
        while self.events.peek_time().is_some_and(|et| et <= t) {
            let (now, ev) = self.events.pop().expect("peeked");
            self.on_event(now, ev);
        }
    }

    /// Processes every pending event (runs the fleet to idle).
    pub fn drain(&mut self) {
        while let Some((now, ev)) = self.events.pop() {
            self.on_event(now, ev);
        }
    }

    /// Finalizes the run: means and the simulated span.
    ///
    /// # Panics
    ///
    /// Panics if events are still pending — call [`ScaleSim::drain`]
    /// first.
    #[must_use]
    pub fn finish(self) -> ScaleOutcome {
        assert!(
            self.events.peek_time().is_none(),
            "finish() with events pending; drain() first"
        );
        let mut out = self.outcome;
        if let Some(first) = self.first_arrival {
            out.sim_secs = self.last_completion.since(first).max(0.0);
        }
        if out.completed > 0 {
            out.mean_ttft_s = self.ttft_sum / out.completed as f64;
            out.mean_tpot_s = self.tpot_sum / out.completed as f64;
        }
        out
    }

    fn on_arrival(&mut self, r: &Request, prefix_group: u64) {
        self.outcome.offered += 1;
        self.first_arrival.get_or_insert(r.arrival);
        let slot = self.alloc_slot(Slot {
            req_id: r.id.0,
            arrival: r.arrival,
            prompt: r.input_len,
            decode_len: r.output_len.max(1),
            tenant: r.tenant,
            waited_secs: 0.0,
            ttft_s: 0.0,
            tpot_s: 0.0,
            prefill_on: ReplicaId(0),
            decode_on: ReplicaId(0),
            prefix_group,
            billed_tokens: 0,
            next_span: 1,
            next_free: NO_SLOT,
        });
        self.route_slot(slot, r.arrival);
    }

    /// Allocates the next span id for `slot`'s trace.
    fn next_span(&mut self, slot: u32) -> u32 {
        let sl = &mut self.pool[slot as usize];
        let id = sl.next_span;
        sl.next_span += 1;
        id
    }

    /// Emits one child span of `slot`'s trace (caller checks
    /// `self.traced`).
    fn emit_span(
        &mut self,
        slot: u32,
        kind: SpanKind,
        track: u32,
        start: SimTime,
        end: SimTime,
        payload: u32,
    ) {
        let span_id = self.next_span(slot);
        let s = &self.pool[slot as usize];
        self.sink.span(SpanEvent {
            ctx: TraceCtx::root(trace_id(self.trace_seed, s.req_id)).child(span_id),
            request: s.req_id,
            tenant: s.tenant,
            track,
            kind,
            start_s: start.as_secs(),
            end_s: end.as_secs(),
            payload,
        });
    }

    /// Emits the root span — the terminal event of a trace; the tail
    /// sampler finalizes its keep/drop verdict on it. `flags` marks the
    /// trace interesting when nonzero (see
    /// [`distserve_telemetry::span_flags`]).
    fn emit_root(&mut self, slot: u32, track: u32, end: SimTime, flags: u32) {
        let s = &self.pool[slot as usize];
        self.sink.span(SpanEvent {
            ctx: TraceCtx::root(trace_id(self.trace_seed, s.req_id)),
            request: s.req_id,
            tenant: s.tenant,
            track,
            kind: SpanKind::Request,
            start_s: s.arrival.as_secs(),
            end_s: end.as_secs(),
            payload: flags,
        });
    }

    /// Routes the request in `slot` (fresh arrival or requeue retry).
    fn route_slot(&mut self, slot: u32, now: SimTime) {
        let s = self.pool[slot as usize];
        let decision = match self.assignment {
            Assignment::Routed => {
                // What the router can expect from cache affinity: the
                // tokens the group's last-serving replica still caches.
                // The sim resolves hits deterministically, so the hit
                // probability is 1 whenever any prefix is cached there.
                let holder = self.state.prefix_holder(s.prefix_group);
                let matched = match holder {
                    Some(h) => self.prefix_dirs[h.0 as usize]
                        .get(s.prefix_group)
                        .unwrap_or(0)
                        .min(s.prompt.saturating_sub(1)),
                    None => 0,
                };
                let features = RequestFeatures {
                    tenant: s.tenant,
                    waited_secs: s.waited_secs,
                    ..RequestFeatures::arrival(s.req_id, s.prompt, s.decode_len)
                }
                .with_prefix(
                    s.prefix_group,
                    matched,
                    if matched > 0 { 1.0 } else { 0.0 },
                );
                route_with_holder(&self.state, &features, holder)
            }
            Assignment::Static => self.static_decision(),
        };
        if self.traced {
            // Admit/shed verdicts are instantaneous markers; a Queue
            // verdict's span covers the bounded-wait hold it imposes, so
            // a retried request's consultations tile the router-side
            // latency without overlapping (Perfetto B/E nesting needs
            // that on a shared lane).
            let (track, arm, end) = match decision {
                Decision::Disagg { prefill, .. } => (prefill.0, 0, now),
                Decision::Coloc { replica } => (replica.0, 1, now),
                Decision::Queue { retry_after_secs } => (NO_TRACK, 2, now.after(retry_after_secs)),
                Decision::Shed { .. } => (NO_TRACK, 3, now),
            };
            self.emit_span(slot, SpanKind::RouterDecision, track, now, end, arm);
        }
        match decision {
            Decision::Disagg { prefill, decode } => {
                self.start_prefill(slot, prefill, decode, now, true);
            }
            Decision::Coloc { replica } => {
                self.start_prefill(slot, replica, replica, now, false);
            }
            Decision::Queue { retry_after_secs } => {
                self.outcome.requeues += 1;
                self.pool[slot as usize].waited_secs += retry_after_secs;
                self.events
                    .push(now.after(retry_after_secs), Ev::Retry(slot));
            }
            Decision::Shed { .. } => {
                self.outcome.shed += 1;
                if self.traced {
                    let mut flags = span_flags::SHED;
                    if s.waited_secs > 0.0 {
                        flags |= span_flags::RETRIED;
                    }
                    self.emit_root(slot, NO_TRACK, now, flags);
                }
                if self.completions_on {
                    self.completions.push(Completion {
                        tenant: s.tenant,
                        time_s: now.as_secs(),
                        shed: true,
                        slo_ok: false,
                    });
                }
                self.free_slot(slot);
            }
        }
    }

    /// The baseline: hash requests over entry replicas in fixed
    /// round-robin order, ignoring load and health alike (a down entry
    /// replica would drop traffic; baselines run fault-free).
    fn static_decision(&mut self) -> Decision {
        let entries = u64::from(self.fleet.prefill + self.fleet.colocated);
        let pick = self.rr_cursor % entries;
        self.rr_cursor += 1;
        if pick < u64::from(self.fleet.prefill) {
            let decode_pick = self.rr_cursor % u64::from(self.fleet.decode);
            Decision::Disagg {
                prefill: ReplicaId(pick as u32),
                decode: ReplicaId(self.fleet.prefill + decode_pick as u32),
            }
        } else {
            Decision::Coloc {
                replica: ReplicaId((u64::from(self.fleet.decode) + pick) as u32),
            }
        }
    }

    /// Books the prompt onto `target`'s serial prefill lane; for the
    /// split path (`split == true`) the KV transfer rides on the end of
    /// prefill and decoding starts on `decode_on`.
    fn start_prefill(
        &mut self,
        slot: u32,
        target: ReplicaId,
        decode_on: ReplicaId,
        now: SimTime,
        split: bool,
    ) {
        let p = &self.fleet.profile;
        let s = self.pool[slot as usize];
        // Prefix-cache discount: tokens of this lineage the target
        // already caches never re-run prefill (at least one token always
        // does — its logits seed decoding, mirroring
        // `distserve_prefix::PrefixCache`'s match cap). The full prompt's
        // KV still exists on the replica, so the split-path transfer is
        // never discounted. Booking the prompt makes the target cache it:
        // one upsert records that and returns what was cached before.
        let cached = if s.prefix_group != 0 {
            let before = self.prefix_dirs[target.0 as usize]
                .upsert(s.prefix_group, |t| t.map_or(s.prompt, |t| t.max(s.prompt)));
            self.state.note_prefix_served(s.prefix_group, target);
            before.unwrap_or(0).min(s.prompt.saturating_sub(1))
        } else {
            0
        };
        let billed = s.prompt - cached;
        if cached > 0 {
            self.outcome.prefix_hits += 1;
            self.outcome.cached_prompt_tokens += u64::from(cached);
        }
        let prefill_secs = p.prefill_fixed_s + p.prefill_per_token_s * f64::from(billed);
        let srv = &mut self.servers[target.0 as usize];
        let start = srv.prefill_free_at.max(now);
        let first_token_at = start.after(prefill_secs);
        srv.prefill_free_at = first_token_at;
        let handoff = if split {
            p.transfer_fixed_s + p.transfer_per_token_s * f64::from(s.prompt)
        } else {
            0.0
        };
        {
            let sl = &mut self.pool[slot as usize];
            sl.ttft_s = first_token_at.since(s.arrival);
            sl.prefill_on = target;
            sl.decode_on = decode_on;
            sl.billed_tokens = billed;
        }
        if self.traced {
            // The service model fixes these boundaries at booking time,
            // so the spans can be emitted eagerly — no per-slot span
            // buffering.
            self.emit_span(slot, SpanKind::PrefillQueue, target.0, now, start, 0);
            self.emit_span(
                slot,
                SpanKind::PrefillExec,
                target.0,
                start,
                first_token_at,
                s.prompt,
            );
            if split {
                self.emit_span(
                    slot,
                    SpanKind::KvTransfer,
                    decode_on.0,
                    first_token_at,
                    first_token_at.after(handoff),
                    s.prompt,
                );
            }
        }
        // The router sees the booked work immediately.
        let backlog_tokens = u64::from(billed);
        self.state.update(target, |r| {
            r.queue_depth += 1;
            r.queued_tokens += backlog_tokens;
        });
        self.events
            .push(first_token_at.after(handoff), Ev::FirstToken(slot));
    }

    fn on_event(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Retry(slot) => {
                self.route_slot(slot, now);
            }
            Ev::FirstToken(slot) => {
                let s = self.pool[slot as usize];
                // Release the prefill booking.
                let freed = u64::from(s.billed_tokens);
                // The prefill lane lives on the replica the prompt ran
                // on; for the split path that differs from decode_on.
                self.state.update(s.prefill_on, |r| {
                    r.queue_depth = r.queue_depth.saturating_sub(1);
                    r.queued_tokens = r.queued_tokens.saturating_sub(freed);
                });
                // Admit to the decode pool and price the steps at the
                // concurrency observed now.
                let d = s.decode_on;
                let srv = &mut self.servers[d.0 as usize];
                srv.active += 1;
                let p = &self.fleet.profile;
                let mut step =
                    p.decode_step_base_s + p.decode_step_per_active_s * f64::from(srv.active);
                if matches!(srv.role, ReplicaRole::Colocated)
                    && self.servers[d.0 as usize].prefill_free_at > now
                {
                    step += p.coloc_interference_s;
                }
                let decode_secs = step * f64::from(s.decode_len);
                self.pool[slot as usize].tpot_s = step;
                if self.traced {
                    // One span for the whole decode phase; the exporter
                    // expands `payload` steps into per-step children,
                    // keeping the hot path O(1) per request.
                    self.emit_span(
                        slot,
                        SpanKind::DecodeExec,
                        d.0,
                        now,
                        now.after(decode_secs),
                        s.decode_len,
                    );
                }
                self.state.update(d, |r| r.active_decodes += 1);
                self.events.push(now.after(decode_secs), Ev::Done(slot));
            }
            Ev::Done(slot) => {
                let s = self.pool[slot as usize];
                self.servers[s.decode_on.0 as usize].active -= 1;
                self.state.update(s.decode_on, |r| r.active_decodes -= 1);
                self.outcome.completed += 1;
                self.ttft_sum += s.ttft_s;
                self.tpot_sum += s.tpot_s;
                let slo_ok = s.ttft_s <= self.slo.ttft_s && s.tpot_s <= self.slo.tpot_s;
                if slo_ok {
                    self.outcome.slo_ok += 1;
                }
                if self.traced {
                    let mut flags = 0;
                    if !slo_ok {
                        flags |= span_flags::SLO_MISS;
                    }
                    if s.waited_secs > 0.0 {
                        flags |= span_flags::RETRIED;
                    }
                    self.emit_root(slot, s.decode_on.0, now, flags);
                }
                if self.completions_on {
                    self.completions.push(Completion {
                        tenant: s.tenant,
                        time_s: now.as_secs(),
                        shed: false,
                        slo_ok,
                    });
                }
                self.last_completion = self.last_completion.max(now);
                self.free_slot(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_simcore::SimRng;
    use distserve_telemetry::Recorder;
    use distserve_workload::{Dataset, TraceBuilder};
    use proptest::prelude::*;

    /// The linear-scan directory [`GroupCache`] replaced, kept as the
    /// reference its O(1) successor must match decision for decision.
    #[derive(Default)]
    struct LinearGroupCache {
        /// `(group, cached tokens, recency stamp)`.
        entries: Vec<(u64, u32, u64)>,
        stamp: u64,
    }

    impl LinearGroupCache {
        fn peek(&self, group: u64) -> u32 {
            self.entries
                .iter()
                .find(|e| e.0 == group)
                .map_or(0, |e| e.1)
        }

        /// Returns the group evicted to make room, if any.
        fn record(&mut self, group: u64, tokens: u32) -> Option<u64> {
            self.stamp += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == group) {
                e.1 = e.1.max(tokens);
                e.2 = self.stamp;
                return None;
            }
            let mut victim = None;
            if self.entries.len() >= GROUPS_PER_SERVER {
                let stalest = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.2)
                    .map(|(i, _)| i)
                    .expect("entries non-empty at capacity");
                victim = Some(self.entries.swap_remove(stalest).0);
            }
            self.entries.push((group, tokens, self.stamp));
            victim
        }
    }

    proptest! {
        /// Random peek/record sequences over more groups than a directory
        /// holds (a hot set that keeps hitting plus a cold tail that
        /// forces evictions): the LRU directory returns the reference's
        /// peeks and evicts the reference's victims.
        #[test]
        fn group_cache_matches_linear_reference(
            ops in prop::collection::vec(
                (0u8..4, 0u64..24, 0u64..(3 * GROUPS_PER_SERVER as u64), 1u32..4_000),
                0..3_000,
            ),
        ) {
            let mut fast = GroupCache::new(GROUPS_PER_SERVER);
            let mut reference = LinearGroupCache::default();
            for (op, hot, cold, tokens) in ops {
                let group = if op % 2 == 0 { hot } else { cold };
                if op < 2 {
                    prop_assert_eq!(fast.get(group).unwrap_or(0), reference.peek(group));
                } else {
                    let before = fast
                        .upsert(group, |t| t.map_or(tokens, |t| t.max(tokens)))
                        .unwrap_or(0);
                    prop_assert_eq!(before, reference.peek(group));
                    if let Some(victim) = reference.record(group, tokens) {
                        prop_assert_eq!(fast.get(victim), None);
                    }
                    prop_assert_eq!(fast.len(), reference.entries.len());
                }
            }
            for &(group, tokens, _) in &reference.entries {
                prop_assert_eq!(fast.get(group), Some(tokens));
            }
        }
    }

    fn small_fleet() -> FleetSpec {
        FleetSpec {
            prefill: 2,
            decode: 2,
            colocated: 2,
            profile: ServiceProfile::a100_13b(),
        }
    }

    /// Admission matched to the 0.4s TTFT SLO: a few-deep prefill queue
    /// is the most backlog that can still meet it, so overload is shed
    /// quickly instead of served late (where it would count against
    /// goodput anyway).
    fn slo_policy() -> RouterPolicy {
        RouterPolicy {
            queue_cap: 4,
            max_wait_secs: 0.5,
            retry_gap_secs: 0.1,
            ..RouterPolicy::default()
        }
    }

    fn run(assignment: Assignment, rate: f64, n: usize) -> ScaleOutcome {
        let mut rng = SimRng::seed(11);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(rate)
            .num_requests(n)
            .build(&mut rng);
        let sim = ScaleSim::new(
            small_fleet(),
            slo_policy(),
            ScaleSlo {
                ttft_s: 0.4,
                tpot_s: 0.1,
            },
            assignment,
            3,
        );
        sim.run(trace.requests().iter().cloned())
    }

    #[test]
    fn conserves_every_request() {
        for assignment in [Assignment::Routed, Assignment::Static] {
            let out = run(assignment, 20.0, 2000);
            assert_eq!(out.offered, 2000);
            assert_eq!(out.completed + out.shed, out.offered);
        }
    }

    #[test]
    fn routed_beats_static_goodput_under_pressure() {
        let routed = run(Assignment::Routed, 60.0, 5000);
        let fixed = run(Assignment::Static, 60.0, 5000);
        assert!(
            routed.goodput_rps() >= fixed.goodput_rps(),
            "routed {:.2} rps < static {:.2} rps",
            routed.goodput_rps(),
            fixed.goodput_rps()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(Assignment::Routed, 40.0, 3000);
        let b = run(Assignment::Routed, 40.0, 3000);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.slo_ok, b.slo_ok);
        assert!((a.mean_ttft_s - b.mean_ttft_s).abs() < 1e-12);
    }

    #[test]
    fn pool_reuses_slots() {
        let mut rng = SimRng::seed(5);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(5.0)
            .num_requests(500)
            .build(&mut rng);
        let mut sim = ScaleSim::new(
            small_fleet(),
            RouterPolicy::default(),
            ScaleSlo {
                ttft_s: 0.4,
                tpot_s: 0.1,
            },
            Assignment::Routed,
            3,
        );
        // Low rate: requests finish before many more arrive, so the
        // pool must stay tiny even over 500 requests.
        let mut peak = 0usize;
        for r in trace.requests() {
            sim.offer(r);
            peak = peak.max(sim.pool.len());
        }
        sim.drain();
        let out = sim.finish();
        assert_eq!(out.completed + out.shed, 500);
        assert!(peak < 64, "pool grew to {peak} slots at 5 rps");
    }

    #[test]
    fn traced_run_emits_linked_span_families() {
        let mut rng = SimRng::seed(9);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(30.0)
            .num_requests(200)
            .build(&mut rng);
        let mut sim = ScaleSim::new(
            small_fleet(),
            slo_policy(),
            ScaleSlo {
                ttft_s: 0.4,
                tpot_s: 0.1,
            },
            Assignment::Routed,
            3,
        );
        let rec = Arc::new(Recorder::new());
        sim.set_tracing(rec.clone(), 3);
        let out = sim.run(trace.requests().iter().cloned());
        let spans = rec.snapshot().spans;
        // Exactly one root per offered request, and every child's
        // parent is its trace's root.
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request)
            .collect();
        assert_eq!(roots.len() as u64, out.offered);
        for r in &roots {
            assert_eq!(r.ctx.span_id, 0);
            assert_eq!(r.ctx.parent, distserve_telemetry::NO_PARENT);
        }
        for s in &spans {
            assert!(s.end_s >= s.start_s, "inverted span {s:?}");
            if s.kind != SpanKind::Request {
                assert_eq!(s.ctx.parent, 0, "non-root span must hang off the root");
                assert!(s.ctx.span_id >= 1);
            }
        }
        // Completed requests carry the full waterfall: decision,
        // prefill queue+exec, decode (plus KV transfer when split).
        let one = roots
            .iter()
            .find(|r| r.payload == 0)
            .expect("some request met its SLOs");
        let kinds: Vec<SpanKind> = spans
            .iter()
            .filter(|s| s.ctx.trace_id == one.ctx.trace_id && s.kind != SpanKind::Request)
            .map(|s| s.kind)
            .collect();
        assert!(kinds.contains(&SpanKind::RouterDecision));
        assert!(kinds.contains(&SpanKind::PrefillQueue));
        assert!(kinds.contains(&SpanKind::PrefillExec));
        assert!(kinds.contains(&SpanKind::DecodeExec));
    }

    #[test]
    fn completion_log_feeds_throttle_loop() {
        let mut rng = SimRng::seed(13);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(20.0)
            .num_requests(300)
            .build(&mut rng);
        let mut sim = ScaleSim::new(
            small_fleet(),
            slo_policy(),
            ScaleSlo {
                ttft_s: 0.4,
                tpot_s: 0.1,
            },
            Assignment::Routed,
            3,
        );
        sim.log_completions(true);
        let mut seen = 0u64;
        for r in trace.requests() {
            sim.offer(r);
            seen += sim.drain_completions().count() as u64;
        }
        sim.drain();
        seen += sim.drain_completions().count() as u64;
        let out = sim.finish();
        assert_eq!(seen, out.offered, "every terminal request is logged");
    }

    #[test]
    fn warm_sessions_beat_cold_cache_at_matched_slos() {
        use distserve_workload::{ChatConfig, ChatSessionStream, Dataset};
        let cfg = ChatConfig {
            session_rate: 6.0,
            mean_turns: 6.0,
            think_mean_s: 2.0,
            system_prompt_tokens: 256,
            ..ChatConfig::default()
        };
        let run = |warm: bool| {
            let sim = ScaleSim::new(
                small_fleet(),
                slo_policy(),
                ScaleSlo {
                    ttft_s: 0.4,
                    tpot_s: 0.1,
                },
                Assignment::Routed,
                3,
            );
            let stream = ChatSessionStream::new(cfg, Dataset::ShareGpt.sampler(), 21)
                .take(4000)
                .map(move |mut sr| {
                    if !warm {
                        sr.prefix_group = 0;
                    }
                    sr
                });
            sim.run_sessions(stream)
        };
        let warm = run(true);
        let cold = run(false);
        assert_eq!(warm.offered, cold.offered);
        assert!(warm.prefix_hits > 0, "grouped run must see cache hits");
        assert_eq!(cold.prefix_hits, 0, "ungrouped run must stay cold");
        assert!(
            warm.goodput_rps() >= cold.goodput_rps(),
            "warm {:.2} rps < cold {:.2} rps",
            warm.goodput_rps(),
            cold.goodput_rps()
        );
        assert!(
            warm.mean_ttft_s <= cold.mean_ttft_s,
            "warm TTFT {:.4}s worse than cold {:.4}s",
            warm.mean_ttft_s,
            cold.mean_ttft_s
        );
    }

    #[test]
    fn prefix_discount_conserves_requests_and_bookings() {
        use distserve_workload::Dataset;
        use distserve_workload::{SharedPrefixMix, SharedPrefixTenant};
        let tenants = vec![
            SharedPrefixTenant {
                name: "support".into(),
                rate: 20.0,
                sampler: Dataset::ShareGpt.sampler(),
                system_prompt_tokens: 512,
            },
            SharedPrefixTenant {
                name: "code".into(),
                rate: 10.0,
                sampler: Dataset::HumanEval.sampler(),
                system_prompt_tokens: 128,
            },
        ];
        let sim = ScaleSim::new(
            small_fleet(),
            slo_policy(),
            ScaleSlo {
                ttft_s: 0.4,
                tpot_s: 0.1,
            },
            Assignment::Routed,
            7,
        );
        let out = sim.run_sessions(SharedPrefixMix::new(tenants, 9).take(3000));
        assert_eq!(out.offered, 3000);
        assert_eq!(out.completed + out.shed, out.offered);
        assert!(out.prefix_hits > 0);
        assert!(out.cached_prompt_tokens >= out.prefix_hits);
        assert!(out.prefix_hit_rate() <= 1.0);
    }

    #[test]
    fn tenant_throttle_sheds_only_that_tenant() {
        // Two interleaved tenants at a rate the fleet absorbs; with
        // tenant 1 throttled mid-run under pressure, only tenant 1
        // traffic is shed beyond the shared admission behavior.
        let mut rng = SimRng::seed(17);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(80.0)
            .num_requests(2000)
            .build(&mut rng);
        let mut sim = ScaleSim::new(
            small_fleet(),
            slo_policy(),
            ScaleSlo {
                ttft_s: 0.4,
                tpot_s: 0.1,
            },
            Assignment::Routed,
            3,
        );
        sim.log_completions(true);
        sim.set_tenant_throttle(1, true);
        let mut shed = [0u64; 2];
        let mut offered = [0u64; 2];
        for (i, r) in trace.requests().iter().enumerate() {
            let mut r = r.clone();
            r.tenant = (i % 2) as u32;
            offered[i % 2] += 1;
            sim.offer(&r);
        }
        sim.drain();
        for c in sim.drain_completions() {
            if c.shed {
                shed[c.tenant as usize] += 1;
            }
        }
        assert!(offered[0] > 0 && offered[1] > 0);
        assert!(
            shed[1] > shed[0],
            "throttled tenant must shed more: {shed:?}"
        );
    }
}
