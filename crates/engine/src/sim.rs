//! The serving simulator: event loop, dispatch, and instance logic.
//!
//! One simulator runs either a **disaggregated** deployment (≥1 prefill
//! instance and ≥1 decoding instance, DistServe's architecture from
//! Figure 6) or a **colocated** deployment (≥1 vLLM-style instance). The
//! controller dispatches arrivals to the prefill instance with the
//! shortest queue and, at prefill completion, assigns the request to the
//! least-loaded decoding instance (§4.3); KV caches move via pull-based
//! transfers with the prefill instance's memory as the queueing buffer.
//!
//! Execution times come from the [`CostModel`]; the pipeline occupancy
//! recurrence in [`crate::pipeline`] turns per-batch stage times into
//! throughput, latency, and bubbles. All scheduling is deterministic
//! given the configuration seed.

use std::collections::VecDeque;

use distserve_cluster::{Cluster, KvTransferModel};
use distserve_faults::{Fault, FaultKind, FaultSchedule, InstanceHealth, RetryPolicy};
use distserve_models::{CostModel, DecodeBatch, PrefillBatch};
use distserve_router::{
    Decision, DecisionRecord, ReplicaId, ReplicaRole, ReplicaSnapshot, RequestFeatures,
    RouterPolicy, ShedReason,
};
use distserve_simcore::{EventQueue, FastHashMap, SimRng, SimTime, Summary};
use distserve_telemetry::{metrics, Event, LifecycleEvent, Slice, TelemetrySink, TrackId, NOOP};
use distserve_workload::{RequestId, Trace};

use crate::batching::{PrefillItem, PrefillQueue};
use crate::kvcache::{KvBlockManager, BLOCK_TOKENS};
use crate::pipeline::{Commit, Pipeline};
use crate::request::{RequestPhase, RequestRecord, RequestState, StageBreakdown};
use crate::routing::RouterCtl;
use crate::spec::{InstanceRole, InstanceSpec, SimConfig};

/// Simulator events.
#[derive(Debug, Clone)]
enum Ev {
    /// Trace request with this index arrives at the controller.
    Arrive(usize),
    /// A prefill pipeline's stage 0 freed; try launching more batches.
    PrefillFree(usize),
    /// A prefill batch exited the pipeline.
    PrefillDone(usize, u64),
    /// A KV pull into a decoding instance completed. Carries the pull
    /// generation: completions of transfers that failed or were
    /// invalidated by a crash arrive stale and are ignored.
    TransferDone(usize, RequestId, u64),
    /// A decoding pipeline's stage 0 freed; try launching iterations.
    DecodeFree(usize),
    /// A decoding iteration exited the pipeline.
    DecodeDone(usize, u64),
    /// A colocated step finished.
    ColocDone(usize, u64),
    /// A scheduled fault (index into the fault list) fires.
    Fault(usize),
    /// A downed instance finished its outage and begins warming up.
    InstanceRecovering(usize, u64),
    /// A recovering instance is warm and takes traffic again. The
    /// generation guards against stale recoveries after a re-crash.
    InstanceUp(usize, u64),
    /// A transient straggler episode ends.
    StragglerEnd(usize),
    /// Cross-instance link degradation ends.
    LinkRestore,
    /// Retry a failed KV pull after backoff.
    RetryPull(usize, RequestId, u64),
    /// Routed mode: a queued arrival (trace index) re-consults the
    /// router after its bounded-wait delay.
    RouterRetry(usize),
}

/// One decoding micro-batch group (pipeline-parallel interleaving).
#[derive(Debug, Clone, Default)]
struct DecodeGroup {
    members: Vec<RequestId>,
    busy: bool,
}

/// What a colocated step was doing.
#[derive(Debug, Clone)]
enum ColocStep {
    Prefill(Vec<RequestId>),
    Decode(Vec<RequestId>),
    Mixed {
        /// `(request, new tokens, finished prefilling)` chunk parts.
        chunks: Vec<(RequestId, u32, bool)>,
        decodes: Vec<RequestId>,
    },
}

/// Runtime state of one instance.
struct Instance {
    spec: InstanceSpec,
    pipeline: Pipeline,
    kv: KvBlockManager,
    prefill_queue: PrefillQueue,
    // Disaggregated decoding state.
    groups: Vec<DecodeGroup>,
    overflow: VecDeque<RequestId>,
    pull_queue: VecDeque<RequestId>,
    /// The request being pulled plus its pull generation; `None` when the
    /// pull channel is free.
    pulling: Option<(RequestId, u64)>,
    pull_gen: u64,
    next_group: usize,
    // Failure state machine (`Up → Degraded → Down → Recovering`).
    health: InstanceHealth,
    /// Bumped on every transition to Down; stale recovery events carry an
    /// older generation and are dropped.
    up_gen: u64,
    /// Whether an `InstanceUp` event is in flight for this instance, so
    /// the dispatcher knows whether parking work is worthwhile.
    recover_scheduled: bool,
    down_since: Option<SimTime>,
    downtime_secs: f64,
    /// Maintenance window length once a drain completes.
    drain_secs: f64,
    /// Prompt tokens launched into the prefill pipeline but not finished
    /// (part of the dispatch load metric: a queue-only metric would see
    /// an empty queue on a busy instance).
    inflight_prefill_tokens: u64,
    // Colocated state.
    running: Vec<RequestId>,
    coloc_busy: bool,
    chunk_progress: FastHashMap<RequestId, u32>,
    // In-flight batch registries.
    prefill_inflight: FastHashMap<u64, Vec<RequestId>>,
    decode_inflight: FastHashMap<u64, (usize, Vec<RequestId>)>,
    coloc_inflight: FastHashMap<u64, ColocStep>,
    // Statistics.
    kv_peak: f64,
    tokens_out: u64,
}

impl Instance {
    fn decode_load(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum::<usize>()
            + self.overflow.len()
            + self.pull_queue.len()
    }

    fn note_kv(&mut self) {
        self.kv_peak = self.kv_peak.max(self.kv.utilization());
    }

    /// Places `id` in the emptiest micro-batch group with room (the first
    /// such group on ties); `false` when every group holds `max`.
    fn join_group(&mut self, id: RequestId, max: usize) -> bool {
        let group = self
            .groups
            .iter_mut()
            .filter(|g| g.members.len() < max)
            .min_by_key(|g| g.members.len());
        group.map(|g| g.members.push(id)).is_some()
    }
}

/// Per-instance statistics reported by [`SimOutcome`].
#[derive(Debug, Clone)]
pub struct InstanceStats {
    /// Role of the instance.
    pub role: InstanceRole,
    /// GPUs occupied.
    pub num_gpus: u32,
    /// Cumulative stage-0 busy seconds.
    pub busy_secs: f64,
    /// Batches executed.
    pub batches: u64,
    /// Peak KV pool utilization observed.
    pub kv_peak_utilization: f64,
    /// Output tokens produced on this instance.
    pub tokens_out: u64,
    /// Seconds spent Down or Recovering (unavailability windows; windows
    /// still open at the end of the run are closed at the makespan).
    pub downtime_secs: f64,
}

/// Result of one serving simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Completed-request records, in completion order.
    pub records: Vec<RequestRecord>,
    /// Requests rejected by admission control, in rejection order. Each
    /// counts as an SLO miss in the attainment figures below.
    pub rejected: Vec<RequestId>,
    /// Requests that exhausted their retry budget (or had no surviving
    /// instance to run on) after injected faults, in failure order. Like
    /// rejections, each counts as an SLO miss. Empty without faults.
    pub failed: Vec<RequestId>,
    /// Time the last request completed.
    pub makespan: SimTime,
    /// Per-instance statistics.
    pub instances: Vec<InstanceStats>,
}

impl SimOutcome {
    /// Requests offered to the system: completed, rejected, and failed.
    fn offered(&self) -> usize {
        self.records.len() + self.rejected.len() + self.failed.len()
    }

    /// Fraction of requests meeting both the TTFT and TPOT SLOs.
    /// Rejected requests count in the denominator as misses.
    #[must_use]
    pub fn attainment(&self, ttft_slo: f64, tpot_slo: f64) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.ttft() <= ttft_slo && r.tpot() <= tpot_slo)
            .count();
        ok as f64 / self.offered() as f64
    }

    /// Fraction meeting only the TTFT SLO (the paper's dotted lines).
    #[must_use]
    pub fn ttft_attainment(&self, ttft_slo: f64) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        let ok = self.records.iter().filter(|r| r.ttft() <= ttft_slo).count();
        ok as f64 / self.offered() as f64
    }

    /// Fraction meeting only the TPOT SLO (the paper's dashed lines).
    #[must_use]
    pub fn tpot_attainment(&self, tpot_slo: f64) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        let ok = self.records.iter().filter(|r| r.tpot() <= tpot_slo).count();
        ok as f64 / self.offered() as f64
    }

    /// Summary of TTFT samples, seconds.
    #[must_use]
    pub fn ttft_summary(&self) -> Summary {
        let mut s = Summary::new();
        for r in &self.records {
            s.record(r.ttft());
        }
        s
    }

    /// Summary of TPOT samples, seconds (multi-token requests only).
    #[must_use]
    pub fn tpot_summary(&self) -> Summary {
        let mut s = Summary::new();
        for r in &self.records {
            if r.output_len > 1 {
                s.record(r.tpot());
            }
        }
        s
    }

    /// Aggregate five-stage breakdown over all requests (Figure 10a).
    #[must_use]
    pub fn breakdown_totals(&self) -> StageBreakdown {
        let mut acc = StageBreakdown::default();
        for r in &self.records {
            acc.accumulate(&r.breakdown());
        }
        acc
    }

    /// Total GPUs across instances.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        self.instances.iter().map(|i| i.num_gpus).sum()
    }
}

/// Instance index → telemetry track id.
fn track_id(i: usize) -> TrackId {
    TrackId::try_from(i).expect("instance count fits a track id")
}

/// The serving simulator. See the module documentation.
pub struct ServingSim<'a> {
    cfg: SimConfig,
    cost: &'a dyn CostModel,
    cluster: &'a Cluster,
    transfer: KvTransferModel,
    instances: Vec<Instance>,
    prefill_ids: Vec<usize>,
    decode_ids: Vec<usize>,
    coloc_ids: Vec<usize>,
    states: FastHashMap<RequestId, RequestState>,
    kv_home: FastHashMap<RequestId, usize>,
    events: EventQueue<Ev>,
    rng: SimRng,
    records: Vec<RequestRecord>,
    rejected: Vec<RequestId>,
    failed: Vec<RequestId>,
    next_batch: u64,
    remaining: usize,
    sink: &'a dyn TelemetrySink,
    // Fault injection (empty and inert unless `with_faults` is called).
    faults: Vec<Fault>,
    retry_policy: RetryPolicy,
    /// Requests with nowhere to go right now but a recovery scheduled:
    /// re-dispatched when an instance comes back up.
    parked_prefill: VecDeque<RequestId>,
    parked_pull: VecDeque<RequestId>,
    /// Multiplier on KV-transfer wire time (≥ 1; link degradation).
    link_slowdown: f64,
    faults_injected: u64,
    /// Cluster router attachment; `None` runs the built-in
    /// shortest-queue dispatch.
    router: Option<RouterCtl>,
}

impl<'a> ServingSim<'a> {
    /// Builds a simulator over `instances` placed on `cluster`.
    ///
    /// # Errors
    ///
    /// Returns a message when the deployment is neither purely colocated
    /// nor purely disaggregated with both roles present, or when an
    /// instance cannot hold its weight shard.
    pub fn new(
        cfg: SimConfig,
        cost: &'a dyn CostModel,
        cluster: &'a Cluster,
        specs: Vec<InstanceSpec>,
    ) -> Result<Self, String> {
        let sim = Self::build(cfg, cost, cluster, specs)?;
        let disagg = !sim.prefill_ids.is_empty() && !sim.decode_ids.is_empty();
        let half_split = sim.prefill_ids.is_empty() != sim.decode_ids.is_empty();
        let coloc = !sim.coloc_ids.is_empty();
        if disagg == coloc || half_split {
            return Err(
                "deployment must be either disaggregated (prefill + decode instances) \
                 or colocated, and not empty"
                    .into(),
            );
        }
        Ok(sim)
    }

    /// Builds a **routed** simulator: every arrival (and fault-driven
    /// re-dispatch) is decided by the pure `distserve_router::route`
    /// core under `policy`, and the run records a replayable decision
    /// log (see [`ServingSim::run_logged`]). Unlike [`ServingSim::new`],
    /// a routed deployment may mix the split prefill/decode path with
    /// colocated instances — the router picks per request.
    ///
    /// # Errors
    ///
    /// Returns a message when no complete execution path exists (a
    /// prefill instance without a decode peer or vice versa, or an empty
    /// fleet), or on any [`ServingSim::new`] validation failure.
    pub fn new_routed(
        cfg: SimConfig,
        cost: &'a dyn CostModel,
        cluster: &'a Cluster,
        specs: Vec<InstanceSpec>,
        policy: RouterPolicy,
    ) -> Result<Self, String> {
        let mut sim = Self::build(cfg, cost, cluster, specs)?;
        sim.validate_routed_topology()?;
        let seed = sim.cfg.seed;
        let initial = sim.replica_snapshots().collect();
        sim.router = Some(RouterCtl::live(initial, policy, seed));
        Ok(sim)
    }

    /// Builds a routed simulator that replays `log` instead of
    /// consulting the decision core: the run reproduces the logged run
    /// exactly (asserted by the replay harness in `tests/`).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed log records or any
    /// [`ServingSim::new_routed`] validation failure.
    pub fn new_replayed(
        cfg: SimConfig,
        cost: &'a dyn CostModel,
        cluster: &'a Cluster,
        specs: Vec<InstanceSpec>,
        log: &[DecisionRecord],
    ) -> Result<Self, String> {
        let mut sim = Self::build(cfg, cost, cluster, specs)?;
        sim.validate_routed_topology()?;
        sim.router = Some(RouterCtl::replay(log)?);
        Ok(sim)
    }

    /// Routed deployments need at least one complete path and no
    /// half-built split pair.
    fn validate_routed_topology(&self) -> Result<(), String> {
        let split = !self.prefill_ids.is_empty() && !self.decode_ids.is_empty();
        let half_split = self.prefill_ids.is_empty() != self.decode_ids.is_empty();
        if half_split {
            return Err(
                "routed deployment has prefill instances without decode peers (or vice versa)"
                    .into(),
            );
        }
        if !split && self.coloc_ids.is_empty() {
            return Err("routed deployment has no execution path".into());
        }
        Ok(())
    }

    fn build(
        cfg: SimConfig,
        cost: &'a dyn CostModel,
        cluster: &'a Cluster,
        specs: Vec<InstanceSpec>,
    ) -> Result<Self, String> {
        let mut instances = Vec::new();
        let mut prefill_ids = Vec::new();
        let mut decode_ids = Vec::new();
        let mut coloc_ids = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            spec.par
                .validate(&cfg.arch)
                .map_err(|e| format!("instance {i}: {e}"))?;
            let pool = spec
                .par
                .kv_pool_bytes(&cfg.arch, cluster.gpu_spec(), cfg.mem_margin);
            if pool == 0 {
                return Err(format!(
                    "instance {i} ({}) cannot hold its weight shard",
                    spec.par
                ));
            }
            let kv = KvBlockManager::from_bytes(pool, cfg.arch.kv_bytes_per_token(), BLOCK_TOKENS);
            let budget = match spec.role {
                InstanceRole::Colocated => spec.policy.prefill_token_budget,
                _ => cfg.l_m,
            };
            match spec.role {
                InstanceRole::Prefill => prefill_ids.push(i),
                InstanceRole::Decode => decode_ids.push(i),
                InstanceRole::Colocated => coloc_ids.push(i),
            }
            let groups = (0..spec.par.pp).map(|_| DecodeGroup::default()).collect();
            instances.push(Instance {
                pipeline: Pipeline::new(spec.par.pp),
                kv,
                prefill_queue: PrefillQueue::new(budget).with_discipline(cfg.prefill_discipline),
                groups,
                overflow: VecDeque::new(),
                pull_queue: VecDeque::new(),
                pulling: None,
                pull_gen: 0,
                next_group: 0,
                health: InstanceHealth::Up,
                up_gen: 0,
                recover_scheduled: false,
                down_since: None,
                downtime_secs: 0.0,
                drain_secs: 0.0,
                inflight_prefill_tokens: 0,
                running: Vec::new(),
                coloc_busy: false,
                chunk_progress: FastHashMap::default(),
                prefill_inflight: FastHashMap::default(),
                decode_inflight: FastHashMap::default(),
                coloc_inflight: FastHashMap::default(),
                kv_peak: 0.0,
                tokens_out: 0,
                spec,
            });
        }
        let transfer = KvTransferModel::new(cfg.arch.clone());
        let rng = SimRng::seed(cfg.seed).split("serving-sim");
        Ok(ServingSim {
            cfg,
            cost,
            cluster,
            transfer,
            instances,
            prefill_ids,
            decode_ids,
            coloc_ids,
            states: FastHashMap::default(),
            kv_home: FastHashMap::default(),
            events: EventQueue::new(),
            rng,
            records: Vec::new(),
            rejected: Vec::new(),
            failed: Vec::new(),
            next_batch: 0,
            remaining: 0,
            sink: &NOOP,
            faults: Vec::new(),
            retry_policy: RetryPolicy::default(),
            parked_prefill: VecDeque::new(),
            parked_pull: VecDeque::new(),
            link_slowdown: 1.0,
            faults_injected: 0,
            router: None,
        })
    }

    /// Injects `schedule`'s faults during the run, recovering per
    /// `policy`. Without this call the simulator is fault-free and
    /// behaves identically to previous versions.
    #[must_use]
    pub fn with_faults(mut self, schedule: &FaultSchedule, policy: RetryPolicy) -> Self {
        self.faults = schedule.faults().to_vec();
        self.retry_policy = policy;
        self
    }

    /// Routes telemetry into `sink`: per-request lifecycle events
    /// ([`LifecycleEvent`]), per-batch execution slices on one track per
    /// instance, and queue/KV/throughput metrics. All timestamps are
    /// sim-clock seconds. Defaults to the no-op sink.
    #[must_use]
    pub fn with_sink(mut self, sink: &'a dyn TelemetrySink) -> Self {
        self.sink = sink;
        self
    }

    /// Emits one lifecycle event for `id` at sim time `t`, resolving the
    /// tenant from the live request state (only when the sink records —
    /// the no-op path skips the lookup). Callers emitting after the
    /// state is gone use [`Self::emit_tenant`] directly.
    fn emit(&self, id: RequestId, t: SimTime, kind: LifecycleEvent) {
        let tenant = if self.sink.enabled() {
            self.states.get(&id).map_or(0, |s| s.request.tenant)
        } else {
            0
        };
        self.emit_tenant(id, tenant, t, kind);
    }

    /// Emits one lifecycle event with an explicit tenant.
    fn emit_tenant(&self, id: RequestId, tenant: u32, t: SimTime, kind: LifecycleEvent) {
        self.sink.event(Event {
            request: id.0,
            tenant,
            time_s: t.as_secs(),
            kind,
        });
    }

    /// Emits one execution slice plus its batch counters on `track`.
    #[allow(clippy::too_many_arguments)]
    fn emit_batch(
        &self,
        track: usize,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        batch: usize,
        tokens: u64,
        batches_metric: &'static str,
        tokens_metric: &'static str,
    ) {
        let track = track_id(track);
        self.sink.slice(Slice {
            track,
            name,
            start_s: start.as_secs(),
            end_s: end.as_secs(),
            batch: u32::try_from(batch).unwrap_or(u32::MAX),
            tokens: u32::try_from(tokens).unwrap_or(u32::MAX),
        });
        self.sink.counter_add(batches_metric, track, 1);
        self.sink.counter_add(tokens_metric, track, tokens);
        self.sink.observe(metrics::BATCH_SIZE, track, batch as f64);
    }

    /// Publishes instance `i`'s KV occupancy gauge.
    fn emit_kv(&self, i: usize) {
        self.sink.gauge_set(
            metrics::KV_UTILIZATION,
            track_id(i),
            self.instances[i].kv.utilization(),
        );
    }

    /// Runs the trace to completion and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (100 million) is exceeded, which
    /// indicates a scheduling livelock rather than a slow workload.
    #[must_use]
    pub fn run(mut self, trace: &Trace) -> SimOutcome {
        self.run_core(trace);
        self.finish()
    }

    /// Like [`ServingSim::run`], but also returns the routing decision
    /// log (empty unless built with [`ServingSim::new_routed`] or
    /// [`ServingSim::new_replayed`]). Feeding the log into
    /// [`ServingSim::new_replayed`] with an otherwise identical
    /// configuration reproduces this run exactly.
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exceeded (see [`ServingSim::run`]).
    #[must_use]
    pub fn run_logged(mut self, trace: &Trace) -> (SimOutcome, Vec<DecisionRecord>) {
        self.run_core(trace);
        let log = self
            .router
            .as_mut()
            .map(|r| std::mem::take(&mut r.log))
            .unwrap_or_default();
        (self.finish(), log)
    }

    fn run_core(&mut self, trace: &Trace) {
        let _prof = distserve_prof::scope("sim_run");
        if self.sink.enabled() {
            for (i, inst) in self.instances.iter().enumerate() {
                let role = match inst.spec.role {
                    InstanceRole::Prefill => "prefill",
                    InstanceRole::Decode => "decode",
                    InstanceRole::Colocated => "colocated",
                };
                self.sink
                    .declare_track(track_id(i), &format!("{role}[{i}] {}", inst.spec.par));
            }
        }
        // Arrivals enter the queue one at a time: arrival `i` holds
        // sequence number `first + i`, as if the whole (time-sorted) trace
        // were pushed now, and arrival `i + 1` is pushed when `i` pops. A
        // request's state is built when it arrives and dropped when it
        // ends, so live state scales with requests in flight.
        let requests = trace.requests();
        let first = self.events.reserve_seqs(requests.len());
        if let Some(r) = requests.first() {
            self.events.push_reserved(r.arrival, first, Ev::Arrive(0));
        }
        self.records.reserve_exact(requests.len());
        let chaos = !self.faults.is_empty();
        if chaos {
            for (idx, f) in self.faults.iter().enumerate() {
                self.events.push(SimTime::from_secs(f.at), Ev::Fault(idx));
            }
            if self.sink.enabled() {
                for i in 0..self.instances.len() {
                    self.sink.gauge_set(metrics::INSTANCE_UP, track_id(i), 1.0);
                }
            }
        }
        self.remaining = trace.len();
        let mut processed: u64 = 0;
        while self.remaining > 0 {
            let Some((now, ev)) = self.events.pop() else {
                panic!(
                    "simulation stalled with {} requests outstanding",
                    self.remaining
                );
            };
            processed += 1;
            assert!(processed < 100_000_000, "event budget exceeded: livelock?");
            // One profiler scope per event kind: the simulator's
            // per-phase attribution. Handlers are heavyweight relative
            // to a scope (queue surgery, routing, commit bookkeeping),
            // so per-event granularity stays inside the <3% budget.
            match ev {
                Ev::Arrive(idx) => {
                    let _prof = distserve_prof::scope("ev_arrive");
                    if let Some(next) = requests.get(idx + 1) {
                        let seq = first + idx as u64 + 1;
                        self.events
                            .push_reserved(next.arrival, seq, Ev::Arrive(idx + 1));
                    }
                    self.on_arrive(trace, idx, now);
                }
                Ev::PrefillFree(i) => {
                    let _prof = distserve_prof::scope("ev_prefill_free");
                    self.try_prefill(i, now);
                }
                Ev::PrefillDone(i, b) => {
                    let _prof = distserve_prof::scope("ev_prefill_done");
                    self.on_prefill_done(i, b, now);
                }
                Ev::TransferDone(i, r, gen) => {
                    let _prof = distserve_prof::scope("ev_transfer_done");
                    self.on_transfer_done(i, r, gen, now);
                }
                Ev::DecodeFree(i) => {
                    let _prof = distserve_prof::scope("ev_decode_free");
                    self.try_decode(i, now);
                }
                Ev::DecodeDone(i, b) => {
                    let _prof = distserve_prof::scope("ev_decode_done");
                    self.on_decode_done(i, b, now);
                }
                Ev::ColocDone(i, b) => {
                    let _prof = distserve_prof::scope("ev_coloc_done");
                    self.on_coloc_done(i, b, now);
                }
                Ev::Fault(idx) => {
                    let _prof = distserve_prof::scope("ev_fault");
                    self.on_fault(idx, now);
                }
                Ev::InstanceRecovering(i, gen) => {
                    let _prof = distserve_prof::scope("ev_recovering");
                    self.on_instance_recovering(i, gen);
                }
                Ev::InstanceUp(i, gen) => {
                    let _prof = distserve_prof::scope("ev_instance_up");
                    self.on_instance_up(i, gen, now);
                }
                Ev::StragglerEnd(i) => {
                    let _prof = distserve_prof::scope("ev_straggler_end");
                    self.on_straggler_end(i);
                }
                Ev::LinkRestore => self.link_slowdown = 1.0,
                Ev::RetryPull(d, r, gen) => {
                    let _prof = distserve_prof::scope("ev_retry_pull");
                    self.on_retry_pull(d, r, gen, now);
                }
                Ev::RouterRetry(idx) => {
                    let _prof = distserve_prof::scope("ev_router_retry");
                    self.on_router_retry(trace, idx, now);
                }
            }
            if chaos {
                self.check_drains(now);
            }
        }
    }

    fn finish(self) -> SimOutcome {
        let makespan = self
            .records
            .iter()
            .map(|r| r.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        let instances = self
            .instances
            .iter()
            .map(|inst| InstanceStats {
                role: inst.spec.role,
                num_gpus: inst.spec.num_gpus(),
                busy_secs: inst.pipeline.busy_secs(),
                batches: inst.pipeline.committed(),
                kv_peak_utilization: inst.kv_peak,
                tokens_out: inst.tokens_out,
                downtime_secs: inst.downtime_secs
                    + inst.down_since.map_or(0.0, |t| makespan.since(t).max(0.0)),
            })
            .collect();
        SimOutcome {
            records: self.records,
            rejected: self.rejected,
            failed: self.failed,
            makespan,
            instances,
        }
    }

    /// Prices a step of `raw` seconds on instance `i` — fidelity jitter
    /// (one draw from the run's RNG) times any straggler slowdown — and
    /// commits it to `i`'s pipeline under a fresh batch id.
    fn commit_step(&mut self, i: usize, raw: f64, now: SimTime) -> (u64, Commit) {
        let slowdown = self.instances[i].health.slowdown();
        let stage_time = self.cfg.fidelity.perturb_step(raw, &mut self.rng) * slowdown;
        let bid = self.next_batch;
        self.next_batch += 1;
        (bid, self.instances[i].pipeline.commit(now, stage_time))
    }

    // ------------------------------------------------------------------
    // Arrival dispatch.
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, trace: &Trace, idx: usize, now: SimTime) {
        let r = &trace.requests()[idx];
        let id = r.id;
        let mut st = RequestState::new(r.clone());
        st.cached_tokens = self.draw_cached_tokens(id.0, r.input_len);
        self.states.insert(id, st);
        self.emit(id, now, LifecycleEvent::Arrived);
        if self.router.is_some() {
            self.route_arrival(trace, idx, now);
            return;
        }
        let Some(target) = self.entry_target() else {
            self.park_or_fail_entry(id, now);
            return;
        };
        if !self.reject_if_over_cap(id, target, now) {
            self.enqueue(id, target, now);
        }
    }

    /// The built-in dispatcher's pick: the entry instance (prefill or
    /// colocated) with the shortest queue, by outstanding work — queued
    /// plus in-flight prompt tokens (a better execution-time proxy than
    /// request count, per §4.3's token heuristic) plus running decodes.
    /// Prefill instances never run decodes and colocated ones never hold
    /// in-flight prefill tokens, and a non-routed deployment has only one
    /// entry role, so each role is ranked by its own load. Down and
    /// draining instances take no new work.
    fn entry_target(&self) -> Option<usize> {
        self.prefill_ids
            .iter()
            .chain(&self.coloc_ids)
            .copied()
            .filter(|&i| self.instances[i].health.accepts_new_work())
            .min_by_key(|&i| {
                let inst = &self.instances[i];
                inst.prefill_queue.queued_tokens()
                    + inst.inflight_prefill_tokens
                    + inst.running.len() as u64
            })
    }

    /// Queues `id` for prefill on entry instance `target` and kicks it.
    fn enqueue(&mut self, id: RequestId, target: usize, now: SimTime) {
        let input_len = self.states[&id].prefill_len();
        self.emit(id, now, LifecycleEvent::PrefillQueued);
        let queue = &mut self.instances[target].prefill_queue;
        queue.push(PrefillItem { id, input_len });
        queue.emit_depth(self.sink, track_id(target));
        self.kick(target, now);
    }

    /// Launches whatever work instance `i`'s role can start now.
    fn kick(&mut self, i: usize, now: SimTime) {
        match self.instances[i].spec.role {
            InstanceRole::Prefill => self.try_prefill(i, now),
            InstanceRole::Decode => {
                self.try_pull(i, now);
                self.try_decode(i, now);
            }
            InstanceRole::Colocated => self.try_coloc(i, now),
        }
    }

    /// No entry instance can take new work: park `id` if one is on its
    /// way back, otherwise fail it.
    fn park_or_fail_entry(&mut self, id: RequestId, now: SimTime) {
        if self.recovery_pending(false) {
            self.parked_prefill.push_back(id);
        } else {
            self.fail_request(id, now);
        }
    }

    /// Whether an instance of the decode side (`decode`) or of the entry
    /// side (prefill and colocated instances) is on its way back.
    fn recovery_pending(&self, decode: bool) -> bool {
        let pending = |ids: &[usize]| ids.iter().any(|&i| self.instances[i].recover_scheduled);
        if decode {
            pending(&self.decode_ids)
        } else {
            pending(&self.prefill_ids) || pending(&self.coloc_ids)
        }
    }

    /// Sends the work parked for the decode side (`decode`) or the entry
    /// side back through dispatch: to an instance that takes work, into
    /// the park again behind a pending recovery, or to failure.
    fn release_parked(&mut self, decode: bool, now: SimTime) {
        if decode {
            let parked: Vec<RequestId> = self.parked_pull.drain(..).collect();
            for id in parked {
                if self.states.contains_key(&id) {
                    self.route_to_decode(id, now);
                }
            }
        } else {
            let parked: Vec<RequestId> = self.parked_prefill.drain(..).collect();
            for id in parked {
                if self.states.contains_key(&id) {
                    self.dispatch_prefill(id, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Routed dispatch (cluster router attachment).
    // ------------------------------------------------------------------

    /// Router's view of one instance.
    fn snapshot_of(i: usize, inst: &Instance) -> ReplicaSnapshot {
        let role = match inst.spec.role {
            InstanceRole::Prefill => ReplicaRole::Prefill,
            InstanceRole::Decode => ReplicaRole::Decode,
            InstanceRole::Colocated => ReplicaRole::Colocated,
        };
        let active_decodes = match inst.spec.role {
            InstanceRole::Prefill => 0,
            InstanceRole::Decode => inst.decode_load() as u32,
            InstanceRole::Colocated => inst.running.len() as u32,
        };
        ReplicaSnapshot {
            id: ReplicaId(i as u32),
            role,
            health: inst.health,
            queue_depth: inst.prefill_queue.len() as u32,
            queued_tokens: inst.prefill_queue.queued_tokens(),
            inflight_tokens: inst.inflight_prefill_tokens,
            active_decodes,
            kv_utilization: inst.kv.utilization(),
        }
    }

    /// Current fleet view in instance order, as the router sees it.
    fn replica_snapshots(&self) -> impl Iterator<Item = ReplicaSnapshot> + '_ {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| Self::snapshot_of(i, inst))
    }

    /// Deterministic per-request draw from the analytic prefix hit model
    /// (§ [`crate::spec::PrefixHitModel`]): a splitmix64 hash of
    /// `seed ^ id` decides the Bernoulli hit, and the matched share is
    /// block-aligned and capped at prompt − 1 so the last prompt token's
    /// logits are always computed — mirroring `distserve_prefix`'s match
    /// cap. Independent of the jitter RNG, so enabling the model never
    /// perturbs fidelity draws.
    fn draw_cached_tokens(&self, req_id: u64, input_len: u32) -> u32 {
        let m = &self.cfg.prefix;
        if !m.enabled() || input_len < 2 {
            return 0;
        }
        let mut z = (self.cfg.seed ^ req_id).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        if u >= m.hit_prob {
            return 0;
        }
        let matched = (f64::from(input_len) * m.matched_frac) as u32;
        ((matched / BLOCK_TOKENS) * BLOCK_TOKENS).min(input_len - 1)
    }

    /// One router consultation: refresh the persistent state from the
    /// fleet (in place, no per-request allocation) and take — or replay
    /// — the verdict.
    fn consult_router(&mut self, features: &RequestFeatures) -> Decision {
        let instances = &self.instances;
        let router = self.router.as_mut().expect("routed mode");
        router.consult(
            instances
                .iter()
                .enumerate()
                .map(|(i, inst)| Self::snapshot_of(i, inst)),
            features,
        )
    }

    /// Routed arrival (or bounded-wait retry): consult the decision core
    /// and act on the verdict.
    fn route_arrival(&mut self, trace: &Trace, idx: usize, now: SimTime) {
        let req = &trace.requests()[idx];
        // The engine's hit model is instance-independent (no per-replica
        // cache directory at token granularity), so the features carry
        // the resolved match for logging/admission but no lineage group:
        // cache-affine placement stays a `ScaleSim` concern.
        let cached = self.states[&req.id].cached_tokens;
        let features = RequestFeatures {
            tenant: req.tenant,
            waited_secs: now.since(req.arrival).max(0.0),
            ..RequestFeatures::arrival(req.id.0, req.input_len, req.output_len)
        }
        .with_prefix(0, cached, self.cfg.prefix.hit_prob);
        match self.consult_router(&features) {
            // The decode field is a hint: the engine re-binds the decode
            // target at prefill completion (§4.3), when loads are fresher.
            Decision::Disagg {
                prefill: target, ..
            }
            | Decision::Coloc { replica: target } => self.enqueue(req.id, target.0 as usize, now),
            Decision::Queue { retry_after_secs } => {
                self.events
                    .push(now.after(retry_after_secs), Ev::RouterRetry(idx));
            }
            Decision::Shed {
                reason: ShedReason::OverCapacity,
            } => self.shed_routed(req.id, now),
            Decision::Shed {
                reason: ShedReason::NoCapablePath,
            } => self.park_or_fail_entry(req.id, now),
        }
    }

    /// A queued arrival re-consults the router with its accumulated
    /// wait; the decision core sheds it once the wait budget runs out.
    fn on_router_retry(&mut self, trace: &Trace, idx: usize, now: SimTime) {
        if self.states.contains_key(&trace.requests()[idx].id) {
            self.route_arrival(trace, idx, now);
        }
    }

    /// Router shed: same bookkeeping as [`ServingSim::reject_if_over_cap`]
    /// (the router's queue cap is the admission bound in routed mode).
    fn shed_routed(&mut self, id: RequestId, now: SimTime) {
        self.emit(id, now, LifecycleEvent::Rejected);
        self.sink
            .counter_add(metrics::REQUESTS_REJECTED, track_id(0), 1);
        self.states.remove(&id);
        self.rejected.push(id);
        self.remaining -= 1;
    }

    /// Admission control: when the dispatch target's prefill queue is at
    /// the configured cap, the arrival is rejected — terminal `Rejected`
    /// lifecycle event, rejection counter, and an entry in
    /// [`SimOutcome::rejected`] so attainment counts it as a miss.
    fn reject_if_over_cap(&mut self, id: RequestId, target: usize, now: SimTime) -> bool {
        let Some(cap) = self.cfg.admission_cap else {
            return false;
        };
        if self.instances[target].prefill_queue.len() < cap {
            return false;
        }
        self.emit(id, now, LifecycleEvent::Rejected);
        self.sink
            .counter_add(metrics::REQUESTS_REJECTED, track_id(target), 1);
        self.states.remove(&id);
        self.rejected.push(id);
        self.remaining -= 1;
        true
    }

    // ------------------------------------------------------------------
    // Disaggregated prefill instance.
    // ------------------------------------------------------------------

    fn try_prefill(&mut self, i: usize, now: SimTime) {
        let inst = &mut self.instances[i];
        if !inst.health.serves() || !inst.pipeline.stage0_free_at(now) {
            return;
        }
        // Split borrows: the admission callback allocates from the KV
        // buffer while the queue pops items.
        let Instance {
            prefill_queue, kv, ..
        } = inst;
        let Some(batch) = prefill_queue.form_batch(|it| kv.alloc(it.id, it.input_len).is_ok())
        else {
            return;
        };
        let (bid, commit, members, batch_tokens) = self.commit_prefill(i, &batch, now);
        self.instances[i].inflight_prefill_tokens += batch_tokens;
        for id in &members {
            self.kv_home.insert(*id, i);
        }
        self.instances[i].prefill_inflight.insert(bid, members);
        self.events.push(commit.done, Ev::PrefillDone(i, bid));
        self.events.push(commit.stage0_free, Ev::PrefillFree(i));
    }

    /// Commits a prefill batch whose members already hold KV on instance
    /// `i`: prices their billed prompt tokens (cached prefix tokens skip
    /// the forward pass; KV was allocated on the full length), marks
    /// them prefilling, and emits their starts, the batch slice, and
    /// `i`'s queue and KV gauges. Returns the batch id, its commit, the
    /// members, and the billed tokens.
    fn commit_prefill(
        &mut self,
        i: usize,
        batch: &[PrefillItem],
        now: SimTime,
    ) -> (u64, Commit, Vec<RequestId>, u64) {
        self.instances[i].note_kv();
        let members: Vec<RequestId> = batch.iter().map(|b| b.id).collect();
        let lens: Vec<u32> = members
            .iter()
            .map(|id| self.states[id].billed_prefill_len())
            .collect();
        let batch_tokens = lens.iter().map(|&l| u64::from(l)).sum::<u64>();
        let raw = self
            .cost
            .prefill_stage_time(
                &self.cfg.arch,
                self.instances[i].spec.par,
                &PrefillBatch::new(lens),
            )
            .total();
        let (bid, commit) = self.commit_step(i, raw, now);
        for id in &members {
            let st = self.states.get_mut(id).expect("state exists");
            if st.resume_generated == 0 {
                st.prefill_start = commit.start;
            }
            st.phase = RequestPhase::Prefilling;
        }
        for id in &members {
            self.emit(*id, commit.start, LifecycleEvent::PrefillStart);
        }
        self.emit_batch(
            i,
            "prefill",
            commit.start,
            commit.done,
            members.len(),
            batch_tokens,
            metrics::PREFILL_BATCHES,
            metrics::PREFILL_TOKENS,
        );
        self.instances[i]
            .prefill_queue
            .emit_depth(self.sink, track_id(i));
        self.emit_kv(i);
        (bid, commit, members, batch_tokens)
    }

    fn on_prefill_done(&mut self, i: usize, bid: u64, now: SimTime) {
        // A crash may have already drained the registry: stale completion.
        let Some(members) = self.instances[i].prefill_inflight.remove(&bid) else {
            return;
        };
        let done_tokens: u64 = members
            .iter()
            .map(|id| u64::from(self.states[id].billed_prefill_len()))
            .sum();
        self.instances[i].inflight_prefill_tokens = self.instances[i]
            .inflight_prefill_tokens
            .saturating_sub(done_tokens);
        for id in members {
            if self.deliver_first_token(i, id, now) {
                self.release_prefill_kv(id, now);
                self.finish_request(i, id, now);
            } else {
                self.states.get_mut(&id).expect("state exists").phase = RequestPhase::Transferring;
                self.route_to_decode(id, now);
            }
        }
        // Completing a batch may have freed stage slots.
        self.try_prefill(i, now);
    }

    /// `id`'s prefill on instance `i` finished at `now`. A fresh request
    /// gets its first token; a recomputation does not re-deliver it.
    /// Returns whether that token was the whole answer.
    fn deliver_first_token(&mut self, i: usize, id: RequestId, now: SimTime) -> bool {
        let st = self.states.get_mut(&id).expect("state exists");
        let fresh = st.resume_generated == 0;
        if fresh {
            st.first_token = now;
            self.instances[i].tokens_out += 1;
        }
        let answered = fresh && st.request.output_len <= 1;
        self.emit(id, now, LifecycleEvent::PrefillEnd);
        answered
    }

    /// Routes a transfer-ready request to the least-loaded decoding
    /// instance (§4.3).
    fn route_to_decode(&mut self, id: RequestId, now: SimTime) {
        match self.decode_target() {
            Some(d) => {
                self.instances[d].pull_queue.push_back(id);
                self.try_pull(d, now);
            }
            None => self.park_or_fail_pull(id, now),
        }
    }

    /// The least-loaded decoding instance that takes new work.
    fn decode_target(&self) -> Option<usize> {
        self.decode_ids
            .iter()
            .copied()
            .filter(|&d| self.instances[d].health.accepts_new_work())
            .min_by_key(|&d| self.instances[d].decode_load())
    }

    /// Every decoding instance is down: park `id` if one is on its way
    /// back, otherwise fail it.
    fn park_or_fail_pull(&mut self, id: RequestId, now: SimTime) {
        if self.recovery_pending(true) {
            self.parked_pull.push_back(id);
        } else {
            self.fail_request(id, now);
        }
    }

    fn release_prefill_kv(&mut self, id: RequestId, now: SimTime) {
        if let Some(home) = self.kv_home.remove(&id) {
            self.instances[home]
                .kv
                .free(id)
                .expect("prefill KV allocated");
            // Freed buffer space may unblock the prefill queue.
            self.try_prefill(home, now);
        }
    }

    // ------------------------------------------------------------------
    // KV transfer (pull-based, §4.3).
    // ------------------------------------------------------------------

    fn try_pull(&mut self, d: usize, now: SimTime) {
        if !self.instances[d].health.serves() || self.instances[d].pulling.is_some() {
            return;
        }
        let Some(&id) = self.instances[d].pull_queue.front() else {
            return;
        };
        let (input_len, output_len) = {
            let st = &self.states[&id];
            (st.request.input_len, st.request.output_len)
        };
        // Conservative admission: reserve the whole lifetime footprint so
        // decoding never preempts (see DESIGN.md).
        let total_tokens = input_len + output_len;
        if self.instances[d].kv.alloc(id, total_tokens).is_err() {
            // Head-of-line blocks until completions free blocks; the KV
            // stays buffered on the prefill side (the §4.3 buffer).
            return;
        }
        self.instances[d].note_kv();
        self.instances[d].pull_queue.pop_front();
        self.instances[d].pull_gen += 1;
        let gen = self.instances[d].pull_gen;
        self.instances[d].pulling = Some((id, gen));
        self.issue_pull(d, id, gen, now);
    }

    /// Launches (or relaunches after backoff) the wire transfer for the
    /// request currently occupying `d`'s pull channel.
    fn issue_pull(&mut self, d: usize, id: RequestId, gen: u64, now: SimTime) {
        let prefill_len = self.states[&id].prefill_len();
        let home = self.kv_home[&id];
        let wire = self.transfer.request_transfer_time(
            self.cluster,
            &self.instances[home].spec.stages,
            self.instances[home].spec.par,
            &self.instances[d].spec.stages,
            self.instances[d].spec.par,
            prefill_len + 1,
        );
        let wire = self.cfg.fidelity.perturb_transfer(wire) * self.link_slowdown;
        let st = self.states.get_mut(&id).expect("state exists");
        st.transfer_active = wire;
        self.emit(id, now, LifecycleEvent::KvMigrateStart);
        self.emit_kv(d);
        self.events
            .push(now.after(wire), Ev::TransferDone(d, id, gen));
    }

    fn on_transfer_done(&mut self, d: usize, id: RequestId, gen: u64, now: SimTime) {
        // Stale completion: the pull failed or the puller crashed since.
        if self.instances[d].pulling != Some((id, gen)) {
            return;
        }
        self.instances[d].pulling = None;
        self.release_prefill_kv(id, now);
        {
            let st = self.states.get_mut(&id).expect("state exists");
            let resume = st.resume_generated;
            if resume == 0 {
                st.transfer_done = now;
            }
            st.phase = RequestPhase::Decoding {
                generated: resume.max(1),
            };
            st.resume_generated = 0;
            st.transfer_attempt = 0;
        }
        self.emit(id, now, LifecycleEvent::KvMigrateEnd);
        self.sink
            .counter_add(metrics::KV_MIGRATIONS, track_id(d), 1);
        self.activate_decode(d, id);
        self.emit(id, now, LifecycleEvent::DecodeQueued);
        self.sink.gauge_set(
            metrics::DECODE_LOAD,
            track_id(d),
            self.instances[d].decode_load() as f64,
        );
        self.try_decode(d, now);
        self.try_pull(d, now);
    }

    fn activate_decode(&mut self, d: usize, id: RequestId) {
        let max = self.cfg.max_decode_batch;
        let inst = &mut self.instances[d];
        if !inst.join_group(id, max) {
            inst.overflow.push_back(id);
        }
    }

    // ------------------------------------------------------------------
    // Disaggregated decoding instance.
    // ------------------------------------------------------------------

    fn try_decode(&mut self, d: usize, now: SimTime) {
        let inst = &mut self.instances[d];
        if !inst.health.serves() || !inst.pipeline.stage0_free_at(now) {
            return;
        }
        // Round-robin over micro-batch groups so every group iterates
        // once per pipeline traversal.
        let n = inst.groups.len();
        let mut chosen = None;
        for off in 0..n {
            let g = (inst.next_group + off) % n;
            if !inst.groups[g].busy && !inst.groups[g].members.is_empty() {
                chosen = Some(g);
                break;
            }
        }
        let Some(g) = chosen else { return };
        inst.next_group = (g + 1) % n;
        inst.groups[g].busy = true;
        let members = inst.groups[g].members.clone();
        let (bid, commit) = self.commit_decode(d, &members, now);
        self.instances[d].decode_inflight.insert(bid, (g, members));
        self.events.push(commit.done, Ev::DecodeDone(d, bid));
        self.events.push(commit.stage0_free, Ev::DecodeFree(d));
    }

    /// Commits one decoding iteration of `members` on instance `i`:
    /// prices their current contexts, stamps first decode steps, and
    /// emits the batch slice.
    fn commit_decode(&mut self, i: usize, members: &[RequestId], now: SimTime) -> (u64, Commit) {
        let batch = self.decode_batch(members);
        let raw = self
            .cost
            .decode_stage_time(&self.cfg.arch, self.instances[i].spec.par, &batch)
            .total();
        let (bid, commit) = self.commit_step(i, raw, now);
        self.stamp_decode_start(members, commit.start);
        self.emit_batch(
            i,
            "decode",
            commit.start,
            commit.done,
            members.len(),
            members.len() as u64,
            metrics::DECODE_BATCHES,
            metrics::DECODE_TOKENS,
        );
        (bid, commit)
    }

    /// The decode batch of `members`' current contexts: prompt plus the
    /// tokens generated so far.
    fn decode_batch(&self, members: &[RequestId]) -> DecodeBatch {
        let contexts = members
            .iter()
            .map(|id| {
                let st = &self.states[id];
                let RequestPhase::Decoding { generated } = st.phase else {
                    unreachable!("decode batch member not decoding");
                };
                st.request.input_len + generated
            })
            .collect();
        DecodeBatch::new(contexts)
    }

    /// Stamps `decode_start` on the members taking their first decode
    /// step in a step launched at `start`.
    fn stamp_decode_start(&mut self, members: &[RequestId], start: SimTime) {
        for id in members {
            let st = self.states.get_mut(id).expect("state exists");
            if matches!(st.phase, RequestPhase::Decoding { generated: 1 })
                && st.decode_start <= st.transfer_done
            {
                st.decode_start = start;
            }
        }
    }

    fn on_decode_done(&mut self, d: usize, bid: u64, now: SimTime) {
        // A crash may have already drained the registry: stale completion.
        let Some((g, members)) = self.instances[d].decode_inflight.remove(&bid) else {
            return;
        };
        self.instances[d].groups[g].busy = false;
        let mut freed = false;
        for id in members {
            if self.deliver_decode_token(d, id, now) {
                freed = true;
                self.instances[d].groups[g].members.retain(|m| *m != id);
                self.finish_request(d, id, now);
            }
        }
        // Refill groups from the overflow queue.
        let max = self.cfg.max_decode_batch;
        let inst = &mut self.instances[d];
        while let Some(&next) = inst.overflow.front() {
            if !inst.join_group(next, max) {
                break;
            }
            inst.overflow.pop_front();
        }
        if freed {
            self.emit_kv(d);
            self.sink.gauge_set(
                metrics::DECODE_LOAD,
                track_id(d),
                self.instances[d].decode_load() as f64,
            );
            self.try_pull(d, now);
        }
        self.try_decode(d, now);
    }

    /// A decode step on instance `i` delivered `id`'s next token at
    /// `now`. Returns whether that was its last, having freed its KV.
    fn deliver_decode_token(&mut self, i: usize, id: RequestId, now: SimTime) -> bool {
        self.instances[i].tokens_out += 1;
        let st = self.states.get_mut(&id).expect("state exists");
        let RequestPhase::Decoding { generated } = &mut st.phase else {
            unreachable!("decode member not decoding");
        };
        *generated += 1;
        let (done, generated) = (*generated >= st.request.output_len, *generated);
        self.emit(id, now, LifecycleEvent::DecodeStep { generated });
        if done {
            self.instances[i].kv.free(id).expect("decode KV allocated");
        }
        done
    }

    // ------------------------------------------------------------------
    // Colocated (vLLM baseline) instance.
    // ------------------------------------------------------------------

    fn try_coloc(&mut self, c: usize, now: SimTime) {
        if !self.instances[c].health.serves() || self.instances[c].coloc_busy {
            return;
        }
        if let Some(chunk) = self.instances[c].spec.policy.chunked_prefill {
            self.try_coloc_chunked(c, chunk, now);
            return;
        }
        // vLLM iteration-level scheduling: prefill prioritized, whole
        // prompts, decode otherwise.
        let max_running = self.cfg.max_decode_batch;
        let running_len = self.instances[c].running.len();
        let Instance {
            prefill_queue, kv, ..
        } = &mut self.instances[c];
        let mut admitted = 0usize;
        let batch = prefill_queue.form_batch(|it| {
            if running_len + admitted >= max_running {
                return false;
            }
            let st = &self.states[&it.id];
            let ok = kv
                .alloc(it.id, it.input_len + st.request.output_len)
                .is_ok();
            if ok {
                admitted += 1;
            }
            ok
        });
        let (bid, commit, step) = if let Some(batch) = batch {
            let (bid, commit, members, _) = self.commit_prefill(c, &batch, now);
            (bid, commit, ColocStep::Prefill(members))
        } else if !self.instances[c].running.is_empty() {
            let members = self.instances[c].running.clone();
            let (bid, commit) = self.commit_decode(c, &members, now);
            (bid, commit, ColocStep::Decode(members))
        } else {
            return;
        };
        let inst = &mut self.instances[c];
        inst.coloc_busy = true;
        inst.coloc_inflight.insert(bid, step);
        self.events.push(commit.done, Ev::ColocDone(c, bid));
    }

    fn try_coloc_chunked(&mut self, c: usize, chunk: u32, now: SimTime) {
        // SARATHI-style: one step carries the decoding batch plus up to
        // `chunk` prompt tokens taken from the head of the queue.
        let max_running = self.cfg.max_decode_batch;
        let mut chunks: Vec<(RequestId, u32, bool)> = Vec::new();
        let mut pbatch = PrefillBatch::empty();
        let mut budget = chunk;
        while let Some(head) = self.instances[c].prefill_queue.front().copied() {
            if budget == 0 {
                break;
            }
            let mut prior = *self.instances[c].chunk_progress.get(&head.id).unwrap_or(&0);
            if prior == 0 {
                // First chunk: admit with the whole lifetime footprint.
                if self.instances[c].running.len() + chunks.len() >= max_running {
                    break;
                }
                let output_len = self.states[&head.id].request.output_len;
                if self.instances[c]
                    .kv
                    .alloc(head.id, head.input_len + output_len)
                    .is_err()
                {
                    break;
                }
                self.instances[c].note_kv();
                let st = self.states.get_mut(&head.id).expect("state exists");
                if st.resume_generated == 0 {
                    st.prefill_start = now;
                }
                st.phase = RequestPhase::Prefilling;
                self.emit(head.id, now, LifecycleEvent::PrefillStart);
                self.emit_kv(c);
                // Prefix-cached tokens are pre-existing context: chunks
                // attend over them (the `prior` offset) without ever
                // computing them, so they count as progress up front.
                prior = head.input_len - self.states[&head.id].billed_prefill_len();
            }
            let remaining = head.input_len - prior;
            let take = remaining.min(budget);
            let last = take == remaining;
            pbatch.push_chunk(take, prior);
            chunks.push((head.id, take, last));
            budget -= take;
            if last {
                self.instances[c].prefill_queue.pop_front();
                self.instances[c].chunk_progress.remove(&head.id);
            } else {
                self.instances[c]
                    .chunk_progress
                    .insert(head.id, prior + take);
                break; // Partial head: nothing further can be taken.
            }
        }
        let members = self.instances[c].running.clone();
        if chunks.is_empty() && members.is_empty() {
            return;
        }
        let dbatch = self.decode_batch(&members);
        let raw = self
            .cost
            .mixed_stage_time(&self.cfg.arch, self.instances[c].spec.par, &pbatch, &dbatch)
            .total();
        let (bid, commit) = self.commit_step(c, raw, now);
        self.instances[c].coloc_busy = true;
        self.stamp_decode_start(&members, commit.start);
        let chunk_tokens = chunks
            .iter()
            .map(|&(_, take, _)| u64::from(take))
            .sum::<u64>();
        self.emit_batch(
            c,
            "mixed",
            commit.start,
            commit.done,
            chunks.len() + members.len(),
            chunk_tokens + members.len() as u64,
            metrics::DECODE_BATCHES,
            metrics::DECODE_TOKENS,
        );
        self.instances[c]
            .prefill_queue
            .emit_depth(self.sink, track_id(c));
        let inst = &mut self.instances[c];
        inst.coloc_inflight.insert(
            bid,
            ColocStep::Mixed {
                chunks,
                decodes: members,
            },
        );
        self.events.push(commit.done, Ev::ColocDone(c, bid));
    }

    fn on_coloc_done(&mut self, c: usize, bid: u64, now: SimTime) {
        // A crash may have already drained the registry: stale completion.
        let Some(step) = self.instances[c].coloc_inflight.remove(&bid) else {
            return;
        };
        self.instances[c].coloc_busy = false;
        match step {
            ColocStep::Prefill(members) => {
                for id in members {
                    self.coloc_first_token(c, id, now);
                }
            }
            ColocStep::Decode(members) => {
                for id in members {
                    self.coloc_decode_token(c, id, now);
                }
            }
            ColocStep::Mixed { chunks, decodes } => {
                for (id, _take, last) in chunks {
                    if last {
                        self.coloc_first_token(c, id, now);
                    }
                }
                for id in decodes {
                    self.coloc_decode_token(c, id, now);
                }
            }
        }
        self.try_coloc(c, now);
    }

    fn coloc_first_token(&mut self, c: usize, id: RequestId, now: SimTime) {
        let st = self.states.get_mut(&id).expect("state exists");
        if st.resume_generated == 0 {
            st.transfer_done = now;
        }
        if self.deliver_first_token(c, id, now) {
            self.instances[c].kv.free(id).expect("coloc KV allocated");
            self.emit_kv(c);
            self.finish_request(c, id, now);
        } else {
            let st = self.states.get_mut(&id).expect("state exists");
            st.phase = RequestPhase::Decoding {
                generated: st.resume_generated.max(1),
            };
            st.resume_generated = 0;
            self.emit(id, now, LifecycleEvent::DecodeQueued);
            self.instances[c].running.push(id);
        }
    }

    fn coloc_decode_token(&mut self, c: usize, id: RequestId, now: SimTime) {
        if self.deliver_decode_token(c, id, now) {
            self.emit_kv(c);
            self.instances[c].running.retain(|m| *m != id);
            self.finish_request(c, id, now);
        }
    }

    // ------------------------------------------------------------------
    // Completion.
    // ------------------------------------------------------------------

    fn finish_request(&mut self, track: usize, id: RequestId, now: SimTime) {
        let mut st = self.states.remove(&id).expect("state exists");
        if st.request.output_len <= 1 {
            // The prefill produced the whole answer: no transfer or
            // decoding stage.
            st.transfer_done = now;
            st.decode_start = now;
        }
        st.completion = now;
        st.phase = RequestPhase::Done;
        self.emit_tenant(id, st.request.tenant, now, LifecycleEvent::Finished);
        self.sink
            .counter_add(metrics::REQUESTS_FINISHED, track_id(track), 1);
        self.records.push(st.into_record());
        self.remaining -= 1;
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery.
    // ------------------------------------------------------------------

    /// Terminal failure: the request leaves the system unfinished. Frees
    /// any prefill-side KV it still holds (callers free decode-side KV
    /// before calling).
    fn fail_request(&mut self, id: RequestId, now: SimTime) {
        if let Some(home) = self.kv_home.remove(&id) {
            let _ = self.instances[home].kv.free(id);
        }
        if let Some(st) = self.states.remove(&id) {
            self.emit_tenant(id, st.request.tenant, now, LifecycleEvent::Failed);
            self.sink
                .counter_add(metrics::REQUESTS_FAILED, track_id(0), 1);
            self.failed.push(id);
            self.remaining -= 1;
        }
    }

    /// Charges one retry against `id`'s budget, emitting the lifecycle
    /// event. Returns `false` (after failing the request) when the budget
    /// is exhausted.
    fn charge_retry(&mut self, id: RequestId, now: SimTime) -> bool {
        if !self.retry_policy.allows(self.states[&id].retries) {
            self.fail_request(id, now);
            return false;
        }
        let st = self.states.get_mut(&id).expect("state exists");
        st.retries += 1;
        let attempt = st.retries;
        self.emit(id, now, LifecycleEvent::Retried { attempt });
        self.sink
            .counter_add(metrics::REQUEST_RETRIES, track_id(0), 1);
        true
    }

    /// Sends a request back through prefill dispatch after its work was
    /// lost. `charge` distinguishes lost execution (charged against the
    /// retry budget) from merely queued work being moved (free).
    fn redispatch_prefill(&mut self, id: RequestId, now: SimTime, charge: bool) {
        if !self.states.contains_key(&id) {
            return;
        }
        if charge && !self.charge_retry(id, now) {
            return;
        }
        self.states.get_mut(&id).expect("state exists").phase = RequestPhase::WaitingPrefill;
        self.dispatch_prefill(id, now);
    }

    /// Queues `id` on the best surviving prefill-capable instance.
    /// Re-dispatches bypass the admission cap: the system already
    /// accepted the request once.
    fn dispatch_prefill(&mut self, id: RequestId, now: SimTime) {
        let target = if self.router.is_some() {
            let st = &self.states[&id];
            let features = RequestFeatures {
                readmission: true,
                ..RequestFeatures::arrival(id.0, st.prefill_len(), st.request.output_len)
            }
            .with_tenant(st.request.tenant)
            .with_prefix(0, st.cached_tokens, self.cfg.prefix.hit_prob);
            match self.consult_router(&features) {
                Decision::Disagg {
                    prefill: target, ..
                }
                | Decision::Coloc { replica: target } => Some(target.0 as usize),
                // Re-admissions bypass the queue cap, so the core only
                // declines when no path accepts work at all.
                _ => None,
            }
        } else {
            self.entry_target()
        };
        match target {
            Some(target) => self.enqueue(id, target, now),
            None => self.park_or_fail_entry(id, now),
        }
    }

    fn on_fault(&mut self, idx: usize, now: SimTime) {
        let fault = self.faults[idx];
        self.faults_injected += 1;
        let track = fault
            .kind
            .instance()
            .filter(|&i| i < self.instances.len())
            .unwrap_or(0);
        self.sink
            .counter_add(metrics::FAULTS_INJECTED, track_id(track), 1);
        match fault.kind {
            FaultKind::InstanceCrash {
                instance,
                downtime_secs,
            } => {
                if instance < self.instances.len() {
                    self.crash_instance(instance, now, Some(downtime_secs));
                }
            }
            FaultKind::GpuLoss { instance } => {
                if instance < self.instances.len() {
                    self.crash_instance(instance, now, None);
                }
            }
            FaultKind::LinkDegradation {
                factor,
                duration_secs,
            } => {
                self.link_slowdown = factor.max(1.0);
                self.events
                    .push(now.after(duration_secs.max(0.0)), Ev::LinkRestore);
            }
            FaultKind::Straggler {
                instance,
                factor,
                duration_secs,
            } => {
                if instance >= self.instances.len() {
                    return;
                }
                let inst = &mut self.instances[instance];
                if inst.health.accepts_new_work() {
                    inst.health = InstanceHealth::Degraded {
                        slowdown: factor.max(1.0),
                    };
                    self.events.push(
                        now.after(duration_secs.max(0.0)),
                        Ev::StragglerEnd(instance),
                    );
                }
            }
            FaultKind::KvTransferFailure { instance } => {
                if instance < self.instances.len() {
                    self.fail_active_pull(instance, now);
                }
            }
            FaultKind::Drain {
                instance,
                maintenance_secs,
            } => {
                if instance >= self.instances.len() {
                    return;
                }
                let inst = &mut self.instances[instance];
                if inst.health.accepts_new_work() {
                    inst.health = InstanceHealth::Draining;
                    inst.drain_secs = maintenance_secs.max(1e-3);
                    inst.recover_scheduled = true;
                }
            }
        }
    }

    /// Takes instance `i` down at `now`. `downtime` schedules a restart;
    /// `None` models permanent loss (GPU failure) that only replanning
    /// onto the shrunk cluster can repair.
    fn crash_instance(&mut self, i: usize, now: SimTime, downtime: Option<f64>) {
        if self.instances[i].health.is_down() {
            return;
        }
        self.instances[i].recover_scheduled = downtime.is_some();
        // Warm-up (weight reload) takes another 10% of the outage.
        let back = downtime.map(|d| d.max(1e-3)).map(|d| (d, d * 1.1));
        self.take_down(i, now, back);
        let role = self.instances[i].spec.role;
        match role {
            InstanceRole::Prefill => self.crash_prefill(i, now),
            InstanceRole::Decode => self.crash_decode(i, now),
            InstanceRole::Colocated => self.crash_coloc(i, now),
        }
        // A permanent loss can cancel the last recovery its side was
        // parking work behind (a drain's, say); nothing would release
        // that work again.
        let decode = role == InstanceRole::Decode;
        if downtime.is_none() && !self.recovery_pending(decode) {
            self.release_parked(decode, now);
        }
    }

    /// Prefill crash: queued work moves for free; in-flight batches and
    /// transfers buffered on this instance lose their KV and are
    /// recomputed (charged against the retry budget).
    fn crash_prefill(&mut self, i: usize, now: SimTime) {
        let queued = self.instances[i].prefill_queue.drain_all();
        let mut inflight: Vec<(u64, Vec<RequestId>)> =
            self.instances[i].prefill_inflight.drain().collect();
        inflight.sort_by_key(|&(bid, _)| bid);
        self.instances[i].inflight_prefill_tokens = 0;
        self.instances[i]
            .prefill_queue
            .emit_depth(self.sink, track_id(i));
        // Transfers sourced from this instance lose their buffered KV.
        let mut lost_transfers: Vec<RequestId> = Vec::new();
        let decode_ids = self.decode_ids.clone();
        for d in decode_ids {
            let queue = std::mem::take(&mut self.instances[d].pull_queue);
            for id in queue {
                if self.kv_home.get(&id) == Some(&i) {
                    lost_transfers.push(id);
                } else {
                    self.instances[d].pull_queue.push_back(id);
                }
            }
            if let Some((id, _gen)) = self.instances[d].pulling {
                if self.kv_home.get(&id) == Some(&i) {
                    let _ = self.instances[d].kv.free(id);
                    self.instances[d].pulling = None;
                    lost_transfers.push(id);
                    self.emit_kv(d);
                    self.try_pull(d, now);
                }
            }
        }
        for (_bid, members) in inflight {
            for id in members {
                let _ = self.instances[i].kv.free(id);
                self.kv_home.remove(&id);
                self.redispatch_prefill(id, now, true);
            }
        }
        for it in queued {
            self.redispatch_prefill(it.id, now, false);
        }
        for id in lost_transfers {
            let _ = self.instances[i].kv.free(id);
            self.kv_home.remove(&id);
            self.redispatch_prefill(id, now, true);
        }
        self.emit_kv(i);
    }

    /// Decode crash: requests mid-transfer retry (remigrate or recompute,
    /// whichever is cheaper); active decoders lose their KV and re-prefill
    /// on a survivor, resuming token emission where they stopped.
    fn crash_decode(&mut self, d: usize, now: SimTime) {
        let mut transferring: Vec<RequestId> = Vec::new();
        if let Some((id, _gen)) = self.instances[d].pulling.take() {
            let _ = self.instances[d].kv.free(id);
            transferring.push(id);
        }
        transferring.extend(std::mem::take(&mut self.instances[d].pull_queue));
        let mut decoding: Vec<RequestId> = Vec::new();
        {
            let inst = &mut self.instances[d];
            for g in &mut inst.groups {
                decoding.append(&mut g.members);
                g.busy = false;
            }
            decoding.extend(inst.overflow.drain(..));
            inst.decode_inflight.clear();
        }
        for &id in &decoding {
            self.drop_crashed_kv(d, id);
        }
        self.sink.gauge_set(metrics::DECODE_LOAD, track_id(d), 0.0);
        self.emit_kv(d);
        for id in decoding {
            self.redispatch_prefill(id, now, true);
        }
        for id in transferring {
            self.recover_transferring(id, now);
        }
    }

    /// Frees `id`'s KV on crashed instance `i`. A decoding request keeps
    /// its progress: its re-prefill recomputes the delivered tokens and
    /// decoding resumes after them.
    fn drop_crashed_kv(&mut self, i: usize, id: RequestId) {
        let _ = self.instances[i].kv.free(id);
        if let Some(st) = self.states.get_mut(&id) {
            if let RequestPhase::Decoding { generated } = st.phase {
                st.resume_generated = generated;
            }
        }
    }

    /// A request whose pull target died still holds buffered KV on its
    /// prefill instance. Choose the cheaper recovery: remigrate the
    /// buffer to a surviving decoder, or recompute the prefill (§3.3's
    /// bandwidth arithmetic decides which).
    fn recover_transferring(&mut self, id: RequestId, now: SimTime) {
        if !self.states.contains_key(&id) {
            return;
        }
        if !self.charge_retry(id, now) {
            return;
        }
        let Some(target) = self.decode_target() else {
            self.park_or_fail_pull(id, now);
            return;
        };
        let prefill_len = self.states[&id].prefill_len();
        let home = self.kv_home[&id];
        let remigrate = self.transfer.request_transfer_time(
            self.cluster,
            &self.instances[home].spec.stages,
            self.instances[home].spec.par,
            &self.instances[target].spec.stages,
            self.instances[target].spec.par,
            prefill_len + 1,
        ) * self.link_slowdown;
        let recompute = self
            .prefill_ids
            .iter()
            .copied()
            .filter(|&p| self.instances[p].health.accepts_new_work())
            .map(|p| {
                let inst = &self.instances[p];
                let stage = self
                    .cost
                    .prefill_stage_time(
                        &self.cfg.arch,
                        inst.spec.par,
                        &PrefillBatch::new(vec![prefill_len]),
                    )
                    .total();
                stage * f64::from(inst.spec.par.pp)
                    + self.transfer.request_transfer_time(
                        self.cluster,
                        &inst.spec.stages,
                        inst.spec.par,
                        &self.instances[target].spec.stages,
                        self.instances[target].spec.par,
                        prefill_len + 1,
                    ) * self.link_slowdown
            })
            .fold(f64::INFINITY, f64::min);
        if remigrate <= recompute {
            self.instances[target].pull_queue.push_back(id);
            self.try_pull(target, now);
        } else {
            // Recomputing next to a live prefill instance beats dragging
            // the buffer across a degraded or congested path.
            if let Some(h) = self.kv_home.remove(&id) {
                let _ = self.instances[h].kv.free(id);
                self.emit_kv(h);
            }
            self.states.get_mut(&id).expect("state exists").phase = RequestPhase::WaitingPrefill;
            self.dispatch_prefill(id, now);
        }
    }

    /// Colocated crash: everything on the engine — queued, chunk-partial,
    /// prefilling, decoding — loses its KV. Execution already spent is
    /// charged; merely queued work moves for free.
    fn crash_coloc(&mut self, c: usize, now: SimTime) {
        let queued = self.instances[c].prefill_queue.drain_all();
        let mut charged: Vec<RequestId> = self.instances[c].running.drain(..).collect();
        let mut steps: Vec<(u64, ColocStep)> = self.instances[c].coloc_inflight.drain().collect();
        steps.sort_by_key(|&(bid, _)| bid);
        for (_bid, step) in steps {
            match step {
                ColocStep::Prefill(m) | ColocStep::Decode(m) => charged.extend(m),
                ColocStep::Mixed { chunks, decodes } => {
                    charged.extend(chunks.into_iter().map(|(id, _, _)| id));
                    charged.extend(decodes);
                }
            }
        }
        charged.sort_unstable();
        charged.dedup();
        self.instances[c].coloc_busy = false;
        self.instances[c].chunk_progress.clear();
        // A chunk-partial head sits in the queue *and* in the in-flight
        // step; it is charged, not double-dispatched.
        let queued: Vec<PrefillItem> = queued
            .into_iter()
            .filter(|it| !charged.contains(&it.id))
            .collect();
        for &id in &charged {
            self.drop_crashed_kv(c, id);
        }
        for it in &queued {
            // Chunk-partial heads hold an allocation despite being queued.
            let _ = self.instances[c].kv.free(it.id);
        }
        self.instances[c]
            .prefill_queue
            .emit_depth(self.sink, track_id(c));
        self.emit_kv(c);
        for id in charged {
            self.redispatch_prefill(id, now, true);
        }
        for it in queued {
            self.redispatch_prefill(it.id, now, false);
        }
    }

    /// The transfer in flight into decode instance `d` fails; retry after
    /// capped exponential backoff, keeping the pull channel reserved so
    /// the queue order is preserved.
    fn fail_active_pull(&mut self, d: usize, now: SimTime) {
        let Some((id, _gen)) = self.instances[d].pulling else {
            return;
        };
        self.sink
            .counter_add(metrics::KV_TRANSFER_RETRIES, track_id(d), 1);
        let st = self.states.get_mut(&id).expect("state exists");
        st.transfer_attempt += 1;
        if !self.retry_policy.allows(st.retries) {
            let _ = self.instances[d].kv.free(id);
            self.instances[d].pulling = None;
            self.emit_kv(d);
            self.fail_request(id, now);
            self.try_pull(d, now);
            return;
        }
        // Within budget, so the charge succeeds.
        self.charge_retry(id, now);
        let backoff = self
            .retry_policy
            .backoff_secs(self.states[&id].transfer_attempt);
        self.instances[d].pull_gen += 1;
        let gen = self.instances[d].pull_gen;
        self.instances[d].pulling = Some((id, gen));
        self.events
            .push(now.after(backoff), Ev::RetryPull(d, id, gen));
    }

    fn on_retry_pull(&mut self, d: usize, id: RequestId, gen: u64, now: SimTime) {
        if self.instances[d].pulling != Some((id, gen)) {
            return;
        }
        if !self.states.contains_key(&id) {
            self.instances[d].pulling = None;
            self.try_pull(d, now);
            return;
        }
        self.issue_pull(d, id, gen, now);
    }

    /// Completes planned maintenance: a draining instance that has gone
    /// idle is taken down for its maintenance window.
    fn check_drains(&mut self, now: SimTime) {
        for i in 0..self.instances.len() {
            if self.instances[i].health != InstanceHealth::Draining || !self.instance_idle(i) {
                continue;
            }
            let window = self.instances[i].drain_secs.max(1e-3);
            self.take_down(i, now, Some((window * 0.9, window)));
        }
    }

    /// Takes instance `i` down at `now`. With `back = (warm, up)` it
    /// starts warming up `warm` seconds later and takes traffic again
    /// after `up`.
    fn take_down(&mut self, i: usize, now: SimTime, back: Option<(f64, f64)>) {
        let inst = &mut self.instances[i];
        inst.health = InstanceHealth::Down;
        inst.down_since = Some(now);
        inst.up_gen += 1;
        let gen = inst.up_gen;
        self.sink.gauge_set(metrics::INSTANCE_UP, track_id(i), 0.0);
        if let Some((warm, up)) = back {
            self.events
                .push(now.after(warm), Ev::InstanceRecovering(i, gen));
            self.events.push(now.after(up), Ev::InstanceUp(i, gen));
        }
    }

    fn instance_idle(&self, i: usize) -> bool {
        let inst = &self.instances[i];
        match inst.spec.role {
            InstanceRole::Prefill => {
                inst.prefill_queue.is_empty()
                    && inst.prefill_inflight.is_empty()
                    && inst.kv.utilization() == 0.0
            }
            InstanceRole::Decode => {
                inst.groups.iter().all(|g| g.members.is_empty())
                    && inst.overflow.is_empty()
                    && inst.pull_queue.is_empty()
                    && inst.pulling.is_none()
                    && inst.decode_inflight.is_empty()
            }
            InstanceRole::Colocated => {
                inst.prefill_queue.is_empty()
                    && inst.running.is_empty()
                    && inst.coloc_inflight.is_empty()
            }
        }
    }

    fn on_instance_recovering(&mut self, i: usize, gen: u64) {
        let inst = &mut self.instances[i];
        if inst.up_gen == gen && inst.health == InstanceHealth::Down {
            inst.health = InstanceHealth::Recovering;
        }
    }

    fn on_instance_up(&mut self, i: usize, gen: u64, now: SimTime) {
        if self.instances[i].up_gen != gen {
            return;
        }
        {
            let inst = &mut self.instances[i];
            inst.health = InstanceHealth::Up;
            if let Some(since) = inst.down_since.take() {
                inst.downtime_secs += now.since(since).max(0.0);
            }
            inst.recover_scheduled = false;
        }
        self.sink.gauge_set(metrics::INSTANCE_UP, track_id(i), 1.0);
        self.release_parked(self.instances[i].spec.role == InstanceRole::Decode, now);
        self.kick(i, now);
    }

    fn on_straggler_end(&mut self, i: usize) {
        if matches!(self.instances[i].health, InstanceHealth::Degraded { .. }) {
            self.instances[i].health = InstanceHealth::Up;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_models::{OptModel, ParallelismConfig, RooflineModel};
    use distserve_simcore::SimRng;
    use distserve_workload::datasets::FixedLengths;
    use distserve_workload::TraceBuilder;

    fn cluster() -> Cluster {
        Cluster::single_node(8)
    }

    fn coloc_deployment(c: &Cluster) -> Vec<InstanceSpec> {
        vec![InstanceSpec::new(
            InstanceRole::Colocated,
            ParallelismConfig::SINGLE,
            vec![vec![c.gpu(0, 0)]],
        )
        .unwrap()]
    }

    fn disagg_deployment(c: &Cluster) -> Vec<InstanceSpec> {
        vec![
            InstanceSpec::new(
                InstanceRole::Prefill,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 0)]],
            )
            .unwrap(),
            InstanceSpec::new(
                InstanceRole::Decode,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 1)]],
            )
            .unwrap(),
        ]
    }

    fn fixed_trace(n: usize, rate: f64, seed: u64) -> Trace {
        let mut rng = SimRng::seed(seed);
        TraceBuilder::new(Box::new(FixedLengths {
            input_len: 512,
            output_len: 64,
        }))
        .rate(rate)
        .num_requests(n)
        .build(&mut rng)
    }

    fn run(specs: Vec<InstanceSpec>, trace: &Trace) -> SimOutcome {
        let cost = RooflineModel::a100();
        let cl = cluster();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let sim = ServingSim::new(cfg, &cost, &cl, specs).unwrap();
        sim.run(trace)
    }

    #[test]
    fn colocated_completes_all_requests() {
        let cl = cluster();
        let trace = fixed_trace(50, 1.0, 1);
        let out = run(coloc_deployment(&cl), &trace);
        assert_eq!(out.records.len(), 50);
        for r in &out.records {
            assert!(r.ttft() > 0.0);
            assert!(r.tpot() > 0.0);
            assert!(r.completion >= r.first_token);
        }
    }

    #[test]
    fn disaggregated_completes_all_requests() {
        let cl = cluster();
        let trace = fixed_trace(50, 1.0, 2);
        let out = run(disagg_deployment(&cl), &trace);
        assert_eq!(out.records.len(), 50);
        for r in &out.records {
            // Transfer over NVLink exists but is small.
            assert!(r.transfer_active > 0.0);
            assert!(r.transfer_active < 0.01);
            let b = r.breakdown();
            assert!((b.total() - r.total_latency()).abs() < 1e-9);
        }
    }

    #[test]
    fn prefix_hit_model_discounts_ttft_on_every_path() {
        // A certain hit on half the prompt must shorten prefill — and
        // therefore TTFT — on the split, colocated, and chunked paths
        // alike, without changing completion counts.
        let cl = cluster();
        let trace = fixed_trace(80, 2.0, 5);
        let cost = RooflineModel::a100();
        let chunked = |c: &Cluster| {
            vec![InstanceSpec::new(
                InstanceRole::Colocated,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 0)]],
            )
            .unwrap()
            .with_policy(crate::spec::ColocatedPolicy {
                chunked_prefill: Some(256),
                ..Default::default()
            })]
        };
        for specs in [disagg_deployment(&cl), coloc_deployment(&cl), chunked(&cl)] {
            let cold_cfg = SimConfig::new(OptModel::Opt13B.arch());
            let warm_cfg = SimConfig::new(OptModel::Opt13B.arch()).with_prefix_model(1.0, 0.5);
            let cold = ServingSim::new(cold_cfg, &cost, &cl, specs.clone())
                .unwrap()
                .run(&trace);
            let warm = ServingSim::new(warm_cfg, &cost, &cl, specs)
                .unwrap()
                .run(&trace);
            assert_eq!(warm.records.len(), cold.records.len());
            let cold_ttft = cold.ttft_summary().mean();
            let warm_ttft = warm.ttft_summary().mean();
            assert!(
                warm_ttft < cold_ttft,
                "warm mean TTFT {warm_ttft} not below cold {cold_ttft}"
            );
        }
    }

    #[test]
    fn prefix_hit_draw_is_deterministic_and_block_aligned() {
        let cl = cluster();
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch()).with_prefix_model(0.6, 0.5);
        let sim = ServingSim::new(cfg.clone(), &cost, &cl, coloc_deployment(&cl)).unwrap();
        let mut hits = 0u32;
        for id in 0..200u64 {
            let a = sim.draw_cached_tokens(id, 512);
            let b = sim.draw_cached_tokens(id, 512);
            assert_eq!(a, b, "draw must be a pure function of (seed, id)");
            assert_eq!(a % BLOCK_TOKENS, 0, "matched tokens must be block-aligned");
            assert!(a < 512);
            if a > 0 {
                hits += 1;
            }
        }
        // 0.6 hit probability over 200 draws: comfortably within
        // [60, 180] unless the hash is broken.
        assert!((60..=180).contains(&hits), "implausible hit count {hits}");
        // Disabled model never matches.
        let off = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cl,
            coloc_deployment(&cl),
        )
        .unwrap();
        assert_eq!(off.draw_cached_tokens(7, 512), 0);
    }

    #[test]
    fn disaggregation_improves_tpot_under_load() {
        // The headline interference claim (Figure 1): at a rate where the
        // colocated engine's decode steps keep getting delayed by prefill
        // steps, the disaggregated decode instance keeps TPOT near the
        // pure step time.
        let cl = cluster();
        let trace = fixed_trace(200, 4.0, 3);
        let coloc = run(coloc_deployment(&cl), &trace);
        let disagg = run(disagg_deployment(&cl), &trace);
        let coloc_tpot = coloc.tpot_summary().percentile(0.9);
        let disagg_tpot = disagg.tpot_summary().percentile(0.9);
        assert!(
            disagg_tpot < coloc_tpot * 0.6,
            "disagg P90 TPOT {disagg_tpot} vs coloc {coloc_tpot}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cl = cluster();
        let trace = fixed_trace(80, 2.0, 4);
        let a = run(disagg_deployment(&cl), &trace);
        let b = run(disagg_deployment(&cl), &trace);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn detailed_fidelity_slower_than_ideal() {
        let cl = cluster();
        let trace = fixed_trace(60, 1.0, 5);
        let cost = RooflineModel::a100();
        let ideal = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cl,
            disagg_deployment(&cl),
        )
        .unwrap()
        .run(&trace);
        let detailed = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()).detailed(),
            &cost,
            &cl,
            disagg_deployment(&cl),
        )
        .unwrap()
        .run(&trace);
        assert!(
            detailed.ttft_summary().mean() > ideal.ttft_summary().mean(),
            "detailed should be slower"
        );
    }

    #[test]
    fn invalid_deployments_rejected() {
        let cl = cluster();
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        // Prefill without decode.
        let only_prefill = vec![InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cl.gpu(0, 0)]],
        )
        .unwrap()];
        assert!(ServingSim::new(cfg.clone(), &cost, &cl, only_prefill).is_err());
        // Colocated plus a prefill instance with no decode peer: the
        // built-in dispatcher serves one entry role only.
        let mut half_split = coloc_deployment(&cl);
        half_split.push(
            InstanceSpec::new(
                InstanceRole::Prefill,
                ParallelismConfig::SINGLE,
                vec![vec![cl.gpu(0, 1)]],
            )
            .unwrap(),
        );
        assert!(ServingSim::new(cfg.clone(), &cost, &cl, half_split).is_err());
        // Empty deployment.
        assert!(ServingSim::new(cfg.clone(), &cost, &cl, vec![]).is_err());
        // OPT-175B on a single GPU.
        let cfg175 = SimConfig::new(OptModel::Opt175B.arch());
        assert!(ServingSim::new(cfg175, &cost, &cl, coloc_deployment(&cl)).is_err());
    }

    #[test]
    fn single_token_outputs_complete_at_prefill() {
        let cl = cluster();
        let mut rng = SimRng::seed(6);
        let trace = TraceBuilder::new(Box::new(FixedLengths {
            input_len: 128,
            output_len: 1,
        }))
        .rate(2.0)
        .num_requests(20)
        .build(&mut rng);
        let out = run(disagg_deployment(&cl), &trace);
        assert_eq!(out.records.len(), 20);
        for r in &out.records {
            assert_eq!(r.completion, r.first_token);
            assert_eq!(r.tpot(), 0.0);
        }
    }

    #[test]
    fn chunked_prefill_also_completes() {
        let cl = cluster();
        let spec = InstanceSpec::new(
            InstanceRole::Colocated,
            ParallelismConfig::SINGLE,
            vec![vec![cl.gpu(0, 0)]],
        )
        .unwrap()
        .with_policy(crate::spec::ColocatedPolicy {
            prefill_token_budget: 2048,
            chunked_prefill: Some(256),
        });
        let trace = fixed_trace(40, 2.0, 7);
        let out = run(vec![spec], &trace);
        assert_eq!(out.records.len(), 40);
        // Chunked prefill trades TTFT for TPOT: with 256-token chunks a
        // 512-token prompt needs two steps, so TTFT spans at least two
        // step times.
        for r in &out.records {
            assert!(r.ttft() > 0.0);
        }
    }

    #[test]
    fn utilization_statistics_populated() {
        let cl = cluster();
        let trace = fixed_trace(30, 2.0, 8);
        let out = run(disagg_deployment(&cl), &trace);
        assert_eq!(out.instances.len(), 2);
        for s in &out.instances {
            assert!(s.busy_secs > 0.0);
            assert!(s.batches > 0);
            assert!(s.kv_peak_utilization > 0.0);
        }
        // Both instances produced tokens: prefill the first of each
        // request, decode the rest.
        assert_eq!(out.instances[0].tokens_out, 30);
        assert_eq!(out.instances[1].tokens_out, 30 * 63);
        assert_eq!(out.total_gpus(), 2);
    }

    #[test]
    fn telemetry_recorder_captures_valid_lifecycles() {
        use distserve_telemetry::Recorder;
        let cl = cluster();
        let trace = fixed_trace(30, 2.0, 10);
        let cost = RooflineModel::a100();
        let rec = Recorder::new();
        let out = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cl,
            disagg_deployment(&cl),
        )
        .unwrap()
        .with_sink(&rec)
        .run(&trace);
        assert_eq!(out.records.len(), 30);
        let snap = rec.snapshot();
        let lcs = snap.lifecycles();
        assert_eq!(lcs.len(), 30);
        for lc in lcs.values() {
            lc.validate().unwrap();
        }
        // Both instance tracks got slices of their own kind, and the
        // tracks carry role names.
        assert!(snap
            .slices
            .iter()
            .any(|s| s.track == 0 && s.name == "prefill"));
        assert!(snap
            .slices
            .iter()
            .any(|s| s.track == 1 && s.name == "decode"));
        assert!(snap.tracks[&0].starts_with("prefill[0]"));
        assert!(snap.tracks[&1].starts_with("decode[1]"));
        // Every request finished, counted on the instance that retired it.
        let finished: u64 = (0..2)
            .map(|i| snap.metrics.counter(metrics::REQUESTS_FINISHED, i))
            .sum();
        assert_eq!(finished, 30);
        // 512-token prompts, 30 requests.
        assert_eq!(snap.metrics.counter(metrics::PREFILL_TOKENS, 0), 30 * 512);
        assert_eq!(snap.metrics.counter(metrics::KV_MIGRATIONS, 1), 30);
        // Decode instance produced the non-first tokens.
        assert_eq!(snap.metrics.counter(metrics::DECODE_TOKENS, 1), 30 * 63);
    }

    #[test]
    fn telemetry_sink_does_not_perturb_outcome() {
        use distserve_telemetry::Recorder;
        let cl = cluster();
        let trace = fixed_trace(40, 2.0, 11);
        let plain = run(disagg_deployment(&cl), &trace);
        let cost = RooflineModel::a100();
        let rec = Recorder::new();
        let recorded = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cl,
            disagg_deployment(&cl),
        )
        .unwrap()
        .with_sink(&rec)
        .run(&trace);
        assert_eq!(plain.records, recorded.records);
    }

    #[test]
    fn telemetry_colocated_lifecycles_skip_migration() {
        use distserve_telemetry::{LifecycleEvent, Recorder};
        let cl = cluster();
        let trace = fixed_trace(20, 1.0, 12);
        let cost = RooflineModel::a100();
        let rec = Recorder::new();
        let out = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cl,
            coloc_deployment(&cl),
        )
        .unwrap()
        .with_sink(&rec)
        .run(&trace);
        assert_eq!(out.records.len(), 20);
        let snap = rec.snapshot();
        for lc in snap.lifecycles().values() {
            lc.validate().unwrap();
            assert!(lc.first(LifecycleEvent::KvMigrateStart).is_none());
            assert!(lc.first(LifecycleEvent::PrefillEnd).is_some());
        }
        assert_eq!(snap.metrics.counter(metrics::KV_MIGRATIONS, 0), 0);
    }

    fn run_chaos(
        specs: Vec<InstanceSpec>,
        trace: &Trace,
        schedule: &distserve_faults::FaultSchedule,
    ) -> SimOutcome {
        let cost = RooflineModel::a100();
        let cl = cluster();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        ServingSim::new(cfg, &cost, &cl, specs)
            .unwrap()
            .with_faults(schedule, RetryPolicy::default())
            .run(trace)
    }

    fn wide_disagg(c: &Cluster) -> Vec<InstanceSpec> {
        vec![
            InstanceSpec::new(
                InstanceRole::Prefill,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 0)]],
            )
            .unwrap(),
            InstanceSpec::new(
                InstanceRole::Decode,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 1)]],
            )
            .unwrap(),
            InstanceSpec::new(
                InstanceRole::Decode,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 2)]],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn empty_schedule_matches_fault_free_run() {
        let cl = cluster();
        let trace = fixed_trace(60, 2.0, 21);
        let plain = run(disagg_deployment(&cl), &trace);
        let chaos = run_chaos(
            disagg_deployment(&cl),
            &trace,
            &distserve_faults::FaultSchedule::new(),
        );
        assert_eq!(plain.records, chaos.records);
        assert!(chaos.failed.is_empty());
    }

    #[test]
    fn decode_crash_resumes_without_losing_requests() {
        use distserve_telemetry::Recorder;
        let cl = cluster();
        let trace = fixed_trace(40, 3.0, 22);
        let schedule = distserve_faults::FaultSchedule::new().with(
            4.0,
            FaultKind::InstanceCrash {
                instance: 1,
                downtime_secs: 3.0,
            },
        );
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let rec = Recorder::new();
        let out = ServingSim::new(cfg, &cost, &cl, disagg_deployment(&cl))
            .unwrap()
            .with_faults(&schedule, RetryPolicy::default())
            .with_sink(&rec)
            .run(&trace);
        // Nothing silently dropped: every request ends terminally.
        assert_eq!(
            out.records.len() + out.rejected.len() + out.failed.len(),
            40
        );
        // The sole decode instance recovered, so nothing had to fail.
        assert!(out.failed.is_empty(), "failed: {:?}", out.failed);
        assert!(out.instances[1].downtime_secs > 2.9);
        // Delivered tokens were never re-emitted: every lifecycle still
        // validates (DecodeStep counts strictly increase across retries).
        let snap = rec.snapshot();
        for lc in snap.lifecycles().values() {
            lc.validate().unwrap();
        }
        // The crash displaced at least one in-flight request.
        assert!(
            snap.metrics.counter(metrics::REQUEST_RETRIES, 0) > 0,
            "crash at t=4 under 3 req/s load must displace someone"
        );
        assert_eq!(snap.metrics.counter(metrics::FAULTS_INJECTED, 1), 1);
    }

    #[test]
    fn prefill_crash_requeues_to_survivor() {
        use distserve_telemetry::Recorder;
        let cl = cluster();
        // Two prefill instances, one decoder: the surviving prefill
        // absorbs the dead one's queue.
        let specs = vec![
            InstanceSpec::new(
                InstanceRole::Prefill,
                ParallelismConfig::SINGLE,
                vec![vec![cl.gpu(0, 0)]],
            )
            .unwrap(),
            InstanceSpec::new(
                InstanceRole::Prefill,
                ParallelismConfig::SINGLE,
                vec![vec![cl.gpu(0, 1)]],
            )
            .unwrap(),
            InstanceSpec::new(
                InstanceRole::Decode,
                ParallelismConfig::SINGLE,
                vec![vec![cl.gpu(0, 2)]],
            )
            .unwrap(),
        ];
        let trace = fixed_trace(40, 4.0, 23);
        let schedule =
            distserve_faults::FaultSchedule::new().with(3.0, FaultKind::GpuLoss { instance: 0 });
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let rec = Recorder::new();
        let out = ServingSim::new(cfg, &cost, &cl, specs)
            .unwrap()
            .with_faults(&schedule, RetryPolicy::default())
            .with_sink(&rec)
            .run(&trace);
        assert_eq!(
            out.records.len() + out.rejected.len() + out.failed.len(),
            40
        );
        // The survivor could always take the work: no terminal failures.
        assert!(out.failed.is_empty(), "failed: {:?}", out.failed);
        // Instance 0 never came back (permanent GPU loss).
        assert!(out.instances[0].downtime_secs > 0.0);
        for lc in rec.snapshot().lifecycles().values() {
            lc.validate().unwrap();
        }
    }

    #[test]
    fn decode_loss_without_survivor_fails_cleanly() {
        let cl = cluster();
        let trace = fixed_trace(30, 2.0, 24);
        let schedule =
            distserve_faults::FaultSchedule::new().with(3.0, FaultKind::GpuLoss { instance: 1 });
        let out = run_chaos(disagg_deployment(&cl), &trace, &schedule);
        // No decoder survives and none is coming back: multi-token
        // requests must fail terminally, not hang the simulation.
        assert_eq!(
            out.records.len() + out.rejected.len() + out.failed.len(),
            30
        );
        assert!(!out.failed.is_empty());
        // Requests retired before the fault still completed.
        assert!(!out.records.is_empty());
    }

    #[test]
    fn drain_preserves_all_requests() {
        let cl = cluster();
        let trace = fixed_trace(40, 2.0, 25);
        let schedule = distserve_faults::FaultSchedule::new().with(
            3.0,
            FaultKind::Drain {
                instance: 1,
                maintenance_secs: 2.0,
            },
        );
        let out = run_chaos(wide_disagg(&cl), &trace, &schedule);
        // Drain-before-kill: in-flight work completes, nothing is lost.
        assert_eq!(out.records.len(), 40);
        assert!(out.failed.is_empty());
        assert!(out.instances[1].downtime_secs >= 2.0 * 0.99);
    }

    #[test]
    fn straggler_and_link_faults_only_slow_things_down() {
        let cl = cluster();
        let trace = fixed_trace(40, 2.0, 26);
        let plain = run(disagg_deployment(&cl), &trace);
        let schedule = distserve_faults::FaultSchedule::new()
            .with(
                1.0,
                FaultKind::Straggler {
                    instance: 1,
                    factor: 3.0,
                    duration_secs: 8.0,
                },
            )
            .with(
                1.0,
                FaultKind::LinkDegradation {
                    factor: 4.0,
                    duration_secs: 8.0,
                },
            );
        let out = run_chaos(disagg_deployment(&cl), &trace, &schedule);
        assert_eq!(out.records.len(), 40);
        assert!(out.failed.is_empty());
        assert!(
            out.tpot_summary().mean() > plain.tpot_summary().mean(),
            "a 3x decode straggler must raise mean TPOT"
        );
    }

    #[test]
    fn chaos_is_deterministic_given_seed() {
        let cl = cluster();
        let trace = fixed_trace(60, 3.0, 27);
        let schedule = distserve_faults::FaultSchedule::storm(
            13,
            &distserve_faults::StormConfig {
                horizon_secs: 15.0,
                count: 8,
                instances: 3,
                mean_downtime_secs: 2.0,
            },
        );
        let a = run_chaos(wide_disagg(&cl), &trace, &schedule);
        let b = run_chaos(wide_disagg(&cl), &trace, &schedule);
        assert_eq!(a.records, b.records);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.records.len() + a.rejected.len() + a.failed.len(), 60);
    }

    #[test]
    fn coloc_crash_recovers() {
        use distserve_telemetry::Recorder;
        let cl = cluster();
        let specs = vec![
            InstanceSpec::new(
                InstanceRole::Colocated,
                ParallelismConfig::SINGLE,
                vec![vec![cl.gpu(0, 0)]],
            )
            .unwrap(),
            InstanceSpec::new(
                InstanceRole::Colocated,
                ParallelismConfig::SINGLE,
                vec![vec![cl.gpu(0, 1)]],
            )
            .unwrap(),
        ];
        let trace = fixed_trace(40, 3.0, 28);
        let schedule = distserve_faults::FaultSchedule::new().with(
            3.0,
            FaultKind::InstanceCrash {
                instance: 0,
                downtime_secs: 2.0,
            },
        );
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let rec = Recorder::new();
        let out = ServingSim::new(cfg, &cost, &cl, specs)
            .unwrap()
            .with_faults(&schedule, RetryPolicy::default())
            .with_sink(&rec)
            .run(&trace);
        assert_eq!(
            out.records.len() + out.rejected.len() + out.failed.len(),
            40
        );
        assert!(out.failed.is_empty(), "failed: {:?}", out.failed);
        for lc in rec.snapshot().lifecycles().values() {
            lc.validate().unwrap();
        }
    }

    #[test]
    fn attainment_reflects_slo_choice() {
        let cl = cluster();
        let trace = fixed_trace(60, 1.0, 9);
        let out = run(disagg_deployment(&cl), &trace);
        // Impossibly tight SLOs fail everything; loose SLOs pass all.
        assert_eq!(out.attainment(1e-6, 1e-9), 0.0);
        assert_eq!(out.attainment(1e3, 1e3), 1.0);
        // At low load many requests share the same deterministic TTFT, so
        // the fraction at the median can sit well above one half — it just
        // must be a proper fraction at or above it.
        let mid_ttft = out.ttft_summary().percentile(0.5);
        let frac = out.ttft_attainment(mid_ttft);
        assert!((0.5..=1.0).contains(&frac), "median attainment {frac}");
        let min_ttft = out.ttft_summary().min();
        assert_eq!(out.ttft_attainment(min_ttft * 0.5), 0.0);
    }

    fn mixed_deployment(c: &Cluster) -> Vec<InstanceSpec> {
        let mut specs = disagg_deployment(c);
        specs.push(
            InstanceSpec::new(
                InstanceRole::Colocated,
                ParallelismConfig::SINGLE,
                vec![vec![c.gpu(0, 2)]],
            )
            .unwrap(),
        );
        specs
    }

    #[test]
    fn routed_mixed_fleet_completes_and_uses_both_paths() {
        let cl = cluster();
        let trace = fixed_trace(120, 3.0, 12);
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let sim = ServingSim::new_routed(
            cfg,
            &cost,
            &cl,
            mixed_deployment(&cl),
            RouterPolicy::default(),
        )
        .unwrap();
        let (out, log) = sim.run_logged(&trace);
        assert_eq!(out.records.len() + out.rejected.len(), 120);
        assert!(out.rejected.len() < 120);
        // Every request got at least one verdict, and with three idle-ish
        // replicas both execution paths see traffic.
        assert!(log.len() >= 120);
        use distserve_router::DecisionKind;
        let disagg = log
            .iter()
            .filter(|r| r.kind == DecisionKind::Disagg)
            .count();
        let coloc = log.iter().filter(|r| r.kind == DecisionKind::Coloc).count();
        assert!(disagg > 0, "split path never chosen");
        assert!(coloc > 0, "colocated path never chosen");
    }

    #[test]
    fn routed_replay_reproduces_run() {
        let cl = cluster();
        let trace = fixed_trace(100, 6.0, 13);
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let policy = RouterPolicy {
            queue_cap: 4,
            ..RouterPolicy::default()
        };
        let (out, log) =
            ServingSim::new_routed(cfg.clone(), &cost, &cl, mixed_deployment(&cl), policy)
                .unwrap()
                .run_logged(&trace);
        let (replayed, replay_log) =
            ServingSim::new_replayed(cfg, &cost, &cl, mixed_deployment(&cl), &log)
                .unwrap()
                .run_logged(&trace);
        assert_eq!(out.records, replayed.records);
        assert_eq!(out.rejected, replayed.rejected);
        assert_eq!(out.failed, replayed.failed);
        assert_eq!(log, replay_log, "replay must re-emit the same log");
    }

    #[test]
    fn routed_overload_queues_and_sheds_bounded() {
        let cl = cluster();
        // Hammer one small fleet so the queue cap binds.
        let trace = fixed_trace(200, 50.0, 14);
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let policy = RouterPolicy {
            queue_cap: 2,
            max_wait_secs: 0.5,
            retry_gap_secs: 0.1,
        };
        let (out, log) = ServingSim::new_routed(cfg, &cost, &cl, disagg_deployment(&cl), policy)
            .unwrap()
            .run_logged(&trace);
        assert_eq!(out.records.len() + out.rejected.len(), 200);
        assert!(!out.rejected.is_empty(), "overload must shed");
        use distserve_router::DecisionKind;
        assert!(
            log.iter().any(|r| r.kind == DecisionKind::Queue),
            "bounded wait never engaged"
        );
        // Shed only after the wait budget: every shed request queued first.
        for shed in log.iter().filter(|r| r.kind == DecisionKind::Shed) {
            assert!(
                log.iter()
                    .any(|r| r.request == shed.request && r.kind == DecisionKind::Queue),
                "request {} shed without queueing first",
                shed.request
            );
        }
    }

    #[test]
    fn routed_topology_validation() {
        let cl = cluster();
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt13B.arch());
        let only_prefill = vec![InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cl.gpu(0, 0)]],
        )
        .unwrap()];
        assert!(ServingSim::new_routed(
            cfg.clone(),
            &cost,
            &cl,
            only_prefill,
            RouterPolicy::default()
        )
        .is_err());
        assert!(
            ServingSim::new_routed(cfg.clone(), &cost, &cl, vec![], RouterPolicy::default())
                .is_err()
        );
        // Mixed fleets are valid in routed mode but not in direct mode.
        assert!(ServingSim::new(cfg.clone(), &cost, &cl, mixed_deployment(&cl)).is_err());
        assert!(ServingSim::new_routed(
            cfg,
            &cost,
            &cl,
            mixed_deployment(&cl),
            RouterPolicy::default()
        )
        .is_ok());
    }
}
