//! The capacity-planning job: plan a placement, verify it in the
//! detailed simulator (`core::serve_trace`), and simulate a routed fleet
//! (`router::ScaleSim`). None of it touches `tinyllm`.

use std::time::Instant;

use distserve_cluster::Cluster;
use distserve_core::{serve_trace, Application, Planner};
use distserve_engine::{FidelityConfig, InstanceSpec, SimOutcome};
use distserve_models::{ModelArch, RooflineModel};
use distserve_placement::alg1::SearchParams;
use distserve_placement::deploy::Deployment;
use distserve_placement::{SloSpec, TraceSource};
use distserve_router::{Assignment, FleetSpec, RouterPolicy, ScaleSim, ScaleSlo, ServiceProfile};
use distserve_simcore::SimTime;
use distserve_workload::{ChatConfig, ChatSessionStream, Dataset, Request, Trace};

use crate::spans::{Tracer, NO_REQ};

/// Search threads, set explicitly (never from the machine).
pub const SEARCH_THREADS: usize = 2;
/// Seed of the traces whose only role is to time the planner and the
/// simulators: fixed, so run-to-run differences are the host's, not the
/// input's.
pub const FIXED_SEED: u64 = 20_240_624;
/// Requests the fleet simulator takes per `drain_until` + offer chunk.
const FLEET_CHUNK: usize = 4096;

/// A planned deployment ready to serve in simulation.
pub struct Plan {
    pub cluster: Cluster,
    pub arch: ModelArch,
    pub slo: SloSpec,
    pub specs: Vec<InstanceSpec>,
    /// Goodput the planner promises for the whole deployment, req/s.
    pub planned_goodput_rps: f64,
    /// Rate the deployment was planned for, req/s.
    pub rate: f64,
    pub plan_s: f64,
}

/// The cost model every plan and simulation uses.
#[must_use]
pub fn cost() -> RooflineModel {
    RooflineModel::a100_conservative()
}

/// Plans `app` on `cluster` for `rate` req/s over `source`: instances
/// of up to 4-way tensor and 2-way pipeline parallelism, the planner's
/// default probe sizing and seed, and two search threads. The fixed inputs make every run plan the same way, so the
/// planning time varies only with the host.
///
/// # Panics
///
/// Panics if the planner finds no placement (the fixed inputs always
/// have one).
#[must_use]
pub fn plan(
    app: Application,
    cluster: Cluster,
    source: &dyn TraceSource,
    rate: f64,
    span: &'static str,
    tracer: &mut Tracer,
) -> Plan {
    let cost = cost();
    let arch = app.model().arch();
    let slo = app.slo();
    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        max_tp: 4,
        max_pp: 2,
        threads: SEARCH_THREADS,
        ..planner.params.clone()
    };
    let t = Instant::now();
    let deployment = tracer
        .span(span, NO_REQ, || planner.plan_distserve(source, slo, rate))
        .expect("the benchmark's fixed planning inputs have a placement");
    let plan_s = t.elapsed().as_secs_f64();
    let planned_goodput_rps = match &deployment {
        Deployment::High(p) => p.per_gpu_goodput() * f64::from(p.total_gpus()),
        Deployment::Low(p) => p.per_gpu_goodput() * f64::from(p.total_gpus()),
        Deployment::Coloc(p) => p.goodput * f64::from(p.num_replicas),
    };
    let specs = planner
        .materialize(&deployment)
        .expect("a planned deployment fits its cluster");
    Plan {
        cluster,
        arch,
        slo,
        specs,
        planned_goodput_rps,
        rate,
        plan_s,
    }
}

/// `trace` with arrival times divided by `factor` (time-scaled replay).
#[must_use]
pub fn scaled(trace: &Trace, factor: f64) -> Trace {
    Trace::new(
        trace
            .requests()
            .iter()
            .map(|r| Request {
                arrival: SimTime::from_secs(r.arrival.as_secs() / factor),
                ..r.clone()
            })
            .collect(),
    )
}

/// Serves `trace` through `plan` in the detailed simulator.
///
/// # Panics
///
/// Panics if the simulator rejects the planned deployment.
#[must_use]
pub fn simulate(plan: &Plan, trace: &Trace, seed: u64, tracer: &mut Tracer) -> (SimOutcome, f64) {
    let cost = cost();
    let t = Instant::now();
    let out = tracer
        .span("engine_sim.serve_trace", NO_REQ, || {
            serve_trace(
                &cost,
                &plan.cluster,
                &plan.arch,
                plan.specs.clone(),
                trace,
                FidelityConfig::detailed(),
                seed,
            )
        })
        .expect("planned deployments are valid simulator inputs");
    (out, t.elapsed().as_secs_f64())
}

/// Whether every request of `trace` completed in `out`.
#[must_use]
pub fn all_completed(out: &SimOutcome, trace: &Trace) -> bool {
    out.records.len() == trace.len() && out.rejected.is_empty() && out.failed.is_empty()
}

/// A ShareGPT trace of `n` requests at `rate` req/s.
#[must_use]
pub fn sharegpt(rate: f64, n: usize, seed: u64) -> Trace {
    Dataset::ShareGpt.make_trace(rate, n, seed)
}

/// Outcome of one routed fleet run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fleet {
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    pub requeues: u64,
    pub prefix_hits: u64,
    pub slo_ok: u64,
    pub gen_s: f64,
    pub offer_s: f64,
    pub drain_s: f64,
}

impl Fleet {
    /// Wall seconds of the whole run.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.gen_s + self.offer_s + self.drain_s
    }

    /// Requests conserved: every offered request completed or was shed.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.completed + self.shed == self.offered
    }

    /// Adds another run's counts.
    pub fn add(&mut self, o: &Fleet) {
        self.offered += o.offered;
        self.completed += o.completed;
        self.shed += o.shed;
        self.requeues += o.requeues;
        self.prefix_hits += o.prefix_hits;
        self.slo_ok += o.slo_ok;
        self.gen_s += o.gen_s;
        self.offer_s += o.offer_s;
        self.drain_s += o.drain_s;
    }
}

/// The routed fleet: 6 prefill, 10 decode, and 8 colocated OPT-13B
/// replicas behind the cache-affine router.
fn fleet_sim(seed: u64) -> ScaleSim {
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
    ScaleSim::new(fleet, policy, slo, Assignment::Routed, seed)
}

/// Multi-turn chat sessions for the fleet: ~30 req/s of history-bearing
/// prompts with 256-token system prompts.
#[must_use]
pub fn fleet_sessions(seed: u64) -> ChatSessionStream {
    let config = ChatConfig {
        session_rate: 6.0,
        mean_turns: 5.0,
        think_mean_s: 2.0,
        branch_prob: 0.1,
        system_prompt_tokens: 256,
        tenant: 0,
    };
    ChatSessionStream::new(config, Dataset::ShareGpt.sampler(), seed)
}

/// Drives a routed [`ScaleSim`] over `(request, prefix lineage)` pairs
/// through `offer_with_prefix` and `drain_until`, timing generation,
/// routing, and event draining separately.
pub fn run_fleet(mut stream: impl Iterator<Item = (Request, u64)>, tracer: &mut Tracer) -> Fleet {
    let mut sim = fleet_sim(FIXED_SEED);
    let mut f = Fleet::default();
    let mut buf = Vec::with_capacity(FLEET_CHUNK);
    loop {
        let t = Instant::now();
        tracer.span("workload.gen", NO_REQ, || {
            buf.clear();
            buf.extend(stream.by_ref().take(FLEET_CHUNK));
        });
        f.gen_s += t.elapsed().as_secs_f64();
        let Some((last, _)) = buf.last() else {
            break;
        };
        let horizon = last.arrival;
        let t = Instant::now();
        tracer.span("router.offer_chunk", NO_REQ, || {
            for (r, group) in &buf {
                sim.offer_with_prefix(r, *group);
            }
        });
        f.offer_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        tracer.span("router.drain_until", NO_REQ, || sim.drain_until(horizon));
        f.drain_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let out = tracer.span("router.drain", NO_REQ, || {
        sim.drain();
        sim.finish()
    });
    f.drain_s += t.elapsed().as_secs_f64();
    f.offered = out.offered;
    f.completed = out.completed;
    f.shed = out.shed;
    f.requeues = out.requeues;
    f.prefix_hits = out.prefix_hits;
    f.slo_ok = out.slo_ok;
    f
}

/// Runs the routed fleet over the first `n` requests of the fixed
/// session stream once on each core (see [`crate::cores`]); returns one
/// run per core.
pub fn run_fleet_per_core(n: usize, tracer: &mut Tracer) -> Vec<Fleet> {
    crate::cores::on_each_core(|| run_fleet(session_pairs(FIXED_SEED, n), tracer))
}

/// `(trace request, lineage)` pairs of the fleet's session stream.
pub fn session_pairs(seed: u64, n: usize) -> impl Iterator<Item = (Request, u64)> {
    fleet_sessions(seed)
        .take(n)
        .map(|s| (s.request, s.prefix_group))
}
