//! Algorithm 1 — placement for high node-affinity clusters (§4.1).
//!
//! With fast cross-node interconnect, KV transfers are cheap anywhere, so
//! the two phases are planned *independently*: enumerate every legal
//! `(tp, pp)` for a prefill instance and for a decoding instance, estimate
//! each candidate's goodput with the phase simulators, keep the per-GPU
//! best of each, then replicate both until the target traffic rate is met.
//!
//! Candidate evaluations are independent, so the search fans out over
//! threads (the paper notes the algorithm parallelizes almost linearly —
//! Figure 12).

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use distserve_models::{CostModel, DType, GpuSpec, ModelArch, ParallelismConfig};

use crate::goodput::{max_goodput, probe_count_with};
use crate::phase_sim::{decode_attainment, prefill_attainment, PhaseSimConfig};
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// Knobs of the placement search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchParams {
    /// Maximum tensor-parallel degree (GPUs per node, `M`).
    pub max_tp: u32,
    /// Maximum pipeline-parallel degree (node limit per instance, `N`,
    /// times nothing — stages may span nodes on high-affinity clusters).
    pub max_pp: u32,
    /// Minimum requests per simulation probe.
    pub probe_requests: usize,
    /// Simulated seconds of arrivals per probe (probes cover at least
    /// this duration so queueing reaches steady state).
    pub probe_secs: f64,
    /// Bisection rounds per goodput search.
    pub search_iters: u32,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Probe seed (fixed for determinism).
    pub seed: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            max_tp: 8,
            max_pp: 4,
            // Probes must be long enough to expose steady-state queueing:
            // short bursts overstate decoding goodput because the whole
            // trace fits one large batch.
            probe_requests: 512,
            probe_secs: 60.0,
            search_iters: 8,
            threads: 0,
            seed: 0,
        }
    }
}

impl SearchParams {
    /// Evaluates `f` on every candidate, fanned out over the worker
    /// threads, and returns the results in candidate order whatever
    /// order the threads finish in.
    pub(crate) fn evaluate<C: Sync, R: Send>(
        &self,
        candidates: &[C],
        f: impl Fn(&C) -> R + Sync,
    ) -> Vec<R> {
        let avail = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        };
        // Hands out candidate indices only; results come back through
        // the joins, so the counter publishes no data.
        let next = AtomicUsize::new(0);
        let mut results: Vec<(usize, R)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..avail.min(candidates.len()).max(1))
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let Some(c) = candidates.get(idx) else {
                                return done;
                            };
                            done.push((idx, f(c)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("candidate evaluation panicked"))
                .collect()
        });
        results.sort_by_key(|&(idx, _)| idx);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

/// One phase's chosen configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseChoice {
    /// Parallelism of each instance of this phase.
    pub par: ParallelismConfig,
    /// Goodput of a single instance, requests/second.
    pub goodput: f64,
}

impl PhaseChoice {
    /// Per-GPU goodput — Algorithm 1's objective.
    #[must_use]
    pub fn per_gpu_goodput(&self) -> f64 {
        self.goodput / f64::from(self.par.num_gpus())
    }
}

/// Algorithm 1's output: independent phase configs plus replica counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HighPlacement {
    /// Prefill phase configuration.
    pub prefill: PhaseChoice,
    /// Decoding phase configuration.
    pub decode: PhaseChoice,
    /// Prefill instances to deploy (`⌈R / prefill.goodput⌉`).
    pub num_prefill: u32,
    /// Decoding instances to deploy (`⌈R / decode.goodput⌉`).
    pub num_decode: u32,
}

impl HighPlacement {
    /// Total GPUs the placement occupies.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        self.num_prefill * self.prefill.par.num_gpus()
            + self.num_decode * self.decode.par.num_gpus()
    }

    /// System goodput per GPU at the planned rate, requests/second.
    #[must_use]
    pub fn per_gpu_goodput(&self) -> f64 {
        let system = (self.prefill.goodput * f64::from(self.num_prefill))
            .min(self.decode.goodput * f64::from(self.num_decode));
        system / f64::from(self.total_gpus())
    }
}

/// Runs Algorithm 1. Returns `None` if no legal configuration exists
/// (e.g. the model does not fit the GPU budget at all).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn high_affinity_placement(
    cost: &dyn CostModel,
    gpu: &GpuSpec,
    arch: &ModelArch,
    dtype: DType,
    source: &dyn TraceSource,
    slo: SloSpec,
    rate: f64,
    params: &SearchParams,
) -> Option<HighPlacement> {
    let configs = ParallelismConfig::enumerate(arch, gpu, dtype, params.max_tp, params.max_pp);
    let goodputs = params.evaluate(&configs, |&par| {
        let cfg = PhaseSimConfig::new(arch.clone(), gpu.clone());
        let pf = max_goodput(
            |r| {
                let n = probe_count_with(r, params.probe_requests, params.probe_secs);
                let trace = source.make_trace(r, n, params.seed);
                prefill_attainment(cost, &cfg, par, &trace, slo.ttft)
            },
            slo.target,
            1.0,
            params.search_iters,
        );
        let dc = max_goodput(
            |r| {
                let n = probe_count_with(r, params.probe_requests, params.probe_secs);
                let trace = source.make_trace(r, n, params.seed);
                decode_attainment(cost, &cfg, par, &trace, slo.tpot)
            },
            slo.target,
            1.0,
            params.search_iters,
        );
        (pf, dc)
    });

    // The best per-GPU goodput of one phase; the last of equals, in
    // candidate order.
    let best = |phase: fn(&(f64, f64)) -> f64| {
        configs
            .iter()
            .zip(&goodputs)
            .map(|(&par, g)| (par, phase(g)))
            .max_by(|a, b| {
                (a.1 / f64::from(a.0.num_gpus())).total_cmp(&(b.1 / f64::from(b.0.num_gpus())))
            })
    };
    let (p_par, p_good) = best(|g| g.0)?;
    let (d_par, d_good) = best(|g| g.1)?;
    if p_good <= 0.0 || d_good <= 0.0 {
        return None;
    }
    Some(HighPlacement {
        prefill: PhaseChoice {
            par: p_par,
            goodput: p_good,
        },
        decode: PhaseChoice {
            par: d_par,
            goodput: d_good,
        },
        num_prefill: (rate / p_good).ceil().max(1.0) as u32,
        num_decode: (rate / d_good).ceil().max(1.0) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_models::{OptModel, RooflineModel};
    use distserve_workload::datasets::FixedLengths;

    fn quick_params() -> SearchParams {
        SearchParams {
            max_tp: 4,
            max_pp: 2,
            probe_requests: 96,
            probe_secs: 12.0,
            search_iters: 5,
            threads: 2,
            seed: 0,
        }
    }

    fn source() -> FixedLengths {
        FixedLengths {
            input_len: 512,
            output_len: 64,
        }
    }

    #[test]
    fn finds_a_placement_for_13b() {
        let cost = RooflineModel::a100();
        let gpu = GpuSpec::a100_80g();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);
        let plm = high_affinity_placement(
            &cost,
            &gpu,
            &arch,
            DType::F16,
            &source(),
            slo,
            6.0,
            &quick_params(),
        )
        .expect("13B fits easily");
        assert!(plm.prefill.goodput > 0.0);
        assert!(plm.decode.goodput > 0.0);
        assert!(plm.num_prefill >= 1 && plm.num_decode >= 1);
        // Enough replicas to carry 6 rps.
        assert!(plm.prefill.goodput * f64::from(plm.num_prefill) >= 6.0 * 0.95);
        assert!(plm.decode.goodput * f64::from(plm.num_decode) >= 6.0 * 0.95);
        // Decoding sustains far higher per-GPU rates than prefill on this
        // short-output workload — the asymmetry disaggregation exploits.
        assert!(
            plm.decode.per_gpu_goodput() > plm.prefill.per_gpu_goodput(),
            "decode {:.2}/GPU vs prefill {:.2}/GPU",
            plm.decode.per_gpu_goodput(),
            plm.prefill.per_gpu_goodput()
        );
    }

    #[test]
    fn oversized_model_yields_none() {
        let cost = RooflineModel::a100();
        let gpu = GpuSpec::a100_80g();
        let arch = OptModel::Opt175B.arch();
        // 175B cannot fit in 2 GPUs no matter the split.
        let params = SearchParams {
            max_tp: 2,
            max_pp: 1,
            ..quick_params()
        };
        let plm = high_affinity_placement(
            &cost,
            &gpu,
            &arch,
            DType::F16,
            &source(),
            SloSpec::new(4.0, 0.2),
            1.0,
            &params,
        );
        assert!(plm.is_none());
    }

    #[test]
    fn search_is_deterministic_across_thread_counts() {
        let cost = RooflineModel::a100();
        let gpu = GpuSpec::a100_80g();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);
        let mut p1 = quick_params();
        p1.threads = 1;
        let mut p4 = quick_params();
        p4.threads = 4;
        let a = high_affinity_placement(&cost, &gpu, &arch, DType::F16, &source(), slo, 4.0, &p1)
            .unwrap();
        let b = high_affinity_placement(&cost, &gpu, &arch, DType::F16, &source(), slo, 4.0, &p4)
            .unwrap();
        assert_eq!(a.prefill.par, b.prefill.par);
        assert_eq!(a.decode.par, b.decode.par);
        assert_eq!(a.num_prefill, b.num_prefill);
    }

    #[test]
    fn tighter_ttft_prefers_more_prefill_parallelism() {
        // Figure 4 / §3.1: a stringent TTFT SLO favors intra-op
        // parallelism for the prefill phase.
        let cost = RooflineModel::a100();
        let gpu = GpuSpec::a100_80g();
        let arch = OptModel::Opt13B.arch();
        let loose = high_affinity_placement(
            &cost,
            &gpu,
            &arch,
            DType::F16,
            &source(),
            SloSpec::new(0.8, 0.1),
            4.0,
            &quick_params(),
        )
        .unwrap();
        let tight = high_affinity_placement(
            &cost,
            &gpu,
            &arch,
            DType::F16,
            &source(),
            SloSpec::new(0.12, 0.1),
            4.0,
            &quick_params(),
        )
        .unwrap();
        assert!(
            tight.prefill.par.tp >= loose.prefill.par.tp,
            "tight {} vs loose {}",
            tight.prefill.par,
            loose.prefill.par
        );
    }

    #[test]
    fn per_gpu_goodput_accounting() {
        let plm = HighPlacement {
            prefill: PhaseChoice {
                par: ParallelismConfig::new(2, 1),
                goodput: 4.0,
            },
            decode: PhaseChoice {
                par: ParallelismConfig::new(1, 1),
                goodput: 10.0,
            },
            num_prefill: 2,
            num_decode: 1,
        };
        assert_eq!(plm.total_gpus(), 5);
        // System rate = min(8, 10) = 8 over 5 GPUs.
        assert!((plm.per_gpu_goodput() - 1.6).abs() < 1e-12);
        assert!((plm.prefill.per_gpu_goodput() - 2.0).abs() < 1e-12);
    }
}
