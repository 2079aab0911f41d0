//! "vLLM++" — parallelism search for the colocated baseline (§6.4).
//!
//! The ablation of Figure 11 asks whether vLLM's gap to DistServe is just
//! a badly chosen parallelism: vLLM++ enumerates the tensor-parallel
//! degrees the baseline supports (vLLM has no inter-op parallelism),
//! measures each candidate's goodput with the colocated simulator, and
//! keeps the per-GPU best. The paper finds vLLM++ ties plain vLLM on
//! OPT-13B — interference, not parallelism, is the bottleneck.

use distserve_cluster::Cluster;
use distserve_engine::InstanceSpec;
use distserve_models::{CostModel, ModelArch, ParallelismConfig};

use crate::alg1::SearchParams;
use crate::deploy::{materialize, Deployment};
use crate::goodput::{best_per_gpu, replicas, served_goodput};
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// A colocated placement: one parallelism config, replicated.
#[derive(Debug, Clone)]
pub struct ColocPlacement {
    /// Parallelism of each colocated instance.
    pub par: ParallelismConfig,
    /// Goodput of one instance, requests/second.
    pub goodput: f64,
    /// Replicas to deploy.
    pub num_replicas: u32,
}

impl ColocPlacement {
    /// Total GPUs deployed.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        self.par.num_gpus() * self.num_replicas
    }

    /// Per-GPU goodput of one replica.
    #[must_use]
    pub fn per_gpu_goodput(&self) -> f64 {
        self.goodput / f64::from(self.par.num_gpus())
    }
}

/// The spec of one colocated instance on `cluster`, as [`materialize`]
/// lays it out.
///
/// # Errors
///
/// Returns `materialize`'s message when the instance does not fit.
pub fn coloc_spec(cluster: &Cluster, par: ParallelismConfig) -> Result<InstanceSpec, String> {
    let replica = ColocPlacement {
        par,
        goodput: 0.0,
        num_replicas: 1,
    };
    let mut specs = materialize(cluster, &Deployment::Coloc(replica))?;
    Ok(specs.remove(0))
}

/// Runs the vLLM++ search over the candidates with `pp = 1` that fit
/// `cluster`.
#[must_use]
pub fn vllm_plus_plus(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    source: &dyn TraceSource,
    slo: SloSpec,
    rate: f64,
    params: &SearchParams,
) -> Option<ColocPlacement> {
    // vLLM supports only intra-op parallelism (§6.1), so pp = 1.
    let candidates: Vec<(ParallelismConfig, InstanceSpec)> = params
        .candidates(arch, cluster.gpu_spec())
        .into_iter()
        .filter(|par| par.pp == 1)
        .filter_map(|par| Some((par, coloc_spec(cluster, par).ok()?)))
        .collect();
    let goodputs = params.evaluate(&candidates, |(_, spec)| {
        let specs = std::slice::from_ref(spec);
        served_goodput(cost, cluster, arch, specs, source, slo, params)
    });
    let scored = candidates.into_iter().map(|(par, _)| par).zip(goodputs);
    let (par, goodput) = best_per_gpu(scored, ParallelismConfig::num_gpus)?;
    Some(ColocPlacement {
        par,
        goodput,
        num_replicas: replicas(rate, goodput),
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
            max_pp: 1,
            probe_requests: 64,
            probe_secs: 12.0,
            search_iters: 4,
            threads: 4,
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
    fn coloc_spec_shapes() {
        let cluster = Cluster::paper_testbed();
        let spec = coloc_spec(&cluster, ParallelismConfig::new(4, 2)).unwrap();
        assert_eq!(spec.stages.len(), 2);
        assert_eq!(spec.stages[0].len(), 4);
        // Both stages fit on node 0 (two groups of four).
        assert!(spec.stages.iter().flatten().all(|g| g.node.0 == 0));
        assert!(coloc_spec(&cluster, ParallelismConfig::new(16, 1)).is_err());
    }

    #[test]
    fn vllm_plus_plus_finds_something_for_13b() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::paper_testbed();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);
        let plm = vllm_plus_plus(&cost, &cluster, &arch, &source(), slo, 2.0, &quick_params())
            .expect("13B fits");
        assert!(plm.goodput > 0.0);
        assert!(plm.num_replicas >= 1);
        assert!(plm.per_gpu_goodput() > 0.0);
    }

    #[test]
    fn fixed_vllm_goodput_positive() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::paper_testbed();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);
        let specs = [coloc_spec(&cluster, ParallelismConfig::SINGLE).unwrap()];
        let (source, params) = (source(), quick_params());
        let g = served_goodput(&cost, &cluster, &arch, &specs, &source, slo, &params);
        assert!(g > 0.0, "vLLM goodput {g}");
        // The colocated baseline is interference-bound well below the
        // prefill-only capacity (~1/0.08 ≈ 12 rps).
        assert!(g < 12.0, "vLLM goodput suspiciously high: {g}");
    }
}
