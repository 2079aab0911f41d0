//! "vLLM++" — parallelism search for the colocated baseline (§6.4).
//!
//! The ablation of Figure 11 asks whether vLLM's gap to DistServe is just
//! a badly chosen parallelism: vLLM++ enumerates the tensor-parallel
//! degrees the baseline supports (vLLM has no inter-op parallelism),
//! measures each candidate's goodput with the colocated simulator, and
//! keeps the per-GPU best. The paper finds vLLM++ ties plain vLLM on
//! OPT-13B — interference, not parallelism, is the bottleneck.

use serde::{Deserialize, Serialize};

use distserve_cluster::Cluster;
use distserve_engine::{InstanceRole, InstanceSpec};
use distserve_models::{CostModel, DType, ModelArch, ParallelismConfig};

use crate::alg1::SearchParams;
use crate::goodput::{max_goodput, served_attainment};
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// A colocated placement: one parallelism config, replicated.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Builds a single colocated instance spec on node 0 of `cluster`.
///
/// # Errors
///
/// Returns a message if the config does not fit one node per stage.
pub fn coloc_spec(cluster: &Cluster, par: ParallelismConfig) -> Result<InstanceSpec, String> {
    if par.tp > cluster.gpus_per_node() {
        return Err(format!(
            "tp={} exceeds node width {}",
            par.tp,
            cluster.gpus_per_node()
        ));
    }
    if par.pp > cluster.num_nodes() * (cluster.gpus_per_node() / par.tp) {
        return Err("not enough GPU groups for the pipeline stages".into());
    }
    // Pack stages node-major: each stage's TP group on one node.
    let per_node = cluster.gpus_per_node() / par.tp;
    let stages = (0..par.pp)
        .map(|s| {
            let node = s / per_node;
            let base = (s % per_node) * par.tp;
            (0..par.tp).map(|k| cluster.gpu(node, base + k)).collect()
        })
        .collect();
    InstanceSpec::new(InstanceRole::Colocated, par, stages)
}

/// Measures the goodput of a *fixed* colocated parallelism — this is
/// plain vLLM with the paper's default settings.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn vllm_goodput(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    dtype: DType,
    par: ParallelismConfig,
    source: &dyn TraceSource,
    slo: SloSpec,
    params: &SearchParams,
) -> f64 {
    let Ok(spec) = coloc_spec(cluster, par) else {
        return 0.0;
    };
    let specs = [spec];
    max_goodput(
        |r| served_attainment(cost, cluster, arch, dtype, &specs, source, slo, r, params),
        slo.target,
        0.5,
        params.search_iters,
    )
}

/// Runs the vLLM++ search over tensor-parallel degrees.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn vllm_plus_plus(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    dtype: DType,
    source: &dyn TraceSource,
    slo: SloSpec,
    rate: f64,
    params: &SearchParams,
) -> Option<ColocPlacement> {
    // vLLM supports only intra-op parallelism (§6.1), so pp = 1.
    let candidates: Vec<ParallelismConfig> =
        ParallelismConfig::enumerate(arch, cluster.gpu_spec(), dtype, params.max_tp, 1);
    let goodputs = params.evaluate(&candidates, |&par| {
        vllm_goodput(cost, cluster, arch, dtype, par, source, slo, params)
    });
    let (par, goodput) = candidates.into_iter().zip(goodputs).max_by(|a, b| {
        (a.1 / f64::from(a.0.num_gpus())).total_cmp(&(b.1 / f64::from(b.0.num_gpus())))
    })?;
    if goodput <= 0.0 {
        return None;
    }
    Some(ColocPlacement {
        par,
        goodput,
        num_replicas: (rate / goodput).ceil().max(1.0) as u32,
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
        let plm = vllm_plus_plus(
            &cost,
            &cluster,
            &arch,
            DType::F16,
            &source(),
            slo,
            2.0,
            &quick_params(),
        )
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
        let g = vllm_goodput(
            &cost,
            &cluster,
            &arch,
            DType::F16,
            ParallelismConfig::SINGLE,
            &source(),
            slo,
            &quick_params(),
        );
        assert!(g > 0.0, "vLLM goodput {g}");
        // The colocated baseline is interference-bound well below the
        // prefill-only capacity (~1/0.08 ≈ 12 rps).
        assert!(g < 12.0, "vLLM goodput suspiciously high: {g}");
    }
}
