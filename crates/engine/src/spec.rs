//! Instance and simulation configuration.

use distserve_cluster::GpuId;
use distserve_models::{ModelArch, ParallelismConfig, MEM_MARGIN};

/// What work an instance performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceRole {
    /// Disaggregated prefill instance: prompt processing only, buffering
    /// KV until a decoding instance pulls it.
    Prefill,
    /// Disaggregated decoding instance: continuous batching over pulled
    /// requests.
    Decode,
    /// Colocated instance (the vLLM baseline): both phases on one set of
    /// GPUs with iteration-level scheduling.
    Colocated,
}

/// Scheduling policy for a colocated instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColocatedPolicy {
    /// Maximum prompt tokens batched into one prefill step.
    pub prefill_token_budget: u32,
    /// `Some(chunk)`: SARATHI-style chunked prefill — each step carries at
    /// most `chunk` prompt tokens piggybacked onto the decoding batch.
    /// `None`: vLLM-style alternation with prefill prioritized.
    pub chunked_prefill: Option<u32>,
}

impl Default for ColocatedPolicy {
    fn default() -> Self {
        ColocatedPolicy {
            prefill_token_budget: 2048,
            chunked_prefill: None,
        }
    }
}

/// One serving instance: role, parallelism, and physical placement.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Role of the instance.
    pub role: InstanceRole,
    /// Tensor / pipeline parallelism.
    pub par: ParallelismConfig,
    /// GPU groups per pipeline stage (`stages.len() == par.pp`, each group
    /// `par.tp` GPUs on one node).
    pub stages: Vec<Vec<GpuId>>,
    /// Colocated scheduling policy (ignored for disaggregated roles).
    pub policy: ColocatedPolicy,
}

impl InstanceSpec {
    /// Creates a spec, checking the stage structure matches `par`.
    ///
    /// # Errors
    ///
    /// Returns a message if the stage/group shape disagrees with `par`.
    pub fn new(
        role: InstanceRole,
        par: ParallelismConfig,
        stages: Vec<Vec<GpuId>>,
    ) -> Result<Self, String> {
        if stages.len() != par.pp as usize {
            return Err(format!(
                "{} stages provided for pp={}",
                stages.len(),
                par.pp
            ));
        }
        for (i, group) in stages.iter().enumerate() {
            if group.len() != par.tp as usize {
                return Err(format!(
                    "stage {i} has {} GPUs, expected tp={}",
                    group.len(),
                    par.tp
                ));
            }
            if group.iter().any(|g| g.node != group[0].node) {
                return Err(format!("stage {i}'s tensor-parallel group spans nodes"));
            }
        }
        Ok(InstanceSpec {
            role,
            par,
            stages,
            policy: ColocatedPolicy::default(),
        })
    }

    /// Sets the colocated scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ColocatedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Total GPUs the instance occupies.
    #[must_use]
    pub fn num_gpus(&self) -> u32 {
        self.par.num_gpus()
    }
}

/// Analytic prefix-cache hit model for the token-granular simulator.
///
/// The engine never materializes token content, so cache behavior is
/// modeled statistically instead of structurally: each arriving request
/// draws a deterministic Bernoulli hit with probability `hit_prob`
/// (seeded per request id), and on a hit a `matched_frac` share of its
/// prompt — block-aligned, capped at prompt − 1 so the last token's
/// logits are always computed — skips prefill compute on whichever path
/// serves it (split, colocated, or chunked). KV allocation is *not*
/// discounted: shared blocks still occupy pool memory, exactly as
/// refcounted `distserve_prefix` sharing keeps blocks resident.
#[derive(Debug, Clone, Copy)]
pub struct PrefixHitModel {
    /// Probability an arriving prompt finds a cached prefix.
    pub hit_prob: f64,
    /// Fraction of the prompt matched when a hit occurs.
    pub matched_frac: f64,
}

impl Default for PrefixHitModel {
    /// Cold cache: no hits, nothing matched.
    fn default() -> Self {
        PrefixHitModel {
            hit_prob: 0.0,
            matched_frac: 0.0,
        }
    }
}

impl PrefixHitModel {
    /// Whether the model can ever produce a hit.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.hit_prob > 0.0 && self.matched_frac > 0.0
    }
}

/// Global simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Model being served.
    pub arch: ModelArch,
    /// Fidelity perturbations (ideal for planning, detailed for Table 2).
    pub fidelity: crate::fidelity::FidelityConfig,
    /// Fraction of GPU memory reserved for activations and runtime.
    pub mem_margin: f64,
    /// Maximum requests per decoding iteration.
    pub max_decode_batch: usize,
    /// Prefill saturation threshold `L_m`, tokens (§3.1): the batching
    /// policy packs prefill batches up to this total.
    pub l_m: u32,
    /// Queue discipline for prefill work (FCFS per §4.3, or SJF to
    /// mitigate the convoy effect the paper discusses).
    pub prefill_discipline: crate::batching::QueueDiscipline,
    /// Admission control: maximum requests queued at the dispatch target
    /// before an arrival is rejected outright (`None` = admit all).
    /// Rejected requests still surface in telemetry and count against
    /// SLO attainment.
    pub admission_cap: Option<usize>,
    /// RNG seed for jitter and tie-breaking randomness.
    pub seed: u64,
    /// Analytic prefix-cache hit model (`default` = cold cache).
    pub prefix: PrefixHitModel,
}

impl SimConfig {
    /// Reasonable defaults for `arch`.
    #[must_use]
    pub fn new(arch: ModelArch) -> Self {
        SimConfig {
            arch,
            fidelity: crate::fidelity::FidelityConfig::ideal(),
            mem_margin: MEM_MARGIN,
            max_decode_batch: 256,
            l_m: 512,
            prefill_discipline: crate::batching::QueueDiscipline::Fcfs,
            admission_cap: None,
            seed: 0,
            prefix: PrefixHitModel::default(),
        }
    }

    /// Caps the per-instance queue depth beyond which arrivals are
    /// rejected.
    #[must_use]
    pub fn with_admission_cap(mut self, cap: usize) -> Self {
        self.admission_cap = Some(cap);
        self
    }

    /// Switches the prefill queues to shortest-job-first.
    #[must_use]
    pub fn with_sjf_prefill(mut self) -> Self {
        self.prefill_discipline = crate::batching::QueueDiscipline::Sjf;
        self
    }

    /// Sets the prefill saturation threshold `L_m`.
    #[must_use]
    pub fn with_l_m(mut self, l_m: u32) -> Self {
        self.l_m = l_m.max(1);
        self
    }

    /// Switches on detailed fidelity.
    #[must_use]
    pub fn detailed(mut self) -> Self {
        self.fidelity = crate::fidelity::FidelityConfig::detailed();
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the analytic prefix-cache hit model (probabilities are
    /// clamped to `[0, 1]`).
    #[must_use]
    pub fn with_prefix_model(mut self, hit_prob: f64, matched_frac: f64) -> Self {
        self.prefix = PrefixHitModel {
            hit_prob: hit_prob.clamp(0.0, 1.0),
            matched_frac: matched_frac.clamp(0.0, 1.0),
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_cluster::Cluster;
    use distserve_models::OptModel;

    #[test]
    fn spec_shape_validation() {
        let c = Cluster::paper_testbed();
        let par = ParallelismConfig::new(2, 2);
        let good = InstanceSpec::new(
            InstanceRole::Prefill,
            par,
            vec![
                vec![c.gpu(0, 0), c.gpu(0, 1)],
                vec![c.gpu(1, 0), c.gpu(1, 1)],
            ],
        );
        assert!(good.is_ok());
        // Wrong stage count.
        assert!(InstanceSpec::new(
            InstanceRole::Prefill,
            par,
            vec![vec![c.gpu(0, 0), c.gpu(0, 1)]],
        )
        .is_err());
        // Wrong group size.
        assert!(InstanceSpec::new(
            InstanceRole::Prefill,
            par,
            vec![vec![c.gpu(0, 0)], vec![c.gpu(1, 0)]],
        )
        .is_err());
        // Tensor-parallel group spanning nodes.
        assert!(InstanceSpec::new(
            InstanceRole::Prefill,
            par,
            vec![
                vec![c.gpu(0, 0), c.gpu(1, 1)],
                vec![c.gpu(2, 0), c.gpu(2, 1)],
            ],
        )
        .is_err());
    }

    #[test]
    fn config_builders() {
        let cfg = SimConfig::new(OptModel::Opt13B.arch())
            .detailed()
            .with_seed(7);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.fidelity.jitter_frac > 0.0);
    }
}
