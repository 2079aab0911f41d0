//! Model parallelism configurations.
//!
//! DistServe searches over tensor (intra-operator) and pipeline
//! (inter-operator) parallelism per phase. A [`ParallelismConfig`] is one
//! point in that space; [`ParallelismConfig::enumerate`] yields all legal
//! points for a given architecture and GPU budget, which is exactly the
//! loop structure of Algorithm 1.

use std::fmt;

use crate::arch::ModelArch;
use crate::hardware::GpuSpec;

/// Fraction of each GPU's memory reserved for activations and the
/// runtime: [`ParallelismConfig::validate_memory`] keeps weight shards
/// out of it, and it is the simulators' default KV-pool margin.
pub const MEM_MARGIN: f64 = 0.10;

/// A (tensor-parallel, pipeline-parallel) configuration for one instance.
///
/// # Examples
///
/// ```
/// use distserve_models::{OptModel, ParallelismConfig};
///
/// let arch = OptModel::Opt66B.arch();
/// let cfg = ParallelismConfig::new(4, 2);
/// assert!(cfg.validate(&arch).is_ok());
/// assert_eq!(cfg.num_gpus(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelismConfig {
    /// Tensor (intra-operator) parallel degree.
    pub tp: u32,
    /// Pipeline (inter-operator) parallel degree.
    pub pp: u32,
}

/// Why a parallelism configuration is invalid for an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelismError {
    /// Degrees must be at least 1.
    ZeroDegree,
    /// `num_heads` must be divisible by the tensor-parallel degree.
    HeadsNotDivisible {
        /// Attention heads in the model.
        heads: u32,
        /// Requested tensor-parallel degree.
        tp: u32,
    },
    /// `num_layers` must be divisible by the pipeline-parallel degree.
    LayersNotDivisible {
        /// Layers in the model.
        layers: u32,
        /// Requested pipeline-parallel degree.
        pp: u32,
    },
    /// The per-GPU weight shard exceeds GPU memory.
    ShardTooLarge {
        /// Bytes required per GPU for the weight shard.
        shard_bytes: u64,
        /// Bytes available on the GPU.
        capacity: u64,
    },
}

impl fmt::Display for ParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelismError::ZeroDegree => write!(f, "parallel degrees must be >= 1"),
            ParallelismError::HeadsNotDivisible { heads, tp } => {
                write!(f, "{heads} heads not divisible by tp={tp}")
            }
            ParallelismError::LayersNotDivisible { layers, pp } => {
                write!(f, "{layers} layers not divisible by pp={pp}")
            }
            ParallelismError::ShardTooLarge {
                shard_bytes,
                capacity,
            } => write!(
                f,
                "weight shard of {shard_bytes} bytes exceeds GPU capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ParallelismError {}

impl ParallelismConfig {
    /// No parallelism: a single GPU holds the whole model.
    pub const SINGLE: ParallelismConfig = ParallelismConfig { tp: 1, pp: 1 };

    /// Creates a configuration. Degrees are taken as given; call
    /// [`validate`](Self::validate) to check against an architecture.
    #[must_use]
    pub fn new(tp: u32, pp: u32) -> Self {
        ParallelismConfig { tp, pp }
    }

    /// Total GPUs this instance occupies.
    #[must_use]
    pub fn num_gpus(&self) -> u32 {
        self.tp * self.pp
    }

    /// Checks divisibility constraints against `arch`.
    ///
    /// # Errors
    ///
    /// Returns the specific [`ParallelismError`] violated.
    pub fn validate(&self, arch: &ModelArch) -> Result<(), ParallelismError> {
        if self.tp == 0 || self.pp == 0 {
            return Err(ParallelismError::ZeroDegree);
        }
        if !arch.num_heads.is_multiple_of(self.tp) {
            return Err(ParallelismError::HeadsNotDivisible {
                heads: arch.num_heads,
                tp: self.tp,
            });
        }
        // Under GQA the K/V heads must also split evenly across the
        // tensor-parallel group.
        if !arch.kv_heads.is_multiple_of(self.tp) {
            return Err(ParallelismError::HeadsNotDivisible {
                heads: arch.kv_heads,
                tp: self.tp,
            });
        }
        if !arch.num_layers.is_multiple_of(self.pp) {
            return Err(ParallelismError::LayersNotDivisible {
                layers: arch.num_layers,
                pp: self.pp,
            });
        }
        Ok(())
    }

    /// Checks both divisibility and that the per-GPU weight shard fits in
    /// `gpu` memory outside the [`MEM_MARGIN`] reserve.
    ///
    /// # Errors
    ///
    /// Returns the specific [`ParallelismError`] violated.
    pub fn validate_memory(&self, arch: &ModelArch, gpu: &GpuSpec) -> Result<(), ParallelismError> {
        self.validate(arch)?;
        let shard = self.shard_weight_bytes(arch);
        let usable = gpu.mem_capacity - reserved_bytes(gpu, MEM_MARGIN);
        if shard > usable {
            return Err(ParallelismError::ShardTooLarge {
                shard_bytes: shard,
                capacity: usable,
            });
        }
        Ok(())
    }

    /// Bytes of model weights held by each GPU.
    #[must_use]
    pub fn shard_weight_bytes(&self, arch: &ModelArch) -> u64 {
        arch.weight_bytes() / u64::from(self.num_gpus())
    }

    /// Bytes of KV pool across one instance of this configuration: on
    /// each GPU, `gpu`'s capacity less the weight shard and a
    /// `margin_frac` reserve, summed over the instance's GPUs. Zero when
    /// the shard does not fit. Every simulator sizes its pools with this.
    #[must_use]
    pub fn kv_pool_bytes(&self, arch: &ModelArch, gpu: &GpuSpec, margin_frac: f64) -> u64 {
        let reserved = self.shard_weight_bytes(arch) + reserved_bytes(gpu, margin_frac);
        gpu.mem_capacity.saturating_sub(reserved) * u64::from(self.num_gpus())
    }

    /// Layers per pipeline stage.
    #[must_use]
    pub fn layers_per_stage(&self, arch: &ModelArch) -> u32 {
        arch.num_layers / self.pp
    }

    /// Enumerates all legal configurations with `tp <= max_tp`,
    /// `pp <= max_pp`, and a weight shard fitting `gpu` memory — the search
    /// space walked by Algorithms 1 and 2.
    #[must_use]
    pub fn enumerate(
        arch: &ModelArch,
        gpu: &GpuSpec,
        max_tp: u32,
        max_pp: u32,
    ) -> Vec<ParallelismConfig> {
        let mut out = Vec::new();
        for tp in 1..=max_tp {
            for pp in 1..=max_pp {
                let cfg = ParallelismConfig::new(tp, pp);
                if cfg.validate_memory(arch, gpu).is_ok() {
                    out.push(cfg);
                }
            }
        }
        out
    }
}

/// Bytes of `gpu`'s memory held back by a `frac` reserve.
fn reserved_bytes(gpu: &GpuSpec, frac: f64) -> u64 {
    (gpu.mem_capacity as f64 * frac) as u64
}

impl fmt::Display for ParallelismConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tp{}pp{}", self.tp, self.pp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::OptModel;

    #[test]
    fn gpu_counts() {
        assert_eq!(ParallelismConfig::new(4, 2).num_gpus(), 8);
        assert_eq!(ParallelismConfig::SINGLE.num_gpus(), 1);
    }

    #[test]
    fn divisibility_checks() {
        let arch = OptModel::Opt13B.arch(); // 40 heads, 40 layers.
        assert!(ParallelismConfig::new(8, 1).validate(&arch).is_ok());
        assert!(ParallelismConfig::new(5, 4).validate(&arch).is_ok());
        assert!(matches!(
            ParallelismConfig::new(3, 1).validate(&arch),
            Err(ParallelismError::HeadsNotDivisible { .. })
        ));
        assert!(matches!(
            ParallelismConfig::new(1, 3).validate(&arch),
            Err(ParallelismError::LayersNotDivisible { .. })
        ));
        assert!(matches!(
            ParallelismConfig::new(0, 1).validate(&arch),
            Err(ParallelismError::ZeroDegree)
        ));
    }

    #[test]
    fn memory_check_rejects_oversized_shards() {
        // OPT-175B is 350 GB at fp16: it cannot fit on fewer than 5 A100s.
        let arch = OptModel::Opt175B.arch();
        let gpu = GpuSpec::a100_80g();
        assert!(matches!(
            ParallelismConfig::new(2, 2).validate_memory(&arch, &gpu),
            Err(ParallelismError::ShardTooLarge { .. })
        ));
        assert!(ParallelismConfig::new(4, 2)
            .validate_memory(&arch, &gpu)
            .is_ok());
    }

    #[test]
    fn shard_sizes_divide_evenly() {
        let arch = OptModel::Opt66B.arch();
        let cfg = ParallelismConfig::new(2, 2);
        assert_eq!(cfg.shard_weight_bytes(&arch), arch.weight_bytes() / 4);
        assert_eq!(cfg.layers_per_stage(&arch), 32);
    }

    #[test]
    fn kv_pool_scales_with_gpus() {
        let arch = OptModel::Opt13B.arch();
        let gpu = GpuSpec::a100_80g();
        let p1 = ParallelismConfig::SINGLE.kv_pool_bytes(&arch, &gpu, MEM_MARGIN);
        let p2 = ParallelismConfig::new(2, 1).kv_pool_bytes(&arch, &gpu, MEM_MARGIN);
        // Two GPUs hold the same weights but twice the capacity: the pool
        // more than doubles.
        assert!(p2 > 2 * p1, "p1 {p1}, p2 {p2}");
        // A 13B model on one A100 leaves roughly 80·0.9 − 26 ≈ 46 GB.
        let gb = p1 as f64 / 1e9;
        assert!((35.0..55.0).contains(&gb), "pool {gb} GB");
    }

    #[test]
    fn oversized_shard_gives_zero_pool() {
        let arch = OptModel::Opt175B.arch();
        let pool = ParallelismConfig::SINGLE.kv_pool_bytes(&arch, &GpuSpec::a100_80g(), MEM_MARGIN);
        assert_eq!(pool, 0);
    }

    #[test]
    fn enumerate_respects_all_constraints() {
        let arch = OptModel::Opt66B.arch(); // 72 heads, 64 layers, 132 GB.
        let gpu = GpuSpec::a100_80g();
        let configs = ParallelismConfig::enumerate(&arch, &gpu, 8, 4);
        assert!(!configs.is_empty());
        for cfg in &configs {
            assert!(cfg.validate_memory(&arch, &gpu).is_ok());
            assert!(cfg.tp <= 8 && cfg.pp <= 4);
        }
        // tp=1, pp=1 puts 132 GB on one 80 GB GPU: must be excluded.
        assert!(!configs.contains(&ParallelismConfig::SINGLE));
        // tp=2, pp=1 gives 66 GB per GPU: within the 90% usable budget.
        assert!(configs.contains(&ParallelismConfig::new(2, 1)));
        // tp=5 does not divide 72 heads: excluded even though memory fits.
        assert!(!configs.iter().any(|c| c.tp == 5));
    }

    #[test]
    fn gqa_constrains_tensor_parallelism() {
        use crate::arch::LlamaModel;
        // LLaMA-2-70B: 64 query heads but only 8 KV heads — tp=16 splits
        // queries but not KV.
        let arch = LlamaModel::Llama2_70B.arch();
        assert!(ParallelismConfig::new(8, 1).validate(&arch).is_ok());
        assert!(matches!(
            ParallelismConfig::new(16, 1).validate(&arch),
            Err(ParallelismError::HeadsNotDivisible { heads: 8, tp: 16 })
        ));
    }

    #[test]
    fn display_format() {
        assert_eq!(ParallelismConfig::new(4, 3).to_string(), "tp4pp3");
    }
}
