//! GPU and interconnect hardware characteristics.
//!
//! The latency model is parameterized by a [`GpuSpec`] (peak compute,
//! memory bandwidth, capacity, and achievable-efficiency factors) and
//! [`LinkSpec`]s for tensor-parallel all-reduce and KV-cache transfer
//! paths. Presets match the paper's testbed: NVIDIA A100-80GB SXM with
//! NVLink inside a node and a 25 Gbps cross-node network (§6.1).

/// Compute and memory characteristics of one GPU.
///
/// # Examples
///
/// ```
/// use distserve_models::GpuSpec;
///
/// let a100 = GpuSpec::a100_80g();
/// assert_eq!(a100.mem_capacity, 80 * (1 << 30));
/// assert!(a100.effective_flops() < a100.peak_flops);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-80G-SXM"`.
    pub name: String,
    /// Peak dense fp16 tensor-core throughput, FLOP/s.
    pub peak_flops: f64,
    /// Peak HBM bandwidth, bytes/s.
    pub mem_bandwidth: f64,
    /// Device memory capacity, bytes.
    pub mem_capacity: u64,
    /// Fraction of peak FLOP/s large GEMMs achieve in practice.
    pub gemm_efficiency: f64,
    /// Fraction of peak memory bandwidth streaming kernels achieve.
    pub mem_efficiency: f64,
}

impl GpuSpec {
    /// NVIDIA A100-80GB SXM: 312 TFLOP/s dense fp16, 2039 GB/s HBM2e.
    #[must_use]
    pub fn a100_80g() -> Self {
        GpuSpec {
            name: "A100-80G-SXM".into(),
            peak_flops: 312e12,
            mem_bandwidth: 2039e9,
            mem_capacity: 80 * (1 << 30),
            gemm_efficiency: 0.52,
            mem_efficiency: 0.80,
        }
    }

    /// NVIDIA H100 SXM: 989 TFLOP/s dense fp16, 3.35 TB/s HBM3.
    #[must_use]
    pub fn h100_80g() -> Self {
        GpuSpec {
            name: "H100-80G-SXM".into(),
            peak_flops: 989e12,
            mem_bandwidth: 3350e9,
            mem_capacity: 80 * (1 << 30),
            gemm_efficiency: 0.50,
            mem_efficiency: 0.78,
        }
    }

    /// Achievable GEMM throughput, FLOP/s.
    #[must_use]
    pub fn effective_flops(&self) -> f64 {
        self.peak_flops * self.gemm_efficiency
    }

    /// Achievable streaming bandwidth, bytes/s.
    #[must_use]
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.mem_efficiency
    }
}

/// A communication link between GPUs (or nodes).
///
/// # Examples
///
/// ```
/// use distserve_models::LinkSpec;
///
/// let nv = LinkSpec::nvlink();
/// // Transferring 600 GB over 600 GB/s NVLink takes about a second
/// // (plus launch latency, divided by efficiency).
/// let t = nv.transfer_time(600e9 as u64);
/// assert!((0.9..2.0).contains(&t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Peak unidirectional bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-transfer launch latency, seconds.
    pub latency: f64,
    /// Achievable fraction of peak bandwidth.
    pub efficiency: f64,
}

impl LinkSpec {
    /// NVLink 3.0 between A100s: 600 GB/s aggregate (§3.3).
    #[must_use]
    pub fn nvlink() -> Self {
        LinkSpec {
            bandwidth: 600e9,
            latency: 5e-6,
            efficiency: 0.75,
        }
    }

    /// 25 Gbps cross-node Ethernet — the paper's testbed (§6.1).
    #[must_use]
    pub fn ethernet_25g() -> Self {
        LinkSpec {
            bandwidth: 25e9 / 8.0,
            latency: 30e-6,
            efficiency: 0.85,
        }
    }

    /// 800 Gbps InfiniBand — the high node-affinity cluster of §4.1.
    #[must_use]
    pub fn infiniband_800g() -> Self {
        LinkSpec {
            bandwidth: 800e9 / 8.0,
            latency: 10e-6,
            efficiency: 0.90,
        }
    }

    /// Time to move `bytes` across the link, seconds.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / (self.bandwidth * self.efficiency)
    }

    /// Time for a ring all-reduce of `bytes` among `world` participants.
    ///
    /// Ring all-reduce moves `2 * (world-1)/world * bytes` per participant
    /// and pays the launch latency once per ring step.
    #[must_use]
    pub fn allreduce_time(&self, bytes: u64, world: u32) -> f64 {
        if world <= 1 {
            return 0.0;
        }
        let w = f64::from(world);
        let volume = 2.0 * (w - 1.0) / w * bytes as f64;
        2.0 * (w - 1.0) * self.latency + volume / (self.bandwidth * self.efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_datasheet() {
        let g = GpuSpec::a100_80g();
        assert_eq!(g.peak_flops, 312e12);
        assert_eq!(g.mem_bandwidth, 2039e9);
        assert_eq!(g.mem_capacity, 80 * (1 << 30));
    }

    #[test]
    fn effective_rates_below_peak() {
        for g in [GpuSpec::a100_80g(), GpuSpec::h100_80g()] {
            assert!(g.effective_flops() < g.peak_flops);
            assert!(g.effective_bandwidth() < g.mem_bandwidth);
            assert!(g.effective_flops() > 0.0);
        }
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let l = LinkSpec::ethernet_25g();
        assert!(l.transfer_time(2_000_000) > l.transfer_time(1_000_000));
        // Zero bytes still pays launch latency.
        assert!(l.transfer_time(0) >= l.latency);
    }

    #[test]
    fn paper_kv_transfer_example() {
        // §3.3: 1.13 GB per 512-token OPT-66B request; over NVLink the
        // transfer should be a few milliseconds — "negligible".
        let t = LinkSpec::nvlink().transfer_time(1_130_000_000);
        assert!(t < 0.01, "NVLink transfer took {t}s");
        // Over the 25 Gbps cross-node link it is hundreds of milliseconds —
        // which is why the low node-affinity algorithm exists.
        let t = LinkSpec::ethernet_25g().transfer_time(1_130_000_000);
        assert!(t > 0.1, "cross-node transfer took only {t}s");
    }

    #[test]
    fn allreduce_time_properties() {
        let l = LinkSpec::nvlink();
        assert_eq!(l.allreduce_time(1 << 20, 1), 0.0);
        let t2 = l.allreduce_time(1 << 20, 2);
        let t4 = l.allreduce_time(1 << 20, 4);
        assert!(t2 > 0.0);
        // More participants move more total volume per byte reduced.
        assert!(t4 > t2);
    }
}
