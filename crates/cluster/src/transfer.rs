//! KV-cache transfer timing between prefill and decoding instances.
//!
//! §3.3 works the arithmetic: a 512-token OPT-66B request carries ≈1.13 GB
//! of KV cache, so at 10 rps the system must move ≈90 Gbps — invisible
//! over NVLink or InfiniBand, ruinous over 25 Gbps Ethernet. The transfer
//! model picks the path pairwise per pipeline stage: when the prefill and
//! decoding segments for a stage share a node (the §4.2 arrangement), KV
//! moves over NVLink; otherwise it crosses the node fabric.
//!
//! Transfers of one request's KV happen layer-by-layer between
//! *corresponding* stages, so the per-request time is governed by the
//! largest share any single link carries.

use distserve_models::{ModelArch, ParallelismConfig};

use crate::topology::{Cluster, GpuId};

/// Computes KV transfer times between a prefill instance and a decoding
/// instance placed on specific GPUs.
///
/// # Examples
///
/// ```
/// use distserve_cluster::{Cluster, KvTransferModel};
/// use distserve_models::{OptModel, ParallelismConfig};
///
/// let cluster = Cluster::paper_testbed();
/// let arch = OptModel::Opt66B.arch();
/// let model = KvTransferModel::new(arch);
///
/// // Colocated on one node: NVLink, sub-10ms for a 512-token request.
/// let prefill = vec![vec![cluster.gpu(0, 0)]];
/// let decode = vec![vec![cluster.gpu(0, 1)]];
/// let t = model.request_transfer_time(
///     &cluster,
///     &prefill, ParallelismConfig::new(1, 1),
///     &decode, ParallelismConfig::new(1, 1),
///     512,
/// );
/// assert!(t < 0.01, "NVLink transfer took {t}s");
/// ```
#[derive(Debug, Clone)]
pub struct KvTransferModel {
    arch: ModelArch,
}

impl KvTransferModel {
    /// Creates a transfer model for one architecture.
    #[must_use]
    pub fn new(arch: ModelArch) -> Self {
        KvTransferModel { arch }
    }

    /// Total KV bytes for a request of `tokens` context positions.
    #[must_use]
    pub fn request_kv_bytes(&self, tokens: u32) -> u64 {
        self.arch.kv_bytes_per_token() * u64::from(tokens)
    }

    /// Time to move one request's KV cache from a prefill instance to a
    /// decoding instance.
    ///
    /// `prefill_stages` / `decode_stages` list the GPU groups per pipeline
    /// stage (as produced by [`crate::GpuAllocator::allocate_instance`]).
    /// Each *decoding* stage pulls the KV slices for its layer range from
    /// whichever prefill stages hold them; the request's transfer
    /// completes when the slowest stage finishes (transfers proceed in
    /// parallel across stages and links).
    #[must_use]
    pub fn request_transfer_time(
        &self,
        cluster: &Cluster,
        prefill_stages: &[Vec<GpuId>],
        prefill_par: ParallelismConfig,
        decode_stages: &[Vec<GpuId>],
        decode_par: ParallelismConfig,
        tokens: u32,
    ) -> f64 {
        debug_assert_eq!(prefill_stages.len(), prefill_par.pp as usize);
        debug_assert_eq!(decode_stages.len(), decode_par.pp as usize);
        let total_bytes = self.request_kv_bytes(tokens) as f64;
        if total_bytes == 0.0 {
            return 0.0;
        }
        let layers = f64::from(self.arch.num_layers);

        // Walk the layer ranges of the decoding stages; for each, find the
        // overlapping prefill stage(s) and charge the overlap bytes to the
        // link between representative GPUs of the two groups. Stages
        // transfer concurrently, so the request completes at the max.
        let bytes_per_layer = total_bytes / layers;
        let p_layers = layers / f64::from(prefill_par.pp);
        let d_layers = layers / f64::from(decode_par.pp);

        let mut worst = 0.0f64;
        for (d_idx, d_group) in decode_stages.iter().enumerate() {
            let d_lo = d_layers * d_idx as f64;
            let d_hi = d_lo + d_layers;
            let mut stage_time = 0.0;
            for (p_idx, p_group) in prefill_stages.iter().enumerate() {
                let p_lo = p_layers * p_idx as f64;
                let p_hi = p_lo + p_layers;
                let overlap = (d_hi.min(p_hi) - d_lo.max(p_lo)).max(0.0);
                if overlap <= 0.0 {
                    continue;
                }
                let bytes = bytes_per_layer * overlap;
                let link = cluster
                    .link_between(Self::representative(p_group), Self::representative(d_group));
                // The KV slice is itself sharded over the TP group; shards
                // move in parallel over per-GPU links.
                let shards = f64::from(prefill_par.tp.max(decode_par.tp));
                stage_time += link.transfer_time((bytes / shards) as u64);
            }
            worst = worst.max(stage_time);
        }
        worst
    }

    /// Sustained bandwidth demand of a stream of requests: bytes/s that
    /// must cross from prefill to decoding at `rate` requests/s with mean
    /// context `mean_tokens` (§3.3's "90 Gbps" arithmetic).
    #[must_use]
    pub fn bandwidth_demand(&self, rate: f64, mean_tokens: f64) -> f64 {
        self.arch.kv_bytes_per_token() as f64 * mean_tokens * rate
    }

    /// The architecture this model serves.
    #[must_use]
    pub fn arch(&self) -> &ModelArch {
        &self.arch
    }

    fn representative(group: &[GpuId]) -> GpuId {
        *group.first().expect("instance stage has at least one GPU")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_models::OptModel;

    fn model66b() -> KvTransferModel {
        KvTransferModel::new(OptModel::Opt66B.arch())
    }

    #[test]
    fn paper_bandwidth_arithmetic() {
        // §3.3: 10 rps × 512 tokens on OPT-66B ≈ 11.3 GB/s ≈ 90 Gbps.
        let demand = model66b().bandwidth_demand(10.0, 512.0);
        let gbps = demand * 8.0 / 1e9;
        assert!((80.0..110.0).contains(&gbps), "demand {gbps} Gbps");
    }

    #[test]
    fn same_node_uses_nvlink() {
        let cluster = Cluster::paper_testbed();
        let m = model66b();
        let p = vec![vec![cluster.gpu(0, 0), cluster.gpu(0, 1)]];
        let d = vec![vec![cluster.gpu(0, 2), cluster.gpu(0, 3)]];
        let t = m.request_transfer_time(
            &cluster,
            &p,
            ParallelismConfig::new(2, 1),
            &d,
            ParallelismConfig::new(2, 1),
            512,
        );
        assert!(t < 0.005, "NVLink path took {t}s");
    }

    #[test]
    fn cross_node_is_orders_slower() {
        let cluster = Cluster::paper_testbed();
        let m = model66b();
        let p = vec![vec![cluster.gpu(0, 0)]];
        let d_same = vec![vec![cluster.gpu(0, 1)]];
        let d_cross = vec![vec![cluster.gpu(1, 0)]];
        let par = ParallelismConfig::new(1, 1);
        let t_same = m.request_transfer_time(&cluster, &p, par, &d_same, par, 512);
        let t_cross = m.request_transfer_time(&cluster, &p, par, &d_cross, par, 512);
        assert!(
            t_cross > 50.0 * t_same,
            "cross {t_cross}s vs same {t_same}s"
        );
    }

    #[test]
    fn pipeline_stages_transfer_in_parallel() {
        // Splitting both instances into 2 colocated stages should halve
        // (roughly) the per-request transfer time versus 1 stage, because
        // each stage moves half the layers concurrently.
        let cluster = Cluster::paper_testbed();
        let m = model66b();
        let par1 = ParallelismConfig::new(1, 1);
        let par2 = ParallelismConfig::new(1, 2);
        let p1 = vec![vec![cluster.gpu(0, 0)]];
        let d1 = vec![vec![cluster.gpu(0, 1)]];
        let t1 = m.request_transfer_time(&cluster, &p1, par1, &d1, par1, 512);
        let p2 = vec![vec![cluster.gpu(0, 0)], vec![cluster.gpu(1, 0)]];
        let d2 = vec![vec![cluster.gpu(0, 1)], vec![cluster.gpu(1, 1)]];
        let t2 = m.request_transfer_time(&cluster, &p2, par2, &d2, par2, 512);
        assert!((0.4..0.7).contains(&(t2 / t1)), "ratio {}", t2 / t1);
    }

    #[test]
    fn mismatched_stages_cross_when_misaligned() {
        // Prefill pp=1 on node 0; decode pp=2 with stage 1 on another
        // node: stage 1's share must cross the slow link.
        let cluster = Cluster::paper_testbed();
        let m = model66b();
        let p = vec![vec![cluster.gpu(0, 0)]];
        let d = vec![vec![cluster.gpu(0, 1)], vec![cluster.gpu(1, 1)]];
        let t = m.request_transfer_time(
            &cluster,
            &p,
            ParallelismConfig::new(1, 1),
            &d,
            ParallelismConfig::new(1, 2),
            512,
        );
        // Half the KV (≈0.57 GB) over 25 Gbps ≈ 0.2 s.
        assert!(t > 0.05, "expected slow path, got {t}s");
    }

    #[test]
    fn zero_tokens_zero_time() {
        let cluster = Cluster::single_node(2);
        let m = model66b();
        let p = vec![vec![cluster.gpu(0, 0)]];
        let d = vec![vec![cluster.gpu(0, 1)]];
        let par = ParallelismConfig::new(1, 1);
        assert_eq!(m.request_transfer_time(&cluster, &p, par, &d, par, 0), 0.0);
    }

    #[test]
    fn kv_bytes_scale_linearly() {
        let m = model66b();
        assert_eq!(m.request_kv_bytes(1024), 2 * m.request_kv_bytes(512));
    }
}
