//! Cluster topology: nodes, GPUs, and the links between them.

use distserve_models::{GpuSpec, LinkSpec};

/// Identifies a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies one GPU as `(node, local index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId {
    /// Hosting node.
    pub node: NodeId,
    /// Index within the node, `0..gpus_per_node`.
    pub index: u32,
}

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}g{}", self.node.0, self.index)
    }
}

/// A homogeneous GPU cluster.
///
/// # Examples
///
/// ```
/// use distserve_cluster::Cluster;
///
/// let c = Cluster::paper_testbed();
/// assert_eq!(c.num_nodes(), 4);
/// assert_eq!(c.gpus_per_node(), 8);
/// // GPUs on one node talk over NVLink; across nodes over 25 Gbps.
/// let a = c.gpu(0, 0);
/// let same = c.gpu(0, 3);
/// let other = c.gpu(1, 0);
/// assert!(c.link_between(a, same).bandwidth > c.link_between(a, other).bandwidth);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    num_nodes: u32,
    gpus_per_node: u32,
    gpu: GpuSpec,
    intra_node: LinkSpec,
    cross_node: LinkSpec,
    /// GPUs marked failed ([`Cluster::fail_gpu`] / [`Cluster::remove_node`]),
    /// kept sorted. Physical topology is immutable; failure is an overlay,
    /// so shrink-then-replan flows keep stable `GpuId`s.
    failed: Vec<GpuId>,
}

impl Cluster {
    /// Creates a homogeneous cluster.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(
        num_nodes: u32,
        gpus_per_node: u32,
        gpu: GpuSpec,
        intra_node: LinkSpec,
        cross_node: LinkSpec,
    ) -> Self {
        assert!(
            num_nodes > 0 && gpus_per_node > 0,
            "cluster cannot be empty"
        );
        Cluster {
            num_nodes,
            gpus_per_node,
            gpu,
            intra_node,
            cross_node,
            failed: Vec::new(),
        }
    }

    /// The paper's evaluation testbed (§6.1): 4 nodes × 8 A100-80G with
    /// NVLink inside nodes and 25 Gbps across — a *low node-affinity*
    /// cluster, hence Algorithm 2 in most experiments.
    #[must_use]
    pub fn paper_testbed() -> Self {
        Cluster::new(
            4,
            8,
            GpuSpec::a100_80g(),
            LinkSpec::nvlink(),
            LinkSpec::ethernet_25g(),
        )
    }

    /// A *high node-affinity* cluster (§4.1): same shape but with 800 Gbps
    /// InfiniBand across nodes, where Algorithm 1 applies.
    #[must_use]
    pub fn high_affinity(num_nodes: u32, gpus_per_node: u32) -> Self {
        Cluster::new(
            num_nodes,
            gpus_per_node,
            GpuSpec::a100_80g(),
            LinkSpec::nvlink(),
            LinkSpec::infiniband_800g(),
        )
    }

    /// A single node with `gpus` A100s (Figures 1–5 settings).
    #[must_use]
    pub fn single_node(gpus: u32) -> Self {
        Cluster::new(
            1,
            gpus,
            GpuSpec::a100_80g(),
            LinkSpec::nvlink(),
            LinkSpec::ethernet_25g(),
        )
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// GPUs per node.
    #[must_use]
    pub fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    /// Total *physical* GPUs in the cluster, failed ones included.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        self.num_nodes * self.gpus_per_node
    }

    /// GPUs still healthy — the capacity a placement may actually use.
    #[must_use]
    pub fn available_gpus(&self) -> u32 {
        self.total_gpus() - self.failed.len() as u32
    }

    /// Marks one GPU failed. Idempotence is an error: double-failing the
    /// same GPU usually means the caller lost track of cluster state.
    ///
    /// # Errors
    ///
    /// Returns a message when the GPU is outside the cluster or already
    /// failed.
    pub fn fail_gpu(&mut self, gpu: GpuId) -> Result<(), String> {
        if gpu.node.0 >= self.num_nodes || gpu.index >= self.gpus_per_node {
            return Err(format!("{gpu} is outside the cluster"));
        }
        match self.failed.binary_search(&gpu) {
            Ok(_) => Err(format!("{gpu} already failed")),
            Err(pos) => {
                self.failed.insert(pos, gpu);
                Ok(())
            }
        }
    }

    /// Marks every GPU on `node` failed (host loss, planned
    /// decommission). GPUs already failed stay failed. Returns the number
    /// of GPUs newly removed.
    ///
    /// # Errors
    ///
    /// Returns a message when the node is outside the cluster.
    pub fn remove_node(&mut self, node: u32) -> Result<u32, String> {
        if node >= self.num_nodes {
            return Err(format!("node {node} is outside the cluster"));
        }
        let mut newly = 0;
        for index in 0..self.gpus_per_node {
            let gpu = GpuId {
                node: NodeId(node),
                index,
            };
            if let Err(pos) = self.failed.binary_search(&gpu) {
                self.failed.insert(pos, gpu);
                newly += 1;
            }
        }
        Ok(newly)
    }

    /// Returns a repaired GPU to service.
    ///
    /// # Errors
    ///
    /// Returns a message when the GPU was not failed.
    pub fn restore_gpu(&mut self, gpu: GpuId) -> Result<(), String> {
        match self.failed.binary_search(&gpu) {
            Ok(pos) => {
                self.failed.remove(pos);
                Ok(())
            }
            Err(_) => Err(format!("{gpu} is not failed")),
        }
    }

    /// Whether a GPU is currently marked failed.
    #[must_use]
    pub fn is_failed(&self, gpu: GpuId) -> bool {
        self.failed.binary_search(&gpu).is_ok()
    }

    /// Iterates over every *healthy* GPU, node-major.
    pub fn healthy_gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.all_gpus().filter(move |g| !self.is_failed(*g))
    }

    /// The (homogeneous) GPU description.
    #[must_use]
    pub fn gpu_spec(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Constructs a [`GpuId`], checking bounds.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the cluster.
    #[must_use]
    pub fn gpu(&self, node: u32, index: u32) -> GpuId {
        assert!(node < self.num_nodes, "node {node} out of range");
        assert!(index < self.gpus_per_node, "gpu {index} out of range");
        GpuId {
            node: NodeId(node),
            index,
        }
    }

    /// Iterates over every GPU in the cluster, node-major.
    pub fn all_gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.num_nodes).flat_map(move |n| {
            (0..self.gpus_per_node).map(move |g| GpuId {
                node: NodeId(n),
                index: g,
            })
        })
    }

    /// The link connecting two GPUs: NVLink when they share a node, the
    /// cross-node fabric otherwise. A GPU "talking to itself" (same id)
    /// is treated as an intra-node copy.
    #[must_use]
    pub fn link_between(&self, a: GpuId, b: GpuId) -> LinkSpec {
        if a.node == b.node {
            self.intra_node
        } else {
            self.cross_node
        }
    }

    /// Whether the cross-node fabric is fast enough to treat the cluster
    /// as high node-affinity: the heuristic DistServe uses to pick between
    /// Algorithm 1 and Algorithm 2. The threshold is 100 Gbps — enough to
    /// stream KV caches at the rates computed in §3.3.
    #[must_use]
    pub fn is_high_affinity(&self) -> bool {
        self.cross_node.bandwidth * 8.0 >= 100e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let c = Cluster::paper_testbed();
        assert_eq!(c.total_gpus(), 32);
        assert!(!c.is_high_affinity());
        assert_eq!(c.all_gpus().count(), 32);
    }

    #[test]
    fn high_affinity_detection() {
        assert!(Cluster::high_affinity(4, 8).is_high_affinity());
        assert!(!Cluster::paper_testbed().is_high_affinity());
    }

    #[test]
    fn link_selection() {
        let c = Cluster::paper_testbed();
        let a = c.gpu(0, 0);
        let b = c.gpu(0, 7);
        let x = c.gpu(3, 0);
        assert_eq!(c.link_between(a, b), LinkSpec::nvlink());
        assert_eq!(c.link_between(a, x), LinkSpec::ethernet_25g());
        assert_eq!(c.link_between(a, a), LinkSpec::nvlink());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpu_bounds_checked() {
        let c = Cluster::single_node(4);
        let _ = c.gpu(0, 4);
    }

    #[test]
    fn all_gpus_node_major_order() {
        let c = Cluster::new(
            2,
            2,
            GpuSpec::a100_80g(),
            LinkSpec::nvlink(),
            LinkSpec::ethernet_25g(),
        );
        let ids: Vec<_> = c.all_gpus().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], c.gpu(0, 0));
        assert_eq!(ids[1], c.gpu(0, 1));
        assert_eq!(ids[2], c.gpu(1, 0));
    }

    #[test]
    fn display_format() {
        let c = Cluster::paper_testbed();
        assert_eq!(c.gpu(2, 5).to_string(), "n2g5");
    }

    #[test]
    fn fail_and_restore_gpu() {
        let mut c = Cluster::paper_testbed();
        let g = c.gpu(1, 3);
        assert!(!c.is_failed(g));
        c.fail_gpu(g).unwrap();
        assert!(c.is_failed(g));
        assert_eq!(c.available_gpus(), 31);
        assert_eq!(c.total_gpus(), 32); // physical count unchanged
        assert!(c.fail_gpu(g).is_err()); // double-fail rejected
        assert!(c
            .fail_gpu(GpuId {
                node: NodeId(9),
                index: 0
            })
            .is_err());
        assert_eq!(c.healthy_gpus().count(), 31);
        assert!(c.healthy_gpus().all(|x| x != g));
        c.restore_gpu(g).unwrap();
        assert!(c.restore_gpu(g).is_err());
        assert_eq!(c.available_gpus(), 32);
    }

    #[test]
    fn remove_node_fails_all_its_gpus_once() {
        let mut c = Cluster::paper_testbed();
        c.fail_gpu(c.gpu(2, 0)).unwrap();
        // Node 2 has one GPU already failed: only 7 are newly removed.
        assert_eq!(c.remove_node(2).unwrap(), 7);
        assert_eq!(c.available_gpus(), 24);
        assert!((0..8).all(|i| c.is_failed(c.gpu(2, i))));
        assert!(c.remove_node(4).is_err());
        // Removing the same node again removes nothing further.
        assert_eq!(c.remove_node(2).unwrap(), 0);
    }
}
