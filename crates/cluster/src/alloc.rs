//! GPU allocation: assigning GPU groups to serving instances.
//!
//! A placement maps instances (prefill or decoding, each `tp × pp` GPUs)
//! onto physical GPUs. Tensor-parallel groups must share a node (they
//! all-reduce over NVLink every layer); pipeline stages may span nodes.
//! The low node-affinity algorithm additionally colocates corresponding
//! prefill and decoding *instance segments* on the same node (§4.2) —
//! which callers express by allocating both segments' GPUs from one node.

use std::collections::BTreeSet;

use crate::topology::{Cluster, GpuId, NodeId};

/// Errors from GPU allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free GPUs anywhere in the cluster.
    InsufficientGpus {
        /// GPUs requested.
        requested: u32,
        /// GPUs currently free.
        available: u32,
    },
    /// No single node has the requested number of free GPUs.
    NoNodeWithCapacity {
        /// GPUs requested on one node.
        requested: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::InsufficientGpus {
                requested,
                available,
            } => {
                write!(f, "requested {requested} GPUs, only {available} free")
            }
            AllocError::NoNodeWithCapacity { requested } => {
                write!(f, "no node has {requested} free GPUs")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Tracks free GPUs and hands out groups.
///
/// # Examples
///
/// ```
/// use distserve_cluster::{Cluster, GpuAllocator};
///
/// let cluster = Cluster::paper_testbed();
/// let mut alloc = GpuAllocator::new(&cluster);
/// let tp_group = alloc.allocate_on_one_node(4).unwrap();
/// assert_eq!(tp_group.len(), 4);
/// // A tensor-parallel group always shares a node.
/// assert!(tp_group.iter().all(|g| g.node == tp_group[0].node));
/// ```
#[derive(Debug, Clone)]
pub struct GpuAllocator {
    free: BTreeSet<GpuId>,
    total: u32,
}

impl GpuAllocator {
    /// Creates an allocator with every *healthy* GPU of `cluster` free —
    /// failed GPUs ([`Cluster::fail_gpu`], [`Cluster::remove_node`]) are
    /// never handed out, so materializing onto a shrunk cluster routes
    /// around dead hardware automatically.
    #[must_use]
    pub fn new(cluster: &Cluster) -> Self {
        GpuAllocator {
            free: cluster.healthy_gpus().collect(),
            total: cluster.available_gpus(),
        }
    }

    /// GPUs currently free.
    #[must_use]
    pub fn free_count(&self) -> u32 {
        self.free.len() as u32
    }

    /// Total GPUs managed.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Allocates `count` GPUs that all reside on a single node — required
    /// for tensor-parallel groups and for §4.2's colocated segments.
    /// Prefers the node with the *least* free capacity that still fits
    /// (best-fit, reduces fragmentation).
    ///
    /// # Errors
    ///
    /// [`AllocError::NoNodeWithCapacity`] if no node can host the group.
    pub fn allocate_on_one_node(&mut self, count: u32) -> Result<Vec<GpuId>, AllocError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        // Collect per-node free counts.
        let mut nodes: Vec<(NodeId, u32)> = Vec::new();
        for gpu in &self.free {
            match nodes.last_mut() {
                Some((n, c)) if *n == gpu.node => *c += 1,
                _ => nodes.push((gpu.node, 1)),
            }
        }
        let best = nodes
            .iter()
            .filter(|(_, c)| *c >= count)
            .min_by_key(|(_, c)| *c)
            .map(|(n, _)| *n)
            .ok_or(AllocError::NoNodeWithCapacity { requested: count })?;
        let picked: Vec<GpuId> = self
            .free
            .iter()
            .filter(|g| g.node == best)
            .take(count as usize)
            .copied()
            .collect();
        for gpu in &picked {
            self.free.remove(gpu);
        }
        Ok(picked)
    }

    /// Allocates an instance of `pp` stages × `tp` GPUs: each stage's
    /// tensor-parallel group shares a node; different stages may land on
    /// different nodes. Returns one GPU group per stage.
    ///
    /// # Errors
    ///
    /// Returns the first stage allocation failure, rolling back any
    /// partially allocated stages.
    pub fn allocate_instance(&mut self, tp: u32, pp: u32) -> Result<Vec<Vec<GpuId>>, AllocError> {
        let mut stages = Vec::with_capacity(pp as usize);
        for _ in 0..pp {
            match self.allocate_on_one_node(tp) {
                Ok(group) => stages.push(group),
                Err(e) => {
                    // Roll back previous stages so failure is atomic.
                    for group in stages.drain(..) {
                        self.release(&group);
                    }
                    return Err(e);
                }
            }
        }
        Ok(stages)
    }

    /// Returns GPUs to the free pool.
    pub fn release(&mut self, gpus: &[GpuId]) {
        for &gpu in gpus {
            let inserted = self.free.insert(gpu);
            debug_assert!(inserted, "double free of {gpu}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_allocation() {
        let cluster = Cluster::paper_testbed();
        let mut alloc = GpuAllocator::new(&cluster);
        assert_eq!(alloc.free_count(), 32);
        let mut groups = Vec::new();
        for _ in 0..8 {
            groups.push(alloc.allocate_on_one_node(4).unwrap());
        }
        assert_eq!(alloc.free_count(), 0);
        assert!(alloc.allocate_on_one_node(1).is_err());
        for g in &groups {
            alloc.release(g);
        }
        assert_eq!(alloc.free_count(), 32);
    }

    #[test]
    fn single_node_constraint_enforced() {
        let cluster = Cluster::paper_testbed(); // 8 GPUs per node.
        let mut alloc = GpuAllocator::new(&cluster);
        // 16 GPUs exist across nodes but no node has 16.
        assert_eq!(
            alloc.allocate_on_one_node(16),
            Err(AllocError::NoNodeWithCapacity { requested: 16 })
        );
        let g = alloc.allocate_on_one_node(8).unwrap();
        assert!(g.iter().all(|x| x.node == g[0].node));
    }

    #[test]
    fn best_fit_prefers_fuller_node() {
        let cluster = Cluster::paper_testbed();
        let mut alloc = GpuAllocator::new(&cluster);
        // Occupy 6 GPUs on node 0, leaving 2 free there.
        let first: Vec<GpuId> = alloc.allocate_on_one_node(6).unwrap();
        let node0 = first[0].node;
        // A 2-GPU request should pack into node 0's remainder.
        let second = alloc.allocate_on_one_node(2).unwrap();
        assert_eq!(second[0].node, node0);
    }

    #[test]
    fn instance_allocation_stage_structure() {
        let cluster = Cluster::paper_testbed();
        let mut alloc = GpuAllocator::new(&cluster);
        let stages = alloc.allocate_instance(4, 3).unwrap();
        assert_eq!(stages.len(), 3);
        for stage in &stages {
            assert_eq!(stage.len(), 4);
            assert!(stage.iter().all(|g| g.node == stage[0].node));
        }
        assert_eq!(alloc.free_count(), 32 - 12);
    }

    #[test]
    fn instance_allocation_rolls_back_on_failure() {
        let cluster = Cluster::single_node(8);
        let mut alloc = GpuAllocator::new(&cluster);
        // 3 stages of 4 GPUs = 12 > 8 available: must fail atomically.
        assert!(alloc.allocate_instance(4, 3).is_err());
        assert_eq!(alloc.free_count(), 8);
    }

    #[test]
    fn failed_gpus_are_never_allocated() {
        let mut cluster = Cluster::single_node(4);
        cluster.fail_gpu(cluster.gpu(0, 1)).unwrap();
        cluster.fail_gpu(cluster.gpu(0, 3)).unwrap();
        let mut alloc = GpuAllocator::new(&cluster);
        assert_eq!(alloc.free_count(), 2);
        assert_eq!(alloc.total(), 2);
        let got = alloc.allocate_on_one_node(2).unwrap();
        assert!(got.iter().all(|g| !cluster.is_failed(*g)));
        assert!(alloc.allocate_on_one_node(1).is_err());
    }

    #[test]
    fn zero_request_is_noop() {
        let cluster = Cluster::single_node(2);
        let mut alloc = GpuAllocator::new(&cluster);
        assert!(alloc.allocate_on_one_node(0).unwrap().is_empty());
        assert_eq!(alloc.free_count(), 2);
    }
}
