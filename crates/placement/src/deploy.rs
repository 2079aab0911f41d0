//! Materializing placements onto physical GPUs.
//!
//! A placement names parallelism configs and replica counts; this module
//! turns it into concrete [`InstanceSpec`]s with GPU assignments, using
//! the cluster allocator on the cluster's healthy GPUs. High-affinity and
//! colocated placements allocate instances wherever GPUs are free (each
//! stage's TP group on one node, stages may span nodes). Low-affinity
//! placements keep every KV transfer on NVLink: a unit that fits a node
//! is allocated wholly inside one, and a wider, segment-paired unit gets
//! each prefill/decode stage pair on one node, by best fit, so its
//! stages span nodes. Algorithm 2 and vLLM++ probe the layouts this
//! module gives one unit or replica, so they measure what deploys, and
//! Algorithm 1 searches only configs of which it places one instance.

use distserve_cluster::{Cluster, GpuAllocator};
use distserve_engine::{InstanceRole, InstanceSpec};

use crate::alg1::HighPlacement;
use crate::alg2::LowPlacement;
use crate::vllm_pp::ColocPlacement;

/// A placement of any kind, ready to materialize.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// Algorithm 1's output.
    High(HighPlacement),
    /// Algorithm 2's output.
    Low(LowPlacement),
    /// A colocated (vLLM / vLLM++) placement.
    Coloc(ColocPlacement),
}

impl Deployment {
    /// GPUs the placement occupies once materialized.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        match self {
            Deployment::High(p) => p.total_gpus(),
            Deployment::Low(p) => p.total_gpus(),
            Deployment::Coloc(p) => p.total_gpus(),
        }
    }
}

/// Materializes `deployment` onto `cluster`, returning instance specs.
///
/// # Errors
///
/// Returns a message when the cluster lacks the GPUs the placement needs.
pub fn materialize(
    cluster: &Cluster,
    deployment: &Deployment,
) -> Result<Vec<InstanceSpec>, String> {
    let mut alloc = GpuAllocator::new(cluster);
    let mut specs = Vec::new();
    match deployment {
        Deployment::High(p) => {
            for _ in 0..p.num_prefill {
                let stages = alloc
                    .allocate_instance(p.prefill.par.tp, p.prefill.par.pp)
                    .map_err(|e| format!("prefill instance: {e}"))?;
                specs.push(InstanceSpec::new(
                    InstanceRole::Prefill,
                    p.prefill.par,
                    stages,
                )?);
            }
            for _ in 0..p.num_decode {
                let stages = alloc
                    .allocate_instance(p.decode.par.tp, p.decode.par.pp)
                    .map_err(|e| format!("decode instance: {e}"))?;
                specs.push(InstanceSpec::new(
                    InstanceRole::Decode,
                    p.decode.par,
                    stages,
                )?);
            }
        }
        Deployment::Low(p) => {
            let segment_paired = p.unit_gpus() > cluster.gpus_per_node();
            for _ in 0..p.num_units {
                let (p_stages, d_stages) = if segment_paired {
                    // One stage *pair* per node: stage s of both instances
                    // shares a node, so transfers stay on NVLink (§4.2).
                    if p.prefill_par.pp != p.decode_par.pp {
                        return Err(format!(
                            "segment-paired unit needs equal pipeline depths, got {} vs {}",
                            p.prefill_par.pp, p.decode_par.pp
                        ));
                    }
                    let mut p_stages = Vec::new();
                    let mut d_stages = Vec::new();
                    for _ in 0..p.prefill_par.pp {
                        let pair = alloc
                            .allocate_on_one_node(p.prefill_par.tp + p.decode_par.tp)
                            .map_err(|e| format!("unit segment: {e}"))?;
                        let (pg, dg) = pair.split_at(p.prefill_par.tp as usize);
                        p_stages.push(pg.to_vec());
                        d_stages.push(dg.to_vec());
                    }
                    (p_stages, d_stages)
                } else {
                    // The whole unit comes from one node.
                    let gpus = alloc
                        .allocate_on_one_node(p.unit_gpus())
                        .map_err(|e| format!("unit: {e}"))?;
                    let mut cursor = gpus.into_iter();
                    let mut take = |tp: u32, pp: u32| -> Vec<Vec<_>> {
                        (0..pp)
                            .map(|_| (0..tp).map(|_| cursor.next().expect("sized")).collect())
                            .collect()
                    };
                    let p_stages = take(p.prefill_par.tp, p.prefill_par.pp);
                    let d_stages = take(p.decode_par.tp, p.decode_par.pp);
                    (p_stages, d_stages)
                };
                specs.push(InstanceSpec::new(
                    InstanceRole::Prefill,
                    p.prefill_par,
                    p_stages,
                )?);
                specs.push(InstanceSpec::new(
                    InstanceRole::Decode,
                    p.decode_par,
                    d_stages,
                )?);
            }
        }
        Deployment::Coloc(p) => {
            for _ in 0..p.num_replicas {
                let stages = alloc
                    .allocate_instance(p.par.tp, p.par.pp)
                    .map_err(|e| format!("colocated instance: {e}"))?;
                specs.push(InstanceSpec::new(InstanceRole::Colocated, p.par, stages)?);
            }
        }
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::PhaseChoice;
    use distserve_models::ParallelismConfig;

    #[test]
    fn high_placement_materializes() {
        let cluster = Cluster::paper_testbed();
        let p = HighPlacement {
            prefill: PhaseChoice {
                par: ParallelismConfig::new(2, 1),
                goodput: 4.0,
            },
            decode: PhaseChoice {
                par: ParallelismConfig::new(1, 2),
                goodput: 10.0,
            },
            num_prefill: 3,
            num_decode: 2,
        };
        let specs = materialize(&cluster, &Deployment::High(p)).unwrap();
        assert_eq!(specs.len(), 5);
        assert_eq!(
            specs
                .iter()
                .filter(|s| s.role == InstanceRole::Prefill)
                .count(),
            3
        );
        let gpus: usize = specs.iter().map(|s| s.num_gpus() as usize).sum();
        assert_eq!(gpus, 3 * 2 + 2 * 2);
    }

    #[test]
    fn low_placement_units_stay_on_one_node() {
        let cluster = Cluster::paper_testbed();
        let p = LowPlacement {
            prefill_par: ParallelismConfig::new(4, 1),
            decode_par: ParallelismConfig::new(2, 2),
            unit_goodput: 5.0,
            num_units: 4,
        };
        let specs = materialize(&cluster, &Deployment::Low(p)).unwrap();
        assert_eq!(specs.len(), 8);
        // Each consecutive (prefill, decode) pair shares one node.
        for pair in specs.chunks(2) {
            let nodes: Vec<_> = pair
                .iter()
                .flat_map(|s| s.stages.iter().flatten().map(|g| g.node))
                .collect();
            assert!(nodes.iter().all(|n| *n == nodes[0]), "unit spans nodes");
        }
    }

    #[test]
    fn segment_paired_low_placement_materializes() {
        let cluster = Cluster::paper_testbed();
        let p = LowPlacement {
            prefill_par: ParallelismConfig::new(3, 3),
            decode_par: ParallelismConfig::new(4, 3),
            unit_goodput: 2.0,
            num_units: 1,
        };
        let specs = materialize(&cluster, &Deployment::Low(p)).unwrap();
        assert_eq!(specs.len(), 2);
        // Stage s of prefill and decode share a node.
        for s in 0..3usize {
            assert_eq!(specs[0].stages[s][0].node, specs[1].stages[s][0].node);
        }
        // 21 GPUs total: a second unit exceeds the 32-GPU cluster.
        let p2 = LowPlacement {
            prefill_par: ParallelismConfig::new(3, 3),
            decode_par: ParallelismConfig::new(4, 3),
            unit_goodput: 2.0,
            num_units: 2,
        };
        assert!(materialize(&cluster, &Deployment::Low(p2)).is_err());
    }

    #[test]
    fn over_allocation_fails_cleanly() {
        let cluster = Cluster::single_node(4);
        let p = ColocPlacement {
            par: ParallelismConfig::new(4, 1),
            goodput: 1.0,
            num_replicas: 2,
        };
        let err = materialize(&cluster, &Deployment::Coloc(p)).unwrap_err();
        assert!(err.contains("colocated instance"), "{err}");
    }

    #[test]
    fn coloc_materializes_replicas() {
        let cluster = Cluster::paper_testbed();
        let p = ColocPlacement {
            par: ParallelismConfig::new(4, 1),
            goodput: 1.0,
            num_replicas: 8,
        };
        let specs = materialize(&cluster, &Deployment::Coloc(p)).unwrap();
        assert_eq!(specs.len(), 8);
        assert!(specs.iter().all(|s| s.role == InstanceRole::Colocated));
    }
}
