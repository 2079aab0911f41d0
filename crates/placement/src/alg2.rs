//! Algorithm 2 — placement for low node-affinity clusters (§4.2).
//!
//! When cross-node bandwidth is scarce (the paper's 25 Gbps testbed), KV
//! caches must ride NVLink. The planner therefore considers *units*: one
//! prefill instance and one decoding instance packed into a single node,
//! so every transfer path stays intra-node. For each candidate intra-node
//! division of the node's GPUs between the two instances, the *full*
//! serving simulator (interference-free but transfer-aware) estimates the
//! unit's goodput; the best per-GPU unit is replicated to meet the target
//! rate.
//!
//! This generalizes the paper's same-stage-segment formulation: any pair
//! of parallelism configs whose GPU totals fit one node keeps transfers
//! local, which is the actual constraint the algorithm enforces (and is
//! how the Appendix-B placements like prefill `tp4pp1` + decode `tp2pp2`
//! arise).

use serde::{Deserialize, Serialize};

use distserve_cluster::Cluster;
use distserve_engine::{InstanceRole, InstanceSpec};
use distserve_models::{CostModel, ModelArch, ParallelismConfig};

use crate::alg1::SearchParams;
use crate::goodput::{max_goodput, served_attainment};
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// Algorithm 2's output: a replicated single-node unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LowPlacement {
    /// Prefill instance parallelism within the unit.
    pub prefill_par: ParallelismConfig,
    /// Decoding instance parallelism within the unit.
    pub decode_par: ParallelismConfig,
    /// Goodput of one unit, requests/second.
    pub unit_goodput: f64,
    /// Units to deploy (`⌈R / unit_goodput⌉`).
    pub num_units: u32,
}

impl LowPlacement {
    /// GPUs per unit.
    #[must_use]
    pub fn unit_gpus(&self) -> u32 {
        self.prefill_par.num_gpus() + self.decode_par.num_gpus()
    }

    /// Total GPUs deployed.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        self.unit_gpus() * self.num_units
    }

    /// Per-GPU goodput of one unit — Algorithm 2's objective.
    #[must_use]
    pub fn per_gpu_goodput(&self) -> f64 {
        self.unit_goodput / f64::from(self.unit_gpus())
    }
}

/// Whether a unit must be *segment-paired*: too large for one node, so
/// corresponding pipeline stages of the two instances share a node
/// instead (the paper's instance-segment arrangement for e.g. OPT-175B).
#[must_use]
pub fn unit_is_segment_paired(
    cluster: &Cluster,
    prefill_par: ParallelismConfig,
    decode_par: ParallelismConfig,
) -> bool {
    prefill_par.num_gpus() + decode_par.num_gpus() > cluster.gpus_per_node()
}

/// Builds the unit's instance specs on `cluster`, starting at `node`.
///
/// Two layouts keep every KV transfer on NVLink:
///
/// * **Single-node unit** — both whole instances fit one node.
/// * **Segment-paired unit** — the instances share a pipeline depth and
///   stage `s` of *both* lives on node `node + s` (§4.2's "colocating
///   prefill and decoding segments of the same stage within a single
///   node"). Required when the model is too large for a one-node pair.
///
/// # Errors
///
/// Returns a message if neither layout applies (per-node width exceeded,
/// mismatched pipeline depths for a segment-paired unit, or not enough
/// nodes).
pub fn unit_specs_on_node(
    cluster: &Cluster,
    node: u32,
    prefill_par: ParallelismConfig,
    decode_par: ParallelismConfig,
) -> Result<Vec<InstanceSpec>, String> {
    let m = cluster.gpus_per_node();
    if !unit_is_segment_paired(cluster, prefill_par, decode_par) {
        // Single-node layout: prefill GPUs first, then decode GPUs.
        let mut cursor = 0;
        let mut take = |par: ParallelismConfig| -> Vec<Vec<_>> {
            (0..par.pp)
                .map(|_| {
                    (0..par.tp)
                        .map(|_| {
                            let g = cluster.gpu(node, cursor);
                            cursor += 1;
                            g
                        })
                        .collect()
                })
                .collect()
        };
        let p_stages = take(prefill_par);
        let d_stages = take(decode_par);
        return Ok(vec![
            InstanceSpec::new(InstanceRole::Prefill, prefill_par, p_stages)?,
            InstanceSpec::new(InstanceRole::Decode, decode_par, d_stages)?,
        ]);
    }
    // Segment-paired layout.
    if prefill_par.pp != decode_par.pp {
        return Err(format!(
            "segment-paired unit needs equal pipeline depths, got {} vs {}",
            prefill_par.pp, decode_par.pp
        ));
    }
    if prefill_par.tp + decode_par.tp > m {
        return Err(format!(
            "segment pair {}+{} GPUs exceeds node width {m}",
            prefill_par.tp, decode_par.tp
        ));
    }
    if node + prefill_par.pp > cluster.num_nodes() {
        return Err(format!(
            "unit spans {} nodes from node {node}, cluster has {}",
            prefill_par.pp,
            cluster.num_nodes()
        ));
    }
    let p_stages = (0..prefill_par.pp)
        .map(|s| {
            (0..prefill_par.tp)
                .map(|k| cluster.gpu(node + s, k))
                .collect()
        })
        .collect();
    let d_stages = (0..decode_par.pp)
        .map(|s| {
            (0..decode_par.tp)
                .map(|k| cluster.gpu(node + s, prefill_par.tp + k))
                .collect()
        })
        .collect();
    Ok(vec![
        InstanceSpec::new(InstanceRole::Prefill, prefill_par, p_stages)?,
        InstanceSpec::new(InstanceRole::Decode, decode_par, d_stages)?,
    ])
}

/// Builds the unit's instance specs starting at node 0.
///
/// # Errors
///
/// See [`unit_specs_on_node`].
pub fn unit_specs(
    cluster: &Cluster,
    prefill_par: ParallelismConfig,
    decode_par: ParallelismConfig,
) -> Result<Vec<InstanceSpec>, String> {
    unit_specs_on_node(cluster, 0, prefill_par, decode_par)
}

/// Runs Algorithm 2. Returns `None` if no unit configuration fits a node.
#[must_use]
pub fn low_affinity_placement(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    source: &dyn TraceSource,
    slo: SloSpec,
    rate: f64,
    params: &SearchParams,
) -> Option<LowPlacement> {
    let m = cluster.gpus_per_node();
    // Enumerate unit divisions subject to NVLink-only transfers: either
    // both instances fit one node, or (for big models) the instances
    // share a pipeline depth and each stage pair shares a node.
    let singles = ParallelismConfig::enumerate(arch, cluster.gpu_spec(), m, cluster.num_nodes());
    let mut combos: Vec<(ParallelismConfig, ParallelismConfig)> = Vec::new();
    for &p in &singles {
        for &d in &singles {
            let single_node = p.num_gpus() + d.num_gpus() <= m && p.pp == 1 && d.pp == 1;
            let segment_paired =
                p.pp == d.pp && p.pp > 1 && p.tp + d.tp <= m && p.pp <= cluster.num_nodes();
            // Also allow small pipelined pairs inside one node.
            let small_pipelined = p.num_gpus() + d.num_gpus() <= m && (p.pp > 1 || d.pp > 1);
            if single_node || segment_paired || small_pipelined {
                combos.push((p, d));
            }
        }
    }
    let goodputs = params.evaluate(&combos, |&(p, d)| {
        let Ok(specs) = unit_specs(cluster, p, d) else {
            return 0.0;
        };
        max_goodput(
            |r| served_attainment(cost, cluster, arch, &specs, source, slo, r, params),
            slo.target,
            0.5,
            params.search_iters,
        )
    });
    let per_gpu = |((p, d), g): &((ParallelismConfig, ParallelismConfig), f64)| {
        g / f64::from(p.num_gpus() + d.num_gpus())
    };
    let ((p, d), goodput) = combos
        .into_iter()
        .zip(goodputs)
        .max_by(|a, b| per_gpu(a).total_cmp(&per_gpu(b)))?;
    if goodput <= 0.0 {
        return None;
    }
    Some(LowPlacement {
        prefill_par: p,
        decode_par: d,
        unit_goodput: goodput,
        num_units: (rate / goodput).ceil().max(1.0) as u32,
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
    fn unit_specs_pack_one_node() {
        let cluster = Cluster::paper_testbed();
        let specs = unit_specs(
            &cluster,
            ParallelismConfig::new(4, 1),
            ParallelismConfig::new(2, 2),
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        let all: Vec<_> = specs
            .iter()
            .flat_map(|s| s.stages.iter().flatten())
            .collect();
        assert_eq!(all.len(), 8);
        assert!(all.iter().all(|g| g.node.0 == 0));
        // No GPU shared between the two instances.
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn unit_too_large_rejected() {
        let cluster = Cluster::paper_testbed(); // 8 GPUs per node.
        assert!(unit_specs(
            &cluster,
            ParallelismConfig::new(8, 1),
            ParallelismConfig::new(1, 1),
        )
        .is_err());
    }

    #[test]
    fn finds_unit_for_13b_on_testbed() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::paper_testbed();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);
        let plm =
            low_affinity_placement(&cost, &cluster, &arch, &source(), slo, 8.0, &quick_params())
                .expect("13B fits");
        assert!(plm.unit_goodput > 0.0);
        assert!(plm.unit_gpus() <= 8);
        assert!(plm.num_units >= 1);
        assert!(
            plm.unit_goodput * f64::from(plm.num_units) >= 8.0 * 0.9,
            "replication misses rate"
        );
    }

    #[test]
    fn segment_paired_unit_shape() {
        // OPT-175B style: stage pairs across nodes, prefill tp3 + decode
        // tp4, pp = 3 — the Appendix-B 175B placement.
        let cluster = Cluster::paper_testbed();
        let p = ParallelismConfig::new(3, 3);
        let d = ParallelismConfig::new(4, 3);
        assert!(unit_is_segment_paired(&cluster, p, d));
        let specs = unit_specs(&cluster, p, d).unwrap();
        assert_eq!(specs.len(), 2);
        for s in 0..3usize {
            let pn = specs[0].stages[s][0].node;
            let dn = specs[1].stages[s][0].node;
            // Corresponding stages share a node (NVLink transfers only).
            assert_eq!(pn, dn, "stage {s} split across nodes");
            assert!(specs[0].stages[s].iter().all(|g| g.node == pn));
            assert!(specs[1].stages[s].iter().all(|g| g.node == dn));
        }
        // Mismatched depths are rejected for oversized units.
        assert!(unit_specs(
            &cluster,
            ParallelismConfig::new(3, 3),
            ParallelismConfig::new(4, 1),
        )
        .is_err());
    }

    #[test]
    fn finds_unit_for_175b_via_segments() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::paper_testbed();
        let arch = OptModel::Opt175B.arch();
        let slo = SloSpec::new(4.0, 0.2); // Table 1's 175B chatbot SLO.
        let params = SearchParams {
            max_tp: 8,
            max_pp: 4,
            probe_requests: 64,
            probe_secs: 10.0,
            search_iters: 3,
            threads: 0,
            seed: 0,
        };
        let plm = low_affinity_placement(&cost, &cluster, &arch, &source(), slo, 1.0, &params)
            .expect("175B places via segment pairing");
        assert!(plm.unit_goodput > 0.0);
        // The unit cannot fit one node: it must be segment-paired.
        assert!(plm.unit_gpus() > cluster.gpus_per_node());
        assert_eq!(plm.prefill_par.pp, plm.decode_par.pp);
    }

    #[test]
    fn per_gpu_accounting() {
        let plm = LowPlacement {
            prefill_par: ParallelismConfig::new(2, 1),
            decode_par: ParallelismConfig::new(1, 1),
            unit_goodput: 6.0,
            num_units: 3,
        };
        assert_eq!(plm.unit_gpus(), 3);
        assert_eq!(plm.total_gpus(), 9);
        assert!((plm.per_gpu_goodput() - 2.0).abs() < 1e-12);
    }
}
