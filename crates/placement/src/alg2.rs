//! Algorithm 2 — placement for low node-affinity clusters (§4.2).
//!
//! When cross-node bandwidth is scarce (the paper's 25 Gbps testbed), KV
//! caches must ride NVLink. The planner therefore considers *units*: one
//! prefill instance and one decoding instance laid out so that every
//! transfer path stays intra-node. For each pair of parallelism configs
//! whose unit [`materialize`]s on the cluster, the *full* serving
//! simulator (interference-free but transfer-aware) estimates the goodput
//! of exactly the layout a deployment gets; the best per-GPU unit is
//! replicated to meet the target rate.
//!
//! A unit that fits one node is laid out there whole; a wider one is
//! *segment-paired* (§4.2's "colocating prefill and decoding segments of
//! the same stage within a single node"): equal pipeline depths, each
//! prefill/decode stage pair sharing a node. This is how the Appendix-B
//! placements like prefill `tp4pp1` + decode `tp2pp2` (one node) and
//! OPT-175B's `tp3pp3` + `tp4pp3` (three stage pairs) arise.

use distserve_cluster::Cluster;
use distserve_engine::InstanceSpec;
use distserve_models::{CostModel, ModelArch, ParallelismConfig};

use crate::alg1::SearchParams;
use crate::deploy::{materialize, Deployment};
use crate::goodput::{best_per_gpu, replicas, served_goodput};
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// Algorithm 2's output: a replicated unit of one prefill and one
/// decoding instance whose KV transfers stay on NVLink.
#[derive(Debug, Clone)]
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

/// The instance specs of one unit on `cluster`, as [`materialize`] lays
/// it out.
///
/// # Errors
///
/// Returns `materialize`'s message when the unit does not fit.
pub fn unit_specs(
    cluster: &Cluster,
    prefill_par: ParallelismConfig,
    decode_par: ParallelismConfig,
) -> Result<Vec<InstanceSpec>, String> {
    let unit = LowPlacement {
        prefill_par,
        decode_par,
        unit_goodput: 0.0,
        num_units: 1,
    };
    materialize(cluster, &Deployment::Low(unit))
}

/// Runs Algorithm 2. Returns `None` if no unit materializes on `cluster`.
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
    let singles = params.candidates(arch, cluster.gpu_spec());
    let units: Vec<((ParallelismConfig, ParallelismConfig), Vec<InstanceSpec>)> = singles
        .iter()
        .flat_map(|&p| singles.iter().map(move |&d| (p, d)))
        .filter_map(|(p, d)| Some(((p, d), unit_specs(cluster, p, d).ok()?)))
        .collect();
    let goodputs = params.evaluate(&units, |(_, specs)| {
        served_goodput(cost, cluster, arch, specs, source, slo, params)
    });
    let scored = units.into_iter().map(|(pd, _)| pd).zip(goodputs);
    let ((p, d), goodput) = best_per_gpu(scored, |(p, d)| p.num_gpus() + d.num_gpus())?;
    Some(LowPlacement {
        prefill_par: p,
        decode_par: d,
        unit_goodput: goodput,
        num_units: replicas(rate, goodput),
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
