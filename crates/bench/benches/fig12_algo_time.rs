//! Figure 12 — placement algorithm running time.
//!
//! Times Algorithm 1 (high node-affinity) and Algorithm 2 (low
//! node-affinity) as the GPU budget per instance grows, single-threaded
//! and with all cores.
//!
//! Paper claims: runtimes stay in seconds-to-minutes, are independent of
//! model size (the simulator is discrete-event), Algorithm 2 grows faster
//! with GPU count (it enumerates intra-node combinations), and both
//! parallelize almost linearly.

use std::time::Instant;

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::Table;
use distserve_models::OptModel;
use distserve_placement::alg1::SearchParams;
use distserve_placement::{high_affinity_placement, low_affinity_placement, SloSpec};
use distserve_workload::Dataset;

fn params(max_tp: u32, max_pp: u32, threads: usize) -> SearchParams {
    SearchParams {
        max_tp,
        max_pp,
        probe_requests: 96,
        probe_secs: 15.0,
        search_iters: 4,
        threads,
        seed: 0,
    }
}

fn main() {
    header(
        "Figure 12",
        "placement algorithm running time vs per-instance GPU budget",
        "seconds-scale, model-size independent, near-linear thread scaling; Alg2 grows faster with GPUs",
    );
    let cost = paper_cost();
    let slo = SloSpec::new(0.2, 0.1);
    let dataset = Dataset::ShareGpt;

    let mut table = Table::new(vec![
        "GPUs/instance",
        "Alg1 1-thread (s)",
        "Alg1 all-cores (s)",
        "Alg2 1-thread (s)",
        "Alg2 all-cores (s)",
    ]);
    for (max_tp, max_pp, node_gpus) in [(2u32, 1u32, 2u32), (4, 2, 4), (8, 2, 8)] {
        let arch = OptModel::Opt13B.arch();
        let cluster = Cluster::new(
            4,
            node_gpus,
            cost.gpu.clone(),
            distserve_models::LinkSpec::nvlink(),
            distserve_models::LinkSpec::ethernet_25g(),
        );
        let mut row = vec![format!("{}", max_tp * max_pp)];
        for threads in [1usize, 0] {
            let p = params(max_tp, max_pp, threads);
            let start = Instant::now();
            let _ = high_affinity_placement(&cost, &cluster, &arch, &dataset, slo, 4.0, &p);
            row.push(format!("{:.2}", start.elapsed().as_secs_f64()));
        }
        for threads in [1usize, 0] {
            let p = params(max_tp, max_pp, threads);
            let start = Instant::now();
            let _ = low_affinity_placement(&cost, &cluster, &arch, &dataset, slo, 4.0, &p);
            row.push(format!("{:.2}", start.elapsed().as_secs_f64()));
        }
        table.row(row);
    }
    print!("{}", table.render());

    // Model-size independence: the simulator's work depends on event
    // counts, not parameter counts.
    println!("\nmodel-size independence (Alg1, 4 GPUs/instance, all cores):");
    let mut table = Table::new(vec!["model", "running time (s)"]);
    let cluster = Cluster::new(
        4,
        8,
        cost.gpu.clone(),
        distserve_models::LinkSpec::nvlink(),
        distserve_models::LinkSpec::infiniband_800g(),
    );
    for model in [OptModel::Opt13B, OptModel::Opt66B] {
        let arch = model.arch();
        let p = params(4, 2, 0);
        let start = Instant::now();
        let _ = high_affinity_placement(&cost, &cluster, &arch, &dataset, slo, 2.0, &p);
        table.row(vec![
            arch.name.clone(),
            format!("{:.2}", start.elapsed().as_secs_f64()),
        ]);
    }
    print!("{}", table.render());
}
