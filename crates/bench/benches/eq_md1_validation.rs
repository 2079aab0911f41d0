//! Eqs. 1–3 — M/D/1 queueing validation of the discrete-event engine.
//!
//! With uniform 512-token prompts, Poisson arrivals, and single-request
//! FCFS service, the prefill phase simulator must match the paper's
//! closed forms: Eq. 1 (single device), Eq. 2 (2-way inter-op), Eq. 3
//! (2-way intra-op with speedup K).

use distserve_bench::{header, paper_cost};
use distserve_core::Table;
use distserve_engine::SimConfig;
use distserve_models::queueing::{eq1_avg_ttft, eq2_avg_ttft_inter, eq3_avg_ttft_intra};
use distserve_models::{CostModel, OptModel, ParallelismConfig, PrefillBatch};
use distserve_placement::phase_sim::prefill_ttfts;
use distserve_placement::TraceSource;
use distserve_workload::datasets::FixedLengths;

fn main() {
    header(
        "Eqs. 1-3",
        "average TTFT: DES vs M/D/1 closed forms (OPT-13B, 512-token prompts, no batching)",
        "the DES reproduces the queueing model §3.1 builds its analysis on",
    );
    let cost = paper_cost();
    let arch = OptModel::Opt13B.arch();
    let cfg = SimConfig::new(arch.clone()).with_l_m(1);
    let source = FixedLengths {
        input_len: 512,
        output_len: 1,
    };

    let d = cost
        .prefill_latency(&arch, ParallelismConfig::SINGLE, &PrefillBatch::single(512))
        .total();
    let d2 = cost
        .prefill_latency(
            &arch,
            ParallelismConfig::new(2, 1),
            &PrefillBatch::single(512),
        )
        .total();
    let k = d / d2;
    println!("\nD = {:.1} ms, K = {k:.2}", d * 1e3);

    let mut table = Table::new(vec![
        "utilization",
        "Eq.1 (ms)",
        "DES tp1 (ms)",
        "Eq.3 (ms)",
        "DES tp2 (ms)",
        "Eq.2 (ms)",
        "DES pp2 (ms)",
    ]);
    let mut worst: f64 = 0.0;
    for util in [0.2, 0.4, 0.6, 0.8] {
        let rate = util / d;
        let n = ((rate * 300.0) as usize).clamp(2000, 8000);
        let trace = source.make_trace(rate, n, 5);
        let des1 = prefill_ttfts(&cost, &cfg, ParallelismConfig::SINGLE, &trace).mean();
        let des_tp = prefill_ttfts(&cost, &cfg, ParallelismConfig::new(2, 1), &trace).mean();
        let des_pp = prefill_ttfts(&cost, &cfg, ParallelismConfig::new(1, 2), &trace).mean();
        let th1 = eq1_avg_ttft(rate, d).expect("stable");
        let th3 = eq3_avg_ttft_intra(rate, d, k).expect("stable");
        let th2 = eq2_avg_ttft_inter(rate, d).expect("stable");
        worst = worst
            .max((des1 - th1).abs() / th1)
            .max((des_tp - th3).abs() / th3)
            .max((des_pp - th2).abs() / th2);
        table.row(vec![
            format!("{util:.1}"),
            format!("{:.1}", th1 * 1e3),
            format!("{:.1}", des1 * 1e3),
            format!("{:.1}", th3 * 1e3),
            format!("{:.1}", des_tp * 1e3),
            format!("{:.1}", th2 * 1e3),
            format!("{:.1}", des_pp * 1e3),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nworst relative deviation from theory: {:.1}%",
        worst * 100.0
    );
}
