//! Extension ablation — grouped-query attention (GQA) and decoding
//! capacity.
//!
//! §3.2: "advanced memory management techniques for LLM KV caches, such
//! as Paged-Attention and GQA, enable further scaling the decoding batch
//! size." This harness quantifies that on LLaMA-2-70B: the GQA variant's
//! 8× smaller KV cache admits far more concurrent requests per decoding
//! instance, lifting decoding-phase goodput.

use distserve_bench::{header, paper_cost};
use distserve_core::Table;
use distserve_engine::SimConfig;
use distserve_models::{
    CostModel, DecodeBatch, GpuSpec, LlamaModel, ModelArch, ParallelismConfig, MEM_MARGIN,
};
use distserve_placement::alg1::SearchParams;
use distserve_placement::goodput::max_goodput;
use distserve_placement::phase_sim::decode_tpots;
use distserve_workload::datasets::FixedLengths;

fn mha_twin(gqa: &ModelArch) -> ModelArch {
    // The same model with full multi-head attention (what LLaMA-2-70B
    // would cost without GQA).
    ModelArch::new(
        "LLaMA-2-70B-MHA",
        gqa.num_layers,
        gqa.hidden,
        gqa.num_heads,
        gqa.ffn,
        gqa.vocab,
        gqa.max_seq_len,
    )
    .expect("valid")
    .with_gated_ffn()
}

fn main() {
    header(
        "Ablation: GQA",
        "decoding capacity with vs without grouped-query attention (LLaMA-2-70B, decode tp4)",
        "§3.2: GQA enables scaling the decoding batch size (8x smaller KV cache for this model)",
    );
    let cost = paper_cost();
    let gqa = LlamaModel::Llama2_70B.arch();
    let mha = mha_twin(&gqa);
    let par = ParallelismConfig::new(4, 1);
    let source = FixedLengths {
        input_len: 512,
        output_len: 128,
    };
    let tpot_slo = 0.15;
    let probes = SearchParams {
        probe_requests: 192,
        probe_secs: 45.0,
        seed: 6,
        ..SearchParams::default()
    };

    let mut table = Table::new(vec![
        "variant",
        "KV MB/token",
        "tokens in 4xA100 pool",
        "step @bs=256 (ms)",
        "decode goodput (rps)",
    ]);
    for arch in [&gqa, &mha] {
        let kv_mb = arch.kv_bytes_per_token() as f64 / 1e6;
        let gpu = GpuSpec::a100_80g();
        let capacity_tokens = par.kv_pool_bytes(arch, &gpu, MEM_MARGIN) / arch.kv_bytes_per_token();
        let step = cost
            .decode_stage_time(arch, par, &DecodeBatch::uniform(256, 640))
            .total();
        let cfg = SimConfig::new(arch.clone());
        let goodput = max_goodput(
            |r| {
                let trace = probes.probe_trace(&source, r);
                let s = decode_tpots(&cost, &cfg, &gpu, par, &trace);
                if s.is_empty() {
                    0.0
                } else {
                    s.fraction_at_most(tpot_slo)
                }
            },
            0.9,
            0.5,
            7,
        );
        table.row(vec![
            arch.name.clone(),
            format!("{kv_mb:.2}"),
            format!("{capacity_tokens}"),
            format!("{:.1}", step * 1e3),
            format!("{goodput:.2}"),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nGQA's 8x smaller KV cache both admits ~8x more context into the pool and \
         cuts the KV-read time per decoding step — the §3.2 mechanism."
    );
}
