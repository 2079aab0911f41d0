//! Micro-benchmarks of this repository's own hot paths: cost model
//! evaluation, the event queue, the KV block manager, pipeline commits,
//! workload generation, and tinyllm at the shape perfbench serves: GEMM
//! kernels, prefill/decode throughput (batched vs the token-at-a-time
//! reference), a thread × batch decode sweep, and model build time.
//!
//! Each row is timed by [`time_row`] and becomes two metrics of one
//! record, `<row>.mean_s` and `<row>.min_s`; the derived throughputs,
//! the paired speedup and the scaling sweep join them, and the record is
//! saved as `BENCH_tinyllm.json` at the repository root and appended to
//! `BENCH_history.jsonl`. Every decode number runs
//! `distserve_bench::overhead`'s batch fixture. Only the paired
//! fused-vs-reference decode estimate runs on `TinyConfig::small()`: its
//! ~100 rounds of token-at-a-time batch-16 decode would take minutes at
//! the served shape.

use std::hint::black_box;
use std::time::Instant;

use distserve_bench::overhead::{self, prefilled, step_times, BATCH, DECODE_STEPS, PROMPT_LEN};
use distserve_bench::sentinel::{BenchRecord, Provenance};
use distserve_engine::pipeline::Pipeline;
use distserve_engine::KvBlockManager;
use distserve_models::{
    CostModel, DecodeBatch, OptModel, ParallelismConfig, PrefillBatch, RooflineModel,
};
use distserve_simcore::{EventQueue, SimRng, SimTime};
use distserve_workload::{Dataset, RequestId, TraceBuilder};
use tinyllm::tensor::{argmax, Matrix, PackedMatrix, QuantMatrix};
use tinyllm::{
    ComputeConfig, ContinuousBatcher, GenRequest, Model, PagedKv, Precision, TinyConfig,
};

/// Timed samples per row.
const SAMPLES: usize = 20;
/// Wall-clock budget per row, seconds, split evenly across the samples.
const ROW_BUDGET_S: f64 = 0.3;

/// Times `routine` on inputs from `setup` and adds the row to `rec` as
/// `<name>.mean_s` and `<name>.min_s`, seconds per call. One untimed
/// call sizes the samples: each of the [`SAMPLES`] samples runs as many
/// calls as fit its share of [`ROW_BUDGET_S`], at least one. A sample
/// builds its inputs before its clock starts, so per-call setup is never
/// timed; the mean and the minimum are over the samples' per-call times.
fn time_row<I, O>(
    rec: &mut BenchRecord,
    name: &str,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    let input = setup();
    let t = Instant::now();
    black_box(routine(input));
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = (ROW_BUDGET_S / SAMPLES as f64 / once).clamp(1.0, 1e7) as usize;
    let per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let inputs: Vec<I> = (0..calls).map(|_| setup()).collect();
            let t = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    let mean = per_call.iter().sum::<f64>() / SAMPLES as f64;
    let min = per_call.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "bench {name:<44} mean {:>12.3} µs  min {:>12.3} µs",
        mean * 1e6,
        min * 1e6
    );
    rec.push(format!("{name}.mean_s"), mean, "s")
        .push(format!("{name}.min_s"), min, "s");
}

fn bench_cost_model(rec: &mut BenchRecord) {
    let cost = RooflineModel::a100();
    let arch = OptModel::Opt66B.arch();
    let par = ParallelismConfig::new(4, 2);
    let prefill = PrefillBatch::new(vec![512, 128, 256]);
    let decode = DecodeBatch::uniform(128, 400);
    time_row(
        rec,
        "cost.mixed_stage_time_66b",
        || (),
        |()| cost.mixed_stage_time(black_box(&arch), par, &prefill, &decode),
    );
}

fn bench_event_queue(rec: &mut BenchRecord) {
    let mut rng = SimRng::seed(1);
    time_row(
        rec,
        "simcore.event_queue_push_pop_1k",
        || {
            (0..1000)
                .map(|_| SimTime::from_secs(rng.uniform() * 100.0))
                .collect::<Vec<_>>()
        },
        |times| {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(*t, i);
            }
            let mut sum = 0usize;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            sum
        },
    );
}

fn bench_kv_manager(rec: &mut BenchRecord) {
    time_row(
        rec,
        "engine.kv_alloc_free_256",
        || (),
        |()| {
            let mut kv = KvBlockManager::new(16_384, 16);
            for i in 0..256u64 {
                kv.alloc(RequestId(i), 300 + (i as u32 % 200))
                    .expect("fits");
            }
            for i in 0..256u64 {
                kv.free(RequestId(i)).expect("allocated");
            }
            kv.free_blocks()
        },
    );
}

fn bench_pipeline(rec: &mut BenchRecord) {
    time_row(
        rec,
        "engine.pipeline_commit_1k",
        || (),
        |()| {
            let mut p = Pipeline::new(4);
            for i in 0..1000 {
                let t = 0.01 + f64::from(i % 7) * 0.001;
                black_box(p.commit(SimTime::ZERO, t));
            }
            p.drained_at()
        },
    );
}

fn bench_trace_generation(rec: &mut BenchRecord) {
    time_row(
        rec,
        "workload.sharegpt_trace_1k",
        || (),
        |()| {
            let mut rng = SimRng::seed(7);
            let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
                .rate(10.0)
                .num_requests(1000)
                .build(&mut rng);
            trace.len()
        },
    );
}

fn bench_tinyllm(rec: &mut BenchRecord) {
    let model = tinyllm::Model::random(&TinyConfig::tiny(), 3);
    time_row(
        rec,
        "tinyllm.generate_16_tokens",
        || (),
        |()| model.generate(&[1, 2, 3, 4], 16),
    );
}

/// perfbench's served shape: 6 layers, hidden 256, FFN 1024, vocab 4096,
/// `max_seq` 1024 (6.0M parameters).
fn served() -> TinyConfig {
    TinyConfig {
        layers: 6,
        hidden: 256,
        heads: 8,
        ffn: 1024,
        vocab: 4096,
        max_seq: 1024,
    }
}

/// `BENCH_tinyllm.json`'s config label: the served shape, and the
/// config of the `reference.*` metrics.
const CONFIG: &str = "6L/256H/1024FFN/4096V, max_seq 1024; reference.* on TinyConfig::small()";

/// Model build time, `Model::random_with` (weight draw, packing and
/// worker-pool spawn), on the served shape. Timed at one lane and at the
/// host's lanes, since the weight draw splits across the model's lanes;
/// this is the part of a server's set-up that grows with model size.
/// Each iteration drops its model, so later builds reuse freed pages and
/// these rows leave out most of the first-touch page faults a fresh
/// process pays.
fn bench_tinyllm_build(rec: &mut BenchRecord) {
    let served = served();
    let mut lanes = vec![1, host_cores()];
    lanes.dedup();
    for threads in lanes {
        time_row(
            rec,
            &format!("tinyllm.build_served_lanes{threads}"),
            || (),
            |()| {
                Model::random_with(
                    &served,
                    2024,
                    ComputeConfig {
                        precision: Precision::F32,
                        threads,
                    },
                )
            },
        );
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Deterministic pseudo-random matrix for kernel benchmarks.
fn bench_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i * 31 + salt * 7 + 13) % 101) as f32 * 0.019 - 0.95)
            .collect(),
    )
}

/// GEMM shape sweep over the shapes the served forward pass runs:
/// decode (m=1) and fused-decode (m=16) QKV, FFN up/down, a 32-token
/// prefill's QKV, and the logits projection — the packed kernel vs the
/// allocating reference matmul, both over the same panel-major bf16
/// weights, the layout every model stores.
fn bench_gemm_shapes(rec: &mut BenchRecord) {
    // (label, m, k, n) — k/n from the served shape: hidden 256, ffn
    // 1024, vocab 4096.
    let shapes = [
        ("qkv_m1", 1, 256, 768),
        ("qkv_m16", 16, 256, 768),
        ("ffn_up_m16", 16, 256, 1024),
        ("ffn_down_m16", 16, 1024, 256),
        ("prefill_qkv_m32", 32, 256, 768),
        ("logits_m16", 16, 256, 4096),
    ];
    for (label, m, k, n) in shapes {
        let a = bench_matrix(m, k, 1);
        let w = bench_matrix(k, n, 2).to_bf16().to_panels();
        let packed = PackedMatrix::pack(&w);
        let mut out = vec![0.0f32; m * n];
        time_row(
            rec,
            &format!("gemm.packed_{label}"),
            || (),
            |()| {
                packed.matmul_into(&a.data, m, &mut out);
                out[0]
            },
        );
        time_row(
            rec,
            &format!("gemm.reference_{label}"),
            || (),
            |()| a.matmul(&w).data[0],
        );
    }
}

/// The packed kernels at the served model's shape (perfbench's hidden
/// 256, FFN 1024): the QKV (256×768) and FFN-up (256×1024) projections at
/// decode batch sizes 1, 4 and 16, at both precisions (`_f32` rows are
/// `Precision::F32`: bf16 weights, f32 arithmetic). These weights
/// (384–512 KiB as bf16) spill out of L1, so the rows see weight bytes,
/// and a per-batch cliff like int8's old one at m ≥ 4 shows here.
fn bench_gemm_served(rec: &mut BenchRecord) {
    for (label, k, n) in [("qkv", 256, 768), ("ffn_up", 256, 1024)] {
        let w = bench_matrix(k, n, 2).to_bf16();
        let packed = PackedMatrix::pack(&w);
        let quant = QuantMatrix::quantize(&w);
        for m in [1, 4, 16] {
            let a = bench_matrix(m, k, 1);
            let mut out = vec![0.0f32; m * n];
            time_row(
                rec,
                &format!("gemm.served_{label}_m{m}_f32"),
                || (),
                |()| {
                    packed.matmul_into(&a.data, m, &mut out);
                    out[0]
                },
            );
            time_row(
                rec,
                &format!("gemm.served_{label}_m{m}_int8"),
                || (),
                |()| {
                    quant.matmul_into(&a.data, m, &mut out);
                    out[0]
                },
            );
        }
    }
}

/// The token-at-a-time reference tier on the fixture's prompts: a KV
/// cache holding `BATCH` prompts, prefilled one `forward_token` per
/// prompt token, and each sequence's `(id, position, next token)`.
fn reference_prefilled(model: &Model) -> (PagedKv, Vec<(u64, usize, u32)>) {
    let mut kv = model.make_kv(8192, 16);
    let seqs = (0..BATCH)
        .map(|i| {
            let seq = i as u64;
            kv.register(seq);
            let mut logits = Vec::new();
            for (pos, &t) in overhead::prompt(i).iter().enumerate() {
                logits = model.forward_token(seq, pos, t, &mut kv);
            }
            (seq, PROMPT_LEN, argmax(&logits) as u32)
        })
        .collect();
    (kv, seqs)
}

/// One reference-tier decode step: one `forward_token` (plus argmax)
/// per sequence.
fn reference_step(model: &Model, kv: &mut PagedKv, seqs: &mut [(u64, usize, u32)]) {
    for (seq, pos, tok) in seqs {
        let logits = model.forward_token(*seq, *pos, *tok, kv);
        *pos += 1;
        *tok = argmax(&logits) as u32;
    }
}

/// Prefill and decode throughput on the served shape: a 64-token
/// prompt batched and token at a time, and the fused batched scheduler's
/// decode at batch 1/4/16.
fn bench_tinyllm_throughput(rec: &mut BenchRecord) {
    let model = tinyllm::Model::random(&served(), 5);

    // Batched prefill of one 64-token prompt (one activation matrix).
    let prompt64: Vec<u32> = (0..64).map(|p| (p * 3 % 512) as u32).collect();
    time_row(
        rec,
        "tinyllm.prefill_batched_64",
        || {
            let mut batcher = ContinuousBatcher::new(model.clone(), 8192);
            batcher
                .submit(GenRequest {
                    id: 0,
                    prompt: prompt64.clone(),
                    max_new: 2,
                })
                .expect("valid request");
            batcher
        },
        |mut batcher| {
            batcher.step();
            batcher.running_len()
        },
    );
    // Token-at-a-time prefill of the same prompt (the reference tier:
    // one forward_token — logits included — per prompt token).
    time_row(
        rec,
        "tinyllm.prefill_reference_64",
        || {
            let mut kv = model.make_kv(128, 16);
            kv.register(0);
            kv
        },
        |mut kv| {
            let mut logits = Vec::new();
            for (pos, &t) in prompt64.iter().enumerate() {
                logits = model.forward_token(0, pos, t, &mut kv);
            }
            logits[0]
        },
    );

    // Fused decode at batch 1 / 4 / 16: DECODE_STEPS scheduler steps.
    for batch in [1usize, 4, 16] {
        time_row(
            rec,
            &format!("tinyllm.decode_batch{batch}"),
            || prefilled(&model, batch, None),
            |mut batcher| step_times(&mut batcher),
        );
    }
}

/// Decode throughput sweep across worker-pool widths `{1, 2, 4, cores}`
/// (deduplicated — on small hosts some of these oversubscribe, and the
/// numbers are recorded honestly) and decode batch sizes `{1, 4, 16}`
/// on the served shape, plus an int8 batch-16 point at full width.
/// Times whole scheduler decode steps — the end-to-end hot loop — with
/// direct wall-clock rounds of the shared fixture. Each point is
/// `scaling.t<threads>_b<batch>.tok_s` plus its `.efficiency`: tok/s
/// relative to perfect scaling of the same batch at one thread.
fn scaling_sweep(rec: &mut BenchRecord) {
    const ROUNDS: usize = 4;
    let time_decode = |model: &Model, batch: usize| -> f64 {
        let total: f64 = (0..ROUNDS)
            .map(|_| {
                step_times(&mut prefilled(model, batch, None))
                    .iter()
                    .sum::<f64>()
            })
            .sum();
        (ROUNDS * DECODE_STEPS * batch) as f64 / total
    };
    let mut threads = vec![1, 2, 4, host_cores()];
    threads.sort_unstable();
    threads.dedup();
    let mut one_thread = [0.0; 3];
    for &t in &threads {
        let model = Model::random_with(
            &served(),
            5,
            ComputeConfig {
                precision: Precision::F32,
                threads: t,
            },
        );
        for (base, batch) in one_thread.iter_mut().zip([1usize, 4, 16]) {
            let tok_s = time_decode(&model, batch);
            if t == 1 {
                *base = tok_s;
            }
            let efficiency = tok_s / (t as f64 * *base);
            rec.push(format!("scaling.t{t}_b{batch}.tok_s"), tok_s, "tok/s")
                .push(
                    format!("scaling.t{t}_b{batch}.efficiency"),
                    efficiency,
                    "frac",
                );
        }
    }
    let int8_model = Model::random_with(
        &served(),
        5,
        ComputeConfig {
            precision: Precision::Int8,
            threads: host_cores(),
        },
    );
    rec.push(
        "scaling.int8_batch16_tok_s",
        time_decode(&int8_model, 16),
        "tok/s",
    );
}

/// The throughputs derived from the rows, and the paired fused-vs-
/// reference estimate on `TinyConfig::small()` (fused decode off, the
/// reference tier on): the speedup derives from the estimate rather than
/// from dividing two rows timed minutes apart. Each throughput divides
/// by its row's `min_s`, so one disturbed sample cannot move it (the
/// per-step-minimum rule of the gated `decode_tok_s`).
fn push_derived(rec: &mut BenchRecord, paired: overhead::Estimate) {
    let tok_s = |rec: &BenchRecord, row: &str, tokens: usize| {
        tokens as f64 / rec.metric(&format!("{row}.min_s")).expect("row timed")
    };
    rec.push("decode.steps", DECODE_STEPS as f64, "count");
    for batch in [1usize, 4, 16] {
        let v = tok_s(
            rec,
            &format!("tinyllm.decode_batch{batch}"),
            DECODE_STEPS * batch,
        );
        rec.push(format!("decode.batch{batch}_tok_s"), v, "tok/s");
    }
    let batched = tok_s(rec, "tinyllm.prefill_batched_64", 64);
    let reference = tok_s(rec, "tinyllm.prefill_reference_64", 64);
    rec.push("prefill.batched_64_tok_s", batched, "tok/s")
        .push("prefill.reference_64_tok_s", reference, "tok/s")
        .push("reference.paired_fused_ms", paired.base_s * 1e3, "ms")
        .push("reference.paired_reference_ms", paired.on_s() * 1e3, "ms")
        .push(
            "reference.speedup_batch16_vs_reference",
            paired.on_s() / paired.base_s,
            "x",
        );
    let host = host_cores();
    let build_ms = |rec: &BenchRecord, lanes: usize| {
        rec.metric(&format!("tinyllm.build_served_lanes{lanes}.mean_s"))
            .expect("row timed")
            * 1e3
    };
    let (lanes1, host_lanes) = (build_ms(rec, 1), build_ms(rec, host));
    rec.push("build.lanes1_ms", lanes1, "ms")
        .push("build.host_lanes", host as f64, "count")
        .push("build.host_lanes_ms", host_lanes, "ms");
}

fn main() {
    let mut rec = BenchRecord::new(Provenance::capture(CONFIG, 5));
    bench_cost_model(&mut rec);
    bench_event_queue(&mut rec);
    bench_kv_manager(&mut rec);
    bench_pipeline(&mut rec);
    bench_trace_generation(&mut rec);
    bench_tinyllm(&mut rec);
    bench_gemm_shapes(&mut rec);
    bench_gemm_served(&mut rec);
    bench_tinyllm_throughput(&mut rec);
    bench_tinyllm_build(&mut rec);
    // Fused decode is the off arm and the reference tier the on arm, so
    // the estimate's on/base ratio is the reference's cost in fused runs.
    // On small(): see the module docs.
    let model = Model::random(&TinyConfig::small(), 5);
    let paired = overhead::paired(|reference| {
        if !reference {
            return step_times(&mut prefilled(&model, BATCH, None));
        }
        let (mut kv, mut seqs) = reference_prefilled(&model);
        (0..DECODE_STEPS)
            .map(|_| {
                let t = Instant::now();
                reference_step(&model, &mut kv, &mut seqs);
                t.elapsed().as_secs_f64()
            })
            .collect()
    });
    push_derived(&mut rec, paired);
    scaling_sweep(&mut rec);
    rec.save("tinyllm").expect("save BENCH_tinyllm.json");
    println!(
        "saved BENCH_tinyllm.json (decode batch16 speedup: {:.2}x vs the reference tier)",
        paired.on_s() / paired.base_s
    );
}
