//! Criterion micro-benchmarks of this repository's own hot paths: cost
//! model evaluation, the event queue, the KV block manager, pipeline
//! commits, workload generation, and tinyllm at the shape perfbench
//! serves: GEMM kernels, prefill/decode throughput (batched vs the
//! token-at-a-time reference), a thread × batch decode sweep, and model
//! build time.
//!
//! After all groups run, the tinyllm numbers are written to
//! `BENCH_tinyllm.json` at the repository root so the compute tier's
//! trajectory is recorded alongside the code. Every decode number runs
//! `distserve_bench::overhead`'s batch fixture. Only the paired
//! fused-vs-reference decode estimate runs on `TinyConfig::small()`: its
//! ~100 rounds of token-at-a-time batch-16 decode would take minutes at
//! the served shape.

use std::time::Instant;

use criterion::{BatchSize, Criterion};

use distserve_bench::overhead::{self, prefilled, step_times, BATCH, DECODE_STEPS, PROMPT_LEN};
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

fn bench_cost_model(c: &mut Criterion) {
    let cost = RooflineModel::a100();
    let arch = OptModel::Opt66B.arch();
    let par = ParallelismConfig::new(4, 2);
    let prefill = PrefillBatch::new(vec![512, 128, 256]);
    let decode = DecodeBatch::uniform(128, 400);
    c.bench_function("cost/mixed_stage_time_66b", |b| {
        b.iter(|| {
            std::hint::black_box(cost.mixed_stage_time(
                std::hint::black_box(&arch),
                par,
                &prefill,
                &decode,
            ))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("simcore/event_queue_push_pop_1k", |b| {
        let mut rng = SimRng::seed(1);
        b.iter_batched(
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
                std::hint::black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_kv_manager(c: &mut Criterion) {
    c.bench_function("engine/kv_alloc_free_256", |b| {
        b.iter(|| {
            let mut kv = KvBlockManager::new(16_384, 16);
            for i in 0..256u64 {
                kv.alloc(RequestId(i), 300 + (i as u32 % 200))
                    .expect("fits");
            }
            for i in 0..256u64 {
                kv.free(RequestId(i)).expect("allocated");
            }
            std::hint::black_box(kv.free_blocks())
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    c.bench_function("engine/pipeline_commit_1k", |b| {
        b.iter(|| {
            let mut p = Pipeline::new(4);
            for i in 0..1000 {
                let t = 0.01 + f64::from(i % 7) * 0.001;
                std::hint::black_box(p.commit(SimTime::ZERO, t));
            }
            p.drained_at()
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("workload/sharegpt_trace_1k", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed(7);
            let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
                .rate(10.0)
                .num_requests(1000)
                .build(&mut rng);
            std::hint::black_box(trace.len())
        })
    });
}

fn bench_tinyllm(c: &mut Criterion) {
    let model = tinyllm::Model::random(&TinyConfig::tiny(), 3);
    c.bench_function("tinyllm/generate_16_tokens", |b| {
        b.iter(|| std::hint::black_box(model.generate(&[1, 2, 3, 4], 16)))
    });
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

/// How `BENCH_tinyllm.json` names the served shape.
const SERVED: &str = "6L/256H/1024FFN/4096V, max_seq 1024";

/// Model build time, `Model::random_with` (weight draw, packing and
/// worker-pool spawn), on the served shape. Timed at one lane and at the
/// host's lanes, since the weight draw splits across the model's lanes;
/// this is the part of a server's set-up that grows with model size.
/// Each iteration drops its model, so later builds reuse freed pages and
/// these rows leave out most of the first-touch page faults a fresh
/// process pays.
fn bench_tinyllm_build(c: &mut Criterion) {
    let served = served();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut lanes = vec![1, host_cores];
    lanes.dedup();
    for threads in lanes {
        c.bench_function(&format!("tinyllm/build_served_lanes{threads}"), |b| {
            b.iter(|| {
                Model::random_with(
                    &served,
                    2024,
                    ComputeConfig {
                        precision: Precision::F32,
                        threads,
                    },
                )
            })
        });
    }
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
/// allocating reference matmul, both over bf16 weights.
fn bench_gemm_shapes(c: &mut Criterion) {
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
        let w = bench_matrix(k, n, 2).to_bf16();
        let packed = PackedMatrix::pack(&w);
        let mut out = vec![0.0f32; m * n];
        c.bench_function(&format!("gemm/packed_{label}"), |b| {
            b.iter(|| {
                packed.matmul_into(&a.data, m, &mut out);
                std::hint::black_box(out[0])
            })
        });
        c.bench_function(&format!("gemm/reference_{label}"), |b| {
            b.iter(|| std::hint::black_box(a.matmul(&w).data[0]))
        });
    }
}

/// The packed kernels at the served model's shape (perfbench's hidden
/// 256, FFN 1024): the QKV (256×768) and FFN-up (256×1024) projections at
/// decode batch sizes 1, 4 and 16, at both precisions (`_f32` rows are
/// `Precision::F32`: bf16 weights, f32 arithmetic). These weights
/// (384–512 KiB as bf16) spill out of L1, so the rows see weight bytes,
/// and a per-batch cliff like int8's old one at m ≥ 4 shows here.
fn bench_gemm_served(c: &mut Criterion) {
    for (label, k, n) in [("qkv", 256, 768), ("ffn_up", 256, 1024)] {
        let w = bench_matrix(k, n, 2).to_bf16();
        let packed = PackedMatrix::pack(&w);
        let quant = QuantMatrix::quantize(&w);
        for m in [1, 4, 16] {
            let a = bench_matrix(m, k, 1);
            let mut out = vec![0.0f32; m * n];
            c.bench_function(&format!("gemm/served_{label}_m{m}_f32"), |b| {
                b.iter(|| {
                    packed.matmul_into(&a.data, m, &mut out);
                    std::hint::black_box(out[0])
                })
            });
            c.bench_function(&format!("gemm/served_{label}_m{m}_int8"), |b| {
                b.iter(|| {
                    quant.matmul_into(&a.data, m, &mut out);
                    std::hint::black_box(out[0])
                })
            });
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
fn bench_tinyllm_throughput(c: &mut Criterion) {
    let model = tinyllm::Model::random(&served(), 5);

    // Batched prefill of one 64-token prompt (one activation matrix).
    let prompt64: Vec<u32> = (0..64).map(|p| (p * 3 % 512) as u32).collect();
    c.bench_function("tinyllm/prefill_batched_64", |b| {
        b.iter_batched(
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
                std::hint::black_box(batcher.running_len())
            },
            BatchSize::SmallInput,
        )
    });
    // Token-at-a-time prefill of the same prompt (the reference tier:
    // one forward_token — logits included — per prompt token).
    c.bench_function("tinyllm/prefill_reference_64", |b| {
        b.iter_batched(
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
                std::hint::black_box(logits[0])
            },
            BatchSize::SmallInput,
        )
    });

    // Fused decode at batch 1 / 4 / 16: DECODE_STEPS scheduler steps.
    for batch in [1usize, 4, 16] {
        c.bench_function(&format!("tinyllm/decode_batch{batch}"), |b| {
            b.iter_batched(
                || prefilled(&model, batch, None),
                |mut batcher| step_times(&mut batcher),
                BatchSize::SmallInput,
            )
        });
    }
}

/// One decode measurement of the thread × batch scaling sweep.
struct ScalePoint {
    threads: usize,
    batch: usize,
    tok_s: f64,
}

/// Decode throughput sweep across worker-pool widths `{1, 2, 4, cores}`
/// (deduplicated — on small hosts some of these oversubscribe, and the
/// numbers are recorded honestly) and decode batch sizes `{1, 4, 16}`
/// on the served shape, plus an int8 batch-16 point at full width.
/// Times whole scheduler decode steps — the end-to-end hot loop — with
/// direct wall-clock rounds of the shared fixture.
fn scaling_sweep() -> (usize, Vec<ScalePoint>, f64) {
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
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut threads = vec![1, 2, 4, host_cores];
    threads.sort_unstable();
    threads.dedup();
    let mut points = Vec::new();
    for &t in &threads {
        let model = Model::random_with(
            &served(),
            5,
            ComputeConfig {
                precision: Precision::F32,
                threads: t,
            },
        );
        for batch in [1usize, 4, 16] {
            points.push(ScalePoint {
                threads: t,
                batch,
                tok_s: time_decode(&model, batch),
            });
        }
    }
    let int8_model = Model::random_with(
        &served(),
        5,
        ComputeConfig {
            precision: Precision::Int8,
            threads: host_cores,
        },
    );
    let int8_tok_s = time_decode(&int8_model, 16);
    (host_cores, points, int8_tok_s)
}

/// Writes the tinyllm benchmark numbers (plus derived tokens/sec and the
/// fused-vs-reference speedup) to `BENCH_tinyllm.json` at the repo root.
/// `paired` is the batch-16 decode estimate on `TinyConfig::small()` with
/// fused decode off and the reference tier on; the speedup derives from
/// it rather than from dividing two rows timed minutes apart.
fn write_tinyllm_json(
    c: &Criterion,
    paired: overhead::Estimate,
    scaling: (usize, Vec<ScalePoint>, f64),
) {
    use serde::Value;

    let find =
        |name: &str| -> Option<&criterion::Sampled> { c.results().iter().find(|r| r.name == name) };
    let tok_s =
        |name: &str, tokens: usize| -> f64 { find(name).map_or(0.0, |r| tokens as f64 / r.mean_s) };

    let mut decode = Vec::new();
    for batch in [1usize, 4, 16] {
        decode.push((
            format!("batch{batch}_tok_s"),
            Value::Float(tok_s(
                &format!("tinyllm/decode_batch{batch}"),
                DECODE_STEPS * batch,
            )),
        ));
    }
    let speedup = paired.on_s() / paired.base_s;
    let reference = vec![
        ("config".into(), Value::Str("TinyConfig::small()".into())),
        ("paired_fused_ms".into(), Value::Float(paired.base_s * 1e3)),
        (
            "paired_reference_ms".into(),
            Value::Float(paired.on_s() * 1e3),
        ),
        ("speedup_batch16_vs_reference".into(), Value::Float(speedup)),
    ];

    let prefill = vec![
        (
            "batched_64_tok_s".into(),
            Value::Float(tok_s("tinyllm/prefill_batched_64", 64)),
        ),
        (
            "reference_64_tok_s".into(),
            Value::Float(tok_s("tinyllm/prefill_reference_64", 64)),
        ),
    ];

    let benches: Vec<Value> = c
        .results()
        .iter()
        .filter(|r| r.name.starts_with("tinyllm/") || r.name.starts_with("gemm/"))
        .map(|r| {
            Value::Object(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("mean_s".into(), Value::Float(r.mean_s)),
                ("min_s".into(), Value::Float(r.min_s)),
            ])
        })
        .collect();

    // Thread × batch sweep: efficiency is tok/s relative to the perfect
    // scaling of the same batch at one thread (tok_s / (threads · base)).
    let (host_cores, points, int8_tok_s) = scaling;
    let build_ms = |lanes: usize| -> f64 {
        find(&format!("tinyllm/build_served_lanes{lanes}")).map_or(0.0, |r| r.mean_s * 1e3)
    };
    let build = vec![
        ("config".into(), Value::Str(SERVED.into())),
        ("lanes1_ms".into(), Value::Float(build_ms(1))),
        ("host_lanes".into(), Value::UInt(host_cores as u64)),
        ("host_lanes_ms".into(), Value::Float(build_ms(host_cores))),
    ];
    let base_tok_s = |batch: usize| -> f64 {
        points
            .iter()
            .find(|p| p.threads == 1 && p.batch == batch)
            .map_or(0.0, |p| p.tok_s)
    };
    let point_values: Vec<Value> = points
        .iter()
        .map(|p| {
            let base = base_tok_s(p.batch);
            let efficiency = if base > 0.0 {
                p.tok_s / (p.threads as f64 * base)
            } else {
                0.0
            };
            Value::Object(vec![
                ("threads".into(), Value::UInt(p.threads as u64)),
                ("batch".into(), Value::UInt(p.batch as u64)),
                ("tok_s".into(), Value::Float(p.tok_s)),
                ("efficiency".into(), Value::Float(efficiency)),
            ])
        })
        .collect();
    let scaling_obj = Value::Object(vec![
        ("host_cores".into(), Value::UInt(host_cores as u64)),
        ("points".into(), Value::Array(point_values)),
        ("int8_batch16_tok_s".into(), Value::Float(int8_tok_s)),
    ]);

    let provenance = distserve_bench::sentinel::Provenance::capture(SERVED, 5);
    let doc = Value::Object(vec![
        ("provenance".into(), provenance.value()),
        ("config".into(), Value::Str(SERVED.into())),
        ("decode_steps".into(), Value::UInt(DECODE_STEPS as u64)),
        ("decode".into(), Value::Object(decode)),
        ("prefill".into(), Value::Object(prefill)),
        ("reference".into(), Value::Object(reference)),
        ("build".into(), Value::Object(build)),
        ("scaling".into(), scaling_obj),
        ("benches".into(), Value::Array(benches)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tinyllm.json");
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench results");
    std::fs::write(path, json + "\n").expect("write BENCH_tinyllm.json");
    println!("wrote {path} (decode batch16 speedup: {speedup:.2}x vs the reference tier)");
}

fn main() {
    let mut c = Criterion::default().sample_size(20);
    bench_cost_model(&mut c);
    bench_event_queue(&mut c);
    bench_kv_manager(&mut c);
    bench_pipeline(&mut c);
    bench_trace_generation(&mut c);
    bench_tinyllm(&mut c);
    bench_gemm_shapes(&mut c);
    bench_gemm_served(&mut c);
    bench_tinyllm_throughput(&mut c);
    bench_tinyllm_build(&mut c);
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
    let scaling = scaling_sweep();
    write_tinyllm_json(&c, paired, scaling);
}
