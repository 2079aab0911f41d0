//! Real inference with the tinyllm engine.
//!
//! Runs actual transformer forward passes (bf16 weights, f32
//! arithmetic): single-request greedy generation, and continuous batching
//! with paged-KV admission — the same scheduling logic the simulators
//! model, executing for real.
//!
//! Run with: `cargo run --release --example tinyllm_generate`

use std::time::Instant;

use distserve::tinyllm::scheduler::StepKind;
use distserve::tinyllm::{ContinuousBatcher, GenRequest, Model, TinyConfig};

fn main() {
    let cfg = TinyConfig::small();
    println!(
        "== tinyllm: {} layers, hidden {}, {} heads, {} params ==\n",
        cfg.layers,
        cfg.hidden,
        cfg.heads,
        cfg.param_count()
    );
    let model = Model::random(&cfg, 2024);

    // Single request, greedy.
    let prompt: Vec<u32> = vec![17, 3, 250, 99, 41];
    let start = Instant::now();
    let tokens = model.generate(&prompt, 24);
    let single = start.elapsed();
    println!("prompt {prompt:?}");
    println!("generated ({:?}): {tokens:?}\n", single);

    // Continuous batching: several requests share decode steps.
    let mut batcher = ContinuousBatcher::new(model, 8192).with_token_budget(64);
    for i in 0..6 {
        batcher
            .submit(GenRequest {
                id: i,
                prompt: vec![(i as u32 * 7 + 3) % 512, 10, 20],
                max_new: 12 + i as usize,
            })
            .expect("valid request");
    }
    let mut prefill_steps = 0;
    let mut decode_steps = 0;
    loop {
        match batcher.step() {
            StepKind::Prefill { requests, tokens } => {
                prefill_steps += 1;
                println!("step: prefill {requests} request(s), {tokens} tokens");
            }
            StepKind::Decode { requests } => {
                decode_steps += 1;
                if decode_steps % 5 == 0 {
                    println!("step: decode batch of {requests}");
                }
            }
            StepKind::Idle => break,
        }
    }
    println!("\ncontinuous batching: {prefill_steps} prefill steps, {decode_steps} decode steps for 6 requests");
    println!("(vs {} decode steps if served one at a time)", 6 * 14);
}
