//! Determinism check: two fresh parallel batch-16 runs must produce
//! byte-identical token streams.
//!
//! The worker pool splits GEMM and attention work by output region with
//! every element's accumulation chain unchanged, so thread count (and
//! scheduling noise between runs) must never show up in the output. This
//! example runs the same 16-request workload twice — fresh model, fresh
//! KV pool, fresh pool threads each time — asserts the streams are
//! identical in-process, and writes the serialized stream to a file
//! (argv[1], default `tokens.bin`) so CI can `cmp` two separate process
//! invocations byte for byte.
//!
//! Thread count comes from `TINYLLM_THREADS` when set (CI oversubscribes
//! it past the physical core count), otherwise 4 so the pool actually
//! dispatches even on small hosts.

use tinyllm::{ComputeConfig, ContinuousBatcher, GenRequest, Model, TinyConfig};

const BATCH: usize = 16;
const PROMPT_LEN: usize = 32;
const MAX_NEW: usize = 48;

/// One full batch-16 generation on a fresh model + scheduler; returns
/// the per-request token streams in request-id order.
fn run_once(threads: usize) -> Vec<Vec<u32>> {
    let model = Model::random_with(
        &TinyConfig::small(),
        5,
        ComputeConfig {
            threads,
            ..ComputeConfig::default()
        },
    );
    let mut batcher = ContinuousBatcher::new(model, 8192);
    for i in 0..BATCH {
        batcher
            .submit(GenRequest {
                id: i as u64,
                prompt: (0..PROMPT_LEN)
                    .map(|p| ((i * 17 + p * 5) % 512) as u32)
                    .collect(),
                max_new: MAX_NEW,
            })
            .expect("valid request");
    }
    let mut finished = batcher.run_to_completion();
    finished.sort_by_key(|f| f.id);
    finished.into_iter().map(|f| f.tokens).collect()
}

/// Flattens the streams into a stable byte layout for cross-process
/// comparison: for each request, `id`-ordered, a little-endian u32 token
/// list (lengths are fixed by `MAX_NEW`, so no framing is needed).
fn serialize(streams: &[Vec<u32>]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(streams.len() * MAX_NEW * 4);
    for s in streams {
        for &t in s {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
    }
    bytes
}

fn main() {
    let threads = std::env::var("TINYLLM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let first = run_once(threads);
    let second = run_once(threads);
    assert_eq!(
        first, second,
        "parallel decode is non-deterministic at {threads} threads"
    );
    assert_eq!(first.len(), BATCH);
    assert!(first.iter().all(|s| s.len() == MAX_NEW));

    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tokens.bin".into());
    std::fs::write(&path, serialize(&first)).expect("write token stream");
    println!(
        "ok: {} requests x {} tokens byte-identical across two {}-thread runs -> {}",
        BATCH, MAX_NEW, threads, path
    );
}
