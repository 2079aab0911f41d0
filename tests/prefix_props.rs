//! Property tests for the radix-tree prefix cache (`crates/prefix`).
//!
//! Three contracts are exercised over randomized workloads:
//!
//! - **Bit-exactness** — driving `tinyllm`'s continuous batcher through
//!   a `PrefixCache` yields token streams byte-identical to a cold run,
//!   on both compute tiers (f32 and int8) at any worker-pool width.
//!   Cached prefill is an optimization, never an approximation.
//! - **Refcount hygiene** — after every sequence finishes, the only
//!   blocks still held are the cache's own references; clearing the
//!   cache returns the KV pool to pristine. No block leaks, ever.
//! - **Eviction safety** — LRU eviction under capacity pressure never
//!   frees (or lets the pool recycle) a block a live sequence still
//!   references: the sequence's KV contents survive arbitrary
//!   insert/evict/release interleavings.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! prefix job runs with an explicit budget).

use std::collections::HashMap;

use proptest::prelude::*;

use distserve::prefix::PrefixCache;
use tinyllm::tensor::Bf16;
use tinyllm::{
    ComputeConfig, ContinuousBatcher, GenRequest, Model, PagedKv, Precision, TinyConfig,
};

/// Case count from `PROPTEST_CASES`, falling back to `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The batcher's KV block size (fixed in `ContinuousBatcher::new`).
const BS: usize = 16;

/// Workload shape for the engine-level properties: shared system
/// prompts per tenant plus short per-request user suffixes.
#[derive(Debug, Clone)]
struct Shape {
    tenants: usize,
    reqs_per_tenant: usize,
    sys_tokens: usize,
    max_new: usize,
    threads: usize,
    int8: bool,
    seed: u64,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        (
            1usize..4,  // tenants
            1usize..5,  // requests per tenant
            0usize..72, // system-prompt tokens (covers 0 and non-block-aligned)
            1usize..6,  // generated tokens
        ),
        (
            1usize..4, // worker-pool lanes
            any::<bool>(),
            0u64..1_000_000,
        ),
    )
        .prop_map(
            |((tenants, reqs_per_tenant, sys_tokens, max_new), (threads, int8, seed))| Shape {
                tenants,
                reqs_per_tenant,
                sys_tokens,
                max_new,
                threads,
                int8,
                seed,
            },
        )
}

/// Deterministic prompt set for a shape: tenant-shared system prefix,
/// request-unique user suffix (tokens bounded by tiny's vocab of 128).
fn prompts(s: &Shape) -> Vec<(u64, Vec<u32>)> {
    let mut out = Vec::new();
    for t in 0..s.tenants {
        let sys: Vec<u32> = (0..s.sys_tokens)
            .map(|i| ((t * 31 + i * 7 + s.seed as usize) % 128) as u32)
            .collect();
        for r in 0..s.reqs_per_tenant {
            let mut p = sys.clone();
            let user = 1 + (r * 5 + t) % 12;
            p.extend((0..user).map(|i| ((r * 13 + i * 3 + t + 1) % 128) as u32));
            out.push(((t * s.reqs_per_tenant + r) as u64, p));
        }
    }
    out
}

/// Runs the continuous batcher over the shape's prompts, optionally
/// through a prefix cache. Returns `(outputs by id, blocks still held
/// after all sequences finished)`.
fn run_engine(s: &Shape, cache: Option<&mut PrefixCache>) -> (HashMap<u64, Vec<u32>>, usize) {
    let compute = ComputeConfig {
        precision: if s.int8 {
            Precision::Int8
        } else {
            Precision::F32
        },
        threads: s.threads,
    };
    let model = Model::random_with(&TinyConfig::tiny(), s.seed ^ 0x5EED, compute);
    // Budget exactly one maximal prompt per step: prompts longer than
    // the budget are never admitted (livelock), and with block-sized
    // system prompts this forces sequential prefill batches, so later
    // requests hit prefixes inserted by earlier ones.
    let work = prompts(s);
    let budget = work.iter().map(|(_, p)| p.len()).max().unwrap_or(1);
    let mut batcher = ContinuousBatcher::new(model, 4096).with_token_budget(budget);
    for (id, prompt) in work {
        batcher
            .submit(GenRequest {
                id,
                prompt,
                max_new: s.max_new,
            })
            .expect("valid request");
    }
    let finished = match cache {
        Some(c) => batcher.run_to_completion_with(c),
        None => batcher.run_to_completion(),
    };
    let held = batcher.kv_total_blocks() - batcher.kv_free_blocks();
    (
        finished.into_iter().map(|f| (f.id, f.tokens)).collect(),
        held,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Cached and cold runs emit byte-identical token streams for every
    /// request, across both weight precisions and any thread count —
    /// and neither run leaks KV blocks (the warm run's residue is
    /// exactly the cache's own references, reclaimable by `clear`).
    #[test]
    fn cached_matches_cold_bit_exact_and_leak_free(s in shape_strategy()) {
        let (cold, cold_held) = run_engine(&s, None);
        prop_assert_eq!(cold_held, 0, "cold run leaked blocks");

        let mut cache = PrefixCache::new(BS, 128);
        let (warm, warm_held) = run_engine(&s, Some(&mut cache));
        prop_assert_eq!(
            warm_held,
            cache.owned_blocks(),
            "blocks held beyond the cache's own references"
        );

        prop_assert_eq!(cold.len(), warm.len());
        for (id, cold_tokens) in &cold {
            prop_assert_eq!(
                Some(cold_tokens),
                warm.get(id),
                "request {} diverged between cold and cached runs",
                id
            );
        }

        // Shared system prompts of at least one whole block must
        // actually exercise the cache (every tenant's 2nd..nth request
        // can reuse the 1st's blocks).
        if s.sys_tokens >= BS && s.reqs_per_tenant > 1 {
            prop_assert!(cache.stats().hits > 0, "shared prefixes never hit");
        }
    }
}

/// Tiny KV pool for the eviction-safety property: 1 layer, hidden 2.
fn pool(block_size: usize, blocks: usize) -> PagedKv {
    PagedKv::new(1, 2, block_size, blocks)
}

/// Prefills `tokens` for `seq` with recognizable values (`token` in the
/// key's first lane, `seq` in its second) and returns the sequence's full
/// blocks. The cache stores bf16, so a token past 256 reads back rounded;
/// the sequence lane (at most 12, exact) identifies the writer.
fn fill(kv: &mut PagedKv, seq: u64, tokens: &[u32], block_size: usize) -> Vec<usize> {
    kv.register(seq);
    for (pos, &t) in tokens.iter().enumerate() {
        kv.append(seq, 0, pos, &[t as f32, seq as f32], &[0.0; 2])
            .unwrap();
    }
    kv.block_table(seq).unwrap()[..tokens.len() / block_size].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// Under arbitrary insert/release interleavings against a
    /// capacity-starved cache, eviction only ever drops the cache's own
    /// references: live sequences keep their blocks and their KV
    /// contents, and the final release returns the pool to pristine.
    #[test]
    fn eviction_never_frees_live_referenced_blocks(
        capacity in 1usize..6,
        // Per prompt: (first-token family 0..6, extra blocks 0..4,
        // release the sequence right after insert?)
        plan in prop::collection::vec((0u32..6, 0usize..4, any::<bool>()), 1..12),
    ) {
        let block_size = 4;
        let mut kv = pool(block_size, 256);
        let mut cache = PrefixCache::new(block_size, capacity);
        // Live sequences we intentionally keep: (seq, tokens).
        let mut live: Vec<(u64, Vec<u32>)> = Vec::new();

        for (i, &(family, extra, release)) in plan.iter().enumerate() {
            let seq = i as u64 + 1;
            // Prompts within a family share a leading block; extras
            // diverge, growing chains deep enough to force evictions.
            let mut tokens: Vec<u32> = (0..block_size as u32)
                .map(|j| family * 100 + j)
                .collect();
            for b in 0..extra {
                tokens.extend(
                    (0..block_size as u32).map(|j| family * 100 + seq as u32 * 10 + b as u32 + j),
                );
            }
            let blocks = fill(&mut kv, seq, &tokens, block_size);
            cache.insert(&tokens, &blocks, &mut kv);
            prop_assert!(cache.owned_blocks() <= capacity, "capacity exceeded");

            if release {
                kv.release(seq).unwrap();
            } else {
                live.push((seq, tokens));
            }

            // Every live sequence still owns every one of its blocks,
            // and the contents it wrote are intact — eviction (which
            // has certainly fired once families outgrow `capacity`)
            // never touched a block with a live referent.
            for (s, toks) in &live {
                for (pos, &t) in toks.iter().enumerate() {
                    let key = kv.key(*s, 0, pos);
                    let stored = Bf16::from_f32(t as f32).to_f32();
                    prop_assert_eq!(key[0], stored, "seq {} clobbered at pos {}", s, pos);
                    prop_assert_eq!(key[1], *s as f32);
                }
                for &b in kv.block_table(*s).unwrap() {
                    prop_assert!(kv.block_ref_count(b) >= 1, "live block {} freed", b);
                }
            }
        }

        // Teardown in either order leaves no references behind.
        for (s, _) in &live {
            kv.release(*s).unwrap();
        }
        cache.clear(&mut kv);
        prop_assert_eq!(kv.free_blocks(), kv.total_blocks(), "blocks leaked");
        prop_assert_eq!(cache.owned_blocks(), 0);
    }
}
