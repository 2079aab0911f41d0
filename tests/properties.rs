//! Cross-crate property-based tests (proptest).
//!
//! These exercise public invariants end-to-end with randomized inputs:
//! request conservation and timeline ordering through the serving
//! simulator, KV-block conservation, latency-model monotonicity, and
//! scheduler/indexing invariants of the real inference engine.

use proptest::prelude::*;

use distserve::cluster::Cluster;
use distserve::engine::{InstanceRole, InstanceSpec, KvBlockManager, ServingSim, SimConfig};
use distserve::faults::{FaultKind, FaultSchedule, RetryPolicy};
use distserve::models::{
    CostModel, DecodeBatch, OptModel, ParallelismConfig, PrefillBatch, RooflineModel,
};
use distserve::simcore::{SimRng, SimTime, Summary};
use distserve::workload::{Request, RequestId, Trace};

fn arb_trace(max_requests: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec((1u32..1024, 1u32..128, 0.0f64..30.0), 1..max_requests).prop_map(
        |entries| {
            let requests = entries
                .into_iter()
                .enumerate()
                .map(|(i, (input, output, at))| Request {
                    id: RequestId(i as u64),
                    arrival: SimTime::from_secs(at),
                    input_len: input,
                    output_len: output,
                    tenant: 0,
                })
                .collect();
            Trace::new(requests)
        },
    )
}

fn disagg_specs(cluster: &Cluster) -> Vec<InstanceSpec> {
    vec![
        InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .unwrap(),
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 1)]],
        )
        .unwrap(),
    ]
}

/// A wider disaggregated deployment (1 prefill + 2 decode) so fault
/// recovery has survivors to fail over to.
fn wide_disagg_specs(cluster: &Cluster) -> Vec<InstanceSpec> {
    let mut specs = disagg_specs(cluster);
    specs.push(
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 2)]],
        )
        .unwrap(),
    );
    specs
}

/// An arbitrary fault schedule over a 3-instance deployment: each entry
/// is (time, kind selector, instance).
fn arb_faults() -> impl Strategy<Value = Vec<(f64, u8, usize)>> {
    prop::collection::vec((0.0f64..40.0, 0u8..6, 0usize..3), 0..4)
}

fn build_schedule(faults: &[(f64, u8, usize)]) -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    for &(at, kind, instance) in faults {
        let kind = match kind {
            0 => FaultKind::InstanceCrash {
                instance,
                downtime_secs: 3.0,
            },
            1 => FaultKind::GpuLoss { instance },
            2 => FaultKind::LinkDegradation {
                factor: 2.0,
                duration_secs: 5.0,
            },
            3 => FaultKind::Straggler {
                instance,
                factor: 1.8,
                duration_secs: 4.0,
            },
            4 => FaultKind::KvTransferFailure { instance },
            _ => FaultKind::Drain {
                instance,
                maintenance_secs: 2.0,
            },
        };
        schedule.push(at, kind);
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serving_sim_conserves_requests(trace in arb_trace(60)) {
        let cluster = Cluster::single_node(2);
        let cost = RooflineModel::a100();
        let sim = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cluster,
            disagg_specs(&cluster),
        ).unwrap();
        let out = sim.run(&trace);
        // Every request completes exactly once, with an ordered timeline.
        prop_assert_eq!(out.records.len(), trace.len());
        for r in &out.records {
            prop_assert!(r.prefill_start >= r.arrival);
            prop_assert!(r.first_token >= r.prefill_start);
            prop_assert!(r.transfer_done >= r.first_token);
            prop_assert!(r.decode_start >= r.transfer_done);
            prop_assert!(r.completion >= r.decode_start);
            prop_assert!(r.ttft() >= 0.0);
            prop_assert!(r.tpot() >= 0.0);
        }
        // KV pools drain completely: peak was recorded but final state
        // must show all tokens produced and nothing stuck.
        let produced: u64 = out.instances.iter().map(|i| i.tokens_out).sum();
        let expected: u64 = trace.requests().iter().map(|r| u64::from(r.output_len)).sum();
        prop_assert_eq!(produced, expected);
    }

    #[test]
    fn chaos_runs_are_deterministic_and_conserve_requests(
        trace in arb_trace(40),
        faults in arb_faults(),
    ) {
        let cluster = Cluster::single_node(3);
        let cost = RooflineModel::a100();
        let schedule = build_schedule(&faults);
        let run = || {
            let sim = ServingSim::new(
                SimConfig::new(OptModel::Opt13B.arch()).with_seed(5),
                &cost,
                &cluster,
                wide_disagg_specs(&cluster),
            ).unwrap();
            sim.with_faults(&schedule, RetryPolicy::default()).run(&trace)
        };
        let a = run();
        let b = run();
        // Identical seed + identical fault schedule ⇒ bit-identical
        // outcomes, faults or not.
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(&a.rejected, &b.rejected);
        prop_assert_eq!(&a.failed, &b.failed);
        prop_assert_eq!(a.makespan, b.makespan);
        // And no request is lost to the chaos: every offered request
        // reaches exactly one terminal state.
        prop_assert_eq!(
            a.records.len() + a.rejected.len() + a.failed.len(),
            trace.len()
        );
    }

    #[test]
    fn colocated_sim_conserves_requests(trace in arb_trace(60)) {
        let cluster = Cluster::single_node(1);
        let cost = RooflineModel::a100();
        let spec = InstanceSpec::new(
            InstanceRole::Colocated,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        ).unwrap();
        let sim = ServingSim::new(
            SimConfig::new(OptModel::Opt13B.arch()),
            &cost,
            &cluster,
            vec![spec],
        ).unwrap();
        let out = sim.run(&trace);
        prop_assert_eq!(out.records.len(), trace.len());
        for r in &out.records {
            // Colocated serving has no transfer stage.
            prop_assert_eq!(r.transfer_done, r.first_token);
            prop_assert!(r.transfer_active == 0.0);
        }
    }

    #[test]
    fn kv_manager_conserves_blocks(
        ops in prop::collection::vec((0u64..16, 1u32..500), 1..200)
    ) {
        // Alternate alloc/free with random sizes; free blocks plus used
        // blocks must always equal the total.
        let mut kv = KvBlockManager::new(128, 16);
        let mut live: std::collections::HashSet<u64> = Default::default();
        for (id, tokens) in ops {
            let rid = RequestId(id);
            if live.contains(&id) {
                let freed = kv.free(rid).unwrap();
                prop_assert!(freed > 0 || tokens == 0);
                live.remove(&id);
            } else if kv.alloc(rid, tokens).is_ok() {
                live.insert(id);
            }
            prop_assert_eq!(kv.free_blocks() + kv.blocks_in_use(), kv.total_blocks());
            prop_assert_eq!(kv.num_allocations(), live.len());
        }
        for id in live {
            kv.free(RequestId(id)).unwrap();
        }
        prop_assert_eq!(kv.blocks_in_use(), 0);
    }

    #[test]
    fn latency_model_monotone_in_tokens(
        t1 in 16u32..1024,
        extra in 1u32..1024,
        bs in 1usize..64,
        ctx in 16u32..1024,
    ) {
        let cost = RooflineModel::a100();
        let arch = OptModel::Opt13B.arch();
        let par = ParallelismConfig::SINGLE;
        // More prompt tokens never make prefill faster.
        let a = cost.prefill_latency(&arch, par, &PrefillBatch::single(t1)).total();
        let b = cost.prefill_latency(&arch, par, &PrefillBatch::single(t1 + extra)).total();
        prop_assert!(b >= a);
        // A bigger decode batch never takes less time, and never less
        // than proportionally amortizes below the single-request time.
        let d1 = cost.decode_stage_time(&arch, par, &DecodeBatch::uniform(bs, ctx)).total();
        let d2 = cost.decode_stage_time(&arch, par, &DecodeBatch::uniform(bs + 1, ctx)).total();
        prop_assert!(d2 >= d1);
    }

    #[test]
    fn summary_percentiles_match_sorted_reference(
        values in prop::collection::vec(0.0f64..1e6, 1..300),
        p in 0.0f64..=1.0,
    ) {
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = p * (sorted.len() as f64 - 1.0);
        let lo = sorted[rank.floor() as usize];
        let hi = sorted[rank.ceil() as usize];
        let got = s.percentile(p);
        prop_assert!(got >= lo - 1e-9 && got <= hi + 1e-9,
            "p={p}: got {got}, bracket [{lo}, {hi}]");
        prop_assert!((s.max() - sorted[sorted.len() - 1]).abs() < 1e-12);
        prop_assert!((s.min() - sorted[0]).abs() < 1e-12);
    }

    #[test]
    fn tinyllm_batched_equals_standalone(
        reqs in prop::collection::vec((0u32..100u32, 0usize..4, 0usize..6), 1..4),
    ) {
        // Block-aligned (16, 32) and unaligned prompt lengths; `max_new`
        // from 0, which finishes at prefill with no tokens.
        const PROMPT_LENS: [usize; 4] = [3, 16, 17, 32];
        let model = distserve::tinyllm::Model::random(
            &distserve::tinyllm::TinyConfig::tiny(), 5);
        let mut batcher = distserve::tinyllm::ContinuousBatcher::new(model.clone(), 8192);
        let mut expected = Vec::new();
        for (i, &(s, len, max_new)) in reqs.iter().enumerate() {
            let prompt: Vec<u32> = (0..PROMPT_LENS[len] as u32)
                .map(|j| (s * 7 + j * 13 + 1) % 128)
                .collect();
            expected.push(model.generate(&prompt, max_new));
            batcher.submit(distserve::tinyllm::GenRequest {
                id: i as u64,
                prompt,
                max_new,
            }).expect("valid request");
        }
        let mut done = batcher.run_to_completion();
        done.sort_by_key(|f| f.id);
        prop_assert_eq!(done.len(), expected.len());
        for (f, e) in done.iter().zip(&expected) {
            prop_assert_eq!(&f.tokens, e);
        }
    }

    #[test]
    fn rng_split_streams_do_not_collide(seed in 0u64..1_000_000) {
        let parent = SimRng::seed(seed);
        let mut a = parent.split("a");
        let mut b = parent.split("b");
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64_raw()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64_raw()).collect();
        prop_assert_ne!(xs, ys);
    }
}

// The batched engine tier: random architectures and batch shapes, checked
// bit for bit against the token-at-a-time reference path.

/// Runs `prompts` through the reference tier (each sequence alone, token
/// at a time, then one decode token) and through the batched tier (every
/// prompt in one prefill batch over a shared cache, then one fused decode
/// batch), and asserts both tiers' logits are identical. Both caches use
/// `block_size`: the reference's softmax chunks follow its cache's blocks.
fn check_batched_matches_reference(
    cfg: &distserve::tinyllm::TinyConfig,
    seed: u64,
    prompts: &[Vec<u32>],
    block_size: usize,
) {
    use distserve::tinyllm::tensor::argmax;
    use distserve::tinyllm::{BatchRow, Model, Scratch};

    let model = Model::random(cfg, seed);
    let mut ref_prefill = Vec::new();
    let mut ref_decode = Vec::new();
    for prompt in prompts {
        let mut kv = model.make_kv(prompt.len() + 1, block_size);
        kv.register(0);
        let mut logits = Vec::new();
        for (pos, &t) in prompt.iter().enumerate() {
            logits = model.forward_token(0, pos, t, &mut kv);
        }
        let next = argmax(&logits) as u32;
        ref_decode.push(model.forward_token(0, prompt.len(), next, &mut kv));
        ref_prefill.push(logits);
    }

    let lifetime = |p: &Vec<u32>| (p.len() + 1).div_ceil(block_size) * block_size;
    let mut kv = model.make_kv(prompts.iter().map(lifetime).sum(), block_size);
    let mut scratch = Scratch::new();
    let mut rows = Vec::new();
    let mut last_rows = Vec::new();
    for (s, prompt) in prompts.iter().enumerate() {
        let seq = s as u64;
        kv.register(seq);
        for (pos, &token) in prompt.iter().enumerate() {
            rows.push(BatchRow { seq, pos, token });
        }
        last_rows.push(rows.len() - 1);
    }
    model.forward_batch(&rows, &mut kv, &mut scratch);
    model.logits_batch(&last_rows, &mut scratch);
    let mut decode_rows = Vec::new();
    for (s, prompt) in prompts.iter().enumerate() {
        let batched = scratch.logits_row(s);
        assert_eq!(batched, &ref_prefill[s][..], "prefill seq {s}");
        decode_rows.push(BatchRow {
            seq: s as u64,
            pos: prompt.len(),
            token: argmax(batched) as u32,
        });
    }
    model.forward_batch(&decode_rows, &mut kv, &mut scratch);
    let picks: Vec<usize> = (0..decode_rows.len()).collect();
    model.logits_batch(&picks, &mut scratch);
    for (s, expect) in ref_decode.iter().enumerate() {
        assert_eq!(scratch.logits_row(s), &expect[..], "decode seq {s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tinyllm_batched_forward_matches_token_at_a_time(
        heads in 1usize..=8,
        head_dim in 2usize..=8,
        layers in 1usize..4,
        ffn in 4usize..48,
        vocab in 8usize..48,
        block_pow in 2u32..5,
        seed in 0u64..1000,
        prompts in prop::collection::vec(
            prop::collection::vec(0u32..1_000_000, 1..41), 1..4),
    ) {
        let cfg = distserve::tinyllm::TinyConfig {
            layers,
            hidden: heads * head_dim,
            heads,
            ffn,
            vocab,
            max_seq: 48,
        };
        let prompts: Vec<Vec<u32>> = prompts
            .into_iter()
            .map(|p| p.into_iter().map(|t| t % vocab as u32).collect())
            .collect();
        check_batched_matches_reference(&cfg, seed, &prompts, 1 << block_pow);
    }
}

/// With 8-dim heads and 16-position blocks, fused attention runs a kernel
/// monomorphized for the row width `heads × 8`: one arm each for 1, 2, 4
/// and 8 heads. Every arm must match the reference exactly, over contexts
/// that cross block boundaries.
#[test]
fn tinyllm_batched_forward_matches_reference_on_every_fused_attention_arm() {
    for heads in [1, 2, 4, 8] {
        let cfg = distserve::tinyllm::TinyConfig {
            layers: 2,
            hidden: heads * 8,
            heads,
            ffn: 32,
            vocab: 48,
            max_seq: 48,
        };
        let prompts: Vec<Vec<u32>> = [40usize, 17, 3]
            .iter()
            .map(|&len| (0..len).map(|p| ((p * 7 + len) % 48) as u32).collect())
            .collect();
        check_batched_matches_reference(&cfg, heads as u64, &prompts, 16);
    }
}
