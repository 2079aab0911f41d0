//! Golden outputs: tinyllm's tokens and logits pinned by digest.
//!
//! The cross-tier tests compare the reference tier against the batched
//! tier, but both read the same weight storage, so a change that
//! scrambles how weights are laid out or drawn moves both tiers together
//! and passes them. These digests were recorded from the row-major
//! kernels and must not move under any change to weight layout, GEMM
//! tiling or pool dispatch: every such change is meant to be
//! bit-identical.

use tinyllm::{
    BatchRow, ComputeConfig, ContinuousBatcher, GenRequest, Model, Precision, Scratch, TinyConfig,
};

/// 64-bit FNV-1a over a stream of words, fed a byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// perfbench's served shape.
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

/// A deterministic prompt of `len` tokens inside `vocab`.
fn prompt(len: usize, salt: usize, vocab: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i * 37 + salt * 101 + 5) % vocab) as u32)
        .collect()
}

/// Digest of one model's outputs: its greedy reference-tier tokens
/// (`reference`), the bits of a batched prefill's last logits row (37
/// rows: every row-band height and remainder the kernels tile by), and
/// the continuous batcher's tokens for mixed-length requests.
fn digest(model: Model, reference: &[u32]) -> u64 {
    let vocab = model.config().vocab;
    let mut h = Fnv::new();

    for &t in reference {
        h.word(u64::from(t));
    }

    let rows: Vec<BatchRow> = prompt(37, 2, vocab)
        .into_iter()
        .enumerate()
        .map(|(pos, token)| BatchRow { seq: 0, pos, token })
        .collect();
    let mut kv = model.make_kv(64, 16);
    kv.register(0);
    let mut scratch = Scratch::new();
    model.forward_batch(&rows, &mut kv, &mut scratch);
    model.logits_batch(&[rows.len() - 1], &mut scratch);
    for &v in scratch.logits_row(0) {
        h.word(u64::from(v.to_bits()));
    }

    let mut batcher = ContinuousBatcher::new(model, 512);
    for (id, (len, max_new)) in [(3, 5), (17, 2), (33, 7), (9, 4)].into_iter().enumerate() {
        batcher
            .submit(GenRequest {
                id: id as u64,
                prompt: prompt(len, id + 3, vocab),
                max_new,
            })
            .expect("valid request");
    }
    let mut done = batcher.run_to_completion();
    done.sort_by_key(|f| f.id);
    for f in done {
        h.word(f.id);
        for t in f.tokens {
            h.word(u64::from(t));
        }
    }
    h.0
}

#[test]
fn outputs_match_golden_digests() {
    // (shape, F32 digest, Int8 digest), each the same at 1 and 2 lanes.
    let cases = [
        (
            "tiny",
            TinyConfig::tiny(),
            [0x3644_4466_159e_5c61, 0xa7fc_b3cf_baeb_162d],
        ),
        (
            "small",
            TinyConfig::small(),
            [0x26db_581a_2ce1_4059, 0x0c9a_631f_4855_ca9f],
        ),
        (
            "served",
            served(),
            [0x5df2_625f_c73e_5573, 0xc670_fe35_2b79_9d96],
        ),
    ];
    for (name, cfg, wants) in cases {
        let mut reference = None;
        for (precision, want) in [Precision::F32, Precision::Int8].into_iter().zip(wants) {
            for threads in [1, 2] {
                let model = Model::random_with(&cfg, 2024, ComputeConfig { precision, threads });
                // The reference tier reads the stored bf16 weights at
                // either precision and never uses the pool: one run per
                // shape serves all four models.
                let tokens =
                    reference.get_or_insert_with(|| model.generate(&prompt(5, 1, cfg.vocab), 6));
                let got = digest(model, tokens);
                assert_eq!(
                    got, want,
                    "{name} {precision:?} on {threads} lanes: digest {got:#018x}"
                );
            }
        }
    }
}
