//! Claims that cross tiers: the real engine's storage against the
//! simulators' accounting of the same model shape.

use distserve::models::{ModelArch, BYTES_PER_ELEMENT};
use distserve::tinyllm::model::Weights;
use distserve::tinyllm::tensor::Matrix;
use distserve::tinyllm::{Model, TinyConfig};

/// perfbench's served shape.
fn bench_shape() -> TinyConfig {
    TinyConfig {
        layers: 6,
        hidden: 256,
        heads: 8,
        ffn: 1024,
        vocab: 4096,
        max_seq: 1024,
    }
}

/// The simulators' descriptor of a tinyllm shape.
fn arch(cfg: &TinyConfig) -> ModelArch {
    ModelArch::new(
        "tinyllm",
        u32::try_from(cfg.layers).expect("layers fit u32"),
        u32::try_from(cfg.hidden).expect("hidden fits u32"),
        u32::try_from(cfg.heads).expect("heads fit u32"),
        u32::try_from(cfg.ffn).expect("ffn fits u32"),
        u32::try_from(cfg.vocab).expect("vocab fits u32"),
        u32::try_from(cfg.max_seq).expect("max_seq fits u32"),
    )
    .expect("consistent shape")
}

/// Bytes a matrix's elements occupy.
fn bytes<T>(m: &Matrix<T>) -> u64 {
    u64::try_from(std::mem::size_of_val(m.data.as_slice())).expect("fits u64")
}

/// The KV pool tinyllm serves from costs, per token position, exactly
/// the bytes the simulators bill for it (`2 · layers · hidden` elements
/// of 2 bytes, the simulators' fixed element and tinyllm's bf16), so
/// capacity and transfer volume mean the same in both tiers.
#[test]
fn tinyllm_kv_bytes_per_token_match_simulator_accounting() {
    for cfg in [TinyConfig::tiny(), TinyConfig::small(), bench_shape()] {
        let kv = Model::random(&cfg, 7).make_kv(64, 16);
        let bytes = u64::try_from(kv.bytes_per_token()).expect("fits u64");
        assert_eq!(bytes, arch(&cfg).kv_bytes_per_token(), "{cfg:?}");
        if cfg == bench_shape() {
            // 6 layers × 256 elements of K and of V, 2 bytes each.
            assert_eq!(bytes, 6_144);
        }
    }
}

/// tinyllm's stored weights cost the bytes the simulators bill for the
/// same shape: each layer's dense projections match
/// `dense_weight_bytes_per_layer`, and the embedding plus position tables
/// take `(vocab + max_seq) · hidden` elements of `BYTES_PER_ELEMENT`.
#[test]
fn tinyllm_weight_bytes_match_simulator_accounting() {
    for cfg in [TinyConfig::tiny(), TinyConfig::small(), bench_shape()] {
        let w = Weights::random(&cfg, 7);
        let per_layer = arch(&cfg).dense_weight_bytes_per_layer();
        for lw in &w.layers {
            let dense = bytes(&lw.wqkv) + bytes(&lw.wo) + bytes(&lw.w1) + bytes(&lw.w2);
            assert_eq!(dense, per_layer, "{cfg:?}");
        }
        let elements = u64::try_from((cfg.vocab + cfg.max_seq) * cfg.hidden).expect("fits u64");
        let tables = elements * BYTES_PER_ELEMENT;
        assert_eq!(bytes(&w.embed) + bytes(&w.pos), tables, "{cfg:?}");
        if cfg == bench_shape() {
            // (4 · 256² + 2 · 256 · 1024) weights of 2 bytes per layer.
            assert_eq!(per_layer, 1_572_864);
        }
    }
}
