//! Claims that cross tiers: the real engine's storage against the
//! simulators' accounting of the same model shape.

use distserve::models::{DType, ModelArch};
use distserve::tinyllm::{Model, TinyConfig};

/// The KV pool tinyllm serves from costs, per token position, exactly
/// the bytes the simulators bill for it (`2 · layers · hidden · 4` at
/// f32), so capacity and transfer volume mean the same in both tiers.
#[test]
fn tinyllm_kv_bytes_per_token_match_simulator_accounting() {
    let bench_shape = TinyConfig {
        layers: 6,
        hidden: 256,
        heads: 8,
        ffn: 1024,
        vocab: 4096,
        max_seq: 1024,
    };
    for cfg in [TinyConfig::tiny(), TinyConfig::small(), bench_shape.clone()] {
        let arch = ModelArch::new(
            "tinyllm",
            u32::try_from(cfg.layers).expect("layers fit u32"),
            u32::try_from(cfg.hidden).expect("hidden fits u32"),
            u32::try_from(cfg.heads).expect("heads fit u32"),
            u32::try_from(cfg.ffn).expect("ffn fits u32"),
            u32::try_from(cfg.vocab).expect("vocab fits u32"),
            u32::try_from(cfg.max_seq).expect("max_seq fits u32"),
        )
        .expect("consistent shape");
        let kv = Model::random(&cfg, 7).make_kv(64, 16);
        let bytes = u64::try_from(kv.bytes_per_token()).expect("fits u64");
        assert_eq!(bytes, arch.kv_bytes_per_token(DType::F32), "{cfg:?}");
        if cfg == bench_shape {
            // 6 layers × 256 floats of K and of V, 4 bytes each.
            assert_eq!(bytes, 12_288);
        }
    }
}
