//! tinyllm — a real CPU transformer inference engine: bf16 weights and
//! KV cache, f32 arithmetic.
//!
//! The DistServe paper's execution engine is 8.1K lines of C++/CUDA; the
//! simulation crates model its *timing*. This crate rebuilds its *logic*
//! for real: an OPT-style decoder-only transformer (pre-LayerNorm, learned
//! positions, ReLU FFN) that actually multiplies matrices, with
//!
//! * a **paged KV cache** ([`kv::PagedKv`]) — fixed-size token blocks, a
//!   free list, and per-sequence block tables, exactly the PagedAttention
//!   memory layout;
//! * **continuous batching** ([`scheduler::ContinuousBatcher`]) — the
//!   iteration-level colocated policy (prefill prioritized, decode
//!   otherwise) running against real forward passes;
//! * a **batched compute tier** ([`engine::Model::forward_batch`]) —
//!   prompts and fused decode batches as single GEMMs over pre-packed
//!   weights ([`tensor::PackedMatrix`]) with a reusable [`engine::Scratch`]
//!   arena, bit-identical to the token-at-a-time reference path;
//! * a **persistent worker pool** ([`pool::WorkerPool`]) — spawned once
//!   per model, splitting GEMM column strips and fused-attention rows
//!   across cores with bit-identical results at any thread count
//!   (configured via [`model::ComputeConfig`]);
//! * **int8 weight quantization** ([`model::Precision::Int8`]) —
//!   per-output-channel scales applied in-register inside the GEMM
//!   microkernel, with a documented error bound vs. the bf16 weights;
//! * **flash-style fused attention** — one pass over the KV blocks with
//!   an online softmax (running max + normalizer), never materializing
//!   the `context × heads` score matrix.
//!
//! Weights and K/V are stored once each, as bf16 ([`tensor::Bf16`]): two
//! bytes per element, the paper's FP16 footprint and what the simulators
//! bill. Every operation widens them exactly and computes in f32. Weights
//! are deterministic pseudo-random: serving behavior (the subject of the
//! paper) depends on architecture shape, not weight values.
//!
//! # Examples
//!
//! ```
//! use tinyllm::{Model, TinyConfig};
//!
//! let config = TinyConfig::tiny();
//! let model = Model::random(&config, 42);
//! let prompt = vec![1, 5, 9];
//! let out = model.generate(&prompt, 4);
//! assert_eq!(out.len(), 4);
//! ```

pub mod engine;
pub mod kv;
pub mod model;
pub mod pool;
pub mod sampling;
pub mod scheduler;
pub mod tensor;

pub use engine::{BatchRow, Model, Scratch};
pub use kv::PagedKv;
pub use model::{ComputeConfig, Precision, TinyConfig};
pub use pool::{PoolUtilization, WorkerPool, WorkerUtil};
pub use sampling::{Sampler, Sampling};
pub use scheduler::{ContinuousBatcher, GenRequest, PrefixReuse};
