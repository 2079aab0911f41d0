//! LLM architecture descriptors, parallelism configurations, and the
//! analytical latency model of DistServe (Appendix A of the paper).
//!
//! The crate answers three questions every other layer asks:
//!
//! 1. *What is the model?* — [`arch::ModelArch`] describes a transformer
//!    (layers, hidden size, heads, FFN width) and derives parameter counts,
//!    weight bytes, and KV-cache bytes per token.
//! 2. *How is it partitioned?* — [`parallel::ParallelismConfig`] captures
//!    tensor (intra-operator) and pipeline (inter-operator) parallelism and
//!    validates a configuration against an architecture and GPU memory.
//! 3. *How long does a batch take?* — [`latency::RooflineModel`] predicts
//!    prefill and decoding step times from hardware characteristics using a
//!    roofline (max of compute time and memory time) per operator, matching
//!    the paper's Appendix-A formulation; [`appendix_a::AppendixAModel`] is
//!    the paper's literal `C1..C5` linear form, fitted from profile points
//!    with [`fit::LeastSquares`].
//!
//! [`queueing`] provides the closed-form M/D/1 results (Eqs. 1–3) used in
//! §3.1 of the paper to explain parallelism preferences of the prefill
//! phase.

pub mod appendix_a;
pub mod arch;
pub mod batch;
pub mod fit;
pub mod hardware;
pub mod latency;
pub mod parallel;
pub mod queueing;

pub use arch::{LlamaModel, ModelArch, OptModel, BYTES_PER_ELEMENT};
pub use batch::{DecodeBatch, PrefillBatch};
pub use hardware::{GpuSpec, LinkSpec};
pub use latency::{CostModel, PhaseTiming, RooflineModel};
pub use parallel::{ParallelismConfig, MEM_MARGIN};
