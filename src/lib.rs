//! DistServe-RS — goodput-optimized LLM serving via prefill/decoding
//! disaggregation, a full-system Rust reproduction of the OSDI '24 paper
//! *DistServe: Disaggregating Prefill and Decoding for Goodput-optimized
//! Large Language Model Serving* (Zhong et al.).
//!
//! This umbrella crate re-exports all workspace crates under stable module
//! names. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! the per-figure reproduction record.
//!
//! # Quickstart
//!
//! ```
//! use distserve::models::OptModel;
//!
//! let arch = OptModel::Opt13B.arch();
//! assert_eq!(arch.num_layers, 40);
//! ```

/// Simulated GPU cluster topology and transfers.
pub use distserve_cluster as cluster;
/// DistServe orchestration layer: controller, SLOs, serving, replanning.
pub use distserve_core as core;
/// Simulated execution engines (disaggregated and colocated).
pub use distserve_engine as engine;
/// Fault injection, instance health, retry policies, availability reports.
pub use distserve_faults as faults;
/// LLM architectures, parallelism, and the analytical latency model.
pub use distserve_models as models;
/// Latency attribution, online SLO windows, bottleneck reports, and the
/// live dashboard.
pub use distserve_observe as observe;
/// Placement search: Algorithms 1 and 2, goodput optimization.
pub use distserve_placement as placement;
/// Radix-tree prefix cache: copy-on-write KV block sharing across
/// requests.
pub use distserve_prefix as prefix;
/// Always-on scoped self-profiler: folded stacks and flamegraph SVG.
pub use distserve_prof as prof;
/// Cluster-scale request router: EPP-style scoring, admission control,
/// and the 10M-request scale simulator.
pub use distserve_router as router;
/// Discrete-event simulation kernel and statistics.
pub use distserve_simcore as simcore;
/// Request-lifecycle tracing, metrics, and Perfetto/Prometheus export.
pub use distserve_telemetry as telemetry;
/// Span synthesis, tail-based sampling, and a flight recorder.
pub use distserve_trace as trace;
/// Synthetic datasets, arrival processes, and workload profiling.
pub use distserve_workload as workload;
/// A real CPU transformer inference engine with paged KV cache.
pub use tinyllm;
