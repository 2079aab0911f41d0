//! Placement search: the planning half of DistServe (paper §4).
//!
//! Given the model, the cluster, the workload's length distribution, the
//! latency SLOs, and a traffic rate, the planner decides the parallelism
//! of prefill and decoding instances, how many of each to run, and where
//! they sit — maximizing *per-GPU goodput*, the maximum request rate
//! served within the SLO attainment target per GPU provisioned.
//!
//! * [`slo`] — TTFT/TPOT SLO specifications (Table 1 presets live in
//!   `distserve-core`).
//! * [`source`] — trace sources: anything that can synthesize a trace at
//!   a given rate (datasets, empirical refits, fixed lengths).
//! * [`phase_sim`] — the paper's `simu_prefill` / `simu_decode`:
//!   single-phase simulators estimating SLO attainment for one candidate
//!   configuration.
//! * [`goodput`] — binary search for the maximum rate meeting the
//!   attainment target (the paper's "enumerates the placements via binary
//!   search ... with simulation trials").
//! * [`alg1`] — Algorithm 1, high node-affinity clusters: optimize each
//!   phase independently, then replicate.
//! * [`alg2`] — Algorithm 2, low node-affinity clusters: colocate
//!   corresponding prefill/decoding segments per node so KV transfers
//!   ride NVLink.
//! * [`vllm_pp`] — the "vLLM++" ablation: parallelism search for the
//!   colocated baseline (Figure 11).
//! * [`deploy`] — materialize a chosen placement onto physical GPUs; the
//!   one layout rule, which Algorithm 2 and vLLM++ also probe.

pub mod alg1;
pub mod alg2;
pub mod deploy;
pub mod goodput;
pub mod phase_sim;
pub mod slo;
pub mod source;
pub mod vllm_pp;

pub use alg1::{high_affinity_placement, HighPlacement};
pub use alg2::{low_affinity_placement, LowPlacement};
pub use deploy::materialize;
pub use goodput::max_goodput;
pub use slo::SloSpec;
pub use source::TraceSource;
pub use vllm_pp::{vllm_plus_plus, ColocPlacement};
