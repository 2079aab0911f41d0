//! Workload generation and profiling for DistServe-RS.
//!
//! The paper evaluates on three applications (Table 1) — chatbot
//! (ShareGPT), code completion (HumanEval), and summarization (LongBench)
//! — sampling request lengths from the datasets and arrival times from a
//! Poisson process (§6.1). This crate rebuilds that pipeline:
//!
//! * [`dist`] — from-scratch samplers (exponential, log-normal, gamma)
//!   so no external distribution crate is needed.
//! * [`datasets`] — synthetic length-pair generators whose shapes match
//!   Figure 7, plus empirical distributions that resample recorded pairs.
//! * [`arrival`] — Poisson and bursty (gamma inter-arrival) processes.
//! * [`stream`] — O(1)-memory streaming generators for cluster-scale
//!   runs: diurnal (non-homogeneous Poisson) curves and multi-tenant
//!   superpositions that never materialize a trace.
//! * [`sessions`] — structured prefix-sharing workloads: multi-turn
//!   chatbot conversation trees that re-send growing histories, and
//!   shared-system-prompt tenant mixes, with side-band prefix metadata
//!   for cache-aware consumers.
//! * [`trace`] — the [`trace::Request`] record and trace builders.
//! * [`profiler`] — the workload profiler behind replanning (§4.3): it
//!   watches recent history, detects pattern shifts, and refits an
//!   empirical workload for the placement search.
//!
//! # Examples
//!
//! ```
//! use distserve_simcore::SimRng;
//! use distserve_workload::{Dataset, TraceBuilder};
//!
//! let mut rng = SimRng::seed(7);
//! let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
//!     .rate(2.0)
//!     .num_requests(100)
//!     .build(&mut rng);
//! assert_eq!(trace.len(), 100);
//! ```

pub mod arrival;
pub mod datasets;
pub mod dist;
pub mod profiler;
pub mod sessions;
pub mod stream;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use datasets::{Dataset, EmpiricalLengths, LengthSampler};
pub use sessions::{
    ChatConfig, ChatSessionStream, SessionRequest, SharedPrefixMix, SharedPrefixTenant,
};
pub use stream::{DiurnalCurve, MultiTenantMix, RequestStream, TenantSpec};
pub use trace::{Request, RequestId, Trace, TraceBuilder};
