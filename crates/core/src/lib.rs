//! DistServe's orchestration layer: the top of the stack.
//!
//! This crate glues the substrates into the system a user deploys
//! (paper §5): given a model, a cluster, an application's SLOs, and a
//! traffic estimate, it plans a placement (choosing Algorithm 1 or 2 by
//! cluster affinity), materializes it onto GPUs, serves traces through
//! the engine, and replans when the workload profiler detects a pattern
//! shift (§4.3).
//!
//! * [`apps`] — the Table 1 application presets (models, SLOs, datasets).
//! * [`serving`] — [`serving::Planner`] and the rate / SLO-scale
//!   sweeps behind Figures 8, 9, and 11.
//! * [`replan`] — the periodic replanning controller, with failure-driven
//!   capacity triggers.
//! * [`recovery`] — availability-report assembly for chaos runs.
//! * [`report`] — plain-text tables and JSON records for the experiment
//!   harnesses.

pub mod apps;
pub mod recovery;
pub mod replan;
pub mod report;
pub mod serving;

pub use apps::Application;
pub use replan::{CapacityObservation, ReplanController, SloObservation};
pub use report::Table;
pub use serving::{rate_sweep, serve_trace, slo_scale_sweep, Planner, SweepPoint};
