//! Decision-grade observability over the telemetry stream.
//!
//! PR 2's telemetry records *what happened*; this crate answers *which
//! component is eating my SLO, on which instance, right now* — the
//! online signal the paper's diagnosis (§2–§3, Figs. 1–3) says goodput
//! optimization turns on. Four pieces:
//!
//! * **Attribution** ([`attribute`]): decomposes each request's
//!   [`Lifecycle`](distserve_telemetry::Lifecycle) into TTFT components
//!   {batch formation, prefill queueing, prefill execution, KV
//!   migration} and decode components {migration wait/transfer, decode
//!   queueing, per-step execution, inter-step stall}, with an exactness
//!   invariant: components telescope to the measured end-to-end figure.
//! * **Windows** ([`SloWindow`], [`ObserverSink`]): an O(1),
//!   allocation-free ring of time buckets with mergeable histograms and
//!   interpolated quantiles, exposing windowed goodput, per-phase SLO
//!   attainment, and per-instance utilization online.
//! * **Bottleneck reports** ([`diagnose`]): per-instance tables naming
//!   the binding SLO and dominant component, rendered as text
//!   ([`BottleneckReport::render`]) or as a self-contained HTML
//!   dashboard ([`render_dashboard`]) with inline SVG only.
//! * **Live serving** ([`MetricsServer`]): a `std::net` HTTP endpoint
//!   exposing the dashboard at `/` and Prometheus text at `/metrics`.
//!
//! The windowed attainment feeds
//! `ReplanController::observe_attainment`, closing the loop from
//! observed SLO erosion to a replanning decision (§4.3).

mod attribution;
mod bottleneck;
mod burn;
mod dashboard;
mod live;
mod serve;
mod window;

pub use attribution::{
    attribute, ComponentTotals, DecodeAttribution, Outcome, RequestAttribution, TtftAttribution,
    COMPONENT_NAMES,
};
pub use bottleneck::{diagnose, BindingSlo, BottleneckReport, InstanceReport};
pub use burn::{BurnConfig, BurnEvent, BurnReading, TenantBurnMonitor};
pub use dashboard::{
    pool_panel, profile_panel, render_dashboard, tenant_panel, trace_waterfall_svg,
};
pub use live::{InstanceLoad, InstanceUse, ObserverSink};
pub use serve::{http_get, MetricsServer, Provider};
pub use window::{BucketStats, SloWindow, WindowStats};
