//! Goodput measurement: binary search for the maximum rate meeting the
//! SLO attainment target.
//!
//! §4.1: "DistServe simply enumerates the placements via binary search and
//! finds the maximum rate that meets the SLO attainment target with
//! simulation trials." [`max_goodput`] is that search, generic over the
//! attainment probe (a phase simulator or the full-system simulator).
//! `served_attainment` is the full-system probe of a fixed deployment.

use distserve_cluster::Cluster;
use distserve_engine::{InstanceSpec, ServingSim, SimConfig};
use distserve_models::{CostModel, DType, ModelArch};

use crate::alg1::SearchParams;
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// Number of requests a goodput probe at `rate` should simulate.
///
/// Short bursts overstate goodput: a whole small trace can fit in one
/// decoding batch, so queueing never reaches steady state. Probes
/// therefore cover at least [`PROBE_SECS`] of simulated arrivals (capped
/// to keep the search bounded), never fewer than `min_requests`.
#[must_use]
pub fn probe_count(rate: f64, min_requests: usize) -> usize {
    probe_count_with(rate, min_requests, PROBE_SECS)
}

/// [`probe_count`] with an explicit probe duration.
#[must_use]
pub fn probe_count_with(rate: f64, min_requests: usize, probe_secs: f64) -> usize {
    let by_duration = (rate * probe_secs) as usize;
    by_duration.clamp(min_requests, MAX_PROBE_REQUESTS)
}

/// Simulated seconds of arrivals per goodput probe.
pub const PROBE_SECS: f64 = 60.0;

/// Upper bound on requests per probe (keeps the search bounded even when
/// the doubling phase visits very high rates).
pub const MAX_PROBE_REQUESTS: usize = 8_000;

/// One full-simulator probe: the SLO attainment of the fixed deployment
/// `specs` on `cluster` serving a [`probe_count_with`]-request trace of
/// `source` at `rate`. `0.0` when the simulator rejects the deployment.
/// Algorithm 2 probes its units and vLLM++ its colocated instances with it.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub(crate) fn served_attainment(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    dtype: DType,
    specs: &[InstanceSpec],
    source: &dyn TraceSource,
    slo: SloSpec,
    rate: f64,
    params: &SearchParams,
) -> f64 {
    let mut cfg = SimConfig::new(arch.clone());
    cfg.dtype = dtype;
    cfg.seed = params.seed;
    let Ok(sim) = ServingSim::new(cfg, cost, cluster, specs.to_vec()) else {
        return 0.0;
    };
    let n = probe_count_with(rate, params.probe_requests, params.probe_secs);
    let trace = source.make_trace(rate, n, params.seed);
    sim.run(&trace).attainment(slo.ttft, slo.tpot)
}

/// Finds the largest rate `r` (requests/second) with `probe(r) >= target`.
///
/// `probe` must be (approximately) non-increasing in the rate. The search
/// doubles upward from `hi_start` to bracket the knee, then bisects for
/// `iters` rounds. Returns `0.0` when even the smallest probed rate fails.
///
/// # Examples
///
/// ```
/// use distserve_placement::max_goodput;
///
/// // A synthetic system that degrades linearly and crosses 90% at 5 rps.
/// let probe = |r: f64| (1.0 - r / 50.0).max(0.0);
/// let g = max_goodput(probe, 0.9, 1.0, 20);
/// assert!((g - 5.0).abs() < 0.05, "goodput {g}");
/// ```
#[must_use]
pub fn max_goodput(
    mut probe: impl FnMut(f64) -> f64,
    target: f64,
    hi_start: f64,
    iters: u32,
) -> f64 {
    debug_assert!(target > 0.0 && target <= 1.0);
    let hi_start = hi_start.max(1e-3);

    // Bracket: find a passing lower bound and a failing upper bound.
    let mut lo;
    let mut hi = hi_start;
    if probe(hi) >= target {
        lo = hi;
        loop {
            hi *= 2.0;
            if hi > 65_536.0 {
                // Effectively unbounded for any realistic serving rate.
                return lo;
            }
            if probe(hi) < target {
                break;
            }
            lo = hi;
        }
    } else {
        // Even hi_start fails; search downward for any passing rate.
        lo = 0.0;
        let mut probe_rate = hi_start / 2.0;
        while probe_rate > hi_start / 1024.0 {
            if probe(probe_rate) >= target {
                lo = probe_rate;
                break;
            }
            hi = probe_rate;
            probe_rate /= 2.0;
        }
        if lo == 0.0 {
            return 0.0;
        }
    }

    // Bisection.
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if probe(mid) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_step_knee() {
        // Hard step at 7.3 rps.
        let g = max_goodput(|r| if r <= 7.3 { 1.0 } else { 0.0 }, 0.9, 1.0, 24);
        assert!((g - 7.3).abs() < 0.01, "goodput {g}");
    }

    #[test]
    fn zero_when_always_failing() {
        assert_eq!(max_goodput(|_| 0.0, 0.9, 1.0, 16), 0.0);
    }

    #[test]
    fn caps_unbounded_probes() {
        let g = max_goodput(|_| 1.0, 0.9, 1.0, 16);
        assert!(g >= 32_768.0, "unbounded goodput {g}");
    }

    #[test]
    fn finds_knee_below_start() {
        // Knee at 0.2 rps, far below the 1.0 starting bracket.
        let g = max_goodput(|r| if r <= 0.2 { 1.0 } else { 0.5 }, 0.9, 1.0, 24);
        assert!((g - 0.2).abs() < 0.01, "goodput {g}");
    }

    #[test]
    fn probe_count_is_bounded() {
        let mut count = 0;
        let _ = max_goodput(
            |r| {
                count += 1;
                if r < 3.0 {
                    1.0
                } else {
                    0.0
                }
            },
            0.9,
            1.0,
            12,
        );
        assert!(count <= 20, "used {count} probes");
    }
}
