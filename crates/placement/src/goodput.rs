//! Goodput measurement: binary search for the maximum rate meeting the
//! SLO attainment target.
//!
//! §4.1: "DistServe simply enumerates the placements via binary search and
//! finds the maximum rate that meets the SLO attainment target with
//! simulation trials." [`max_goodput`] is that search, generic over the
//! attainment probe (a phase simulator or the full-system simulator).
//! [`served_goodput`] is that search over full-system probes of a fixed
//! deployment, and `best_per_gpu` every algorithm's pick among scored
//! candidates.

use distserve_cluster::Cluster;
use distserve_engine::{InstanceSpec, ServingSim, SimConfig};
use distserve_models::{CostModel, ModelArch};

use crate::alg1::SearchParams;
use crate::slo::SloSpec;
use crate::source::TraceSource;

/// Upper bound on requests per probe (keeps the search bounded even when
/// the doubling phase visits very high rates; see
/// [`SearchParams::probe_trace`]).
pub const MAX_PROBE_REQUESTS: usize = 8_000;

/// The goodput of the fixed deployment `specs` on `cluster`,
/// requests/second: the largest rate whose full-simulator SLO attainment
/// meets `slo.target`, bisected for `params.search_iters` rounds from
/// 0.5 rps. Each probe serves `params`' probe trace of `source` (at least
/// `params.probe_requests`, covering `params.probe_secs`), trace and
/// simulator both seeded with `params.seed`; `0.0` when the simulator
/// rejects the deployment. Algorithm 2 measures its units, vLLM++ its
/// colocated instances and the figure harnesses their fixed deployments
/// with it.
#[must_use]
pub fn served_goodput(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    specs: &[InstanceSpec],
    source: &dyn TraceSource,
    slo: SloSpec,
    params: &SearchParams,
) -> f64 {
    let attainment = |rate| {
        let cfg = SimConfig::new(arch.clone()).with_seed(params.seed);
        let Ok(sim) = ServingSim::new(cfg, cost, cluster, specs.to_vec()) else {
            return 0.0;
        };
        sim.run(&params.probe_trace(source, rate))
            .attainment(slo.ttft, slo.tpot)
    };
    max_goodput(attainment, slo.target, 0.5, params.search_iters)
}

/// The scored candidate with the highest goodput per GPU (`gpus` counts
/// a candidate's GPUs), the last of equals in candidate order; `None`
/// when there is no candidate or the best goodput is not positive.
pub(crate) fn best_per_gpu<C>(
    scored: impl IntoIterator<Item = (C, f64)>,
    gpus: impl Fn(&C) -> u32,
) -> Option<(C, f64)> {
    let per_gpu = |(c, g): &(C, f64)| g / f64::from(gpus(c));
    scored
        .into_iter()
        .max_by(|a, b| per_gpu(a).total_cmp(&per_gpu(b)))
        .filter(|&(_, g)| g > 0.0)
}

/// Replicas of a `goodput`-rps instance or unit that carry `rate`: at
/// least one.
pub(crate) fn replicas(rate: f64, goodput: f64) -> u32 {
    (rate / goodput).ceil().max(1.0) as u32
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
