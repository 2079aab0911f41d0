//! Request traces.
//!
//! A trace is the input to every serving experiment: a time-ordered list
//! of requests, each with an arrival instant, a prompt length, and an
//! output length (§6.1: lengths sampled from a dataset, arrivals from a
//! Poisson process at a target rate).

use distserve_simcore::{SimRng, SimTime};

use crate::arrival::ArrivalProcess;
use crate::datasets::LengthSampler;

/// Unique identifier of a request within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One serving request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Identifier, unique within the trace.
    pub id: RequestId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Number of tokens the request will generate (the first is produced
    /// by prefill, the remaining `output_len - 1` by decoding steps).
    pub output_len: u32,
    /// Tenant the request belongs to: the index of its
    /// `stream::TenantSpec` in a multi-tenant mix, `0` for single-tenant
    /// workloads.
    pub tenant: u32,
}

impl Request {
    /// Total tokens resident in the KV cache once the request finishes.
    #[must_use]
    pub fn final_context_len(&self) -> u32 {
        self.input_len + self.output_len
    }
}

/// A time-ordered collection of requests.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Builds a trace from requests, sorting by arrival time.
    #[must_use]
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
        Trace { requests }
    }

    /// The requests in arrival order.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Time span from first to last arrival, seconds.
    #[must_use]
    pub fn span(&self) -> f64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.arrival - first.arrival,
            _ => 0.0,
        }
    }

    /// Observed average arrival rate, requests per second.
    #[must_use]
    pub fn observed_rate(&self) -> f64 {
        let span = self.span();
        if span <= 0.0 {
            0.0
        } else {
            (self.len() as f64 - 1.0) / span
        }
    }

    /// Mean prompt length in tokens.
    #[must_use]
    pub fn mean_input_len(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| f64::from(r.input_len))
            .sum::<f64>()
            / self.len() as f64
    }

    /// Mean output length in tokens.
    #[must_use]
    pub fn mean_output_len(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| f64::from(r.output_len))
            .sum::<f64>()
            / self.len() as f64
    }
}

/// Builds traces from a length sampler and an arrival process.
///
/// # Examples
///
/// ```
/// use distserve_simcore::SimRng;
/// use distserve_workload::{Dataset, TraceBuilder};
///
/// let mut rng = SimRng::seed(1);
/// let trace = TraceBuilder::new(Dataset::HumanEval.sampler())
///     .rate(4.0)
///     .duration_secs(30.0)
///     .build(&mut rng);
/// assert!(trace.observed_rate() > 2.0);
/// ```
pub struct TraceBuilder {
    sampler: Box<dyn LengthSampler>,
    arrival: ArrivalProcess,
    stop: StopRule,
}

enum StopRule {
    Count(usize),
    Duration(f64),
}

impl TraceBuilder {
    /// Creates a builder over the given length sampler; defaults to a
    /// Poisson process at 1 rps and 1000 requests.
    #[must_use]
    pub fn new(sampler: Box<dyn LengthSampler>) -> Self {
        TraceBuilder {
            sampler,
            arrival: ArrivalProcess::poisson(1.0),
            stop: StopRule::Count(1000),
        }
    }

    /// Uses a Poisson arrival process at `rate` requests per second.
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        self.arrival = ArrivalProcess::poisson(rate);
        self
    }

    /// Uses an explicit arrival process (e.g. bursty gamma arrivals).
    #[must_use]
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Stops after `n` requests.
    #[must_use]
    pub fn num_requests(mut self, n: usize) -> Self {
        self.stop = StopRule::Count(n);
        self
    }

    /// Stops once arrivals pass `secs` seconds.
    #[must_use]
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.stop = StopRule::Duration(secs);
        self
    }

    /// Generates the trace. Arrival times and lengths draw from split
    /// sub-streams of `rng`, so adding one knob never perturbs the other.
    #[must_use]
    pub fn build(&self, rng: &mut SimRng) -> Trace {
        let mut arrival_rng = rng.split("arrivals");
        let mut length_rng = rng.split("lengths");
        let mut t = SimTime::ZERO;
        let mut requests = Vec::new();
        let mut id = 0u64;
        loop {
            match self.stop {
                StopRule::Count(n) if requests.len() >= n => break,
                StopRule::Duration(_) => {}
                StopRule::Count(_) => {}
            }
            t = t.after(self.arrival.next_gap(&mut arrival_rng));
            if let StopRule::Duration(d) = self.stop {
                if t.as_secs() > d {
                    break;
                }
            }
            let (input_len, output_len) = self.sampler.sample(&mut length_rng);
            requests.push(Request {
                id: RequestId(id),
                arrival: t,
                input_len,
                output_len,
                tenant: 0,
            });
            id += 1;
        }
        Trace::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    #[test]
    fn trace_sorted_by_arrival() {
        let reqs = vec![
            Request {
                id: RequestId(1),
                arrival: SimTime::from_secs(5.0),
                input_len: 10,
                output_len: 5,
                tenant: 0,
            },
            Request {
                id: RequestId(0),
                arrival: SimTime::from_secs(1.0),
                input_len: 20,
                output_len: 5,
                tenant: 0,
            },
        ];
        let trace = Trace::new(reqs);
        assert_eq!(trace.requests()[0].id, RequestId(0));
        assert_eq!(trace.span(), 4.0);
    }

    #[test]
    fn builder_count_rule() {
        let mut rng = SimRng::seed(42);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(10.0)
            .num_requests(250)
            .build(&mut rng);
        assert_eq!(trace.len(), 250);
        // Observed rate should be near the nominal 10 rps.
        assert!(
            (trace.observed_rate() - 10.0).abs() < 2.0,
            "{}",
            trace.observed_rate()
        );
    }

    #[test]
    fn builder_duration_rule() {
        let mut rng = SimRng::seed(43);
        let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
            .rate(5.0)
            .duration_secs(100.0)
            .build(&mut rng);
        assert!(trace.span() <= 100.0);
        // Expect roughly 500 arrivals in 100 s at 5 rps.
        assert!((400..600).contains(&trace.len()), "{}", trace.len());
    }

    #[test]
    fn builder_is_deterministic() {
        let build = || {
            let mut rng = SimRng::seed(7);
            TraceBuilder::new(Dataset::LongBench.sampler())
                .rate(2.0)
                .num_requests(50)
                .build(&mut rng)
        };
        let a = build();
        let b = build();
        assert_eq!(a.requests(), b.requests());
    }

    #[test]
    fn mean_lengths_positive() {
        let mut rng = SimRng::seed(11);
        let trace = TraceBuilder::new(Dataset::HumanEval.sampler())
            .num_requests(100)
            .build(&mut rng);
        assert!(trace.mean_input_len() > 0.0);
        assert!(trace.mean_output_len() > 0.0);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.span(), 0.0);
        assert_eq!(t.observed_rate(), 0.0);
        assert_eq!(t.mean_input_len(), 0.0);
    }

    #[test]
    fn final_context_len() {
        let r = Request {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            input_len: 512,
            output_len: 64,
            tenant: 0,
        };
        assert_eq!(r.final_context_len(), 576);
    }
}
