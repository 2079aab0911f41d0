//! Per-request lifecycle records and latency breakdown.
//!
//! §6.3 divides a request's life in DistServe into five stages: prefill
//! queuing, prefill execution, transmission, decoding queuing, and
//! decoding execution. [`RequestRecord`] captures the timestamps at every
//! boundary; [`StageBreakdown`] derives the five durations, and the TTFT /
//! TPOT metrics that SLO attainment is judged on come straight from the
//! same timestamps.

use distserve_simcore::SimTime;
use distserve_workload::{Request, RequestId};

/// Completed-request timestamps, ordered `arrival ≤ prefill_start ≤
/// first_token ≤ transfer_done ≤ decode_start ≤ completion`, so the five
/// stages sum to the request's latency. When a fault forces a request
/// that already decoded to prefill again, its stamps keep describing the
/// attempt that delivered the first token, and the recovery counts as
/// decoding execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request identity.
    pub id: RequestId,
    /// Prompt length, tokens.
    pub input_len: u32,
    /// Output length, tokens (first token included).
    pub output_len: u32,
    /// Arrival at the controller.
    pub arrival: SimTime,
    /// Prefill execution began (batch containing the request launched).
    pub prefill_start: SimTime,
    /// First output token emitted (prefill finished) — defines TTFT.
    pub first_token: SimTime,
    /// KV cache fully arrived at the decoding instance. Equals
    /// `first_token` for colocated serving.
    pub transfer_done: SimTime,
    /// First decoding iteration containing the request launched.
    pub decode_start: SimTime,
    /// Last output token emitted.
    pub completion: SimTime,
    /// Pure wire time of the KV transfer, excluding the wait to be pulled
    /// (Figure 10b plots the CDF of this).
    pub transfer_active: f64,
}

impl RequestRecord {
    /// Time to first token: arrival → first token, queueing included.
    #[must_use]
    pub fn ttft(&self) -> f64 {
        self.first_token.since(self.arrival)
    }

    /// Time per output token: mean gap over the decoding phase
    /// (`output_len - 1` tokens after the first). Zero for single-token
    /// outputs, which trivially satisfy any TPOT SLO.
    #[must_use]
    pub fn tpot(&self) -> f64 {
        if self.output_len <= 1 {
            return 0.0;
        }
        self.completion.since(self.first_token) / f64::from(self.output_len - 1)
    }

    /// End-to-end latency: arrival → completion.
    #[must_use]
    pub fn total_latency(&self) -> f64 {
        self.completion.since(self.arrival)
    }

    /// The five-stage breakdown of Figure 10.
    #[must_use]
    pub fn breakdown(&self) -> StageBreakdown {
        StageBreakdown {
            prefill_queue: self.prefill_start.since(self.arrival),
            prefill_exec: self.first_token.since(self.prefill_start),
            transfer: self.transfer_done.since(self.first_token),
            decode_queue: self.decode_start.since(self.transfer_done),
            decode_exec: self.completion.since(self.decode_start),
        }
    }
}

/// Durations of the five lifecycle stages (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Waiting for prefill execution.
    pub prefill_queue: f64,
    /// Prefill execution.
    pub prefill_exec: f64,
    /// KV-cache transmission (including waiting to be pulled).
    pub transfer: f64,
    /// Waiting for the first decoding iteration.
    pub decode_queue: f64,
    /// Decoding execution.
    pub decode_exec: f64,
}

impl StageBreakdown {
    /// Sum of all stages — the request's total latency.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.prefill_queue
            + self.prefill_exec
            + self.transfer
            + self.decode_queue
            + self.decode_exec
    }

    /// Accumulates another request's breakdown (for Figure 10's
    /// aggregate proportions).
    pub fn accumulate(&mut self, other: &StageBreakdown) {
        self.prefill_queue += other.prefill_queue;
        self.prefill_exec += other.prefill_exec;
        self.transfer += other.transfer;
        self.decode_queue += other.decode_queue;
        self.decode_exec += other.decode_exec;
    }
}

/// Where a request currently is in its lifecycle (engine-internal).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestPhase {
    /// Waiting in a prefill (or colocated) queue.
    WaitingPrefill,
    /// Inside a running prefill batch.
    Prefilling,
    /// Prefill done; waiting for / undergoing KV transfer.
    Transferring,
    /// Active in a decoding instance.
    Decoding {
        /// Tokens generated so far (including the first).
        generated: u32,
    },
    /// All tokens emitted.
    Done,
}

/// Mutable per-request state tracked by the simulator.
#[derive(Debug, Clone)]
pub struct RequestState {
    /// The underlying trace request.
    pub request: Request,
    /// Current phase.
    pub phase: RequestPhase,
    /// Timestamps populated as the request advances.
    pub prefill_start: SimTime,
    /// Prefill completion (first token).
    pub first_token: SimTime,
    /// Transfer completion.
    pub transfer_done: SimTime,
    /// First decoding iteration launch.
    pub decode_start: SimTime,
    /// Final token emission.
    pub completion: SimTime,
    /// Pure wire time of the KV transfer.
    pub transfer_active: f64,
    /// Retries charged against the request's budget (fault recovery).
    pub retries: u32,
    /// Tokens already delivered before a decode-side failure forced a
    /// re-prefill. Zero for fresh requests. Delivered tokens are never
    /// re-emitted: decoding resumes at `resume_generated + 1`.
    pub resume_generated: u32,
    /// KV-transfer attempts for the current migration (backoff ladder).
    pub transfer_attempt: u32,
    /// Prompt tokens a prefix cache already holds for this request
    /// (analytic hit model, drawn at arrival): they skip prefill compute
    /// but still occupy KV memory, and the cached radix nodes outlive
    /// the sequence so fault-driven recomputations keep the discount.
    pub cached_tokens: u32,
}

impl RequestState {
    /// Initializes state for a newly arrived request.
    #[must_use]
    pub fn new(request: Request) -> Self {
        let t = request.arrival;
        RequestState {
            request,
            phase: RequestPhase::WaitingPrefill,
            prefill_start: t,
            first_token: t,
            transfer_done: t,
            decode_start: t,
            completion: t,
            transfer_active: 0.0,
            retries: 0,
            resume_generated: 0,
            transfer_attempt: 0,
            cached_tokens: 0,
        }
    }

    /// Prompt tokens the next prefill pass must process: the original
    /// input plus any already-delivered output being recomputed after a
    /// decode-side KV loss.
    #[must_use]
    pub fn prefill_len(&self) -> u32 {
        self.request.input_len + self.resume_generated
    }

    /// Prompt tokens the next prefill pass must actually *compute*:
    /// [`RequestState::prefill_len`] minus the prefix-cached tokens. KV
    /// allocation always uses the full length — cached blocks are shared,
    /// not absent.
    #[must_use]
    pub fn billed_prefill_len(&self) -> u32 {
        self.prefill_len()
            - self
                .cached_tokens
                .min(self.request.input_len.saturating_sub(1))
    }

    /// Freezes the state into an immutable record.
    ///
    /// # Panics
    ///
    /// Panics if the request has not completed — records of in-flight
    /// requests would silently corrupt attainment statistics.
    #[must_use]
    pub fn into_record(self) -> RequestRecord {
        assert!(
            matches!(self.phase, RequestPhase::Done),
            "request {} not complete",
            self.request.id
        );
        RequestRecord {
            id: self.request.id,
            input_len: self.request.input_len,
            output_len: self.request.output_len,
            arrival: self.request.arrival,
            prefill_start: self.prefill_start,
            first_token: self.first_token,
            transfer_done: self.transfer_done,
            decode_start: self.decode_start,
            completion: self.completion,
            transfer_active: self.transfer_active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        RequestRecord {
            id: RequestId(1),
            input_len: 512,
            output_len: 65,
            arrival: SimTime::from_secs(10.0),
            prefill_start: SimTime::from_secs(10.1),
            first_token: SimTime::from_secs(10.2),
            transfer_done: SimTime::from_secs(10.25),
            decode_start: SimTime::from_secs(10.3),
            completion: SimTime::from_secs(11.48),
            transfer_active: 0.04,
        }
    }

    #[test]
    fn ttft_tpot() {
        let r = record();
        assert!((r.ttft() - 0.2).abs() < 1e-12);
        // 64 decoding tokens over 1.28 s → 20 ms TPOT.
        assert!((r.tpot() - 0.02).abs() < 1e-12);
        assert!((r.total_latency() - 1.48).abs() < 1e-12);
    }

    #[test]
    fn single_token_tpot_zero() {
        let mut r = record();
        r.output_len = 1;
        assert_eq!(r.tpot(), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let r = record();
        let b = r.breakdown();
        assert!((b.total() - r.total_latency()).abs() < 1e-12);
        assert!((b.prefill_queue - 0.1).abs() < 1e-12);
        assert!((b.transfer - 0.05).abs() < 1e-12);
    }

    #[test]
    fn breakdown_accumulate() {
        let r = record();
        let mut acc = StageBreakdown::default();
        acc.accumulate(&r.breakdown());
        acc.accumulate(&r.breakdown());
        assert!((acc.total() - 2.0 * r.total_latency()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not complete")]
    fn incomplete_request_cannot_freeze() {
        let req = Request {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            input_len: 10,
            output_len: 10,
            tenant: 0,
        };
        let state = RequestState::new(req);
        let _ = state.into_record();
    }

    #[test]
    fn state_transitions_to_record() {
        let req = Request {
            id: RequestId(0),
            arrival: SimTime::from_secs(1.0),
            input_len: 10,
            output_len: 2,
            tenant: 0,
        };
        let mut state = RequestState::new(req);
        state.phase = RequestPhase::Done;
        state.first_token = SimTime::from_secs(1.5);
        state.completion = SimTime::from_secs(1.6);
        let rec = state.into_record();
        assert!((rec.ttft() - 0.5).abs() < 1e-12);
        assert!((rec.tpot() - 0.1).abs() < 1e-12);
    }
}
