//! Prefill batch formation (§4.3, "Reducing pipeline bubbles").
//!
//! The scheduler targets a per-batch token total close to the saturation
//! threshold `L_m`: requests shorter than `L_m` are batched together until
//! the budget is reached; requests at or beyond `L_m` are scheduled alone.
//! This balances execution time across pipeline batches (fewer bubbles)
//! without sacrificing GPU efficiency (§3.1: past `L_m`, batching only
//! delays co-scheduled requests).
//!
//! Two queue disciplines are provided. [`QueueDiscipline::Fcfs`] is what
//! DistServe ships (§4.3) and suffers the *convoy effect* the paper
//! acknowledges: one long prompt at the head blocks short ones behind it.
//! [`QueueDiscipline::Sjf`] (shortest-job-first, the job-level core of
//! the preemptive schedulers the paper cites as complementary, e.g.
//! FastServe \[41\]) reorders by prompt length and mitigates the convoy at
//! the cost of possible starvation of long prompts under overload.

use std::collections::VecDeque;

use distserve_telemetry::{metrics, TelemetrySink, TrackId};
use distserve_workload::RequestId;

/// Order in which queued prefill work is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-come-first-served — DistServe's shipped policy (§4.3).
    #[default]
    Fcfs,
    /// Shortest-job-first by prompt length — convoy-effect mitigation.
    Sjf,
}

/// A queued prefill work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillItem {
    /// Which request.
    pub id: RequestId,
    /// Its prompt length, tokens.
    pub input_len: u32,
}

/// FCFS prefill queue with token-budget batch formation.
///
/// # Examples
///
/// ```
/// use distserve_engine::batching::{PrefillItem, PrefillQueue};
/// use distserve_workload::RequestId;
///
/// let mut q = PrefillQueue::new(512);
/// for (i, len) in [200u32, 200, 200].iter().enumerate() {
///     q.push(PrefillItem { id: RequestId(i as u64), input_len: *len });
/// }
/// // 200 + 200 fits the 512 budget; adding the third would exceed it.
/// let batch = q.form_batch(|_| true).unwrap();
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PrefillQueue {
    queue: VecDeque<PrefillItem>,
    token_budget: u32,
    discipline: QueueDiscipline,
}

/// Most requests one prefill batch holds, whatever its token budget.
const MAX_BATCH: usize = 16;

impl PrefillQueue {
    /// Creates an FCFS queue with a token budget of `l_m` per batch and a
    /// cap of 16 requests per batch.
    #[must_use]
    pub fn new(l_m: u32) -> Self {
        PrefillQueue {
            queue: VecDeque::new(),
            token_budget: l_m.max(1),
            discipline: QueueDiscipline::Fcfs,
        }
    }

    /// Overrides the queue discipline.
    #[must_use]
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Enqueues a request. Under SJF the queue stays sorted by prompt
    /// length (ties arrival-ordered, keeping the discipline fair among
    /// equals and deterministic).
    pub fn push(&mut self, item: PrefillItem) {
        match self.discipline {
            QueueDiscipline::Fcfs => self.queue.push_back(item),
            QueueDiscipline::Sjf => {
                let pos = self
                    .queue
                    .partition_point(|q| q.input_len <= item.input_len);
                self.queue.insert(pos, item);
            }
        }
    }

    /// Queue length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total queued tokens (load metric for shortest-queue dispatch).
    #[must_use]
    pub fn queued_tokens(&self) -> u64 {
        self.queue.iter().map(|i| u64::from(i.input_len)).sum()
    }

    /// Peeks at the head request without removing it (used by the
    /// chunked-prefill scheduler, which consumes requests incrementally).
    #[must_use]
    pub fn front(&self) -> Option<&PrefillItem> {
        self.queue.front()
    }

    /// Removes and returns the head request.
    pub fn pop_front(&mut self) -> Option<PrefillItem> {
        self.queue.pop_front()
    }

    /// Removes and returns every queued item in queue order. Used by
    /// fault recovery: when the owning instance dies, its queue must be
    /// re-dispatched to survivors wholesale.
    pub fn drain_all(&mut self) -> Vec<PrefillItem> {
        self.queue.drain(..).collect()
    }

    /// Publishes the queue's depth gauges — request count and queued
    /// tokens — for `instance` into `sink`. Call after any push or batch
    /// formation so the exported gauges track the latest state.
    pub fn emit_depth(&self, sink: &dyn TelemetrySink, instance: TrackId) {
        sink.gauge_set(metrics::PREFILL_QUEUE_DEPTH, instance, self.len() as f64);
        sink.gauge_set(
            metrics::PREFILL_QUEUE_TOKENS,
            instance,
            self.queued_tokens() as f64,
        );
    }

    /// Forms the next batch per the `L_m` policy. `admit` is consulted per
    /// request (typically a KV-capacity check); a rejected *head* request
    /// blocks the queue (FCFS — §4.3 notes the convoy effect this keeps).
    ///
    /// Returns `None` when no batch can be formed.
    pub fn form_batch(
        &mut self,
        mut admit: impl FnMut(&PrefillItem) -> bool,
    ) -> Option<Vec<PrefillItem>> {
        let head = *self.queue.front()?;
        if !admit(&head) {
            return None;
        }
        let mut batch = vec![self.queue.pop_front().expect("head exists")];
        let mut tokens = head.input_len;
        // A head at or past the budget runs alone.
        while tokens < self.token_budget && batch.len() < MAX_BATCH {
            let Some(next) = self.queue.front() else {
                break;
            };
            if tokens + next.input_len > self.token_budget {
                break;
            }
            if !admit(next) {
                break;
            }
            tokens += next.input_len;
            batch.push(self.queue.pop_front().expect("peeked"));
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u64, len: u32) -> PrefillItem {
        PrefillItem {
            id: RequestId(id),
            input_len: len,
        }
    }

    #[test]
    fn long_head_runs_alone() {
        let mut q = PrefillQueue::new(512);
        q.push(item(0, 1024));
        q.push(item(1, 100));
        let batch = q.form_batch(|_| true).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, RequestId(0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn short_requests_pack_to_budget() {
        let mut q = PrefillQueue::new(512);
        for i in 0..6 {
            q.push(item(i, 128));
        }
        let batch = q.form_batch(|_| true).unwrap();
        assert_eq!(batch.len(), 4); // 4 × 128 = 512.
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn budget_not_exceeded() {
        let mut q = PrefillQueue::new(512);
        q.push(item(0, 300));
        q.push(item(1, 300));
        let batch = q.form_batch(|_| true).unwrap();
        // 300 + 300 > 512: second stays queued.
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn fcfs_order_preserved() {
        let mut q = PrefillQueue::new(1000);
        for i in 0..5 {
            q.push(item(i, 100));
        }
        let batch = q.form_batch(|_| true).unwrap();
        let ids: Vec<u64> = batch.iter().map(|b| b.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rejected_head_blocks_queue() {
        let mut q = PrefillQueue::new(512);
        q.push(item(0, 400));
        q.push(item(1, 50));
        assert!(q.form_batch(|_| false).is_none());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn rejected_follower_truncates_batch() {
        let mut q = PrefillQueue::new(512);
        q.push(item(0, 100));
        q.push(item(1, 100));
        let batch = q.form_batch(|i| i.id == RequestId(0)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn max_batch_cap() {
        let mut q = PrefillQueue::new(10_000);
        for i in 0..20 {
            q.push(item(i, 10));
        }
        let batch = q.form_batch(|_| true).unwrap();
        assert_eq!(batch.len(), 16);
    }

    #[test]
    fn queued_tokens_metric() {
        let mut q = PrefillQueue::new(512);
        q.push(item(0, 100));
        q.push(item(1, 250));
        assert_eq!(q.queued_tokens(), 350);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_yields_none() {
        let mut q = PrefillQueue::new(512);
        assert!(q.form_batch(|_| true).is_none());
    }

    #[test]
    fn sjf_reorders_by_length() {
        let mut q = PrefillQueue::new(512).with_discipline(QueueDiscipline::Sjf);
        q.push(item(0, 1500));
        q.push(item(1, 100));
        q.push(item(2, 300));
        q.push(item(3, 100));
        // Shortest first; equal lengths keep arrival order.
        let batch = q.form_batch(|_| true).unwrap();
        let ids: Vec<u64> = batch.iter().map(|b| b.id.0).collect();
        assert_eq!(ids, vec![1, 3, 2]); // 100 + 100 + 300 = 500 <= 512.
                                        // The convoy-causing long prompt runs last, alone.
        let batch = q.form_batch(|_| true).unwrap();
        assert_eq!(batch[0].id, RequestId(0));
    }

    #[test]
    fn fcfs_suffers_convoy_sjf_does_not() {
        // A long head blocks short requests under FCFS but not SJF.
        let mut fcfs = PrefillQueue::new(256);
        let mut sjf = PrefillQueue::new(256).with_discipline(QueueDiscipline::Sjf);
        for q in [&mut fcfs, &mut sjf] {
            q.push(item(0, 2000));
            q.push(item(1, 50));
        }
        assert_eq!(fcfs.form_batch(|_| true).unwrap()[0].id, RequestId(0));
        assert_eq!(sjf.form_batch(|_| true).unwrap()[0].id, RequestId(1));
    }
}
