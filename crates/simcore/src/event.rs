//! Deterministic future-event list.
//!
//! The event queue is the heart of the discrete-event simulator. Events are
//! popped in non-decreasing time order; events scheduled for the same
//! instant pop in insertion order (FIFO), which makes every simulation run
//! bit-for-bit reproducible regardless of heap internals.
//!
//! Both rules fold into one integer key per entry: the time's IEEE-754 bit
//! pattern in the high 64 bits and the push sequence number in the low 64.
//! For the finite, non-negative times [`SimTime`] holds, the bit patterns
//! order exactly like the times, so comparing keys as `u128` is the
//! `(time, seq)` order without a float comparison in the heap's sift loops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the future-event list.
#[derive(Debug)]
struct Entry<E> {
    /// `time bits << 64 | seq` (see the module docs).
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime::from_bits((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse so the earliest (and, within a
        // tie, the first-inserted) entry is the maximum.
        other.key.cmp(&self.key)
    }
}

/// A future-event list with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use distserve_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1.0), "a");
/// q.push(SimTime::from_secs(1.0), "b");
/// q.push(SimTime::from_secs(0.5), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["c", "a", "b"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Scheduling into the past is a logic error in the caller; in debug
    /// builds it is caught by an assertion, in release builds the event is
    /// clamped to `now` so the simulation clock never runs backwards.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, event);
    }

    /// Sets aside the next `n` sequence numbers and returns the first.
    ///
    /// An event later pushed with [`EventQueue::push_reserved`] under one
    /// of them gets the key it would have had if pushed now, so it pops
    /// in the same place as long as it enters the queue before any event
    /// keyed after it pops. A simulator feeds a time-sorted trace this
    /// way, one arrival at a time: reserve a number per request up
    /// front, then push arrival `i + 1` when arrival `i` pops. Every pop
    /// matches pushing the whole trace first, while the queue holds only
    /// one pending arrival.
    pub fn reserve_seqs(&mut self, n: usize) -> u64 {
        let first = self.next_seq;
        self.next_seq += n as u64;
        first
    }

    /// Schedules `event` at absolute time `time` under `seq`, a number
    /// taken from [`EventQueue::reserve_seqs`]. Pushing into the past is
    /// handled as in [`EventQueue::push`].
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "sequence number {seq} is not reserved");
        self.push_keyed(time, seq, event);
    }

    fn push_keyed(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} before current time {}",
            self.now
        );
        // The clamp also keeps the key's sign bit clear: `now` starts at
        // `+0.0`, and `SimTime`'s order puts every valid time at or above it.
        let time = time.max(self.now);
        let key = u128::from(time.to_bits()) << 64 | u128::from(seq);
        self.heap.push(Entry { key, event });
    }

    /// Pops the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time();
        Some((self.now, entry.event))
    }

    /// Returns the time of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Entry::time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Push times with duplicates, both zeros, and a subnormal.
    const TIMES: [f64; 8] = [-0.0, 0.0, 5e-324, 0.5, 0.5, 1.0, 2.0, 7.25];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushing everything and then popping everything yields a stable
        /// sort by time: push order within equal times, `-0.0 == 0.0`.
        #[test]
        fn pops_equal_stable_sort(picks in prop::collection::vec(0usize..TIMES.len(), 0..64)) {
            let mut q = EventQueue::new();
            for (i, &p) in picks.iter().enumerate() {
                q.push(SimTime::from_secs(TIMES[p]), i);
            }
            let mut expected: Vec<(f64, usize)> =
                picks.iter().enumerate().map(|(i, &p)| (TIMES[p], i)).collect();
            expected.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
            let popped: Vec<(f64, usize)> =
                std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_secs(), i)).collect();
            prop_assert_eq!(popped.len(), expected.len());
            for (got, want) in popped.iter().zip(&expected) {
                prop_assert_eq!(got.1, want.1);
                // `-0.0 + 0.0` is `+0.0`: a pushed `-0.0` pops as zero.
                prop_assert_eq!(got.0.to_bits(), (want.0 + 0.0).to_bits());
            }
        }

        /// Interleaved pushes (at or after the clock) and pops match a
        /// model that pops the earliest time, first-pushed among equals.
        #[test]
        fn interleaved_pops_match_model(
            ops in prop::collection::vec((0usize..TIMES.len(), 0u8..3), 0..96),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(f64, usize)> = Vec::new();
            let check_pop = |q: &mut EventQueue<usize>, model: &mut Vec<(f64, usize)>| {
                let want = model
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("no NaN"))
                    .map(|(at, _)| at)
                    .map(|at| model.remove(at));
                let got = q.pop().map(|(t, i)| (t.as_secs(), i));
                prop_assert_eq!(got, want);
            };
            for (i, &(p, op)) in ops.iter().enumerate() {
                if op == 0 {
                    check_pop(&mut q, &mut model);
                } else {
                    let t = SimTime::from_secs(TIMES[p]).max(q.now());
                    q.push(t, i);
                    model.push((t.as_secs(), i));
                }
            }
            while !model.is_empty() {
                check_pop(&mut q, &mut model);
            }
            prop_assert!(q.is_empty());
        }

        /// Arrivals fed one at a time under reserved numbers (arrival
        /// `i + 1` pushed when arrival `i` pops), interleaved with other
        /// pushes and pops, pop exactly as if every arrival were pushed
        /// first.
        #[test]
        fn reserved_arrivals_pop_as_if_pushed_first(
            mut arrivals in prop::collection::vec(0usize..TIMES.len(), 0..32),
            ops in prop::collection::vec((0usize..TIMES.len(), 0u8..2), 0..96),
        ) {
            // `TIMES` ascends, so sorted picks are a time-sorted trace.
            arrivals.sort_unstable();
            let at = |p: usize| SimTime::from_secs(TIMES[p]);
            let n = arrivals.len();
            let mut eager = EventQueue::new();
            for (i, &p) in arrivals.iter().enumerate() {
                eager.push(at(p), i);
            }
            let mut lazy = EventQueue::new();
            let first = lazy.reserve_seqs(n);
            if let Some(&p) = arrivals.first() {
                lazy.push_reserved(at(p), first, 0);
            }
            let pop_both = |eager: &mut EventQueue<usize>, lazy: &mut EventQueue<usize>| {
                let got = lazy.pop();
                if let Some((_, i)) = got {
                    if i + 1 < n {
                        lazy.push_reserved(at(arrivals[i + 1]), first + i as u64 + 1, i + 1);
                    }
                }
                let want = eager.pop();
                let bits = |e: Option<(SimTime, usize)>| e.map(|(t, i)| (t.as_secs().to_bits(), i));
                prop_assert_eq!(bits(got), bits(want));
                prop_assert_eq!(lazy.now(), eager.now());
                got.is_some()
            };
            for (k, &(p, op)) in ops.iter().enumerate() {
                if op == 0 {
                    pop_both(&mut eager, &mut lazy);
                } else {
                    let t = at(p).max(eager.now());
                    eager.push(t, n + k);
                    lazy.push(t, n + k);
                }
            }
            while pop_both(&mut eager, &mut lazy) {}
            prop_assert!(eager.is_empty() && lazy.is_empty());
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, e) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            q.push(SimTime::from_secs(t), e);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for e in 0..100 {
            q.push(t, e);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1.0), ());
        q.push(SimTime::from_secs(0.5), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        // Two structurally identical runs must produce identical sequences.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.push(SimTime::from_secs(1.0), 1u32);
            q.push(SimTime::from_secs(1.0), 2);
            out.push(q.pop().unwrap().1);
            q.push(SimTime::from_secs(1.0), 3);
            while let Some((_, e)) = q.pop() {
                out.push(e);
            }
            out
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![1, 2, 3]);
    }
}
