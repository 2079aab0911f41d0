//! Discrete-event simulation kernel and statistics utilities for DistServe-RS.
//!
//! This crate provides the foundational substrate every other crate builds
//! on:
//!
//! * [`SimTime`] — simulated wall-clock time (seconds, total order).
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   tie-breaking.
//! * [`rng`] — seedable deterministic random number generation with stream
//!   splitting, so concurrent components draw from independent streams.
//! * [`stats`] — streaming summaries, exact percentiles, histograms, and
//!   CDFs used by the serving metrics and experiment harnesses.
//! * [`hash`] — a deterministic multiply-rotate hasher for the
//!   simulators' integer-keyed maps, replacing SipHash on hot paths.
//!
//! # Examples
//!
//! ```
//! use distserve_simcore::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_secs(2.0), "second");
//! q.push(SimTime::from_secs(1.0), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_secs(1.0), "first"));
//! ```

pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use hash::{FastHashMap, FxHasher};
pub use rng::SimRng;
pub use stats::{Cdf, Histogram, Summary};
pub use time::SimTime;
