//! Multi-turn and shared-prefix workload generators.
//!
//! The trace builders and streams model every request as independent,
//! but the two workloads that dominate real prefix-cache hit rates are
//! structured:
//!
//! * [`ChatSessionStream`] — multi-turn chatbot conversations. Each
//!   session re-sends its growing history every turn (system prompt +
//!   all prior turns + the new user message), so turn *k*'s prompt
//!   shares a long prefix with turn *k−1*'s. Branches (regenerated or
//!   edited replies) fork the conversation tree from an earlier history
//!   point.
//! * [`SharedPrefixMix`] — per-tenant shared system prompts. Every
//!   request of a tenant opens with the same `system_prompt_tokens`, the
//!   classic cross-request reuse case behind vLLM's prefix caching.
//!
//! Both are streaming generators in the [`crate::stream`] mold: state is
//! O(live sessions) / O(tenants) — independent of how many requests are
//! drawn (RSS regression-tested like [`crate::stream::RequestStream`]) —
//! and deterministic per seed. They yield [`SessionRequest`]s: a bare
//! [`Request`] plus side-band prefix metadata (`prefix_group`,
//! `history_tokens`) that cache-aware consumers (the router's scale
//! harness, the prefix-cache example) use without widening the `Request`
//! record itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use distserve_simcore::{SimRng, SimTime};

use crate::datasets::LengthSampler;
use crate::trace::{Request, RequestId};

/// Group ids below this belong to [`SharedPrefixMix`] tenants; session
/// lineages allocate upward from it.
pub const SESSION_GROUP_BASE: u64 = 1 << 32;

/// A request plus the prefix-sharing metadata its generator knows.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// The bare request (what the sim harnesses consume).
    pub request: Request,
    /// Stable identity of the content lineage this prompt's reusable
    /// prefix belongs to: a tenant's system prompt for first turns and
    /// [`SharedPrefixMix`] requests, the conversation for later turns.
    /// 0 = no reusable prefix.
    pub prefix_group: u64,
    /// Leading prompt tokens that were already sent (and decoded) by an
    /// earlier request of the same group — the upper bound on what a
    /// prefix cache can serve without recompute.
    pub history_tokens: u32,
    /// Turn index within the conversation (0 = opening turn; always 0
    /// for [`SharedPrefixMix`]).
    pub turn: u32,
}

/// Configuration for [`ChatSessionStream`].
#[derive(Debug, Clone, Copy)]
pub struct ChatConfig {
    /// New conversations per second (Poisson).
    pub session_rate: f64,
    /// Mean turns per conversation (geometric continuation).
    pub mean_turns: f64,
    /// Mean user think time between turns, seconds (exponential).
    pub think_mean_s: f64,
    /// Probability a continuation branches the conversation tree —
    /// re-sending only a fork point's prefix of the history instead of
    /// all of it (regenerated / edited replies).
    pub branch_prob: f64,
    /// Shared system-prompt tokens opening every conversation's prompt.
    pub system_prompt_tokens: u32,
    /// Tenant id stamped on generated requests.
    pub tenant: u32,
}

impl Default for ChatConfig {
    fn default() -> Self {
        ChatConfig {
            session_rate: 1.0,
            mean_turns: 5.0,
            think_mean_s: 30.0,
            branch_prob: 0.1,
            system_prompt_tokens: 256,
            tenant: 0,
        }
    }
}

/// A conversation turn waiting for its think time to elapse. Ordered by
/// `key` alone: a session has at most one pending turn, so keys are
/// unique.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PendingTurn {
    /// `at.to_bits() << 64 | session`. Times are non-negative, so their
    /// bit patterns order like the times: earliest first, ties broken by
    /// session id.
    key: u128,
    turn: u32,
    /// Prompt tokens the turn re-sends (system + prior turns).
    history: u32,
}

impl PendingTurn {
    fn at(&self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }

    fn session(&self) -> u64 {
        self.key as u64
    }
}

/// Streaming multi-turn chatbot generator (see module docs). Yields
/// time-ordered [`SessionRequest`]s; memory is O(concurrently live
/// sessions), which the session/think parameters bound in expectation at
/// `session_rate · mean_turns · think_mean_s`.
pub struct ChatSessionStream {
    config: ChatConfig,
    sampler: Box<dyn LengthSampler>,
    arrival_rng: SimRng,
    length_rng: SimRng,
    session_rng: SimRng,
    /// Pending turns, earliest first.
    pending: BinaryHeap<Reverse<PendingTurn>>,
    next_session_at: f64,
    next_session_id: u64,
    next_request_id: u64,
}

impl ChatSessionStream {
    /// Creates the stream. `sampler` draws each turn's *fresh* user
    /// tokens and the reply length.
    ///
    /// # Panics
    ///
    /// Panics unless `session_rate > 0`, `mean_turns >= 1`,
    /// `think_mean_s > 0`, and `branch_prob` is in `[0, 1]`.
    #[must_use]
    pub fn new(config: ChatConfig, sampler: Box<dyn LengthSampler>, seed: u64) -> Self {
        assert!(config.session_rate > 0.0, "session rate must be positive");
        assert!(config.mean_turns >= 1.0, "mean turns must be >= 1");
        assert!(config.think_mean_s > 0.0, "think time must be positive");
        assert!(
            (0.0..=1.0).contains(&config.branch_prob),
            "branch prob must be a probability"
        );
        let rng = SimRng::seed(seed);
        let mut arrival_rng = rng.split("session-arrivals");
        let first = -arrival_rng.uniform_open().ln() / config.session_rate;
        ChatSessionStream {
            config,
            sampler,
            arrival_rng,
            length_rng: rng.split("turn-lengths"),
            session_rng: rng.split("session-shape"),
            pending: BinaryHeap::new(),
            next_session_at: first,
            next_session_id: 0,
            next_request_id: 0,
        }
    }

    /// Drops the metadata, yielding bare requests.
    pub fn requests(self) -> impl Iterator<Item = Request> {
        self.map(|s| s.request)
    }

    /// Builds the emitted record and, with geometric probability,
    /// schedules the session's next turn.
    fn emit(&mut self, at: f64, session: u64, turn: u32, history: u32) -> SessionRequest {
        let (fresh, output_len) = self.sampler.sample(&mut self.length_rng);
        let fresh = fresh.max(1);
        let input_len = history + fresh;
        let id = self.next_request_id;
        self.next_request_id += 1;
        // Continue the conversation with probability 1 − 1/mean_turns.
        let cont = 1.0 - 1.0 / self.config.mean_turns;
        if self.session_rng.uniform() < cont {
            let think = -self.session_rng.uniform_open().ln() * self.config.think_mean_s;
            // Linear continuation re-sends everything said so far; a
            // branch forks from a uniform earlier point of it (never
            // losing the system prompt).
            let full = input_len + output_len;
            let sys = self.config.system_prompt_tokens.min(full);
            let next_history = if self.session_rng.uniform() < self.config.branch_prob {
                sys + ((f64::from(full - sys)) * self.session_rng.uniform()).floor() as u32
            } else {
                full
            };
            self.pending.push(Reverse(PendingTurn {
                key: u128::from((at + think).to_bits()) << 64 | u128::from(session),
                turn: turn + 1,
                history: next_history,
            }));
        }
        // Opening turns share only the tenant-wide system prompt (one
        // lineage across all sessions); later turns share the
        // conversation's own lineage.
        let (group, cached) = if turn == 0 {
            if self.config.system_prompt_tokens > 0 {
                (u64::from(self.config.tenant) + 1, history)
            } else {
                (0, 0)
            }
        } else {
            (SESSION_GROUP_BASE + session, history)
        };
        SessionRequest {
            request: Request {
                id: RequestId(id),
                arrival: SimTime::from_secs(at),
                input_len,
                output_len,
                tenant: self.config.tenant,
            },
            prefix_group: group,
            history_tokens: cached,
            turn,
        }
    }
}

impl Iterator for ChatSessionStream {
    type Item = SessionRequest;

    fn next(&mut self) -> Option<SessionRequest> {
        let turn_next = self.pending.peek().map(|p| p.0.at());
        if turn_next.is_some_and(|t| t <= self.next_session_at) {
            let Reverse(p) = self.pending.pop().expect("peeked");
            return Some(self.emit(p.at(), p.session(), p.turn, p.history));
        }
        let at = self.next_session_at;
        self.next_session_at += -self.arrival_rng.uniform_open().ln() / self.config.session_rate;
        let session = self.next_session_id;
        self.next_session_id += 1;
        Some(self.emit(at, session, 0, self.config.system_prompt_tokens))
    }
}

/// One tenant of a [`SharedPrefixMix`].
pub struct SharedPrefixTenant {
    /// Display name (reports only).
    pub name: String,
    /// Poisson arrival rate, requests per second.
    pub rate: f64,
    /// Length distribution for the *user* part of each prompt.
    pub sampler: Box<dyn LengthSampler>,
    /// Tokens of the tenant's shared system prompt, prepended to every
    /// request.
    pub system_prompt_tokens: u32,
}

struct SharedTenantState {
    spec: SharedPrefixTenant,
    arrival_rng: SimRng,
    length_rng: SimRng,
    next_at: f64,
    emitted: u64,
}

/// Superposition of per-tenant Poisson streams where each tenant's
/// requests share a system prompt: every request after a tenant's first
/// reports the full system prompt as reusable history. Yields
/// time-ordered [`SessionRequest`]s with `turn == 0` and `prefix_group
/// == tenant + 1`.
pub struct SharedPrefixMix {
    tenants: Vec<SharedTenantState>,
    next_id: u64,
}

impl SharedPrefixMix {
    /// Builds the mix.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list or a non-positive tenant rate.
    #[must_use]
    pub fn new(tenants: Vec<SharedPrefixTenant>, seed: u64) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant");
        let rng = SimRng::seed(seed);
        let tenants = tenants
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                assert!(
                    spec.rate > 0.0,
                    "tenant {} rate must be positive",
                    spec.name
                );
                let mut arrival_rng = rng.split(&format!("shared{i}-arrivals"));
                let length_rng = rng.split(&format!("shared{i}-lengths"));
                let next_at = -arrival_rng.uniform_open().ln() / spec.rate;
                SharedTenantState {
                    spec,
                    arrival_rng,
                    length_rng,
                    next_at,
                    emitted: 0,
                }
            })
            .collect();
        SharedPrefixMix {
            tenants,
            next_id: 0,
        }
    }

    /// Combined mean arrival rate (sum of tenant rates).
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.tenants.iter().map(|t| t.spec.rate).sum()
    }

    /// Drops the metadata, yielding bare requests.
    pub fn requests(self) -> impl Iterator<Item = Request> {
        self.map(|s| s.request)
    }
}

impl Iterator for SharedPrefixMix {
    type Item = SessionRequest;

    fn next(&mut self) -> Option<SessionRequest> {
        let (idx, _) = self
            .tenants
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.next_at.total_cmp(&b.next_at))?;
        let t = &mut self.tenants[idx];
        let at = t.next_at;
        t.next_at += -t.arrival_rng.uniform_open().ln() / t.spec.rate;
        let (user, output_len) = t.spec.sampler.sample(&mut t.length_rng);
        let sys = t.spec.system_prompt_tokens;
        // The tenant's very first request installs the prefix cold.
        let cached = if t.emitted == 0 { 0 } else { sys };
        t.emitted += 1;
        let id = self.next_id;
        self.next_id += 1;
        Some(SessionRequest {
            request: Request {
                id: RequestId(id),
                arrival: SimTime::from_secs(at),
                input_len: sys + user.max(1),
                output_len,
                tenant: u32::try_from(idx).unwrap_or(u32::MAX),
            },
            prefix_group: idx as u64 + 1,
            history_tokens: cached,
            turn: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    fn chat(seed: u64) -> ChatSessionStream {
        ChatSessionStream::new(
            ChatConfig {
                session_rate: 2.0,
                mean_turns: 4.0,
                think_mean_s: 10.0,
                branch_prob: 0.2,
                system_prompt_tokens: 64,
                tenant: 3,
            },
            Dataset::ShareGpt.sampler(),
            seed,
        )
    }

    #[test]
    fn chat_stream_is_deterministic_and_time_ordered() {
        let a: Vec<SessionRequest> = chat(9).take(2000).collect();
        let b: Vec<SessionRequest> = chat(9).take(2000).collect();
        let mut last = 0.0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.request.id, y.request.id);
            assert_eq!(x.request.input_len, y.request.input_len);
            assert_eq!(x.prefix_group, y.prefix_group);
            assert_eq!(x.history_tokens, y.history_tokens);
            let t = x.request.arrival.as_secs();
            assert!(t >= last, "arrivals must be time-ordered");
            last = t;
        }
    }

    #[test]
    fn histories_grow_and_stay_consistent() {
        let mut turn_count = 0u64;
        let mut opening = 0u64;
        for s in chat(11).take(5000) {
            // The re-sent history is always part of the prompt, and the
            // prompt always adds at least one fresh token.
            assert!(s.request.input_len > s.history_tokens);
            if s.turn == 0 {
                opening += 1;
                // Opening turns share exactly the system prompt lineage.
                assert_eq!(s.history_tokens, 64);
                assert_eq!(s.prefix_group, 4); // tenant 3 + 1.
            } else {
                turn_count += 1;
                assert!(s.prefix_group >= SESSION_GROUP_BASE);
                // Later turns re-send at least the system prompt.
                assert!(s.history_tokens >= 64);
            }
        }
        assert!(opening > 0 && turn_count > 0);
        // Mean turns 4 => roughly 3 continuations per opening.
        let ratio = turn_count as f64 / opening as f64;
        assert!((1.5..6.0).contains(&ratio), "turns/opening = {ratio}");
    }

    #[test]
    fn continuations_without_branching_resend_everything() {
        let mut stream = ChatSessionStream::new(
            ChatConfig {
                branch_prob: 0.0,
                session_rate: 0.5,
                ..ChatConfig::default()
            },
            Dataset::ShareGpt.sampler(),
            5,
        );
        // Openings allocate session ids in emission order, so counting
        // them recovers each turn-0 request's session. Every
        // continuation must then re-send exactly its predecessor's
        // prompt + reply.
        let mut full: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut openings = 0u64;
        let mut continuations = 0u64;
        for s in stream.by_ref().take(4000) {
            let sess = if s.turn == 0 {
                openings += 1;
                openings - 1
            } else {
                s.prefix_group - SESSION_GROUP_BASE
            };
            if s.turn > 0 {
                continuations += 1;
                assert_eq!(Some(&s.history_tokens), full.get(&sess));
            }
            full.insert(sess, s.request.input_len + s.request.output_len);
        }
        assert!(continuations > 500, "continuations = {continuations}");
    }

    #[test]
    fn shared_mix_reports_system_prompt_reuse() {
        let tenants = vec![
            SharedPrefixTenant {
                name: "support-bot".into(),
                rate: 4.0,
                sampler: Dataset::ShareGpt.sampler(),
                system_prompt_tokens: 512,
            },
            SharedPrefixTenant {
                name: "code-assist".into(),
                rate: 2.0,
                sampler: Dataset::HumanEval.sampler(),
                system_prompt_tokens: 128,
            },
        ];
        let mut firsts = [true; 2];
        let mut last = 0.0;
        for s in SharedPrefixMix::new(tenants, 21).take(3000) {
            let t = s.request.tenant as usize;
            let sys = [512, 128][t];
            assert_eq!(s.prefix_group, t as u64 + 1);
            assert!(s.request.input_len > sys);
            if firsts[t] {
                assert_eq!(s.history_tokens, 0, "first request arrives cold");
                firsts[t] = false;
            } else {
                assert_eq!(s.history_tokens, sys);
            }
            let at = s.request.arrival.as_secs();
            assert!(at >= last);
            last = at;
        }
        assert_eq!(firsts, [false, false]);
    }

    /// The first 20,000 records of a fixed stream folded into one hash:
    /// pins the exact emission order, not just the stream's shape.
    #[test]
    fn chat_stream_records_are_pinned() {
        use std::hash::Hasher as _;
        let mut h = distserve_simcore::FxHasher::default();
        for s in chat(2024).take(20_000) {
            let r = &s.request;
            for word in [
                r.id.0,
                r.arrival.as_secs().to_bits(),
                u64::from(r.input_len),
                u64::from(r.output_len),
                s.prefix_group,
                u64::from(s.history_tokens),
                u64::from(s.turn),
            ] {
                h.write_u64(word);
            }
        }
        assert_eq!(h.finish(), 0xdfdc_db60_753b_41c6);
    }

    /// Peak RSS in kibibytes from `/proc/self/status` (Linux).
    fn peak_rss_kib() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    #[test]
    fn chat_stream_memory_stays_flat() {
        let Some(before) = peak_rss_kib() else {
            eprintln!("no /proc/self/status; skipping RSS assertion");
            return;
        };
        let mut checksum = 0u64;
        for s in chat(77).take(2_000_000) {
            checksum = checksum.wrapping_add(u64::from(s.request.input_len));
        }
        assert!(checksum > 0);
        let after = peak_rss_kib().expect("procfs stayed readable");
        // Live-session state is bounded by rate × turns × think time
        // (~80 sessions here); allow generous headroom, not O(requests).
        assert!(
            after - before < 64 * 1024,
            "RSS grew {} KiB over 2M session requests",
            after - before
        );
    }
}
