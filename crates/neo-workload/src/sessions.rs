//! Session workloads: multi-turn chat with prompt *identity*.
//!
//! The plain [`crate::Trace`] describes requests only by their lengths, which is enough
//! for the latency/throughput experiments but says nothing about *which* tokens a prompt
//! contains. Prefix caching needs identity: a turn of a chat session re-sends the whole
//! conversation so far, so its prompt literally starts with the previous turn's prompt
//! plus the previous answer. The generator produces [`SessionTrace`]s whose requests
//! carry [`TokenRun`]s — `(run id, length)` pairs, the same currency
//! `neo_kvcache::PrefixIndex` matches on — forming per-session prefix chains.
//!
//! [`multi_turn_chat`] generates chat sessions of `turns` requests each. Turn `t`'s
//! prompt is `[system, user_1, answer_1, …, user_t]`; the answer runs have exactly the
//! previous turn's output length, so consecutive turns share everything but the newest
//! user message. A fraction of sessions (driven by `shared_system_prob`) lead with one
//! fleet-wide system run, so even *first* turns of different sessions can share KV.
//!
//! The share decision of a session is drawn once from a per-session stream seeded
//! independently of `shared_system_prob`, so sweeping the probability upward only ever
//! *adds* sessions to the shared pool (nested sets). Measured hit rates are therefore
//! monotone in the probability, which the `fig_prefix_cache` experiment relies on.

use neo_kvcache::TokenRun;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrivals::ArrivalProcess;
use crate::lengths::LengthDistribution;
use crate::trace::{Trace, TraceRequest};

/// Run id of the fleet-wide chat system prompt shared across sessions.
pub const SHARED_SYSTEM_RUN: u64 = 1;

/// Builds a session-private run id. Stays far below the engine's opaque-run namespace
/// (`1 << 63`), so workload-issued identities never collide with synthesised ones.
fn run_id(session: usize, turn: usize, kind: u64) -> u64 {
    debug_assert!(kind < 4, "two bits of kind");
    0x100 + (((session as u64) << 34) | ((turn as u64) << 2) | kind)
}

const KIND_SYSTEM: u64 = 0;
const KIND_USER: u64 = 1;
const KIND_ANSWER: u64 = 2;

/// One request of a session workload: an arrival time, the prompt as identity-carrying
/// runs, and the output length.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Arrival time in seconds.
    pub arrival: f64,
    /// Prompt content as token runs, in prompt order. Never empty; lengths sum to the
    /// prompt length.
    pub runs: Vec<TokenRun>,
    /// Output length in tokens.
    pub output_len: usize,
}

impl SessionRequest {
    /// Prompt length in tokens (the sum of the run lengths).
    pub fn prompt_len(&self) -> usize {
        self.runs.iter().map(|r| r.len).sum()
    }
}

/// A set of identity-carrying requests sorted by arrival time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTrace {
    requests: Vec<SessionRequest>,
}

impl SessionTrace {
    /// Creates a trace from unsorted requests; they are sorted by arrival time (stable,
    /// so same-time requests keep their construction order).
    pub fn new(mut requests: Vec<SessionRequest>) -> Self {
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Self { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[SessionRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Drops the prompt identities, yielding a plain length-only [`Trace`] (e.g. to run
    /// the same workload through a cache-less baseline driver).
    pub fn to_trace(&self) -> Trace {
        self.requests
            .iter()
            .map(|r| TraceRequest {
                arrival: r.arrival,
                prompt_len: r.prompt_len(),
                output_len: r.output_len,
            })
            .collect()
    }
}

/// Shape of a [`multi_turn_chat`] workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatConfig {
    /// Number of chat sessions.
    pub sessions: usize,
    /// Turns (requests) per session.
    pub turns: usize,
    /// System-prompt length in tokens (identical for shared and private systems).
    pub system_len: usize,
    /// Target user-message length; samples land in `[0.9·len, 1.1·len]`.
    pub user_len: usize,
    /// Target answer length; samples land in `[0.9·len, 1.1·len]`.
    pub output_len: usize,
    /// Probability that a session uses the fleet-wide system prompt instead of a
    /// private one. Sweeping this up only adds sessions to the shared pool.
    pub shared_system_prob: f64,
    /// Poisson rate of session starts, in sessions per second.
    pub session_rate: f64,
    /// Think time between a turn's arrival and the next turn of the same session.
    pub turn_gap: f64,
}

impl ChatConfig {
    fn validate(&self) {
        assert!(self.turns > 0, "sessions need at least one turn");
        assert!(
            self.system_len > 0 && self.user_len > 0 && self.output_len > 0,
            "lengths must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_system_prob),
            "shared_system_prob must be in [0, 1]"
        );
        assert!(
            self.session_rate > 0.0 && self.session_rate.is_finite(),
            "session rate must be positive"
        );
        assert!(self.turn_gap >= 0.0 && self.turn_gap.is_finite(), "turn gap must be finite");
    }
}

/// Per-session random stream, independent of every other session and of any
/// sweep parameter, so per-session decisions stay fixed as the sweep moves.
fn session_rng(seed: u64, session: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(session as u64 + 1))
}

/// Generates a multi-turn chat workload (see the module docs for the prompt structure).
///
/// Deterministic per `(cfg, seed)`.
///
/// # Panics
///
/// Panics if a length or rate is non-positive, `turns` is zero, or
/// `shared_system_prob` is outside `[0, 1]`.
pub fn multi_turn_chat(cfg: &ChatConfig, seed: u64) -> SessionTrace {
    cfg.validate();
    let mut arrival_rng = StdRng::seed_from_u64(seed);
    let starts =
        ArrivalProcess::Poisson { rate: cfg.session_rate }.generate(cfg.sessions, &mut arrival_rng);
    let user_dist = LengthDistribution::AroundTarget(cfg.user_len);
    let output_dist = LengthDistribution::AroundTarget(cfg.output_len);

    let mut requests = Vec::with_capacity(cfg.sessions * cfg.turns);
    for (s, &start) in starts.iter().enumerate() {
        let mut rng = session_rng(seed, s);
        // First draw: the share decision. Drawn before any lengths so it is the same
        // sample no matter how the length targets are configured.
        let shared = rand::Rng::gen_range(&mut rng, 0.0..1.0) < cfg.shared_system_prob;
        let system_id = if shared { SHARED_SYSTEM_RUN } else { run_id(s, 0, KIND_SYSTEM) };
        let mut history = Vec::with_capacity(2 * cfg.turns + 1);
        history.push(TokenRun { id: system_id, len: cfg.system_len });
        for t in 0..cfg.turns {
            let user = TokenRun { id: run_id(s, t, KIND_USER), len: user_dist.sample(&mut rng) };
            let output_len = output_dist.sample(&mut rng);
            history.push(user);
            requests.push(SessionRequest {
                arrival: start + t as f64 * cfg.turn_gap,
                runs: history.clone(),
                output_len,
            });
            // Next turn re-sends this prompt plus the answer just generated.
            history.push(TokenRun { id: run_id(s, t, KIND_ANSWER), len: output_len });
        }
    }
    SessionTrace::new(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn chat_cfg(prob: f64) -> ChatConfig {
        ChatConfig {
            sessions: 12,
            turns: 4,
            system_len: 256,
            user_len: 64,
            output_len: 48,
            shared_system_prob: prob,
            session_rate: 2.0,
            turn_gap: 5.0,
        }
    }

    /// Requests of one chat session, in turn order (arrival order within a session).
    fn session_requests(
        trace: &SessionTrace,
        system_ids: &BTreeSet<u64>,
    ) -> Vec<Vec<SessionRequest>> {
        // Group by the session-identifying user run of turn 0 is awkward; instead group
        // by the first *user* run's session bits.
        let mut by_session: std::collections::BTreeMap<u64, Vec<SessionRequest>> =
            std::collections::BTreeMap::new();
        for r in trace.requests() {
            let user = r.runs.iter().find(|run| !system_ids.contains(&run.id)).unwrap();
            by_session.entry(user.id >> 34).or_default().push(r.clone());
        }
        let mut out: Vec<Vec<SessionRequest>> = by_session.into_values().collect();
        for session in &mut out {
            session.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        }
        out
    }

    #[test]
    fn chat_turns_form_a_prefix_chain() {
        let trace = multi_turn_chat(&chat_cfg(0.5), 7);
        assert_eq!(trace.len(), 12 * 4);
        let system_ids: BTreeSet<u64> = trace.requests().iter().map(|r| r.runs[0].id).collect();
        for session in session_requests(&trace, &system_ids) {
            assert_eq!(session.len(), 4);
            for pair in session.windows(2) {
                let (prev, next) = (&pair[0], &pair[1]);
                // The next prompt starts with the whole previous prompt...
                assert!(next.runs.len() > prev.runs.len());
                assert_eq!(&next.runs[..prev.runs.len()], &prev.runs[..]);
                // ...followed by an answer run of exactly the previous output length.
                assert_eq!(next.runs[prev.runs.len()].len, prev.output_len);
                assert!(next.arrival > prev.arrival);
            }
        }
    }

    #[test]
    fn share_probability_extremes_are_all_or_nothing() {
        let all = multi_turn_chat(&chat_cfg(1.0), 7);
        assert!(all.requests().iter().all(|r| r.runs[0].id == SHARED_SYSTEM_RUN));
        let none = multi_turn_chat(&chat_cfg(0.0), 7);
        assert!(none.requests().iter().all(|r| r.runs[0].id != SHARED_SYSTEM_RUN));
        // Private system runs are private: one distinct id per session.
        let ids: BTreeSet<u64> = none.requests().iter().map(|r| r.runs[0].id).collect();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn shared_sessions_nest_as_the_probability_grows() {
        // The sessions sharing at p=0.3 are a subset of those sharing at p=0.7: the
        // share decision comes from a per-session stream independent of p.
        let shared_at = |p: f64| -> BTreeSet<u64> {
            let trace = multi_turn_chat(&chat_cfg(p), 7);
            let system_ids: BTreeSet<u64> = trace.requests().iter().map(|r| r.runs[0].id).collect();
            session_requests(&trace, &system_ids)
                .iter()
                .enumerate()
                .filter(|(_, reqs)| reqs[0].runs[0].id == SHARED_SYSTEM_RUN)
                .map(|(i, _)| i as u64)
                .collect()
        };
        let low = shared_at(0.3);
        let high = shared_at(0.7);
        assert!(low.is_subset(&high), "shared pools must nest: {low:?} vs {high:?}");
        assert!(high.len() >= low.len());
    }

    #[test]
    fn chat_is_deterministic_per_seed() {
        let a = multi_turn_chat(&chat_cfg(0.5), 3);
        let b = multi_turn_chat(&chat_cfg(0.5), 3);
        let c = multi_turn_chat(&chat_cfg(0.5), 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn run_ids_stay_below_the_opaque_namespace() {
        let chat = multi_turn_chat(&chat_cfg(0.5), 7);
        for r in chat.requests() {
            assert_eq!(r.prompt_len(), r.runs.iter().map(|x| x.len).sum::<usize>());
            for run in &r.runs {
                assert!(run.len > 0);
                assert!(run.id < 1 << 63, "workload ids stay out of the opaque namespace");
            }
        }
    }

    #[test]
    fn to_trace_preserves_lengths_and_order() {
        let trace = multi_turn_chat(&chat_cfg(0.5), 9);
        let flat = trace.to_trace();
        assert_eq!(flat.len(), trace.len());
        for (s, f) in trace.requests().iter().zip(flat.requests()) {
            assert_eq!(f.arrival, s.arrival);
            assert_eq!(f.prompt_len, s.prompt_len());
            assert_eq!(f.output_len, s.output_len);
        }
        let arrivals: Vec<f64> = flat.requests().iter().map(|r| r.arrival).collect();
        assert!(arrivals.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    #[should_panic(expected = "shared_system_prob")]
    fn chat_rejects_probabilities_outside_the_unit_interval() {
        let _ = multi_turn_chat(&ChatConfig { shared_system_prob: 1.5, ..chat_cfg(0.0) }, 1);
    }

    #[test]
    fn emptiness_is_reported() {
        assert!(SessionTrace::default().is_empty());
        assert!(!multi_turn_chat(&chat_cfg(0.5), 2).is_empty());
    }
}
