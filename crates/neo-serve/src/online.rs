//! Online serving: Poisson arrivals driven through the engine in simulated time.
//!
//! [`run_online`] replays a [`Trace`] through the event-driven [`Server`] loop: each
//! trace request is submitted at its arrival time, and the loop admits, schedules, and
//! streams tokens exactly as it would for live clients. Every latency metric folds from
//! the server's token streams.

use neo_core::Engine;
use neo_workload::{SessionTrace, Trace};
use serde::{Deserialize, Serialize};

use crate::metrics::{Cdf, LatencySummary};
use crate::server::Server;

/// Result of one online serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineResult {
    /// Number of requests completed.
    pub completed: usize,
    /// Average per-token latency (each request's latency divided by its output length,
    /// averaged over requests) — the y-axis of Figure 6.
    pub avg_per_token_latency: f64,
    /// Per-token latency summary (p50/p90/p99).
    pub per_token_latency: LatencySummary,
    /// End-to-end latency summary.
    pub request_latency: LatencySummary,
    /// Time-to-first-token summary (p50/p90/p99), measured at token emission by the
    /// serving loop.
    pub ttft: LatencySummary,
    /// Inter-token latency summary: gaps between consecutive streamed tokens of the same
    /// request. `None` when no request produced a second token.
    pub itl: Option<LatencySummary>,
    /// Output-token throughput over the whole run (generated tokens / makespan).
    pub decode_throughput: f64,
    /// Total simulated time of the run.
    pub makespan: f64,
    /// Fraction of iterations that chose CPU offloading (NEO diagnostics).
    pub offload_fraction: f64,
    /// All per-token latency samples (for CDF plots, Figure 7).
    pub per_token_samples: Vec<f64>,
}

impl OnlineResult {
    /// The per-token latency CDF of this run.
    pub fn cdf(&self) -> Cdf {
        Cdf::new(self.per_token_samples.clone())
    }
}

/// Runs the engine over the trace with its real arrival times and collects latency
/// metrics.
///
/// Implemented on the event-driven [`Server`] loop: each trace request is submitted at
/// its arrival time, so this replay takes the exact code path a live client would.
///
/// # Panics
///
/// Panics if the trace is empty or if the server's stall guard fires (a scheduler
/// livelock; see [`crate::server::DEFAULT_STALL_BUDGET`]).
pub fn run_online(engine: Engine, trace: &Trace) -> OnlineResult {
    assert!(!trace.is_empty(), "cannot serve an empty trace");
    let total = trace.len();
    let mut server = Server::new(engine);
    for r in trace.requests() {
        // neo-lint: allow(panic-hygiene) -- driver entry point documented to panic (see `# Panics`); an inadmissible trace request is a configuration error
        server.submit(r.arrival, r.prompt_len, r.output_len).unwrap();
    }
    drain_and_summarise(&mut server, total)
}

/// Result of one session-workload serving run: the usual online metrics plus the
/// prefix-cache counters that only session workloads exercise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionsResult {
    /// The latency/throughput metrics, identical in meaning to [`run_online`]'s.
    pub online: OnlineResult,
    /// Prompt tokens served from cached KV instead of being prefilled.
    pub prefix_hit_tokens: usize,
    /// Total prompt tokens submitted; `prefix_hit_tokens / prompt_tokens` is the
    /// measured hit rate.
    pub prompt_tokens: usize,
    /// Copy-on-write block splits performed for partial tail-block hits.
    pub cow_splits: usize,
}

impl SessionsResult {
    /// Fraction of submitted prompt tokens served from the prefix cache.
    pub fn hit_rate(&self) -> f64 {
        self.prefix_hit_tokens as f64 / self.prompt_tokens.max(1) as f64
    }
}

/// Runs the engine over a [`SessionTrace`] — requests whose prompts carry identity as
/// token runs — and collects the same metrics as [`run_online`], plus prefix-cache
/// counters. With a prefix-caching engine, turns of the same session (and sessions
/// sharing a system prompt) reuse KV cached by earlier requests; with caching disabled
/// the identities are inert and the run is byte-for-byte a [`run_online`] of the
/// flattened trace.
///
/// # Panics
///
/// Panics if the trace is empty or if the server's stall guard fires.
pub fn run_sessions(engine: Engine, trace: &SessionTrace) -> SessionsResult {
    assert!(!trace.is_empty(), "cannot serve an empty trace");
    let total = trace.len();
    let prompt_tokens = trace.requests().iter().map(|r| r.prompt_len()).sum();
    let mut server = Server::new(engine);
    for request in trace.requests() {
        // neo-lint: allow(panic-hygiene) -- driver entry point documented to panic (see `# Panics`); an inadmissible trace request is a configuration error
        server.submit_with_runs(request.arrival, request.runs.clone(), request.output_len).unwrap();
    }
    let online = drain_and_summarise(&mut server, total);
    SessionsResult {
        online,
        prefix_hit_tokens: server.engine().prefix_hit_tokens(),
        prompt_tokens,
        cow_splits: server.engine().cow_splits(),
    }
}

/// Drains the server and assembles the shared [`OnlineResult`] metrics. Request latency
/// runs from arrival to the last token; per-token latency divides it by the output
/// length. Samples are taken in completion order.
fn drain_and_summarise(server: &mut Server, total: usize) -> OnlineResult {
    let report = server.run_until_idle();
    assert_eq!(report.completed, total, "all submitted requests must finish");

    let completions = server.completions();
    let per_token_samples: Vec<f64> = completions
        .iter()
        .map(|&(arrival, finish, output_len)| (finish - arrival) / output_len as f64)
        .collect();
    let request_latencies: Vec<f64> =
        completions.iter().map(|&(arrival, finish, _)| finish - arrival).collect();
    let makespan = server.engine().now();
    let decode_tokens = server.engine().total_decode_tokens();

    OnlineResult {
        completed: report.completed,
        avg_per_token_latency: per_token_samples.iter().sum::<f64>()
            / per_token_samples.len().max(1) as f64,
        per_token_latency: LatencySummary::from_samples(per_token_samples.clone())
            // neo-lint: allow(panic-hygiene) -- the non-empty-trace assert at entry guarantees at least one completed request with samples
            .expect("at least one request"),
        request_latency: LatencySummary::from_samples(request_latencies)
            // neo-lint: allow(panic-hygiene) -- the non-empty-trace assert at entry guarantees at least one completed request with samples
            .expect("at least one request"),
        // neo-lint: allow(panic-hygiene) -- the non-empty-trace assert at entry guarantees at least one completed request with samples
        ttft: report.ttft.expect("at least one request produced a token"),
        itl: report.itl,
        decode_throughput: decode_tokens as f64 / makespan.max(1e-9),
        makespan,
        offload_fraction: report.offload_fraction,
        per_token_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_baselines::GpuOnlyScheduler;
    use neo_core::config::EngineConfig;
    use neo_core::scheduler::NeoScheduler;
    use neo_sim::{CostModel, ModelDesc, Testbed};
    use neo_workload::{osc_like, ArrivalProcess};

    fn engine(neo: bool) -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let sched: Box<dyn neo_core::Scheduler> = if neo {
            Box::new(NeoScheduler::new())
        } else {
            Box::new(GpuOnlyScheduler::vllm_like())
        };
        Engine::new(cost, EngineConfig::default(), sched)
    }

    fn small_trace(rate: f64) -> Trace {
        osc_like(40, ArrivalProcess::Poisson { rate }, 11)
    }

    #[test]
    fn online_run_completes_and_reports_sane_metrics() {
        let result = run_online(engine(true), &small_trace(2.0));
        assert_eq!(result.completed, 40);
        assert!(result.avg_per_token_latency > 0.0);
        assert!(result.per_token_latency.p50 <= result.per_token_latency.p99);
        assert!(result.makespan > 0.0);
        assert!(result.decode_throughput > 0.0);
        assert_eq!(result.per_token_samples.len(), 40);
        assert_eq!(result.cdf().len(), 40);
        // Streaming metrics cover every request.
        assert_eq!(result.ttft.count, 40);
        assert!(result.ttft.mean > 0.0 && result.ttft.p50 <= result.ttft.p99);
        let itl = result.itl.expect("multi-token outputs");
        assert!(itl.mean > 0.0 && itl.p50 <= itl.p99);
    }

    #[test]
    fn latency_grows_with_request_rate() {
        // Queueing: at higher offered load the same engine shows higher per-token latency.
        let low = run_online(engine(false), &small_trace(0.5));
        let high = run_online(engine(false), &small_trace(20.0));
        assert!(
            high.avg_per_token_latency >= low.avg_per_token_latency,
            "high load {} should not be faster than low load {}",
            high.avg_per_token_latency,
            low.avg_per_token_latency
        );
    }

    #[test]
    fn arrivals_are_respected() {
        // With a very low rate, the engine should spend most wall-clock waiting, and the
        // makespan is dominated by the last arrival.
        let trace = small_trace(0.2);
        let last_arrival = trace.requests().last().unwrap().arrival;
        let result = run_online(engine(false), &trace);
        assert!(result.makespan >= last_arrival);
    }

    #[test]
    fn offload_family_serves_online_traffic() {
        // The event-driven serving loop is policy-agnostic: the pipelined-offloading
        // baselines stream tokens, report TTFT/ITL and drain the trace like any other.
        use neo_baselines::{PipoScheduler, SpecOffloadScheduler};
        let trace = small_trace(1.0);
        let schedulers: [Box<dyn neo_core::Scheduler>; 2] =
            [Box::new(PipoScheduler::new()), Box::new(SpecOffloadScheduler::new())];
        for sched in schedulers {
            let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
            let engine = Engine::new(cost, EngineConfig::default(), sched);
            let result = run_online(engine, &trace);
            assert_eq!(result.completed, 40);
            assert!(result.ttft.mean > 0.0);
            assert!(result.decode_throughput > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = run_online(engine(false), &Trace::default());
    }

    fn caching_engine(prefix_cache: bool) -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let config = EngineConfig { prefix_cache, ..EngineConfig::default() };
        Engine::new(cost, config, Box::new(NeoScheduler::new()))
    }

    fn chat_trace() -> neo_workload::SessionTrace {
        neo_workload::multi_turn_chat(
            &neo_workload::ChatConfig {
                sessions: 8,
                turns: 3,
                system_len: 512,
                user_len: 64,
                output_len: 32,
                shared_system_prob: 1.0,
                session_rate: 1.0,
                turn_gap: 4.0,
            },
            5,
        )
    }

    #[test]
    fn sessions_reuse_prefixes_when_caching_is_on() {
        let trace = chat_trace();
        let cached = run_sessions(caching_engine(true), &trace);
        assert_eq!(cached.online.completed, trace.len());
        // Later turns re-send their session history and all sessions share a system
        // prompt, so the cache must have served a substantial number of prompt tokens.
        assert!(cached.prefix_hit_tokens > 0, "chat turns must hit the cache");
        assert!(cached.hit_rate() > 0.2, "hit rate {}", cached.hit_rate());
        assert!(cached.hit_rate() < 1.0, "new user messages are never cached");
        let plain = run_sessions(caching_engine(false), &trace);
        assert_eq!(plain.prefix_hit_tokens, 0);
        assert_eq!(plain.online.completed, trace.len());
        assert!(
            cached.online.ttft.mean <= plain.online.ttft.mean,
            "prefix caching must not slow first tokens: {} vs {}",
            cached.online.ttft.mean,
            plain.online.ttft.mean
        );
    }

    #[test]
    fn sessions_without_caching_match_the_flat_trace_exactly() {
        // With the prefix cache off, run identities are inert: serving the session
        // trace is the same run as serving its flattened length-only trace.
        let trace = chat_trace();
        let with_runs = run_sessions(caching_engine(false), &trace);
        let flat = run_online(caching_engine(false), &trace.to_trace());
        assert_eq!(with_runs.online.per_token_samples, flat.per_token_samples);
        assert_eq!(with_runs.online.makespan, flat.makespan);
        assert_eq!(with_runs.online.decode_throughput, flat.decode_throughput);
    }
}
