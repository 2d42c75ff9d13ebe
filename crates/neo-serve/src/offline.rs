//! Offline (batch) throughput: feed the whole trace at once and measure token throughput.
//!
//! [`run_offline`] submits every trace request at t = 0 to the event-driven [`Server`]
//! loop and lets it drain: the same loop, admission and stall guard as an online run.

use neo_core::Engine;
use neo_workload::Trace;
use serde::{Deserialize, Serialize};

use crate::server::{Server, ServerCounts};

/// Result of one offline throughput run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OfflineResult {
    /// Number of requests completed.
    pub completed: usize,
    /// Total simulated time to drain the trace (makespan), in seconds.
    pub makespan: f64,
    /// Token throughput: (input + output tokens) / makespan — the metric of §5.5.
    pub token_throughput: f64,
    /// Output-token throughput: output tokens / makespan.
    pub decode_throughput: f64,
    /// Fraction of non-idle iterations that offloaded attention to the CPU.
    pub offload_fraction: f64,
    /// Fraction of non-idle iterations that ran in asymmetric (two-sub-batch) mode.
    pub asymmetric_fraction: f64,
}

/// Runs the engine over the trace with all requests submitted at time zero, whatever
/// their arrival times in the trace.
///
/// # Panics
///
/// Panics if the trace is empty, the engine is not fresh (see [`Server::new`]), a request
/// can never be admitted, or the server's stall guard fires (a scheduler livelock; see
/// [`crate::server::DEFAULT_STALL_BUDGET`]).
pub fn run_offline(engine: Engine, trace: &Trace) -> OfflineResult {
    assert!(!trace.is_empty(), "cannot run an empty trace");
    let mut server = Server::new(engine);
    for r in trace.requests() {
        // neo-lint: allow(panic-hygiene) -- driver entry point documented to panic (see `# Panics`); an inadmissible trace request is a configuration error
        server.submit(0.0, r.prompt_len, r.output_len).unwrap();
    }
    // Nothing here reads latency, so drain without `run_until_idle`'s report fold.
    while server.tick() {}
    let makespan = server.now().max(1e-9);
    let ServerCounts { completed, offload_fraction, asymmetric_fraction, .. } = server.counts();
    let total = trace.len();
    assert_eq!(completed, total, "all requests must finish");

    // Every request finished, so the token totals are the trace's.
    let input_tokens: u64 = trace.requests().iter().map(|r| r.prompt_len as u64).sum();
    let output_tokens: u64 = trace.requests().iter().map(|r| r.output_len as u64).sum();
    OfflineResult {
        completed,
        makespan,
        token_throughput: (input_tokens + output_tokens) as f64 / makespan,
        decode_throughput: output_tokens as f64 / makespan,
        offload_fraction,
        asymmetric_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_baselines::GpuOnlyScheduler;
    use neo_core::config::EngineConfig;
    use neo_core::scheduler::NeoScheduler;
    use neo_core::ScheduleDecision;
    use neo_sim::{CostModel, ModelDesc, Testbed};
    use neo_workload::{synthetic, ArrivalProcess};

    fn t4_engine(neo: bool) -> Engine {
        let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
        let sched: Box<dyn neo_core::Scheduler> = if neo {
            Box::new(NeoScheduler::new())
        } else {
            Box::new(GpuOnlyScheduler::swiftllm_like())
        };
        Engine::new(cost, EngineConfig::default(), sched)
    }

    fn a10g_engine(neo: bool) -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let sched: Box<dyn neo_core::Scheduler> = if neo {
            Box::new(NeoScheduler::new())
        } else {
            Box::new(GpuOnlyScheduler::swiftllm_like())
        };
        Engine::new(cost, EngineConfig::default(), sched)
    }

    #[test]
    fn offline_metrics_are_consistent() {
        let trace = synthetic(60, 200, 50, ArrivalProcess::AllAtOnce, 3);
        let r = run_offline(a10g_engine(true), &trace);
        assert_eq!(r.completed, 60);
        assert!(r.makespan > 0.0);
        assert!(r.token_throughput > r.decode_throughput);
        assert!(r.offload_fraction >= 0.0 && r.offload_fraction <= 1.0);
    }

    #[test]
    fn neo_beats_gpu_only_on_memory_constrained_t4() {
        // The headline mechanism: on the 16 GB T4 serving LLaMa-2-7B, the GPU can hold
        // only a handful of requests' KV; NEO's CPU offload lifts throughput
        // substantially (the paper reports up to 7.5x on this testbed).
        let trace = synthetic(96, 200, 80, ArrivalProcess::AllAtOnce, 5);
        let gpu_only = run_offline(t4_engine(false), &trace);
        let neo = run_offline(t4_engine(true), &trace);
        let gain = neo.token_throughput / gpu_only.token_throughput;
        assert!(
            gain > 1.2,
            "NEO should clearly beat GPU-only on the T4: gain {gain:.2} (neo {:.1} vs gpu {:.1} tok/s)",
            neo.token_throughput,
            gpu_only.token_throughput
        );
        assert!(neo.offload_fraction > 0.0);
        assert!(neo.asymmetric_fraction > 0.0);
        assert_eq!(gpu_only.asymmetric_fraction, 0.0);
    }

    #[test]
    fn neo_does_not_lose_badly_when_memory_is_plentiful() {
        // With ample GPU memory (A10G + small workload) NEO falls back to GPU-only-like
        // behaviour and stays within a few percent of the baseline (§5.4).
        let trace = synthetic(40, 100, 20, ArrivalProcess::AllAtOnce, 6);
        let gpu_only = run_offline(a10g_engine(false), &trace);
        let neo = run_offline(a10g_engine(true), &trace);
        let ratio = neo.token_throughput / gpu_only.token_throughput;
        assert!(ratio > 0.9, "NEO must not collapse when offloading does not help: {ratio:.2}");
    }

    #[test]
    fn offload_family_drains_the_same_trace() {
        // The pipelined-offloading baselines run through the identical driver: every
        // policy drains the trace, and PIPO's offload fraction is total (its KV never
        // lives on the GPU) while SpecOffload's is partial (it serves GPU-first and only
        // speculates CPU work under pressure).
        use neo_baselines::{PipoScheduler, SpecOffloadScheduler};
        let trace = synthetic(48, 300, 40, ArrivalProcess::AllAtOnce, 9);
        let cost = || CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);

        let pipo_engine =
            Engine::new(cost(), EngineConfig::default(), Box::new(PipoScheduler::new()));
        let pipo = run_offline(pipo_engine, &trace);
        assert_eq!(pipo.completed, 48);
        assert!(pipo.offload_fraction > 0.9, "PIPO decodes are always offloaded");

        let spec_engine =
            Engine::new(cost(), EngineConfig::default(), Box::new(SpecOffloadScheduler::new()));
        let spec = run_offline(spec_engine, &trace);
        assert_eq!(spec.completed, 48);
        assert!(spec.offload_fraction > 0.0, "memory pressure must trigger speculation");
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = run_offline(a10g_engine(false), &Trace::default());
    }

    #[test]
    fn a_budget_shorter_than_the_run_still_completes() {
        // The budget bounds iterations in a row without progress, not the run's length,
        // and the run is the server's: same makespan as draining a `Server` by hand.
        let trace = synthetic(60, 200, 50, ArrivalProcess::AllAtOnce, 3);
        let budget = 5;
        let mut server = Server::new(a10g_engine(true)).with_max_iterations(budget);
        for r in trace.requests() {
            server.submit(0.0, r.prompt_len, r.output_len).unwrap();
        }
        let report = server.run_until_idle();
        let iterations = report.iterations;
        assert_eq!(report.completed, 60);
        assert!(iterations > 10 * budget, "a healthy run takes {iterations} iterations");
        let r = run_offline(a10g_engine(true), &trace);
        assert_eq!(r.completed, 60);
        assert_eq!(r.makespan, server.now());
    }

    /// A livelocked policy: it stays idle whatever waits.
    struct IdlePolicy;

    impl neo_core::Scheduler for IdlePolicy {
        fn schedule(&mut self, _ctx: &neo_core::ScheduleContext<'_>) -> ScheduleDecision {
            ScheduleDecision::idle()
        }

        fn name(&self) -> &'static str {
            "idle"
        }
    }

    #[test]
    #[should_panic(expected = "exceeded 1000000 iterations without progress with 0 of 4 requests")]
    fn a_run_without_progress_panics_through_the_stall_guard() {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let engine = Engine::new(cost, EngineConfig::default(), Box::new(IdlePolicy));
        let _ = run_offline(engine, &synthetic(4, 200, 50, ArrivalProcess::AllAtOnce, 3));
    }
}
