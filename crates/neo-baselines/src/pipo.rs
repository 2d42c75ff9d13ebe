//! PIPO — static pipelined offloading with double-buffered transfer/compute overlap.
//!
//! PIPO (Liu et al., 2025 — see `PAPERS.md`) targets consumer devices whose GPU cannot
//! hold the model state: it keeps the KV cache (and in the original system, weights) in
//! host memory and *pipelines* inference, streaming each layer's data over PCIe into one
//! buffer while the GPU computes the previous layer out of the other. The schedule is
//! **static**: every request's KV is host-resident by construction, the split never
//! adapts to load, and there is no GPU-only fallback.
//!
//! Mapped onto this workspace's engine abstraction, PIPO is a [`SchedulerPolicy`] that
//! emits [`ExecutionMode::Streamed`] decisions: decode attention runs on the **GPU** over
//! KV streamed in layer by layer, costed by `neo_core::pipeline::estimate_streamed` with
//! the double-buffered transfer-overlap terms from [`neo_sim::transfer`]. While contexts
//! are short the stream hides behind compute and PIPO tracks the GPU-only baseline
//! despite holding no KV on the GPU; as contexts grow the pipeline becomes
//! transfer-bound (the PCIe link must re-carry the whole KV cache every iteration) and
//! throughput decays — the contrast with NEO, which moves only Q/K/V/O activations for
//! its offloaded requests, is the point of the fig8c offload-family comparison.

use neo_core::config::MAX_BATCH_SEQS;
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::scheduler::ScheduleContext;
use neo_core::ExecutionMode;
use neo_kvcache::Device;

use crate::common::{admit_prefills_to_cpu, collect_full_offload_decodes, HOST_KV};

/// The PIPO scheduler: all KV host-resident, decode attention on the GPU over a
/// double-buffered layer-by-layer KV stream.
#[derive(Debug, Clone, Default)]
pub struct PipoScheduler;

impl PipoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SchedulerPolicy for PipoScheduler {
    fn policy_name(&self) -> &'static str {
        "pipo"
    }

    /// Static batch formation: every decode request is host-resident (GPU strays are
    /// evicted, as in FastDecode+) and all of them are streamed every iteration — no
    /// balancing, no fallback, no adaptation.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.mode = ExecutionMode::Streamed;
        let decodes = collect_full_offload_decodes(ctx, plan, MAX_BATCH_SEQS);
        plan.batch0.cpu_decodes = decodes;
    }

    /// Prefills compute on the GPU but their KV streams straight back to the host — the
    /// GPU never holds cached state between iterations.
    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        admit_prefills_to_cpu(ctx, plan);
    }

    fn kv_pools(&self) -> &'static [Device] {
        HOST_KV
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_core::config::EngineConfig;
    use neo_core::engine::Engine;
    use neo_core::request::Request;
    use neo_core::Scheduler;
    use neo_kvcache::Device;
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn engine() -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(PipoScheduler::new()))
    }

    #[test]
    fn kv_lives_on_the_host_and_requests_finish() {
        let mut e = engine();
        for id in 0..8 {
            e.submit(Request::new(id, 0.0, 400, 30)).unwrap();
        }
        for _ in 0..6 {
            e.step();
        }
        assert_eq!(e.kv().sequences_on(Device::Gpu).len(), 0, "PIPO keeps no KV on the GPU");
        assert!(!e.kv().sequences_on(Device::Cpu).is_empty());
        e.run_to_completion(200_000);
        assert_eq!(e.completed(), 8);
    }

    #[test]
    fn decisions_are_streamed_mode() {
        let mut e = engine();
        e.submit(Request::new(1, 0.0, 300, 20)).unwrap();
        let mut saw_streamed = false;
        while !e.is_idle() {
            let r = e.step();
            if !r.idle {
                assert_eq!(r.mode, ExecutionMode::Streamed);
                saw_streamed = true;
            }
        }
        assert!(saw_streamed);
    }

    #[test]
    fn name_and_iterations_are_reported() {
        let mut e = engine();
        assert_eq!(e.scheduler_name(), "pipo");
        e.submit(Request::new(1, 0.0, 100, 5)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 1);
        assert_eq!(Scheduler::name(&PipoScheduler::new()), "pipo");
    }

    #[test]
    fn long_contexts_make_the_pipeline_transfer_bound() {
        // Decode iteration time must grow markedly with context length: the PCIe link
        // re-carries the whole (batch) KV cache every iteration, so a 10x larger context
        // pushes the double-buffered pipeline deep into the transfer-bound regime.
        let decode_iter_time = |ctx_len: usize| {
            let mut e = engine();
            for id in 0..16 {
                e.submit(Request::new(id, 0.0, ctx_len, 30)).unwrap();
            }
            let (mut total, mut n) = (0.0, 0u32);
            while !e.is_idle() {
                let r = e.step();
                // Average only pure decode iterations (prefill chunks would skew it).
                if !r.idle && r.prefill_tokens == 0 && r.decode_tokens > 0 {
                    total += r.duration;
                    n += 1;
                }
            }
            assert_eq!(e.completed(), 16);
            total / n.max(1) as f64
        };
        let short = decode_iter_time(200);
        let long = decode_iter_time(2000);
        assert!(
            long > short * 3.0,
            "streamed decode should be transfer-bound at long contexts: {short} vs {long}"
        );
    }
}
