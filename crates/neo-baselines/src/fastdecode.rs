//! FastDecode+ — full CPU offloading of decode attention.
//!
//! The paper re-implements FastDecode on top of NEO's runtime ("FastDecode+"): it keeps the
//! asymmetric pipelining machinery but offloads **all** requests' decoding attention and KV
//! cache to the host CPU, with no partial offload and no GPU-only fallback. When outputs
//! grow long the CPU becomes the bottleneck and throughput drops below the GPU-only
//! baseline (Figure 8b); when the prefill waitqueue is empty it has no choice but to run
//! CPU-bound batches, hurting latency (Figure 8a).

use neo_core::config::MAX_BATCH_SEQS;
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::scheduler::ScheduleContext;
use neo_core::ExecutionMode;
use neo_kvcache::Device;

use crate::common::{admit_prefills_to_cpu, collect_full_offload_decodes, HOST_KV};

/// The FastDecode+ scheduler: every decode request is a CPU-request.
#[derive(Debug, Clone, Default)]
pub struct FastDecodePlusScheduler;

impl FastDecodePlusScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SchedulerPolicy for FastDecodePlusScheduler {
    fn policy_name(&self) -> &'static str {
        "fastdecode+"
    }

    /// All decode attention runs on the CPU: any request that somehow lives on the GPU is
    /// evicted (FastDecode keeps all KV on the host), and every CPU-resident request
    /// decodes every iteration — no balancing, no fallback. All of batch-1: the CPU
    /// attention overlaps with whatever prefill work batch-0 carries.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.mode = ExecutionMode::Asymmetric;
        let decodes = collect_full_offload_decodes(ctx, plan, MAX_BATCH_SEQS);
        plan.batch1.cpu_decodes = decodes;
    }

    /// Prefills run on the GPU but their KV is always swapped out to the CPU cache.
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
        Engine::new(cost, EngineConfig::default(), Box::new(FastDecodePlusScheduler::new()))
    }

    #[test]
    fn all_decode_attention_runs_on_the_cpu() {
        let mut e = engine();
        for id in 0..10 {
            e.submit(Request::new(id, 0.0, 300, 20)).unwrap();
        }
        let mut gpu_decode_seen = false;
        let mut cpu_decode_seen = false;
        while !e.is_idle() {
            let r = e.step();
            if r.decode_tokens > 0 && r.cpu_offloaded == 0 && r.prefill_tokens == 0 {
                gpu_decode_seen = true;
            }
            if r.cpu_offloaded > 0 {
                cpu_decode_seen = true;
            }
        }
        assert_eq!(e.completed(), 10);
        assert!(cpu_decode_seen, "FastDecode+ must offload decode attention");
        assert!(!gpu_decode_seen, "FastDecode+ must never run pure GPU decode batches");
    }

    #[test]
    fn kv_cache_lives_on_the_cpu() {
        let mut e = engine();
        e.submit(Request::new(1, 0.0, 600, 50)).unwrap();
        // Run a handful of iterations, then check residency.
        for _ in 0..5 {
            e.step();
        }
        assert_eq!(e.kv().sequences_on(Device::Gpu).len(), 0);
        assert_eq!(e.kv().sequences_on(Device::Cpu).len(), 1);
        e.run_to_completion(100_000);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(FastDecodePlusScheduler::new().name(), "fastdecode+");
    }
}
