//! GPU-only baselines (vLLM-like and SwiftLLM-like).
//!
//! These schedulers never use the CPU cache: decode requests live on the GPU, prompts are
//! admitted (optionally in chunks, like vLLM's `--enable-chunked-prefill`) while GPU KV
//! memory and the token budget allow, and requests that cannot fit simply wait. This is
//! the "GPU-only" baseline every figure of the paper normalises against.

use neo_core::config::{MAX_BATCH_SEQS, PREFILL_CHUNK};
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::scheduler::ScheduleContext;
use neo_kvcache::Device;

/// A GPU-only iteration-level scheduler.
#[derive(Debug, Clone)]
pub struct GpuOnlyScheduler {
    name: &'static str,
    chunked_prefill: bool,
}

impl GpuOnlyScheduler {
    /// vLLM-like configuration: chunked prefill enabled (the paper passes
    /// `--enable-chunked-prefill` to vLLM to get selective batching).
    pub fn vllm_like() -> Self {
        Self { name: "vllm-like", chunked_prefill: true }
    }

    /// SwiftLLM-like configuration: selective batching with whole-prompt admission, the
    /// baseline NEO is built on (and the baseline of Figures 8b, 9 and 10a).
    pub fn swiftllm_like() -> Self {
        Self { name: "swiftllm-like", chunked_prefill: false }
    }

    /// Whether chunked prefill is enabled.
    pub fn chunked_prefill(&self) -> bool {
        self.chunked_prefill
    }
}

impl SchedulerPolicy for GpuOnlyScheduler {
    fn policy_name(&self) -> &'static str {
        self.name
    }

    /// Every GPU-resident request needs one new KV slot this iteration. If the GPU pool
    /// cannot supply them, preempt the most recently arrived requests (free their KV and
    /// recompute later), exactly like vLLM's recompute-mode preemption. GPU-only policies
    /// never swap: the CPU cache does not exist for them.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let mut decodes: Vec<(u64, usize)> =
            ctx.gpu_run.iter().map(|&id| (id, ctx.context_len(id))).collect();
        // Earliest-arrival first, so victims are taken from the back (latest arrivals).
        decodes.sort_by(|a, b| {
            let ta = ctx.requests[a.0].arrival_time;
            let tb = ctx.requests[b.0].arrival_time;
            ta.total_cmp(&tb)
        });
        while decodes.len() as i64 > plan.gpu_free && decodes.len() > 1 {
            let (victim, ctx_len) = decodes.pop().expect("non-empty");
            plan.preempt.push(victim);
            plan.gpu_free += ctx_len as i64;
        }
        for (id, c) in decodes {
            if plan.gpu_free <= 0 || plan.batch0.sequences() >= MAX_BATCH_SEQS {
                break;
            }
            plan.batch0.gpu_decodes.push((id, c));
            plan.gpu_free -= 1;
        }
    }

    /// Admit prefills while the token budget and GPU memory allow: vLLM-like chunks at
    /// [`PREFILL_CHUNK`], SwiftLLM-like whole prompts. When the rest of the budget cannot
    /// take a whole prompt, SwiftLLM-like admission stops there (head-of-line blocking);
    /// prompts longer than the whole budget are necessarily chunked.
    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let cfg = ctx.config;
        let chunk_cap = if self.chunked_prefill { PREFILL_CHUNK } else { usize::MAX };
        plan.admit_prefills(ctx, chunk_cap, |plan, id, chunk| {
            let remaining = ctx.remaining_prefill(id);
            if !self.chunked_prefill && chunk < remaining && remaining <= cfg.max_batch_tokens {
                return None;
            }
            (plan.gpu_free >= chunk as i64).then_some(Device::Gpu)
        });
    }

    /// The CPU cache does not exist for a GPU-only policy.
    fn kv_pools(&self) -> &'static [Device] {
        &[Device::Gpu]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_core::config::EngineConfig;
    use neo_core::engine::Engine;
    use neo_core::request::Request;
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn engine(scheduler: GpuOnlyScheduler) -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(scheduler))
    }

    #[test]
    fn vllm_like_completes_requests_without_cpu_use() {
        let mut e = engine(GpuOnlyScheduler::vllm_like());
        for id in 0..20 {
            e.submit(Request::new(id, 0.0, 400, 20)).unwrap();
        }
        let mut offloaded = 0;
        while !e.is_idle() {
            let r = e.step();
            offloaded += r.cpu_offloaded + r.swapped_out;
        }
        assert_eq!(e.completed(), 20);
        assert_eq!(offloaded, 0, "GPU-only baseline must never offload");
    }

    #[test]
    fn swiftllm_like_admits_whole_prompts() {
        let mut e = engine(GpuOnlyScheduler::swiftllm_like());
        e.submit(Request::new(1, 0.0, 1500, 4)).unwrap();
        let report = e.step();
        // Whole prompt in one go (fits the 2048-token default budget).
        assert_eq!(report.prefill_tokens, 1500);
        assert_eq!(e.scheduler_name(), "swiftllm-like");
    }

    #[test]
    fn vllm_like_chunks_long_prompts() {
        let mut e = engine(GpuOnlyScheduler::vllm_like());
        e.submit(Request::new(1, 0.0, 1500, 4)).unwrap();
        let report = e.step();
        assert_eq!(report.prefill_tokens, PREFILL_CHUNK);
    }

    #[test]
    fn the_gpu_pool_alone_bounds_admission() {
        for scheduler in [GpuOnlyScheduler::vllm_like(), GpuOnlyScheduler::swiftllm_like()] {
            let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
            let e = Engine::new(cost, EngineConfig::default(), Box::new(scheduler));
            let gpu = e.kv().pool(Device::Gpu).capacity_tokens();
            assert!(gpu < e.kv().pool(Device::Cpu).capacity_tokens());
            assert_eq!(e.max_context_capacity(), gpu, "{}", e.scheduler_name());
        }
        // The mirror case: the full-offload policies keep all KV on the host, so a
        // host pool smaller than the GPU's bounds them, however large the GPU pool.
        let full_offload: [Box<dyn neo_core::Scheduler>; 4] = [
            Box::new(crate::FastDecodePlusScheduler::new()),
            Box::new(crate::SimpleOffloadScheduler::new()),
            Box::new(crate::SymmetricPipelineScheduler::new()),
            Box::new(crate::PipoScheduler::new()),
        ];
        for scheduler in full_offload {
            let mut testbed = Testbed::g4dn_4xlarge();
            testbed.cpu_cache_fraction = 0.01;
            let cost = CostModel::new(ModelDesc::llama2_7b(), testbed, 1);
            let mut e = Engine::new(cost, EngineConfig::default(), scheduler);
            let name = e.scheduler_name();
            assert_eq!(e.kv().pool(Device::Gpu).capacity_tokens(), 3_120);
            assert_eq!(e.kv().pool(Device::Cpu).capacity_tokens(), 1_296);
            assert_eq!(e.max_context_capacity(), 1_296, "{name}");
            let err = e.submit(Request::new(0, 0.0, 1_796, 67)).unwrap_err();
            assert_eq!(
                err,
                neo_core::AdmitError::NeverAdmissible {
                    required_tokens: 1_863,
                    capacity_tokens: 1_296
                },
                "{name}"
            );
            e.submit(Request::new(1, 0.0, 1_200, 96)).unwrap();
            assert!(e.run_to_completion(100_000) < 100_000, "{name}: an exact fit finishes");
            assert_eq!(e.completed(), 1, "{name}");
        }
    }

    #[test]
    fn memory_pressure_stalls_rather_than_offloads() {
        let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
        let mut e =
            Engine::new(cost, EngineConfig::default(), Box::new(GpuOnlyScheduler::vllm_like()));
        for id in 0..64 {
            e.submit(Request::new(id, 0.0, 300, 30)).unwrap();
        }
        e.run_to_completion(500_000);
        assert_eq!(e.completed(), 64, "requests must eventually finish by waiting");
        // The T4 cannot hold all 64 requests at once, so the achieved batch sizes are
        // small — this is exactly why the paper's Figure 6c shows vLLM collapsing on T4.
        let kv = e.kv();
        assert_eq!(kv.sequences_on(Device::Cpu).len(), 0);
    }
}
