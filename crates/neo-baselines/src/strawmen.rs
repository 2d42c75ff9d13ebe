//! The two strawman designs of §3.1, used by the pipeline-ablation figure.
//!
//! * **Simple offloading** (Figure 3): decode attention and KV move to the CPU, but the
//!   GPU and CPU never overlap — the CPU attention sits serially after the GPU linear
//!   stage of the same batch. Modelled by placing every CPU decode in batch-0, whose CPU
//!   attention the iteration formula cannot overlap with anything.
//! * **Symmetric pipelining** (Figure 4): the decode batch is split into two *identical*
//!   halves whose linear and attention stages overlap; prefill is not integrated (it runs
//!   in the same GPU stream but contributes nothing to hiding CPU work) and GPU KV memory
//!   is left unused.

use neo_core::config::MAX_BATCH_SEQS;
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::scheduler::ScheduleContext;
use neo_core::ExecutionMode;
use neo_kvcache::Device;

use crate::common::{admit_prefills_to_cpu, collect_full_offload_decodes, HOST_KV};

/// Strawman #1: full offload, no GPU/CPU overlap.
#[derive(Debug, Clone, Default)]
pub struct SimpleOffloadScheduler;

impl SimpleOffloadScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SchedulerPolicy for SimpleOffloadScheduler {
    fn policy_name(&self) -> &'static str {
        "simple-offload"
    }

    /// Everything sits in batch-0: the iteration formula then serialises the CPU
    /// attention after the GPU stages (`max(Tl1 + Tga0, Tca0)` with `Tl1 = 0`), i.e. no
    /// overlap — exactly the simple-offloading timeline of Figure 3.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.mode = ExecutionMode::Asymmetric;
        let decodes = collect_full_offload_decodes(ctx, plan, MAX_BATCH_SEQS);
        plan.batch0.cpu_decodes = decodes;
    }

    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        admit_prefills_to_cpu(ctx, plan);
    }

    fn kv_pools(&self) -> &'static [Device] {
        HOST_KV
    }
}

/// Strawman #2: full offload with two identical decode sub-batches.
#[derive(Debug, Clone, Default)]
pub struct SymmetricPipelineScheduler;

impl SymmetricPipelineScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SchedulerPolicy for SymmetricPipelineScheduler {
    fn policy_name(&self) -> &'static str {
        "symmetric-pipeline"
    }

    /// Collect every decode request (all offloaded), then split evenly in two identical
    /// halves whose linear and attention stages overlap (Figure 4).
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.mode = ExecutionMode::Asymmetric;
        let decodes = collect_full_offload_decodes(ctx, plan, 2 * MAX_BATCH_SEQS);
        for (i, item) in decodes.into_iter().enumerate() {
            if i % 2 == 0 {
                plan.batch0.cpu_decodes.push(item);
            } else {
                plan.batch1.cpu_decodes.push(item);
            }
        }
    }

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
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn engine(sched: Box<dyn Scheduler>) -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        Engine::new(cost, EngineConfig::default(), sched)
    }

    fn run_workload(sched: Box<dyn Scheduler>) -> (f64, usize) {
        let mut e = engine(sched);
        for id in 0..24 {
            e.submit(Request::new(id, 0.0, 400, 32)).unwrap();
        }
        e.run_to_completion(200_000);
        assert_eq!(e.completed(), 24);
        (e.now(), e.completed())
    }

    #[test]
    fn both_strawmen_complete_workloads() {
        let (t_simple, n1) = run_workload(Box::new(SimpleOffloadScheduler::new()));
        let (t_sym, n2) = run_workload(Box::new(SymmetricPipelineScheduler::new()));
        assert_eq!(n1, 24);
        assert_eq!(n2, 24);
        assert!(t_simple > 0.0 && t_sym > 0.0);
    }

    #[test]
    fn symmetric_overlap_beats_simple_offloading() {
        // Overlapping the two halves must not be slower than fully serialising GPU and CPU
        // stages (Figure 4 vs Figure 3).
        let (t_simple, _) = run_workload(Box::new(SimpleOffloadScheduler::new()));
        let (t_sym, _) = run_workload(Box::new(SymmetricPipelineScheduler::new()));
        assert!(
            t_sym <= t_simple * 1.05,
            "symmetric pipelining ({t_sym:.2}s) should not lose to simple offloading ({t_simple:.2}s)"
        );
    }

    #[test]
    fn symmetric_splits_decodes_roughly_evenly() {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let mut e =
            Engine::new(cost, EngineConfig::default(), Box::new(SymmetricPipelineScheduler::new()));
        for id in 0..30 {
            e.submit(Request::new(id, 0.0, 200, 40)).unwrap();
        }
        // After prefill settles, decode iterations should offload all 30 requests.
        let mut max_offloaded = 0;
        for _ in 0..200 {
            if e.is_idle() {
                break;
            }
            let r = e.step();
            max_offloaded = max_offloaded.max(r.cpu_offloaded);
        }
        assert!(max_offloaded >= 30, "all decodes offloaded, saw {max_offloaded}");
    }

    #[test]
    fn strawmen_report_names() {
        assert_eq!(SimpleOffloadScheduler::new().name(), "simple-offload");
        assert_eq!(SymmetricPipelineScheduler::new().name(), "symmetric-pipeline");
    }
}
