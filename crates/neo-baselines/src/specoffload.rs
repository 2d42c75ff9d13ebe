//! SpecOffload — speculative batch expansion that claims latent GPU capacity.
//!
//! SpecOffload (Zhuge et al., 2025 — see `PAPERS.md`) observes that offloading engines
//! leave GPU capacity latent — memory headroom and pipeline bubbles — and claims it
//! *speculatively*: extra work is scheduled optimistically, and when the speculation
//! overshoots what the hardware can absorb, the overshoot is rolled back at a cost.
//!
//! Mapped onto this workspace's engine abstraction, [`SpecOffloadScheduler`] serves
//! GPU-first (decodes on the GPU, swap-out only under memory pressure) and then, each
//! iteration, speculatively expands the batch with up to `spec_width` CPU-resident
//! decodes **without** checking NEO's balancing inequalities — the claim that their CPU
//! attention will hide in the pipeline's shadow is the speculation. The profiled cost
//! model then judges the claim:
//!
//! * **Hit** — the expanded schedule still satisfies the balance inequalities: the latent
//!   capacity was real, and `spec_width` grows additively to probe for more.
//! * **Mis-speculation** — the expansion overshot: the iteration executes anyway and its
//!   exposed CPU time is the rollback cost, paid in real simulated time, after which
//!   `spec_width` halves (AIMD, like congestion control).
//!
//! The result probes up to NEO's balanced operating point from below without ever
//! solving for it, trading occasional mis-speculated (slow) iterations for scheduling
//! simplicity — visible in the fig8c offload-family comparison as throughput slightly
//! below NEO's with the same general shape.

use neo_core::batch::ScheduleDecision;
use neo_core::config::MAX_BATCH_SEQS;
use neo_core::pipeline::balanced;
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::scheduler::ScheduleContext;
use neo_core::ExecutionMode;

/// Additive increase applied to the speculation width after a hit.
const SPEC_INCREASE: usize = 2;

/// The SpecOffload scheduler: optimistic batch expansion with AIMD width control.
#[derive(Debug, Clone)]
pub struct SpecOffloadScheduler {
    spec_width: usize,
    speculations: u64,
    rollbacks: u64,
}

impl Default for SpecOffloadScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpecOffloadScheduler {
    /// Creates the scheduler with the default initial speculation width.
    pub fn new() -> Self {
        Self::with_spec_width(4)
    }

    /// Creates the scheduler with an explicit initial speculation width (clamped to ≥ 1).
    pub fn with_spec_width(width: usize) -> Self {
        Self { spec_width: width.max(1), speculations: 0, rollbacks: 0 }
    }

    /// Current speculation width (CPU decodes claimed optimistically per iteration).
    pub fn spec_width(&self) -> usize {
        self.spec_width
    }

    /// Iterations in which extra decodes were claimed speculatively.
    pub fn speculations(&self) -> u64 {
        self.speculations
    }

    /// Mis-speculations so far (claims the balance check rejected after the fact).
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }
}

impl SchedulerPolicy for SpecOffloadScheduler {
    fn policy_name(&self) -> &'static str {
        "specoffload"
    }

    /// GPU-first batch formation — [`IterationPlan::form_gpu_first_batches`], the same
    /// mechanics NEO uses: GPU-resident decodes stay on the GPU; under memory pressure
    /// the longest contexts are swapped out (or preempted when the CPU cache is full
    /// too), and idle GPU memory pulls CPU-residents back in — idle *memory* is latent
    /// capacity just like idle compute.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.form_gpu_first_batches(ctx);
    }

    /// Prefill admission is NEO's, [`IterationPlan::admit_gpu_first`]: keep KV on the
    /// GPU while it fits, spill the rest to the host cache, continue a partial prefill
    /// on its device, and start a prompt larger than the GPU pool on the CPU.
    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.admit_gpu_first(ctx);
    }

    /// The speculation: claim up to `spec_width` CPU-resident decodes into batch-1
    /// without consulting the balance inequalities, then let the profiled cost model
    /// judge the claim after the fact and adapt the width (AIMD). The candidates are
    /// NEO's ([`IterationPlan::cpu_decode_candidates`]), smallest context first, so a
    /// request demoted to disk this iteration is never claimed.
    fn split_offload(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        // No GPU work at all to hide behind: the CPU residents run as a plain CPU batch
        // (there is no latent capacity to speculate on, only idle hardware).
        if plan.offload_without_gpu_work(ctx) {
            return;
        }
        let mut candidates = plan.cpu_decode_candidates(ctx).peekable();
        if candidates.peek().is_none() {
            return;
        }
        self.speculations += 1;
        for (id, c) in candidates.take(self.spec_width) {
            if plan.batch1.sequences() >= MAX_BATCH_SEQS {
                break;
            }
            plan.batch1.cpu_decodes.push((id, c));
        }

        // Judge the claim by the same balance rule NEO schedules with: do the
        // inequalities still hold for the expansion?
        let hidden = balanced(ctx.cost, &plan.batch0, &plan.batch1, ctx.config.balance_slack);
        if hidden {
            // Hit: the latent capacity was real — probe for more next iteration.
            self.spec_width = (self.spec_width + SPEC_INCREASE).min(MAX_BATCH_SEQS);
        } else {
            // Mis-speculation: the over-expanded iteration executes anyway (its exposed
            // CPU time is the rollback cost); back off multiplicatively.
            self.rollbacks += 1;
            self.spec_width = (self.spec_width / 2).max(1);
        }
    }

    /// Asymmetric whenever the speculation claimed CPU work, GPU-only otherwise.
    fn select_mode(
        &mut self,
        _ctx: &ScheduleContext<'_>,
        mut plan: IterationPlan,
    ) -> ScheduleDecision {
        plan.mode =
            if plan.has_cpu_decodes() { ExecutionMode::Asymmetric } else { ExecutionMode::GpuOnly };
        plan.into_decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_core::config::EngineConfig;
    use neo_core::engine::Engine;
    use neo_core::request::Request;
    use neo_core::scheduler::cpu_by_context;
    use neo_core::Scheduler;
    use neo_kvcache::{Device, IdTable};
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn engine(testbed: Testbed, model: ModelDesc) -> Engine {
        let cost = CostModel::new(model, testbed, 1);
        Engine::new(cost, EngineConfig::default(), Box::new(SpecOffloadScheduler::new()))
    }

    /// Hand-built scheduling context for driving the policy directly, so the AIMD
    /// counters stay observable.
    struct Fixture {
        requests: IdTable<Request>,
        waiting: Vec<u64>,
        gpu_run: Vec<u64>,
        cpu_run: Vec<u64>,
        prefill_device: IdTable<Device>,
        gpu_free: usize,
        cpu_free: usize,
        disk_free: usize,
        config: EngineConfig,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                requests: IdTable::new(),
                waiting: vec![],
                gpu_run: vec![],
                cpu_run: vec![],
                prefill_device: IdTable::new(),
                // Small enough that the swap-in watermark never pulls the CPU-resident
                // candidates back to the GPU, so the speculation path stays exercised.
                gpu_free: 100,
                cpu_free: 400_000,
                disk_free: 0,
                config: EngineConfig::default(),
            }
        }

        fn add_running(&mut self, id: u64, ctx_len: usize, device: Device) {
            let mut r = Request::new(id, 0.0, ctx_len.max(1), 64);
            r.advance_prefill(r.prompt_len);
            self.requests.insert(id, r).unwrap();
            match device {
                Device::Gpu => self.gpu_run.push(id),
                Device::Cpu => self.cpu_run.push(id),
                Device::Disk => unreachable!("tests place requests on GPU or CPU"),
            }
        }

        fn schedule(&self, cost: &CostModel, s: &mut SpecOffloadScheduler) -> ScheduleDecision {
            let cpu_by_context = cpu_by_context(&self.requests, &self.cpu_run);
            let ctx = ScheduleContext {
                cost,
                config: &self.config,
                requests: &self.requests,
                waiting: &self.waiting,
                gpu_run: &self.gpu_run,
                cpu_run: &self.cpu_run,
                cpu_by_context: &cpu_by_context,
                disk_run: &[],
                gpu_free_tokens: self.gpu_free,
                cpu_free_tokens: self.cpu_free,
                disk_free_tokens: self.disk_free,
                gpu_capacity_tokens: self.gpu_free,
                prefill_device: &self.prefill_device,
            };
            s.schedule(&ctx)
        }
    }

    fn cost() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    #[test]
    fn completes_workloads_and_reports_name() {
        let mut e = engine(Testbed::g5_xlarge(4), ModelDesc::llama3_8b());
        assert_eq!(e.scheduler_name(), "specoffload");
        for id in 0..16 {
            e.submit(Request::new(id, 0.0, 300, 24)).unwrap();
        }
        e.run_to_completion(200_000);
        assert_eq!(e.completed(), 16);
        assert_eq!(Scheduler::name(&SpecOffloadScheduler::new()), "specoffload");
    }

    #[test]
    fn speculation_claims_cpu_decodes_under_memory_pressure() {
        // On the memory-starved T4 the swapped-out population is the latent capacity the
        // speculation claims: offloaded decode iterations must appear.
        let mut e = engine(Testbed::g4dn_4xlarge(), ModelDesc::llama2_7b());
        for id in 0..48 {
            e.submit(Request::new(id, 0.0, 250, 40)).unwrap();
        }
        let mut offloaded_iterations = 0;
        while !e.is_idle() {
            let r = e.step();
            if r.cpu_offloaded > 0 {
                offloaded_iterations += 1;
            }
        }
        assert_eq!(e.completed(), 48);
        assert!(offloaded_iterations > 0, "speculation never claimed CPU-resident decodes");
    }

    #[test]
    fn hits_grow_the_speculation_width() {
        // A fat GPU batch whose linear stage easily hides a couple of small CPU decodes:
        // every speculation is a hit, so the width ratchets up additively.
        let mut fx = Fixture::new();
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        for id in 100..104 {
            fx.add_running(id, 200, Device::Cpu);
        }
        let cm = cost();
        let mut s = SpecOffloadScheduler::with_spec_width(2);
        let d = fx.schedule(&cm, &mut s);
        assert!(!d.batch1.cpu_decodes.is_empty(), "speculation must claim CPU decodes");
        assert_eq!(s.speculations(), 1);
        assert_eq!(s.rollbacks(), 0);
        assert_eq!(s.spec_width(), 2 + SPEC_INCREASE);
        let _ = fx.schedule(&cm, &mut s);
        assert_eq!(s.spec_width(), 2 + 2 * SPEC_INCREASE);
    }

    #[test]
    fn misses_halve_the_speculation_width() {
        // A thin GPU batch cannot hide dozens of long-context CPU decodes: the optimistic
        // claim overshoots, the decision still carries it (the rollback cost is paid in
        // execution), and the width halves.
        let mut fx = Fixture::new();
        fx.add_running(0, 100, Device::Gpu);
        for id in 100..164 {
            fx.add_running(id, 4000, Device::Cpu);
        }
        let cm = cost();
        let mut s = SpecOffloadScheduler::with_spec_width(64);
        let d = fx.schedule(&cm, &mut s);
        assert_eq!(s.rollbacks(), 1);
        assert_eq!(s.spec_width(), 32);
        assert_eq!(d.batch1.cpu_decodes.len(), 64, "mis-speculated work still executes");
        assert_eq!(d.mode, ExecutionMode::Asymmetric);
    }

    #[test]
    fn no_gpu_work_means_plain_cpu_batch_not_speculation() {
        let mut fx = Fixture::new();
        for id in 0..6 {
            fx.add_running(id, 500, Device::Cpu);
        }
        let cm = cost();
        let mut s = SpecOffloadScheduler::new();
        let d = fx.schedule(&cm, &mut s);
        assert_eq!(s.speculations(), 0);
        assert_eq!(d.batch1.cpu_decodes.len(), 6);
        assert!(d.batch0.is_empty());
    }

    #[test]
    fn requests_demoted_to_disk_are_not_claimed() {
        // Shedding a GPU decode into a full CPU cache demotes the two largest CPU
        // residents to disk. Their KV leaves the CPU before the iteration runs, so the
        // speculation must not decode them, however wide it is.
        let mut fx = Fixture::new();
        fx.config.disk_tier = true;
        fx.gpu_free = 5;
        fx.cpu_free = 10;
        fx.disk_free = 100_000;
        for id in 0..20 {
            fx.add_running(id, 500, Device::Gpu);
        }
        for id in 100..110 {
            fx.add_running(id, 300 + id as usize, Device::Cpu);
        }
        let cm = cost();
        let mut s = SpecOffloadScheduler::with_spec_width(32);
        let d = fx.schedule(&cm, &mut s);
        assert_eq!(d.demote_disk, vec![109, 108]);
        let claimed: Vec<u64> = d.batch1.cpu_decodes.iter().map(|&(id, _)| id).collect();
        assert_eq!(claimed, [100, 101, 102, 103, 104, 105, 106, 107, d.swap_out[0]]);
    }

    #[test]
    fn a_gpu_pinned_partial_prefill_is_never_targeted_at_the_cpu() {
        // Request 7's first chunk landed on the GPU, which has 16 free tokens left while
        // the host cache has plenty. Its next chunk must wait for the GPU: the engine
        // appends a partial prefill where its KV already is, so a CPU target would fail.
        let mut fx = Fixture::new();
        fx.gpu_free = 16;
        let mut r = Request::new(7, 0.0, 1_000, 32);
        r.advance_prefill(512);
        fx.requests.insert(7, r).unwrap();
        fx.waiting.push(7);
        fx.prefill_device.insert(7, Device::Gpu).unwrap();
        let d = fx.schedule(&cost(), &mut SpecOffloadScheduler::new());
        assert!(d.batch0.prefills.is_empty(), "{:?}", d.batch0.prefills);
    }

    #[test]
    fn an_oversized_prompt_starts_on_the_cpu() {
        // The first 512-token chunk fits the 600 free GPU tokens, but the whole
        // 1,000-token prompt never fits the 600-token pool: it starts on the CPU.
        let mut fx = Fixture::new();
        fx.gpu_free = 600;
        fx.requests.insert(1, Request::new(1, 0.0, 1_000, 32)).unwrap();
        fx.waiting.push(1);
        let d = fx.schedule(&cost(), &mut SpecOffloadScheduler::new());
        assert_eq!(d.batch0.prefills.len(), 1);
        assert_eq!(d.batch0.prefills[0].target, Device::Cpu);
    }

    #[test]
    fn width_floor_is_one() {
        assert_eq!(SpecOffloadScheduler::with_spec_width(0).spec_width(), 1);
    }
}
