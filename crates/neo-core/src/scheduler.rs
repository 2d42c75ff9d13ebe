//! The load-aware scheduler (§3.2 of the paper) and the scheduler interface.
//!
//! [`NeoScheduler`] follows the paper's six-step per-iteration procedure:
//!
//! 1. initialise two empty sub-batch schedules;
//! 2. schedule GPU decode requests, swapping requests out (or in) so the GPU-cache can
//!    hold all new KV entries (*Maximizing GPU*);
//! 3. admit prefill requests from the waitqueue into batch-0 until the activation/token
//!    budget is exhausted, keeping the generated KV on the GPU when it fits and marking it
//!    for swap-out otherwise (*Maximizing GPU*);
//! 4. place CPU decode requests into batch-0 or batch-1 while maintaining
//!    `Tca0 ≤ Tl1 + Tga0` and `Tca1 ≤ Tl0` (*Balancing*, *Hiding CPU*);
//! 5. shed prefill chunks that would force a swap-out, as long as the inequalities keep
//!    holding (*Balancing*);
//! 6. build the GPU-only alternative (batch-0 without the CPU decodes added in step 4) and
//!    greedily pick whichever schedule has the higher estimated throughput (*Greedy*).
//!
//! `NeoScheduler` — like every baseline in `neo-baselines` — is written as a
//! [`SchedulerPolicy`] (the phase-decomposed policy seam in [`crate::policy`]): the six
//! steps map onto the trait's phases as batch formation (step 2), admission (step 3),
//! offload split (steps 4–5) and mode selection (step 6). The blanket impl turns any
//! policy into a [`Scheduler`], which is the engine-facing object-safe interface.

use neo_kvcache::{Device, IdTable};
use neo_sim::profiler::IterationCost;

use crate::batch::{ScheduleDecision, SubBatch};
use crate::config::EngineConfig;
use crate::pipeline::{batch0_cpu_hidden, batch1_cpu_hidden, estimate_decision};
use crate::policy::{IterationPlan, SchedulerPolicy};
use crate::request::Request;
use crate::ExecutionMode;

/// Everything a scheduler may look at when forming one iteration's schedule.
///
/// Note that [`Request::output_len`] is ground truth the real system would not have; the
/// provided schedulers never read it.
pub struct ScheduleContext<'a> {
    /// Cost model (typically the profiled/interpolated one) used for time estimates.
    pub cost: &'a dyn IterationCost,
    /// Engine configuration.
    pub config: &'a EngineConfig,
    /// All live requests by id.
    pub requests: &'a IdTable<Request>,
    /// Prefill waitqueue (arrival order). Includes partially prefilled requests.
    pub waiting: &'a [u64],
    /// GPU decoding runqueue.
    pub gpu_run: &'a [u64],
    /// CPU decoding runqueue.
    pub cpu_run: &'a [u64],
    /// Disk-resident requests (demoted from the CPU cache). They cannot decode until
    /// promoted back; always empty unless [`EngineConfig::disk_tier`] is enabled.
    pub disk_run: &'a [u64],
    /// Free tokens in the GPU KV pool.
    pub gpu_free_tokens: usize,
    /// Free tokens in the CPU KV pool.
    pub cpu_free_tokens: usize,
    /// Free tokens in the disk KV tier (0 when the tier is disabled).
    pub disk_free_tokens: usize,
    /// Total size of the GPU KV pool, in tokens of whole blocks. Lets admission
    /// distinguish "the GPU is busy right now" from "this prompt can *never* fit the
    /// GPU": a fresh request whose whole prompt exceeds this must build its KV on the
    /// CPU from the first chunk, because partially-prefilled requests are pinned to
    /// their device.
    pub gpu_capacity_tokens: usize,
    /// Device each request's prefill is pinned to, so its later chunks land where the
    /// first did. The engine records the pin when it attempts a request's first chunk,
    /// before allocating it, or when a prefix-cache hit adopts GPU blocks at submit; it
    /// drops the pin when the prefill completes or the request is preempted or leaves.
    /// So a request whose first allocation failed is pinned while it holds no KV.
    /// Absent for requests whose prefill was never attempted.
    pub prefill_device: &'a IdTable<Device>,
}

impl ScheduleContext<'_> {
    /// Current context length (cached tokens) of a request.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown; schedulers only receive ids present in `requests`.
    pub fn context_len(&self, id: u64) -> usize {
        self.requests[id].context_len()
    }

    /// Remaining prompt tokens of a request.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn remaining_prefill(&self, id: u64) -> usize {
        self.requests[id].remaining_prefill()
    }
}

/// A per-iteration scheduling policy.
pub trait Scheduler: Send {
    /// Produces the schedule for the next iteration.
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision;

    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// The pools the policy keeps KV in. A sequence's KV lives wholly on one pool, so
    /// the largest of them bounds the context a request can hold, and the engine
    /// refuses larger ones at submit (see [`crate::Engine::max_context_capacity`]).
    /// Default: the GPU pool and the host (CPU) cache.
    fn kv_pools(&self) -> &'static [Device] {
        &[Device::Gpu, Device::Cpu]
    }
}

/// NEO's load-aware scheduler.
#[derive(Debug, Default, Clone)]
pub struct NeoScheduler {
    iterations: u64,
}

impl NeoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of schedules produced so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

impl SchedulerPolicy for NeoScheduler {
    fn policy_name(&self) -> &'static str {
        "neo"
    }

    /// Step 2 of §3.2: schedule GPU decode requests; each needs one new KV slot on the
    /// GPU. Under pressure the longest-context requests are swapped out (or preempted
    /// when the CPU cache is full too); with ample free memory CPU-requests are pulled
    /// back in, smallest context first. The mechanics are
    /// [`IterationPlan::form_gpu_first_batches`], shared with the SpecOffload baseline.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        self.iterations += 1;
        plan.form_gpu_first_batches(ctx);
    }

    /// Step 3: admit prefill requests into batch-0 under the token budget — the
    /// GPU-first rule of [`IterationPlan::admit_gpu_first`], shared with the SpecOffload
    /// baseline.
    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.admit_gpu_first(ctx);
    }

    /// Steps 4 and 5: place CPU decode requests while the balancing inequalities hold,
    /// then shed prefill chunks that force swap-outs while balance keeps holding.
    ///
    /// Both steps ask the same questions as [`crate::pipeline::balanced`] with the same
    /// cost-model arguments, but price only what a move changes: the stage times of both
    /// sub-batches are kept up to date, and of the two inequalities the one whose inputs
    /// are already known is tested first. A CPU candidate costs at most two queries when
    /// it is rejected and one more when it is placed.
    fn split_offload(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let cost = ctx.cost;
        let cfg = ctx.config;
        let slack = cfg.balance_slack;

        // Step 4: CPU-resident candidates.
        let cpu_candidates = plan.cpu_decode_candidates(ctx);
        if cpu_candidates.is_empty() {
            return;
        }

        // Degenerate case: nothing at all runs on the GPU this iteration (no prefills, no
        // GPU decodes). The balancing inequalities would then forbid every CPU decode
        // (`Tca ≤ Tl0 = 0`), starving CPU-resident requests forever; run them as a plain
        // CPU batch instead — there is no GPU work to hide them behind anyway.
        if plan.batch0.is_empty() {
            for (id, c) in cpu_candidates {
                if plan.batch1.sequences() >= cfg.max_batch_seqs {
                    break;
                }
                plan.batch1.cpu_decodes.push((id, c));
            }
            return;
        }

        // Placing CPU decodes never changes batch-0's prefills or GPU decodes, so its
        // `Tga` is priced once for the whole step.
        let b0 = &plan.batch0;
        let (gpu_ctx0, gpu_reqs0) = (b0.gpu_decode_ctx(), b0.gpu_decodes.len());
        let mut chunks0 = b0.prefill_chunks();
        let tga0 = cost.gpu_attn_time(&chunks0, gpu_ctx0, gpu_reqs0);
        let mut s0 = Side::new(cost, b0);
        let mut s1 = Side::new(cost, &plan.batch1);
        for (id, c) in cpu_candidates {
            if plan.batch0.sequences() + plan.batch1.sequences() >= 2 * cfg.max_batch_seqs {
                break;
            }
            // Try batch-1 first (it exists to absorb CPU attention under Tl0's shadow).
            // Only its Tl and Tca move; `Tca0 ≤ Tl1 + Tga0` needs no new query.
            if batch0_cpu_hidden(s0.tca, s1.tl_next, tga0, slack) {
                let tca1 = s1.tca_with(cost, c);
                if batch1_cpu_hidden(tca1, s0.tl, slack) {
                    s1.place(cost, c, tca1);
                    plan.batch1.cpu_decodes.push((id, c));
                    continue;
                }
            }
            // Then batch-0, where `Tca1 ≤ Tl0` is the inequality priced already.
            if batch1_cpu_hidden(s1.tca, s0.tl_next, slack) {
                let tca0 = s0.tca_with(cost, c);
                if batch0_cpu_hidden(tca0, s1.tl, tga0, slack) {
                    s0.place(cost, c, tca0);
                    plan.batch0.cpu_decodes.push((id, c));
                }
            }
            // Violates both inequalities: leave it for the next iteration (Hiding CPU).
        }

        // Step 5: shed prefill chunks that force swap-outs while balance still holds.
        // Only applies when there is CPU attention to balance against — if no CPU decodes
        // are scheduled, a CPU-targeted prefill is the only way the request can make
        // progress under GPU memory pressure and must not be shed (otherwise it would
        // starve forever). Batch-1 is final by now, and shedding moves only batch-0's
        // `Tl` and `Tga`.
        let has_cpu_work =
            !plan.batch0.cpu_decodes.is_empty() || !plan.batch1.cpu_decodes.is_empty();
        if !has_cpu_work {
            return;
        }
        let mut tokens0 = s0.tokens;
        while let Some(pos) = plan.batch0.prefills.iter().rposition(|p| p.target == Device::Cpu) {
            let removed = plan.batch0.prefills.remove(pos);
            chunks0.remove(pos);
            let tokens = tokens0 - removed.new_tokens;
            if batch1_cpu_hidden(s1.tca, cost.linear_time(tokens), slack)
                && batch0_cpu_hidden(
                    s0.tca,
                    s1.tl,
                    cost.gpu_attn_time(&chunks0, gpu_ctx0, gpu_reqs0),
                    slack,
                )
            {
                tokens0 = tokens;
                continue; // removal kept the pipeline balanced; keep it removed
            }
            // Removing it unbalanced the pipeline (the CPU work no longer hides behind
            // the linear stage): put it back and stop shedding.
            plan.batch0.prefills.insert(pos, removed);
            break;
        }
    }

    /// Step 6: greedy choice between the asymmetric and GPU-only schedules by estimated
    /// throughput.
    ///
    /// With no CPU decode in either sub-batch there is no choice to price: batch-1 is
    /// empty, the GPU-only alternative is the plan itself, and the two estimates are
    /// bit-equal (`Tl1 = Tca0 = Tca1 = 0`), a tie the greedy rule gives to GPU-only.
    fn select_mode(&mut self, ctx: &ScheduleContext<'_>, plan: IterationPlan) -> ScheduleDecision {
        if plan.batch0.cpu_decodes.is_empty() && plan.batch1.cpu_decodes.is_empty() {
            return ScheduleDecision { mode: ExecutionMode::GpuOnly, ..plan.into_decision() };
        }
        let cost = ctx.cost;
        let cfg = ctx.config;
        let swap_out_tokens: usize = plan.swap_out.iter().map(|&id| ctx.context_len(id)).sum();
        let swap_in_tokens: usize = plan.swap_in.iter().map(|&id| ctx.context_len(id)).sum();

        let mut asym = plan.into_decision();
        asym.mode = ExecutionMode::Asymmetric;
        let asym_est = estimate_decision(
            cost,
            &asym,
            swap_out_tokens,
            swap_in_tokens,
            cfg.layerwise_swap_overlap,
        );

        // GPU-only alternative: batch-0 without the CPU decodes added in step 4.
        let mut gpu_only_batch0 = asym.batch0.clone();
        gpu_only_batch0.cpu_decodes.clear();
        let gpu_only = ScheduleDecision {
            mode: ExecutionMode::GpuOnly,
            batch0: gpu_only_batch0,
            batch1: SubBatch::new(),
            swap_out: asym.swap_out.clone(),
            swap_in: asym.swap_in.clone(),
            preempt: asym.preempt.clone(),
            demote_disk: asym.demote_disk.clone(),
            promote_disk: asym.promote_disk.clone(),
        };
        let gpu_est = estimate_decision(
            cost,
            &gpu_only,
            swap_out_tokens,
            swap_in_tokens,
            cfg.layerwise_swap_overlap,
        );

        if asym_est.throughput() > gpu_est.throughput() {
            asym
        } else {
            gpu_only
        }
    }
}

/// One sub-batch's stage times while step 4 places CPU decodes into it.
///
/// A CPU decode of context `c` adds one linear-stage token and `(c, 1)` to the CPU
/// attention arguments, and changes nothing else the balancing inequalities read. So the
/// side keeps those integer arguments and the times they price to, with the next linear
/// time priced ahead: testing a candidate then needs only its new `Tca`.
struct Side {
    /// Linear-stage tokens.
    tokens: usize,
    /// Total context of the CPU decodes.
    cpu_ctx: usize,
    /// Number of CPU decodes.
    cpu_reqs: usize,
    /// `Tl = linear_time(tokens)`.
    tl: f64,
    /// `Tca = cpu_attn_time(cpu_ctx, cpu_reqs)`.
    tca: f64,
    /// `linear_time(tokens + 1)`: the side's `Tl` once one more decode joins.
    tl_next: f64,
}

impl Side {
    fn new(cost: &dyn IterationCost, batch: &SubBatch) -> Self {
        let tokens = batch.linear_tokens();
        let (cpu_ctx, cpu_reqs) = (batch.cpu_decode_ctx(), batch.cpu_decodes.len());
        Self {
            tokens,
            cpu_ctx,
            cpu_reqs,
            tl: cost.linear_time(tokens),
            tca: cost.cpu_attn_time(cpu_ctx, cpu_reqs),
            tl_next: cost.linear_time(tokens + 1),
        }
    }

    /// `Tca` with one more CPU decode of context `c`.
    fn tca_with(&self, cost: &dyn IterationCost, c: usize) -> f64 {
        cost.cpu_attn_time(self.cpu_ctx + c, self.cpu_reqs + 1)
    }

    /// Adds a CPU decode of context `c`, whose `Tca` was priced by [`Side::tca_with`].
    fn place(&mut self, cost: &dyn IterationCost, c: usize, tca: f64) {
        self.tokens += 1;
        self.cpu_ctx += c;
        self.cpu_reqs += 1;
        self.tl = self.tl_next;
        self.tca = tca;
        self.tl_next = cost.linear_time(self.tokens + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::stage_times;
    use neo_sim::{CostModel, ModelDesc, Testbed};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const GPU_ONLY: ExecutionMode = ExecutionMode::GpuOnly;

    fn cost() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    struct Fixture {
        requests: IdTable<Request>,
        waiting: Vec<u64>,
        gpu_run: Vec<u64>,
        cpu_run: Vec<u64>,
        prefill_device: IdTable<Device>,
        gpu_free: usize,
        cpu_free: usize,
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
                gpu_free: 20_000,
                cpu_free: 200_000,
                config: EngineConfig::default(),
            }
        }

        fn add_waiting(&mut self, id: u64, prompt: usize) {
            self.requests.insert(id, Request::new(id, 0.0, prompt, 64)).unwrap();
            self.waiting.push(id);
        }

        fn add_running(&mut self, id: u64, ctx: usize, device: Device) {
            let mut r = Request::new(id, 0.0, ctx.max(1), 64);
            r.advance_prefill(r.prompt_len);
            self.requests.insert(id, r).unwrap();
            match device {
                Device::Gpu => self.gpu_run.push(id),
                Device::Cpu => self.cpu_run.push(id),
                Device::Disk => unreachable!("tests place requests on GPU or CPU"),
            }
        }

        fn schedule(&self, cost: &dyn IterationCost) -> ScheduleDecision {
            let ctx = ScheduleContext {
                cost,
                config: &self.config,
                requests: &self.requests,
                waiting: &self.waiting,
                gpu_run: &self.gpu_run,
                cpu_run: &self.cpu_run,
                disk_run: &[],
                gpu_free_tokens: self.gpu_free,
                cpu_free_tokens: self.cpu_free,
                disk_free_tokens: 0,
                gpu_capacity_tokens: self.gpu_free,
                prefill_device: &self.prefill_device,
            };
            NeoScheduler::new().schedule(&ctx)
        }
    }

    #[test]
    fn empty_system_yields_idle_decision() {
        let fx = Fixture::new();
        let d = fx.schedule(&cost());
        assert!(d.is_idle());
    }

    #[test]
    fn waiting_requests_are_prefilled() {
        let mut fx = Fixture::new();
        fx.add_waiting(1, 300);
        fx.add_waiting(2, 400);
        let d = fx.schedule(&cost());
        let prefilled: Vec<u64> = d.batch0.prefills.iter().map(|p| p.req).collect();
        assert!(prefilled.contains(&1) && prefilled.contains(&2));
        // Plenty of GPU memory: both target the GPU, no swaps.
        assert!(d.batch0.prefills.iter().all(|p| p.target == Device::Gpu));
        assert!(d.swap_out.is_empty());
    }

    #[test]
    fn prefill_respects_token_budget() {
        let mut fx = Fixture::new();
        fx.config.max_batch_tokens = 512;
        fx.config.prefill_chunk = 512;
        for id in 0..10 {
            fx.add_waiting(id, 400);
        }
        let d = fx.schedule(&cost());
        assert!(d.batch0.linear_tokens() <= 512, "budget exceeded: {}", d.batch0.linear_tokens());
    }

    #[test]
    fn gpu_decodes_all_scheduled_when_memory_allows() {
        let mut fx = Fixture::new();
        for id in 0..50 {
            fx.add_running(id, 500, Device::Gpu);
        }
        let d = fx.schedule(&cost());
        assert_eq!(d.batch0.gpu_decodes.len(), 50);
        assert!(d.swap_out.is_empty());
    }

    #[test]
    fn gpu_memory_pressure_triggers_swap_out() {
        let mut fx = Fixture::new();
        fx.gpu_free = 10; // almost no room for new KV slots
        for id in 0..50 {
            fx.add_running(id, 500, Device::Gpu);
        }
        let d = fx.schedule(&cost());
        assert!(!d.swap_out.is_empty(), "must shed some GPU requests");
        // Shed requests either decode from the CPU cache this iteration or idle, but they
        // are never still counted as GPU decodes.
        for id in &d.swap_out {
            assert!(!d.batch0.gpu_decodes.iter().any(|&(i, _)| i == *id));
        }
    }

    #[test]
    fn ample_gpu_memory_triggers_swap_in() {
        let mut fx = Fixture::new();
        fx.gpu_free = 50_000;
        for id in 0..5 {
            fx.add_running(id, 300, Device::Cpu);
        }
        let d = fx.schedule(&cost());
        assert!(!d.swap_in.is_empty(), "idle GPU memory should pull CPU requests back");
    }

    #[test]
    fn cpu_decodes_are_balanced_against_linear_stage() {
        let mut fx = Fixture::new();
        // A healthy GPU batch providing a long linear stage...
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        fx.add_waiting(1000, 1500);
        // ...and many CPU-resident requests; only some can hide under the linear stage.
        for id in 100..400 {
            fx.add_running(id, 800, Device::Cpu);
        }
        let d = fx.schedule(&cost());
        assert_eq!(d.mode, ExecutionMode::Asymmetric);
        let scheduled_cpu = d.batch0.cpu_decodes.len() + d.batch1.cpu_decodes.len();
        assert!(scheduled_cpu > 0, "some CPU requests must be scheduled");
        assert!(scheduled_cpu < 300, "not all CPU requests can hide under the GPU stage");
        // The balancing inequalities hold for the emitted schedule.
        let cm = cost();
        let s0 = stage_times(&cm, &d.batch0);
        let s1 = stage_times(&cm, &d.batch1);
        let tol = 1.0 + fx.config.balance_slack + 0.05;
        assert!(s1.tca <= s0.tl * tol, "Tca1 {} vs Tl0 {}", s1.tca, s0.tl);
        assert!(s0.tca <= (s1.tl + s0.tga) * tol, "Tca0 {} vs Tl1+Tga0 {}", s0.tca, s1.tl + s0.tga);
    }

    #[test]
    fn greedy_never_picks_worse_than_gpu_only() {
        // With no CPU work at all, the decision must effectively be the GPU-only batch.
        let mut fx = Fixture::new();
        for id in 0..20 {
            fx.add_running(id, 400, Device::Gpu);
        }
        let d = fx.schedule(&cost());
        assert!(d.batch1.cpu_decodes.is_empty());
        assert!(d.batch0.cpu_decodes.is_empty());
    }

    #[test]
    fn scheduler_reports_name_and_counts_iterations() {
        let mut s = NeoScheduler::new();
        assert_eq!(s.name(), "neo");
        let fx = Fixture::new();
        let ctx = ScheduleContext {
            cost: &cost(),
            config: &fx.config,
            requests: &fx.requests,
            waiting: &fx.waiting,
            gpu_run: &fx.gpu_run,
            cpu_run: &fx.cpu_run,
            disk_run: &[],
            gpu_free_tokens: fx.gpu_free,
            cpu_free_tokens: fx.cpu_free,
            disk_free_tokens: 0,
            gpu_capacity_tokens: fx.gpu_free,
            prefill_device: &fx.prefill_device,
        };
        let _ = s.schedule(&ctx);
        let _ = s.schedule(&ctx);
        assert_eq!(s.iterations(), 2);
    }

    /// An exact cost model that counts the queries it answers.
    struct CountingCost {
        inner: CostModel,
        calls: AtomicUsize,
    }

    impl CountingCost {
        fn count<T>(&self, answer: T) -> T {
            self.calls.fetch_add(1, Ordering::Relaxed);
            answer
        }
    }

    impl IterationCost for CountingCost {
        fn linear_time(&self, n_tokens: usize) -> f64 {
            self.count(self.inner.linear_time(n_tokens))
        }
        fn gpu_attn_time(&self, prefill: &[(usize, usize)], ctx: usize, reqs: usize) -> f64 {
            self.count(IterationCost::gpu_attn_time(&self.inner, prefill, ctx, reqs))
        }
        fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
            self.count(self.inner.cpu_attn_time(ctx_total, n_reqs))
        }
        fn swap_out_time(&self, n_tokens: usize) -> f64 {
            self.count(self.inner.swap_out_time(n_tokens))
        }
        fn swap_in_time(&self, n_tokens: usize) -> f64 {
            self.count(self.inner.swap_in_time(n_tokens))
        }
        fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
            self.count(self.inner.pre_post_time(n_tokens, n_seqs))
        }
        fn n_layers(&self) -> usize {
            self.count(self.inner.n_layers())
        }
        fn tp(&self) -> usize {
            self.count(IterationCost::tp(&self.inner))
        }
    }

    #[test]
    fn balance_check_query_count_is_pinned() {
        // An overloaded server's shape: a full GPU batch plus a prefill chunk, and 256
        // CPU residents, most of which fit under neither inequality. Step 4 prices a
        // rejected candidate with at most two queries and a placed one with at most
        // three; step 5 re-prices batch-0 alone.
        let mut fx = Fixture::new();
        fx.gpu_free = 300; // the prefill chunk goes to the CPU cache, so step 5 runs too
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        fx.add_waiting(1000, 1500);
        for id in 100..356 {
            fx.add_running(id, 400 + (id as usize * 37) % 1600, Device::Cpu);
        }
        let cost = CountingCost { inner: cost(), calls: AtomicUsize::new(0) };
        let d = fx.schedule(&cost);
        let placed = d.batch0.cpu_decodes.len() + d.batch1.cpu_decodes.len();
        assert_eq!(placed, 70);
        assert_eq!(d.batch0.prefills.len(), 1, "shedding the chunk would unbalance");
        // Re-pricing both sub-batches from scratch for every candidate (push,
        // `balanced`, pop) issued 2,751 queries for this schedule. Step 6 prices the
        // GPU-only alternative's empty batch-1 too: three queries that each return 0.
        assert_eq!(cost.calls.load(Ordering::Relaxed), 556);
    }

    #[test]
    fn a_schedule_without_cpu_decodes_prices_no_mode_choice() {
        // A full GPU batch and a prefill chunk, nothing on the CPU: step 4 has no
        // candidate and step 6 no choice, so the schedule issues no query at all.
        let mut fx = Fixture::new();
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        fx.add_waiting(1000, 1500);
        let cost = CountingCost { inner: cost(), calls: AtomicUsize::new(0) };
        let d = fx.schedule(&cost);
        assert_eq!(
            (d.mode, d.batch0.gpu_decodes.len(), d.batch0.prefills.len()),
            (GPU_ONLY, 40, 1)
        );
        assert_eq!(cost.calls.load(Ordering::Relaxed), 0);
        // A CPU resident too long to hide under either inequality is priced by step 4
        // alone: its seven stage-time queries and two per rejected candidate.
        fx.add_running(2000, 200_000, Device::Cpu);
        let d = fx.schedule(&cost);
        assert_eq!(
            (d.mode, d.batch0.cpu_decodes.len(), d.batch1.cpu_decodes.len()),
            (GPU_ONLY, 0, 0)
        );
        assert_eq!(cost.calls.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn partially_prefilled_request_stays_on_its_device() {
        let mut fx = Fixture::new();
        fx.config.prefill_chunk = 128;
        let mut r = Request::new(7, 0.0, 600, 32);
        r.advance_prefill(128);
        fx.requests.insert(7, r).unwrap();
        fx.waiting.push(7);
        fx.prefill_device.insert(7, Device::Cpu).unwrap();
        let d = fx.schedule(&cost());
        let item = d.batch0.prefills.iter().find(|p| p.req == 7).expect("request scheduled");
        assert_eq!(item.target, Device::Cpu);
        assert_eq!(item.ctx_after, 128 + item.new_tokens);
    }
}
