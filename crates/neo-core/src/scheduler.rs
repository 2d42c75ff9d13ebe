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
//! 4. place CPU decode requests, in ascending context, into batch-0 or batch-1 while
//!    maintaining `Tca0 ≤ Tl1 + Tga0` and `Tca1 ≤ Tl0` (*Balancing*, *Hiding CPU*),
//!    stopping at the first rejected request for which [`IterationCost::cpu_attn_floor`]
//!    rules out every later one;
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
use crate::config::{EngineConfig, MAX_BATCH_SEQS};
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
    /// CPU decoding runqueue, in the order its requests joined it (the full-offload
    /// baselines serve it in this order).
    pub cpu_run: &'a [u64],
    /// `cpu_run`'s requests with their context lengths, by ascending context, equal
    /// contexts in `cpu_run` order: `cpu_run` stably sorted by context. The engine keeps
    /// this order as residents join, leave and decode, so a policy that reads the CPU
    /// residents by context (NEO's swap-in, offload split and disk demotion) walks it
    /// instead of sorting. A context built by hand takes it from [`cpu_by_context`].
    pub cpu_by_context: &'a [(u64, usize)],
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

/// `cpu_run`'s requests with their context lengths, stably sorted by context: the order
/// [`ScheduleContext::cpu_by_context`] holds, built from scratch. The engine maintains
/// it incrementally; hand-built contexts (fixtures, benchmarks) and the tests that check
/// the engine's order use this.
///
/// # Panics
///
/// Panics if an id of `cpu_run` is not in `requests`.
pub fn cpu_by_context(requests: &IdTable<Request>, cpu_run: &[u64]) -> Vec<(u64, usize)> {
    let mut order: Vec<(u64, usize)> =
        cpu_run.iter().map(|&id| (id, requests[id].context_len())).collect();
    order.sort_by_key(|&(_, c)| c);
    order
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
pub struct NeoScheduler;

impl NeoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
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
    /// are already known is tested first. A placed CPU candidate costs at most three
    /// queries. A rejected one costs at most two, plus one
    /// [`IterationCost::cpu_attn_floor`] per side whose gate is open; step 4 stops once
    /// every open side's floor breaks that side's inequality (or no side is open), since
    /// a rejection changes neither side and no later candidate has a smaller context.
    /// The placed set is the full scan's for any cost model whose floor is a valid bound.
    /// The candidates come lazily from the engine's context order
    /// ([`IterationPlan::cpu_decode_candidates`]), so the ones past the stop are never
    /// read.
    fn split_offload(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        // Nothing runs on the GPU: the CPU residents run as a plain CPU batch.
        if plan.offload_without_gpu_work(ctx) {
            return;
        }
        let cost = ctx.cost;
        let slack = ctx.config.balance_slack;

        // Step 4: CPU-resident candidates, read only as far as the loops below go.
        let mut cpu_candidates = plan.cpu_decode_candidates(ctx).peekable();
        if cpu_candidates.peek().is_none() {
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
            if plan.sequences() >= 2 * MAX_BATCH_SEQS {
                break;
            }
            // Try batch-1 first (it exists to absorb CPU attention under Tl0's shadow).
            // Only its Tl and Tca move; `Tca0 ≤ Tl1 + Tga0` needs no new query.
            let open1 = batch0_cpu_hidden(s0.tca, s1.tl_next, tga0, slack);
            if open1 {
                let tca1 = s1.tca_with(cost, c);
                if batch1_cpu_hidden(tca1, s0.tl, slack) {
                    s1.place(cost, c, tca1);
                    plan.batch1.cpu_decodes.push((id, c));
                    continue;
                }
            }
            // Then batch-0, where `Tca1 ≤ Tl0` is the inequality priced already.
            let open0 = batch1_cpu_hidden(s1.tca, s0.tl_next, slack);
            if open0 {
                let tca0 = s0.tca_with(cost, c);
                if batch0_cpu_hidden(tca0, s1.tl, tga0, slack) {
                    s0.place(cost, c, tca0);
                    plan.batch0.cpu_decodes.push((id, c));
                    continue;
                }
            }
            // Violates both inequalities: leave it for the next iteration (Hiding CPU).
            // Neither side moved, so a closed gate stays closed, and every later
            // candidate's `Tca` on an open side is at least that side's floor here.
            if (!open1 || !batch1_cpu_hidden(s1.tca_floor(cost, c), s0.tl, slack))
                && (!open0 || !batch0_cpu_hidden(s0.tca_floor(cost, c), s1.tl, tga0, slack))
            {
                break;
            }
        }

        // Step 5: shed prefill chunks that force swap-outs while balance still holds.
        // Only applies when there is CPU attention to balance against — if no CPU decodes
        // are scheduled, a CPU-targeted prefill is the only way the request can make
        // progress under GPU memory pressure and must not be shed (otherwise it would
        // starve forever). Batch-1 is final by now, and shedding moves only batch-0's
        // `Tl` and `Tga`.
        if !plan.has_cpu_decodes() {
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
        if !plan.has_cpu_decodes() {
            return ScheduleDecision { mode: ExecutionMode::GpuOnly, ..plan.into_decision() };
        }
        let cost = ctx.cost;
        let cfg = ctx.config;
        let swap_out_tokens: usize = plan.swap_out.iter().map(|&id| ctx.context_len(id)).sum();
        let swap_in_tokens: usize = plan.swap_in.iter().map(|&id| ctx.context_len(id)).sum();

        let throughput = |d: &ScheduleDecision| {
            estimate_decision(cost, d, swap_out_tokens, swap_in_tokens, cfg.layerwise_swap_overlap)
                .throughput()
        };

        let mut decision = plan.into_decision();
        decision.mode = ExecutionMode::Asymmetric;
        let asym = throughput(&decision);
        // The GPU-only alternative is the same decision without the CPU decodes step 4
        // placed: take them out, price it, and put them back if asymmetric wins.
        let cpu_decodes0 = std::mem::take(&mut decision.batch0.cpu_decodes);
        let batch1 = std::mem::take(&mut decision.batch1);
        decision.mode = ExecutionMode::GpuOnly;
        if asym > throughput(&decision) {
            decision.mode = ExecutionMode::Asymmetric;
            decision.batch0.cpu_decodes = cpu_decodes0;
            decision.batch1 = batch1;
        }
        decision
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

    /// A lower bound on [`Side::tca_with`] for every context of at least `c`.
    fn tca_floor(&self, cost: &dyn IterationCost, c: usize) -> f64 {
        cost.cpu_attn_floor(self.cpu_ctx + c, self.cpu_reqs + 1)
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
    use neo_sim::profiler::ProfiledCostModel;
    use neo_sim::{CostModel, ModelDesc, Testbed};
    use proptest::prelude::*;
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
        cpu_by_context: Vec<(u64, usize)>,
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
                cpu_by_context: vec![],
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
                Device::Cpu => {
                    self.cpu_run.push(id);
                    self.cpu_by_context = cpu_by_context(&self.requests, &self.cpu_run);
                }
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
                cpu_by_context: &self.cpu_by_context,
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
    fn scheduler_reports_its_name_and_idles_on_an_empty_engine() {
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
            cpu_by_context: &fx.cpu_by_context,
            disk_run: &[],
            gpu_free_tokens: fx.gpu_free,
            cpu_free_tokens: fx.cpu_free,
            disk_free_tokens: 0,
            gpu_capacity_tokens: fx.gpu_free,
            prefill_device: &fx.prefill_device,
        };
        assert!(s.schedule(&ctx).is_idle());
    }

    /// A cost model that counts the queries it answers. It either forwards the inner
    /// model's [`IterationCost::cpu_attn_floor`], counting those queries both with the
    /// others and apart, or hides it behind the trait's default, so step 4 runs its full
    /// scan.
    struct CountingCost<C> {
        inner: C,
        forward_floor: bool,
        calls: AtomicUsize,
        floor_calls: AtomicUsize,
    }

    impl<C: IterationCost> CountingCost<C> {
        fn new(inner: C, forward_floor: bool) -> Self {
            Self {
                inner,
                forward_floor,
                calls: AtomicUsize::new(0),
                floor_calls: AtomicUsize::new(0),
            }
        }

        fn count<T>(&self, answer: T) -> T {
            self.calls.fetch_add(1, Ordering::Relaxed);
            answer
        }

        /// Queries answered, floors included.
        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }

        /// Queries answered other than floors.
        fn priced_calls(&self) -> usize {
            self.calls() - self.floor_calls.load(Ordering::Relaxed)
        }
    }

    impl<C: IterationCost> IterationCost for CountingCost<C> {
        fn cpu_attn_floor(&self, ctx_total: usize, n_reqs: usize) -> f64 {
            if !self.forward_floor {
                return 0.0;
            }
            self.floor_calls.fetch_add(1, Ordering::Relaxed);
            self.count(self.inner.cpu_attn_floor(ctx_total, n_reqs))
        }
        fn linear_time(&self, n_tokens: usize) -> f64 {
            self.count(self.inner.linear_time(n_tokens))
        }
        fn gpu_attn_time(&self, prefill: &[(usize, usize)], ctx: usize, reqs: usize) -> f64 {
            self.count(self.inner.gpu_attn_time(prefill, ctx, reqs))
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
            self.count(self.inner.tp())
        }
    }

    #[test]
    fn balance_check_query_count_is_pinned() {
        // An overloaded server's shape: a full GPU batch plus a prefill chunk, and 256
        // CPU residents, most of which fit under neither inequality. Step 4 prices a
        // rejected candidate with at most two queries and a placed one with at most
        // three; step 5 re-prices batch-0 alone. The exact model's floor is its own
        // query, so step 4 stops at the first rejected candidate, after two floor
        // queries.
        let mut fx = Fixture::new();
        fx.gpu_free = 300; // the prefill chunk goes to the CPU cache, so step 5 runs too
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        fx.add_waiting(1000, 1500);
        for id in 100..356 {
            fx.add_running(id, 400 + (id as usize * 37) % 1600, Device::Cpu);
        }
        let counted = CountingCost::new(cost(), true);
        let d = fx.schedule(&counted);
        let placed = d.batch0.cpu_decodes.len() + d.batch1.cpu_decodes.len();
        assert_eq!(placed, 70);
        assert_eq!(d.batch0.prefills.len(), 1, "shedding the chunk would unbalance");
        // Re-pricing both sub-batches from scratch for every candidate (push,
        // `balanced`, pop) issued 2,751 queries for this schedule, and testing every
        // candidate incrementally 553, which a model without a floor still issues. The
        // GPU-only alternative's empty batch-1 asks nothing.
        assert_eq!(counted.calls(), 185);
        let full_scan = CountingCost::new(cost(), false);
        assert_eq!(fx.schedule(&full_scan), d);
        assert_eq!(full_scan.calls(), 553);
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
        let cost = CountingCost::new(cost(), true);
        let d = fx.schedule(&cost);
        assert_eq!(
            (d.mode, d.batch0.gpu_decodes.len(), d.batch0.prefills.len()),
            (GPU_ONLY, 40, 1)
        );
        assert_eq!(cost.calls(), 0);
        // A CPU resident too long to hide under either inequality is priced by step 4
        // alone: its seven stage-time queries, two per rejected candidate, and the two
        // floor queries that end the scan.
        fx.add_running(2000, 200_000, Device::Cpu);
        let d = fx.schedule(&cost);
        assert_eq!(
            (d.mode, d.batch0.cpu_decodes.len(), d.batch1.cpu_decodes.len()),
            (GPU_ONLY, 0, 0)
        );
        assert_eq!(cost.calls(), 11);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Step 4's floor exit decides what its full scan decides, bit for bit, through
        /// the profiled model at noise 0, 0.05 and 0.2, and it prices no more stage
        /// times: a noisy floor lies below the query, so the exit may come later than
        /// the first rejection, but never before the last placement.
        #[test]
        fn prop_the_floor_exit_decides_what_the_full_scan_decides(
            gpu in proptest::collection::vec(16usize..4_000, 0..64),
            waiting in proptest::collection::vec((16usize..3_000, 0usize..3), 0..4),
            cpu in proptest::collection::vec(16usize..4_000, 0..301),
            room in (0usize..6_000, 0usize..3),
        ) {
            let mut fx = Fixture::new();
            fx.gpu_free = room.0;
            fx.config.balance_slack = [0.0, 0.05, 0.15][room.1];
            for (id, &(prompt, kind)) in (0u64..).zip(&waiting) {
                fx.add_waiting(id, prompt);
                if kind > 0 {
                    // Partially prefilled with its KV pinned to the CPU cache, so step 5
                    // has a chunk to shed; kind 1 leaves a short tail.
                    let r = fx.requests.get_mut(id).expect("just added");
                    let tail = if kind == 1 { prompt.min(32) } else { prompt };
                    r.advance_prefill(prompt - (tail / 2).max(1));
                    fx.prefill_device.insert(id, Device::Cpu).unwrap();
                }
            }
            for (id, &c) in (100u64..).zip(&gpu) {
                fx.add_running(id, c, Device::Gpu);
            }
            for (id, &c) in (1_000u64..).zip(&cpu) {
                fx.add_running(id, c, Device::Cpu);
            }
            for noise in [0.0, 0.05, 0.2] {
                let real = CountingCost::new(ProfiledCostModel::with_noise(cost(), noise), true);
                let full_scan =
                    CountingCost::new(ProfiledCostModel::with_noise(cost(), noise), false);
                let d = fx.schedule(&real);
                prop_assert_eq!(&d, &fx.schedule(&full_scan), "noise {}", noise);
                prop_assert!(
                    real.priced_calls() <= full_scan.calls(),
                    "noise {}: {} > {}",
                    noise,
                    real.priced_calls(),
                    full_scan.calls()
                );
            }
        }
    }

    #[test]
    fn partially_prefilled_request_stays_on_its_device() {
        let mut fx = Fixture::new();
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
