//! The pluggable scheduler-policy seam.
//!
//! Every scheduling policy in this workspace — NEO itself and each baseline in
//! `neo-baselines` — is expressed as a [`SchedulerPolicy`]: a per-iteration pipeline of
//! three phases over a mutable [`IterationPlan`], followed by a mode-selection step that
//! turns the plan into the [`ScheduleDecision`] the engine executes:
//!
//! 1. **Batch formation** ([`SchedulerPolicy::form_batches`]) — place the already-running
//!    decode requests into the sub-batches, deciding any whole-sequence swaps or
//!    preemptions needed to make their new KV slots fit.
//! 2. **Admission** ([`SchedulerPolicy::admit`]) — pull prefill chunks from the waitqueue
//!    under the iteration token budget and pick the device their KV will land on.
//! 3. **Offload split** ([`SchedulerPolicy::split_offload`]) — decide which decodes run
//!    off-GPU this iteration and how they distribute over the two sub-batches (NEO's
//!    balancing inequalities, SpecOffload's speculative expansion, …). Policies with a
//!    static split (GPU-only, FastDecode+, PIPO) leave the default no-op.
//! 4. **Mode selection** ([`SchedulerPolicy::select_mode`]) — choose the execution mode
//!    and emit the final decision (NEO's greedy asymmetric-vs-GPU-only choice lives
//!    here); the default passes the plan through unchanged.
//!
//! A blanket `impl<P: SchedulerPolicy> Scheduler for P` drives the phases in order, so
//! any policy plugs into [`crate::Engine`] unchanged — adding a new baseline is
//! implementing this trait, nothing else. The phase decomposition is what the
//! scheduler-equivalence tests in `tests/scheduler_policy.rs` pin down.

use neo_kvcache::Device;

use crate::batch::{PrefillItem, ScheduleDecision, SubBatch};
use crate::config::{MAX_BATCH_SEQS, PREFILL_CHUNK};
use crate::scheduler::{ScheduleContext, Scheduler};
use crate::ExecutionMode;

/// The mutable working state a policy's phases build an iteration schedule in.
///
/// Mirrors the fields of the final [`ScheduleDecision`] plus running free-token counters
/// for both KV pools, so each phase sees the memory consequences of the phases before it.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationPlan {
    /// Execution mode the decision will carry (defaults to [`ExecutionMode::GpuOnly`]).
    pub mode: ExecutionMode,
    /// Batch-0 (GPU-heavy sub-batch; the only one that may carry prefills).
    pub batch0: SubBatch,
    /// Batch-1 (CPU-heavy sub-batch).
    pub batch1: SubBatch,
    /// Whole-sequence GPU→CPU swaps to apply before the iteration.
    pub swap_out: Vec<u64>,
    /// Whole-sequence CPU→GPU swaps to apply before the iteration.
    pub swap_in: Vec<u64>,
    /// Requests to preempt (KV discarded, re-queued for recomputation).
    pub preempt: Vec<u64>,
    /// CPU-resident requests to demote to the disk tier before the iteration (frees
    /// their CPU cache room). Only populated when [`crate::config::EngineConfig::disk_tier`]
    /// is on.
    pub demote_disk: Vec<u64>,
    /// Disk-resident requests to promote back to the CPU cache before the iteration.
    pub promote_disk: Vec<u64>,
    /// Free tokens remaining in the GPU KV pool, net of this plan's claims. Signed so
    /// phases can detect (and then resolve) overcommitment.
    pub gpu_free: i64,
    /// Free tokens remaining in the CPU KV pool, net of this plan's claims.
    pub cpu_free: i64,
    /// Free tokens remaining in the disk KV tier, net of this plan's claims.
    pub disk_free: i64,
}

impl IterationPlan {
    /// Creates an empty plan whose free-token counters start from the context's pools.
    pub fn new(ctx: &ScheduleContext<'_>) -> Self {
        Self {
            mode: ExecutionMode::GpuOnly,
            batch0: SubBatch::new(),
            batch1: SubBatch::new(),
            swap_out: Vec::new(),
            swap_in: Vec::new(),
            preempt: Vec::new(),
            demote_disk: Vec::new(),
            promote_disk: Vec::new(),
            gpu_free: ctx.gpu_free_tokens as i64,
            cpu_free: ctx.cpu_free_tokens as i64,
            disk_free: ctx.disk_free_tokens as i64,
        }
    }

    /// Remaining new-token budget of batch-0 under the configured per-iteration cap.
    pub fn token_budget(&self, ctx: &ScheduleContext<'_>) -> usize {
        ctx.config.max_batch_tokens.saturating_sub(self.batch0.linear_tokens())
    }

    /// Sequences currently scheduled across both sub-batches.
    pub fn sequences(&self) -> usize {
        self.batch0.sequences() + self.batch1.sequences()
    }

    /// Admits prefill chunks from the waitqueue into batch-0 under the iteration token
    /// budget, charging the free-token counters as it goes.
    ///
    /// Each chunk is the request's remaining prompt, cut to the budget left and to
    /// `chunk_cap` tokens (at least one): chunked-prefill policies pass [`PREFILL_CHUNK`],
    /// whole-prompt ones `usize::MAX`. Partially prefilled requests keep arriving until
    /// their prompt is done. `target_for` is asked, per candidate, where the chunk's KV
    /// should land given the plan so far, the request id and the chunk size; returning
    /// `None` stops admission (the policy's budget, memory or head-of-line rule fired).
    pub fn admit_prefills(
        &mut self,
        ctx: &ScheduleContext<'_>,
        chunk_cap: usize,
        mut target_for: impl FnMut(&Self, u64, usize) -> Option<Device>,
    ) {
        let mut token_budget = self.token_budget(ctx);
        for &id in ctx.waiting {
            if token_budget == 0 || self.batch0.sequences() >= MAX_BATCH_SEQS {
                break;
            }
            let remaining = ctx.remaining_prefill(id);
            if remaining == 0 {
                continue;
            }
            let chunk = remaining.min(token_budget).min(chunk_cap.max(1));
            let Some(target) = target_for(self, id, chunk) else { break };
            match target {
                Device::Gpu => self.gpu_free -= chunk as i64,
                Device::Cpu => self.cpu_free -= chunk as i64,
                Device::Disk => unreachable!("prefills never target the disk tier"),
            }
            let already = ctx.requests[id].prefilled;
            self.batch0.prefills.push(PrefillItem {
                req: id,
                new_tokens: chunk,
                ctx_after: already + chunk,
                target,
            });
            token_budget -= chunk;
        }
    }

    /// GPU-first prefill admission (step 3 of §3.2), shared by `NeoScheduler` and the
    /// SpecOffload baseline: a chunk's KV stays on the GPU when it fits and goes to the
    /// host cache otherwise. A partially prefilled request continues on the device its
    /// earlier chunks landed on, and admission stops when that device has no room.
    pub fn admit_gpu_first(&mut self, ctx: &ScheduleContext<'_>) {
        self.admit_prefills(ctx, PREFILL_CHUNK, |plan, id, chunk| {
            let target = match ctx.prefill_device.get(id) {
                Some(&d) => d,
                // A prompt that exceeds the *whole* GPU pool can never finish a GPU
                // prefill: pinned there, it would only stall when the pool fills and
                // restart forever. Send it to the CPU cache from the first chunk —
                // this is state-independent, so the choice is the same on an idle and
                // on a loaded engine.
                None if ctx.requests[id].prompt_len > ctx.gpu_capacity_tokens => Device::Cpu,
                None if plan.gpu_free >= chunk as i64 => Device::Gpu,
                None => Device::Cpu,
            };
            match target {
                Device::Gpu if plan.gpu_free >= chunk as i64 => Some(Device::Gpu),
                Device::Cpu if plan.cpu_free >= chunk as i64 => Some(Device::Cpu),
                _ => None,
            }
        });
    }

    /// GPU-first decode batch formation (step 2 of §3.2), shared by `NeoScheduler` and
    /// the SpecOffload baseline: every GPU-resident decode claims one new KV slot in
    /// batch-0. Under memory pressure the longest-context requests are swapped out to
    /// the host cache (or preempted entirely when the CPU cache is full too); with free
    /// memory above [`crate::EngineConfig::swap_in_watermark`], CPU-resident requests
    /// are pulled back to the GPU, smallest context first, and decode from batch-0 this
    /// iteration. Both CPU-side walks read [`ScheduleContext::cpu_by_context`] as far as
    /// they go; neither gathers nor sorts the CPU residents.
    pub fn form_gpu_first_batches(&mut self, ctx: &ScheduleContext<'_>) {
        let cfg = ctx.config;
        let gpu_capacity = ctx.gpu_free_tokens; // free tokens we may still claim

        let mut gpu_decodes: Vec<(u64, usize)> =
            ctx.gpu_run.iter().map(|&id| (id, ctx.context_len(id))).collect();
        self.gpu_free -= gpu_decodes.len() as i64;

        if self.gpu_free < 0 {
            // Swap out the longest-context requests until the new tokens fit; their KV
            // moves to the CPU cache and they decode on the CPU this iteration.
            gpu_decodes.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            // Disk-demotion victims: the CPU residents by descending context, equal
            // contexts in queue order. Every swap-out resumes where the one before
            // stopped: each victim passed over was demoted, or did not fit the disk
            // tier, whose room only shrinks here.
            let mut victims = ctx.cpu_by_context.chunk_by(|a, b| a.1 == b.1).rev().flatten();
            while self.gpu_free < 0 {
                let Some((id, c)) = gpu_decodes.first().copied() else { break };
                gpu_decodes.remove(0);
                if ctx.config.disk_tier {
                    // While the CPU cache cannot take the swap-out, demote its
                    // largest-context residents to the disk tier (cheaper than
                    // discarding KV outright) until nothing demotable remains.
                    while self.cpu_free < (c + 1) as i64 {
                        let Some(&(vid, vc)) = victims.next() else { break };
                        if self.disk_free < vc as i64 {
                            continue;
                        }
                        self.demote_disk.push(vid);
                        self.disk_free -= vc as i64;
                        self.cpu_free += vc as i64;
                    }
                }
                if self.cpu_free < (c + 1) as i64 {
                    // The CPU cache cannot hold it either: preempt the request entirely
                    // (vLLM-style recompute later) so the rest of the batch can progress.
                    self.preempt.push(id);
                } else {
                    self.swap_out.push(id);
                    self.cpu_free -= (c + 1) as i64;
                }
                // Its block reservation (c tokens) and its new-token slot are returned.
                self.gpu_free += (c + 1) as i64;
            }
        } else {
            // Ample space: swap CPU-requests back to the GPU, smallest context first.
            let watermark = (cfg.swap_in_watermark * gpu_capacity as f64) as i64;
            if self.gpu_free > watermark {
                for &(id, c) in ctx.cpu_by_context {
                    if self.gpu_free - (c + 1) as i64 <= watermark {
                        break;
                    }
                    self.swap_in.push(id);
                    self.gpu_free -= (c + 1) as i64;
                    self.cpu_free += c as i64;
                    // Swapped-in requests decode from the GPU cache this iteration.
                    gpu_decodes.push((id, c));
                }
            }
        }
        self.batch0.gpu_decodes = gpu_decodes;

        // Disk promotion, with hysteresis: when no demotion happened this iteration and
        // the CPU cache has at least twice the room the smallest disk-resident request
        // needs, bring it back (one per iteration, so promotion never thrashes against
        // the demotions above). When nothing is left on the CPU tier the hysteresis is
        // waived — no future CPU release could ever widen the gap, so demanding double
        // the room would park a large context on disk forever.
        if ctx.config.disk_tier && self.demote_disk.is_empty() {
            let smallest = ctx
                .disk_run
                .iter()
                .map(|&id| (ctx.context_len(id), id))
                .min()
                .map(|(c, id)| (id, c));
            if let Some((id, c)) = smallest {
                let needed = (c + 1) as i64;
                let threshold = if ctx.cpu_run.is_empty() { needed } else { 2 * needed };
                if self.cpu_free >= threshold {
                    self.promote_disk.push(id);
                    self.cpu_free -= c as i64;
                    self.disk_free += c as i64;
                }
            }
        }
    }

    /// The CPU-resident decodes an offload split may place this iteration, with their
    /// context lengths, in ascending context order: the CPU run queue minus the requests
    /// this plan swaps in or demotes to disk, in queue order among equal contexts,
    /// followed at each context by the ones it swaps out, in swap-out order. A request
    /// demoted to disk this iteration has no CPU-resident KV to decode from. Shared by
    /// `NeoScheduler` and the SpecOffload baseline.
    ///
    /// The walk is lazy: it reads [`ScheduleContext::cpu_by_context`] only as far as the
    /// caller consumes, merging in this plan's few swap-outs, sorted by context. The
    /// iterator owns copies of the plan's short move lists, so the caller may change the
    /// plan while it walks.
    pub fn cpu_decode_candidates<'a>(
        &self,
        ctx: &ScheduleContext<'a>,
    ) -> impl Iterator<Item = (u64, usize)> + 'a {
        let leaving: Vec<u64> = self.swap_in.iter().chain(&self.demote_disk).copied().collect();
        let mut residents = ctx
            .cpu_by_context
            .iter()
            .filter(move |(id, _)| !leaving.contains(id))
            .copied()
            .peekable();
        let mut swapped_out: Vec<(u64, usize)> =
            self.swap_out.iter().map(|&id| (id, ctx.context_len(id))).collect();
        swapped_out.sort_by_key(|&(_, c)| c);
        let mut swapped_out = swapped_out.into_iter().peekable();
        std::iter::from_fn(move || match (residents.peek(), swapped_out.peek()) {
            (Some(&(_, r)), Some(&(_, s))) if s < r => swapped_out.next(),
            (Some(_), _) => residents.next(),
            (None, _) => swapped_out.next(),
        })
    }

    /// The offload rule for an iteration with nothing on the GPU (no prefill chunk, no
    /// GPU decode in batch-0): the balancing inequalities would forbid every CPU decode
    /// (`Tca ≤ Tl0 = 0`) and starve the CPU residents, and there is no GPU work to hide
    /// them behind anyway, so the [`IterationPlan::cpu_decode_candidates`] run as a plain
    /// batch-1, up to [`MAX_BATCH_SEQS`] sequences. Returns whether it applied (batch-0
    /// was empty); a plan with GPU work is left as it is. Shared by `NeoScheduler` and
    /// the SpecOffload baseline.
    pub fn offload_without_gpu_work(&mut self, ctx: &ScheduleContext<'_>) -> bool {
        if !self.batch0.is_empty() {
            return false;
        }
        for decode in self.cpu_decode_candidates(ctx) {
            if self.batch1.sequences() >= MAX_BATCH_SEQS {
                break;
            }
            self.batch1.cpu_decodes.push(decode);
        }
        true
    }

    /// Whether either sub-batch carries a CPU decode: only then is there CPU attention
    /// to balance, and an asymmetric mode to choose.
    pub fn has_cpu_decodes(&self) -> bool {
        !self.batch0.cpu_decodes.is_empty() || !self.batch1.cpu_decodes.is_empty()
    }

    /// Finalises the plan into the decision the engine will execute.
    pub fn into_decision(self) -> ScheduleDecision {
        ScheduleDecision {
            mode: self.mode,
            batch0: self.batch0,
            batch1: self.batch1,
            swap_out: self.swap_out,
            swap_in: self.swap_in,
            preempt: self.preempt,
            demote_disk: self.demote_disk,
            promote_disk: self.promote_disk,
        }
    }
}

/// A per-iteration scheduling policy, decomposed into the phases every policy shares.
///
/// Implementing this trait is all a new scheduler needs: the blanket
/// [`Scheduler`] impl drives the phases and the engine, serving drivers, and figure
/// harnesses consume the policy through `Box<dyn Scheduler>` as before.
pub trait SchedulerPolicy: Send {
    /// Human-readable policy name (used in reports and figures).
    fn policy_name(&self) -> &'static str;

    /// Phase 1 — batch formation: place running decode requests, decide swaps and
    /// preemptions needed to fit their new KV slots.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan);

    /// Phase 2 — admission: pull prefill chunks from the waitqueue under the token
    /// budget and choose the device their KV lands on.
    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan);

    /// Phase 3 — offload split: decide which decodes run off-GPU and how they spread
    /// over the sub-batches. Default: keep the split from phase 1 (static policies).
    fn split_offload(&mut self, _ctx: &ScheduleContext<'_>, _plan: &mut IterationPlan) {}

    /// Phase 4 — mode selection: turn the finished plan into the decision, picking the
    /// execution mode. Default: emit the plan as-is.
    fn select_mode(&mut self, _ctx: &ScheduleContext<'_>, plan: IterationPlan) -> ScheduleDecision {
        plan.into_decision()
    }

    /// The pools the policy keeps KV in (see [`Scheduler::kv_pools`]). Default: the
    /// GPU pool and the host cache.
    fn kv_pools(&self) -> &'static [Device] {
        &[Device::Gpu, Device::Cpu]
    }
}

impl<P: SchedulerPolicy> Scheduler for P {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let mut plan = IterationPlan::new(ctx);
        self.form_batches(ctx, &mut plan);
        self.admit(ctx, &mut plan);
        self.split_offload(ctx, &mut plan);
        self.select_mode(ctx, plan)
    }

    fn name(&self) -> &'static str {
        self.policy_name()
    }

    fn kv_pools(&self) -> &'static [Device] {
        SchedulerPolicy::kv_pools(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::request::Request;
    use crate::scheduler::cpu_by_context;
    use neo_kvcache::IdTable;
    use neo_sim::{CostModel, ModelDesc, Testbed};

    /// A minimal policy used to exercise the phase driver: admits prefills to the GPU and
    /// decodes whatever runs there.
    struct TrivialPolicy {
        phases_seen: Vec<&'static str>,
    }

    impl SchedulerPolicy for TrivialPolicy {
        fn policy_name(&self) -> &'static str {
            "trivial"
        }
        fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
            self.phases_seen.push("form");
            for &id in ctx.gpu_run {
                plan.batch0.gpu_decodes.push((id, ctx.context_len(id)));
                plan.gpu_free -= 1;
            }
        }
        fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
            self.phases_seen.push("admit");
            plan.admit_prefills(ctx, PREFILL_CHUNK, |plan, _id, chunk| {
                (plan.gpu_free >= chunk as i64).then_some(Device::Gpu)
            });
        }
        fn split_offload(&mut self, _ctx: &ScheduleContext<'_>, _plan: &mut IterationPlan) {
            self.phases_seen.push("split");
        }
    }

    struct Fixture {
        requests: IdTable<Request>,
        waiting: Vec<u64>,
        gpu_run: Vec<u64>,
        cpu_run: Vec<u64>,
        cpu_by_context: Vec<(u64, usize)>,
        disk_run: Vec<u64>,
        disk_free: usize,
        prefill_device: IdTable<Device>,
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
                disk_run: vec![],
                disk_free: 0,
                prefill_device: IdTable::new(),
                config: EngineConfig::default(),
            }
        }

        fn add_cpu_resident(&mut self, request: Request) {
            let id = request.id;
            self.requests.insert(id, request).unwrap();
            self.cpu_run.push(id);
            self.cpu_by_context = cpu_by_context(&self.requests, &self.cpu_run);
        }

        fn ctx<'a>(&'a self, cost: &'a CostModel) -> ScheduleContext<'a> {
            ScheduleContext {
                cost,
                config: &self.config,
                requests: &self.requests,
                waiting: &self.waiting,
                gpu_run: &self.gpu_run,
                cpu_run: &self.cpu_run,
                cpu_by_context: &self.cpu_by_context,
                disk_run: &self.disk_run,
                gpu_free_tokens: 10_000,
                cpu_free_tokens: 100_000,
                disk_free_tokens: self.disk_free,
                gpu_capacity_tokens: 10_000,
                prefill_device: &self.prefill_device,
            }
        }
    }

    fn cost() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    #[test]
    fn driver_runs_phases_in_order() {
        let mut fx = Fixture::new();
        fx.requests.insert(1, Request::new(1, 0.0, 200, 10)).unwrap();
        fx.waiting.push(1);
        let cm = cost();
        let mut p = TrivialPolicy { phases_seen: vec![] };
        let d = p.schedule(&fx.ctx(&cm));
        assert_eq!(p.phases_seen, vec!["form", "admit", "split"]);
        assert_eq!(d.batch0.prefills.len(), 1);
        assert_eq!(Scheduler::name(&p), "trivial");
    }

    #[test]
    fn empty_plan_normalises_to_idle() {
        let fx = Fixture::new();
        let cm = cost();
        let mut p = TrivialPolicy { phases_seen: vec![] };
        let d = p.schedule(&fx.ctx(&cm));
        assert!(d.is_idle());
        assert_eq!(d, ScheduleDecision::idle());
    }

    #[test]
    fn admit_prefills_respects_budget_and_charges_memory() {
        let mut fx = Fixture::new();
        fx.config.max_batch_tokens = 600;
        for id in 0..4 {
            fx.requests.insert(id, Request::new(id, 0.0, 500, 10)).unwrap();
            fx.waiting.push(id);
        }
        let cm = cost();
        let ctx = fx.ctx(&cm);
        let mut plan = IterationPlan::new(&ctx);
        plan.admit_prefills(&ctx, PREFILL_CHUNK, |_, _, _| Some(Device::Gpu));
        assert!(plan.batch0.linear_tokens() <= 600);
        assert_eq!(plan.gpu_free, 10_000 - plan.batch0.linear_tokens() as i64);
    }

    #[test]
    fn admit_prefills_stops_when_target_declines() {
        let mut fx = Fixture::new();
        for id in 0..3 {
            fx.requests.insert(id, Request::new(id, 0.0, 100, 10)).unwrap();
            fx.waiting.push(id);
        }
        let cm = cost();
        let ctx = fx.ctx(&cm);
        let mut plan = IterationPlan::new(&ctx);
        let mut admitted = 0;
        plan.admit_prefills(&ctx, PREFILL_CHUNK, |_, _, _| {
            admitted += 1;
            (admitted <= 2).then_some(Device::Cpu)
        });
        assert_eq!(plan.batch0.prefills.len(), 2);
        assert_eq!(plan.cpu_free, 100_000 - 200);
    }

    fn running(id: u64, ctx_len: usize) -> Request {
        let mut r = Request::new(id, 0.0, ctx_len.max(1), 64);
        r.advance_prefill(r.prompt_len);
        r
    }

    #[test]
    fn cpu_pressure_demotes_to_disk_instead_of_preempting() {
        // A GPU decode must be shed, but the CPU cache is too full to take it. With the
        // disk tier on, the largest CPU resident is demoted to make room; without it,
        // the shed request is preempted outright.
        let mut fx = Fixture::new();
        fx.config.disk_tier = true;
        fx.disk_free = 100_000;
        fx.requests.insert(1, running(1, 500)).unwrap();
        fx.gpu_run.push(1);
        fx.add_cpu_resident(running(2, 900));
        let cm = cost();
        let ctx = ScheduleContext { gpu_free_tokens: 0, cpu_free_tokens: 100, ..fx.ctx(&cm) };
        let mut plan = IterationPlan::new(&ctx);
        plan.form_gpu_first_batches(&ctx);
        assert_eq!(plan.demote_disk, vec![2], "largest CPU resident is demoted");
        assert_eq!(plan.swap_out, vec![1], "the shed decode now fits the CPU cache");
        assert!(plan.preempt.is_empty());
        assert_eq!(plan.disk_free, 100_000 - 900);

        // Same pressure without the tier: preemption, exactly as before.
        fx.config.disk_tier = false;
        let ctx = ScheduleContext { gpu_free_tokens: 0, cpu_free_tokens: 100, ..fx.ctx(&cm) };
        let mut plan = IterationPlan::new(&ctx);
        plan.form_gpu_first_batches(&ctx);
        assert!(plan.demote_disk.is_empty());
        assert_eq!(plan.preempt, vec![1]);
    }

    #[test]
    fn ample_cpu_room_promotes_the_smallest_disk_resident() {
        let mut fx = Fixture::new();
        fx.config.disk_tier = true;
        fx.disk_free = 50_000;
        fx.requests.insert(1, running(1, 800)).unwrap();
        fx.requests.insert(2, running(2, 300)).unwrap();
        fx.disk_run.extend([1, 2]);
        let cm = cost();
        let ctx = fx.ctx(&cm); // cpu_free 100_000: plenty of room
        let mut plan = IterationPlan::new(&ctx);
        plan.form_gpu_first_batches(&ctx);
        assert_eq!(plan.promote_disk, vec![2], "smallest context first, one per iteration");
        assert_eq!(plan.disk_free, 50_000 + 300);
        assert_eq!(plan.cpu_free, 100_000 - 300);
    }

    #[test]
    fn empty_cpu_tier_waives_the_promotion_hysteresis() {
        // A parked context needing more than half the remaining CPU room would fail the
        // 2x hysteresis forever when nothing on the CPU tier will ever free space; with
        // the run queue empty a bare fit promotes it (the starvation guard).
        let mut fx = Fixture::new();
        fx.config.disk_tier = true;
        fx.disk_free = 50_000;
        fx.requests.insert(1, running(1, 800)).unwrap();
        fx.disk_run.push(1);
        let cm = cost();
        // 900 free: less than 2 * (800 + 1), but the context fits and the CPU is empty.
        let ctx = ScheduleContext { cpu_free_tokens: 900, ..fx.ctx(&cm) };
        let mut plan = IterationPlan::new(&ctx);
        plan.form_gpu_first_batches(&ctx);
        assert_eq!(plan.promote_disk, vec![1], "bare fit promotes when the CPU is idle");

        // With a CPU resident the hysteresis still applies at the same free level.
        fx.add_cpu_resident(running(2, 100));
        let ctx = ScheduleContext { cpu_free_tokens: 900, ..fx.ctx(&cm) };
        let mut plan = IterationPlan::new(&ctx);
        plan.form_gpu_first_batches(&ctx);
        assert!(plan.promote_disk.is_empty(), "hysteresis holds while CPU work remains");
    }

    #[test]
    fn disabled_disk_tier_never_moves_anything() {
        let mut fx = Fixture::new();
        fx.requests.insert(1, running(1, 300)).unwrap();
        fx.disk_run.push(1); // impossible in practice, but the policy must still ignore it
        let cm = cost();
        let ctx = fx.ctx(&cm);
        let mut plan = IterationPlan::new(&ctx);
        plan.form_gpu_first_batches(&ctx);
        assert!(plan.promote_disk.is_empty());
        assert!(plan.demote_disk.is_empty());
    }

    #[test]
    fn plan_tracks_token_budget() {
        let fx = Fixture::new();
        let cm = cost();
        let ctx = fx.ctx(&cm);
        let mut plan = IterationPlan::new(&ctx);
        assert_eq!(plan.token_budget(&ctx), fx.config.max_batch_tokens);
        plan.batch0.gpu_decodes.push((9, 100));
        assert_eq!(plan.token_budget(&ctx), fx.config.max_batch_tokens - 1);
        assert_eq!(plan.sequences(), 1);
    }
}
