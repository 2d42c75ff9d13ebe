//! Integration tests of the `SchedulerPolicy` seam: the blanket-driver equivalence
//! contract, cross-policy decision invariants on randomised scheduling contexts, NEO's
//! incremental offload split and mode choice against their from-scratch forms, and
//! pinned decision traces for the pipelined-offloading baselines on a small
//! deterministic workload.

use neo_baselines::{
    FastDecodePlusScheduler, GpuOnlyScheduler, PipoScheduler, SimpleOffloadScheduler,
    SpecOffloadScheduler, SymmetricPipelineScheduler,
};
use neo_bench::{Policy, Scenario};
use neo_core::batch::{ScheduleDecision, SubBatch};
use neo_core::config::EngineConfig;
use neo_core::pipeline::{balanced, estimate_decision};
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::request::Request;
use neo_core::scheduler::{cpu_by_context, NeoScheduler, ScheduleContext, Scheduler};
use neo_core::ExecutionMode;
use neo_kvcache::{Device, IdTable};
use neo_sim::profiler::{IterationCost, ProfiledCostModel};
use neo_sim::{CostModel, ModelDesc, Testbed};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, hand-built scheduling context.
struct Fixture {
    requests: IdTable<Request>,
    waiting: Vec<u64>,
    gpu_run: Vec<u64>,
    cpu_run: Vec<u64>,
    /// `cpu_run` by context, rebuilt from scratch whenever a CPU resident is added.
    cpu_by_context: Vec<(u64, usize)>,
    prefill_device: IdTable<Device>,
    gpu_free: usize,
    cpu_free: usize,
    disk_free: usize,
    config: EngineConfig,
}

impl Fixture {
    fn new(gpu_free: usize, cpu_free: usize) -> Self {
        Self {
            requests: IdTable::new(),
            waiting: vec![],
            gpu_run: vec![],
            cpu_run: vec![],
            cpu_by_context: vec![],
            prefill_device: IdTable::new(),
            gpu_free,
            cpu_free,
            disk_free: 0,
            config: EngineConfig::default(),
        }
    }

    fn add_waiting(&mut self, id: u64, prompt: usize) {
        self.requests.insert(id, Request::new(id, 0.0, prompt, 32)).unwrap();
        self.waiting.push(id);
    }

    fn add_running(&mut self, id: u64, ctx_len: usize, device: Device) {
        let mut r = Request::new(id, 0.0, ctx_len.max(1), 32);
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

    fn ctx<'a>(&'a self, cost: &'a dyn IterationCost) -> ScheduleContext<'a> {
        ScheduleContext {
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
            disk_free_tokens: self.disk_free,
            gpu_capacity_tokens: self.gpu_free,
            prefill_device: &self.prefill_device,
        }
    }
}

fn a10g_cost() -> CostModel {
    CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
}

/// Drives a policy's phases by hand, exactly as the blanket `Scheduler` impl does.
fn manual_schedule<P: SchedulerPolicy>(
    policy: &mut P,
    ctx: &ScheduleContext<'_>,
) -> ScheduleDecision {
    let mut plan = IterationPlan::new(ctx);
    policy.form_batches(ctx, &mut plan);
    policy.admit(ctx, &mut plan);
    policy.split_offload(ctx, &mut plan);
    let decision = policy.select_mode(ctx, plan);
    if decision.is_idle() {
        ScheduleDecision::idle()
    } else {
        decision
    }
}

/// The blanket `Scheduler` impl must be exactly the documented phase pipeline — running
/// the phases by hand on a fresh policy instance yields an identical decision.
#[test]
fn blanket_driver_is_equivalent_to_manual_phases() {
    let mut fx = Fixture::new(2_000, 200_000);
    for id in 0..3 {
        fx.add_waiting(id, 700);
    }
    for id in 10..30 {
        fx.add_running(id, 600, Device::Gpu);
    }
    for id in 50..70 {
        fx.add_running(id, 800, Device::Cpu);
    }
    let cost = a10g_cost();
    let ctx = fx.ctx(&cost);

    fn check<P: SchedulerPolicy + Clone>(policy: &P, ctx: &ScheduleContext<'_>) {
        let via_trait = policy.clone().schedule(ctx);
        let via_phases = manual_schedule(&mut policy.clone(), ctx);
        assert_eq!(via_trait, via_phases, "{} diverged from its phases", policy.policy_name());
    }

    check(&NeoScheduler::new(), &ctx);
    check(&GpuOnlyScheduler::vllm_like(), &ctx);
    check(&GpuOnlyScheduler::swiftllm_like(), &ctx);
    check(&FastDecodePlusScheduler::new(), &ctx);
    check(&SimpleOffloadScheduler::new(), &ctx);
    check(&SymmetricPipelineScheduler::new(), &ctx);
    check(&PipoScheduler::new(), &ctx);
    check(&SpecOffloadScheduler::new(), &ctx);
}

/// Structural invariants every policy's decisions must uphold, whatever the context.
fn check_decision_invariants(
    name: &str,
    fx: &Fixture,
    d: &ScheduleDecision,
) -> Result<(), TestCaseError> {
    // Every scheduled id refers to a live request, and no id is scheduled twice.
    let ids = d.scheduled_ids();
    for window in ids.windows(2) {
        prop_assert!(window[0] != window[1], "{name}: id {} scheduled twice", window[0]);
    }
    for id in &ids {
        prop_assert!(fx.requests.contains(*id), "{name}: unknown id {id}");
    }
    // Swap lists are disjoint, and preempted requests never also execute.
    for id in &d.swap_out {
        prop_assert!(!d.swap_in.contains(id), "{name}: {id} swapped both ways");
    }
    for id in &d.preempt {
        prop_assert!(!ids.contains(id), "{name}: preempted {id} still scheduled");
    }
    // Prefills only ever sit in batch-0, within the per-iteration token budget.
    prop_assert!(d.batch1.prefills.is_empty(), "{name}: prefills in batch-1");
    let prefill_tokens: usize = d.batch0.prefills.iter().map(|p| p.new_tokens).sum();
    prop_assert!(
        prefill_tokens <= fx.config.max_batch_tokens,
        "{name}: prefill tokens {prefill_tokens} exceed the budget"
    );
    // Prefill chunks only come from the waitqueue.
    for p in &d.batch0.prefills {
        prop_assert!(fx.waiting.contains(&p.req), "{name}: prefilled {} not waiting", p.req);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All registered policies produce structurally sound decisions on randomised
    /// scheduling contexts (varying queue mix and memory pressure).
    #[test]
    fn prop_all_policies_emit_sound_decisions(
        n_waiting in 0usize..6,
        n_gpu in 0usize..40,
        n_cpu in 0usize..40,
        ctx_len in 50usize..1500,
        gpu_free in 0usize..30_000,
    ) {
        let mut fx = Fixture::new(gpu_free, 500_000);
        for id in 0..n_waiting as u64 {
            fx.add_waiting(id, ctx_len);
        }
        for id in 100..100 + n_gpu as u64 {
            fx.add_running(id, ctx_len, Device::Gpu);
        }
        for id in 200..200 + n_cpu as u64 {
            fx.add_running(id, ctx_len, Device::Cpu);
        }
        let cost = a10g_cost();
        let ctx = fx.ctx(&cost);
        for policy in Policy::ALL {
            let mut sched = policy.scheduler();
            let d = sched.schedule(&ctx);
            check_decision_invariants(sched.name(), &fx, &d)?;
        }
    }

    /// Every registered policy drains random workloads through the engine, conserving
    /// tokens and releasing all KV.
    #[test]
    fn prop_all_policies_drain_workloads(
        specs in proptest::collection::vec((50usize..600, 1usize..24), 1..10)
    ) {
        let scenario = Scenario::a10g_8b();
        for policy in Policy::ALL {
            let mut engine = scenario.engine(policy);
            for (i, &(prompt, output)) in specs.iter().enumerate() {
                engine.submit(Request::new(i as u64, 0.0, prompt, output)).unwrap();
            }
            let mut iterations = 0u64;
            while !engine.is_idle() && iterations < 400_000 {
                engine.step();
                iterations += 1;
            }
            prop_assert!(engine.is_idle(), "{} did not drain", engine.scheduler_name());
            prop_assert_eq!(engine.completed(), specs.len());
            let expected_decode: u64 = specs.iter().map(|&(_, o)| o as u64).sum();
            prop_assert_eq!(engine.total_decode_tokens(), expected_decode);
            prop_assert_eq!(engine.kv().num_sequences(), 0);
        }
    }
}

/// NEO as first written. Batch formation and the CPU candidates gather the CPU run
/// queue and stably sort it by context every iteration, where NEO walks the order the
/// engine keeps. The offload split pushes each CPU candidate, re-prices the iteration
/// from scratch with [`balanced`], and pops the candidate if that fails; each shed
/// attempt re-prices both sub-batches too; and step 6 prices both alternatives of every
/// plan, whether or not a CPU decode was placed. The oracle NEO's walks, its
/// incremental split and its mode choice must match bit for bit.
#[derive(Default)]
struct FromScratchNeo(NeoScheduler);

impl FromScratchNeo {
    /// The CPU run queue minus this plan's swap-ins and disk demotions, plus its
    /// swap-outs, stably sorted by context.
    fn candidates(ctx: &ScheduleContext<'_>, plan: &IterationPlan) -> Vec<(u64, usize)> {
        let mut candidates: Vec<(u64, usize)> = ctx
            .cpu_run
            .iter()
            .filter(|id| !plan.swap_in.contains(id) && !plan.demote_disk.contains(id))
            .map(|&id| (id, ctx.context_len(id)))
            .collect();
        candidates.extend(plan.swap_out.iter().map(|&id| (id, ctx.context_len(id))));
        candidates.sort_by_key(|&(_, c)| c);
        candidates
    }
}

impl SchedulerPolicy for FromScratchNeo {
    fn policy_name(&self) -> &'static str {
        "neo-from-scratch"
    }

    /// GPU-first batch formation with a sorted gather of the CPU run queue for the
    /// swap-ins and one more, rebuilt for every swapped-out request, for the disk
    /// demotions.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let cfg = ctx.config;
        let gpu_capacity = ctx.gpu_free_tokens;
        let mut gpu_decodes: Vec<(u64, usize)> =
            ctx.gpu_run.iter().map(|&id| (id, ctx.context_len(id))).collect();
        plan.gpu_free -= gpu_decodes.len() as i64;
        if plan.gpu_free < 0 {
            gpu_decodes.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            while plan.gpu_free < 0 {
                let Some((id, c)) = gpu_decodes.first().copied() else { break };
                gpu_decodes.remove(0);
                if plan.cpu_free < (c + 1) as i64 && cfg.disk_tier {
                    let mut victims: Vec<(u64, usize)> = ctx
                        .cpu_run
                        .iter()
                        .filter(|v| !plan.demote_disk.contains(v))
                        .map(|&v| (v, ctx.context_len(v)))
                        .collect();
                    victims.sort_by_key(|&(_, vc)| std::cmp::Reverse(vc));
                    for (vid, vc) in victims {
                        if plan.cpu_free >= (c + 1) as i64 {
                            break;
                        }
                        if plan.disk_free < vc as i64 {
                            continue;
                        }
                        plan.demote_disk.push(vid);
                        plan.disk_free -= vc as i64;
                        plan.cpu_free += vc as i64;
                    }
                }
                if plan.cpu_free < (c + 1) as i64 {
                    plan.preempt.push(id);
                } else {
                    plan.swap_out.push(id);
                    plan.cpu_free -= (c + 1) as i64;
                }
                plan.gpu_free += (c + 1) as i64;
            }
        } else {
            let watermark = (cfg.swap_in_watermark * gpu_capacity as f64) as i64;
            if plan.gpu_free > watermark {
                let mut candidates: Vec<(u64, usize)> =
                    ctx.cpu_run.iter().map(|&id| (id, ctx.context_len(id))).collect();
                candidates.sort_by_key(|&(_, c)| c);
                for (id, c) in candidates {
                    if plan.gpu_free - (c + 1) as i64 <= watermark {
                        break;
                    }
                    plan.swap_in.push(id);
                    plan.gpu_free -= (c + 1) as i64;
                    plan.cpu_free += c as i64;
                    gpu_decodes.push((id, c));
                }
            }
        }
        plan.batch0.gpu_decodes = gpu_decodes;
        if cfg.disk_tier && plan.demote_disk.is_empty() {
            let smallest = ctx
                .disk_run
                .iter()
                .map(|&id| (ctx.context_len(id), id))
                .min()
                .map(|(c, id)| (id, c));
            if let Some((id, c)) = smallest {
                let needed = (c + 1) as i64;
                let threshold = if ctx.cpu_run.is_empty() { needed } else { 2 * needed };
                if plan.cpu_free >= threshold {
                    plan.promote_disk.push(id);
                    plan.cpu_free -= c as i64;
                    plan.disk_free += c as i64;
                }
            }
        }
    }

    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        self.0.admit(ctx, plan);
    }

    fn split_offload(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let (cost, cfg) = (ctx.cost, ctx.config);
        let mut cpu_candidates = Self::candidates(ctx, plan);

        if plan.batch0.is_empty() && !cpu_candidates.is_empty() {
            for (id, c) in cpu_candidates.drain(..) {
                if plan.batch1.sequences() >= cfg.max_batch_seqs {
                    break;
                }
                plan.batch1.cpu_decodes.push((id, c));
            }
        }
        for (id, c) in cpu_candidates {
            if plan.batch0.sequences() + plan.batch1.sequences() >= 2 * cfg.max_batch_seqs {
                break;
            }
            plan.batch1.cpu_decodes.push((id, c));
            if balanced(cost, &plan.batch0, &plan.batch1, cfg.balance_slack) {
                continue;
            }
            plan.batch1.cpu_decodes.pop();
            plan.batch0.cpu_decodes.push((id, c));
            if balanced(cost, &plan.batch0, &plan.batch1, cfg.balance_slack) {
                continue;
            }
            plan.batch0.cpu_decodes.pop();
        }

        let has_cpu_work =
            !plan.batch0.cpu_decodes.is_empty() || !plan.batch1.cpu_decodes.is_empty();
        if has_cpu_work {
            while let Some(pos) = plan.batch0.prefills.iter().rposition(|p| p.target == Device::Cpu)
            {
                let removed = plan.batch0.prefills.remove(pos);
                if balanced(cost, &plan.batch0, &plan.batch1, cfg.balance_slack) {
                    continue;
                }
                plan.batch0.prefills.insert(pos, removed);
                break;
            }
        }
    }

    fn select_mode(&mut self, ctx: &ScheduleContext<'_>, plan: IterationPlan) -> ScheduleDecision {
        let (cost, overlap) = (ctx.cost, ctx.config.layerwise_swap_overlap);
        let swap_out: usize = plan.swap_out.iter().map(|&id| ctx.context_len(id)).sum();
        let swap_in: usize = plan.swap_in.iter().map(|&id| ctx.context_len(id)).sum();
        let asym = ScheduleDecision { mode: ExecutionMode::Asymmetric, ..plan.into_decision() };
        let mut gpu_only = ScheduleDecision {
            mode: ExecutionMode::GpuOnly,
            batch1: SubBatch::new(),
            ..asym.clone()
        };
        gpu_only.batch0.cpu_decodes.clear();
        let asym_est = estimate_decision(cost, &asym, swap_out, swap_in, overlap);
        let gpu_est = estimate_decision(cost, &gpu_only, swap_out, swap_in, overlap);
        if asym_est.throughput() > gpu_est.throughput() {
            asym
        } else {
            gpu_only
        }
    }
}

/// One randomised context for the split-equivalence property. `shape` aims it at one
/// path of NEO's batch formation or offload split and `seed` draws everything else:
/// - 0: a GPU batch with CPU-targeted prefill chunks, which step 5 may shed;
/// - 1: nothing on the GPU, so batch-0 is empty and the CPU residents run as a plain
///   CPU batch;
/// - 2: a `max_batch_seqs` small enough for the candidates to overrun;
/// - 3: more GPU decodes than GPU room, a nearly full CPU pool and the disk tier on,
///   with every context drawn from a narrow range: swap-outs that demote CPU residents
///   to disk first, placed swap-outs, and ties between equal contexts.
fn split_case(shape: usize, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fx = Fixture::new(rng.gen_range(0..4_000), rng.gen_range(20_000..400_000));
    fx.config.balance_slack = rng.gen_range(0.0..0.2);
    let mut contexts: std::ops::Range<usize> = 16..4_000;
    let (n_waiting, n_gpu, n_cpu): (u64, u64, u64) = match shape {
        0 => (rng.gen_range(1..6), rng.gen_range(1..64), rng.gen_range(0..300)),
        1 => {
            fx.gpu_free = 0;
            (0, 0, rng.gen_range(1..300))
        }
        2 => {
            fx.config.max_batch_seqs = rng.gen_range(1..12);
            (rng.gen_range(0..4), rng.gen_range(0..16), rng.gen_range(0..64))
        }
        _ => {
            fx.config.disk_tier = true;
            fx.disk_free = rng.gen_range(0..3_000);
            let low: usize = rng.gen_range(100..1_500);
            contexts = low..low + rng.gen_range(1usize..8);
            let n_gpu = rng.gen_range(1..48);
            fx.gpu_free = rng.gen_range(0..n_gpu as usize);
            fx.cpu_free = rng.gen_range(0..2 * contexts.end);
            (rng.gen_range(0..3), n_gpu, rng.gen_range(1..64))
        }
    };
    for id in 0..n_waiting {
        fx.add_waiting(id, rng.gen_range(16..3_000));
        if rng.gen_range(0..2) == 0 {
            // Partially prefilled, with its KV pinned to the CPU cache. Half of them have
            // a short tail left: shedding that chunk barely moves `Tl0`, so the `Tga0`
            // side of the balance decides.
            let r = fx.requests.get_mut(id).expect("just added");
            let tail = if rng.gen_range(0..2) == 0 { r.prompt_len.min(48) } else { r.prompt_len };
            let left = rng.gen_range(1..tail);
            r.advance_prefill(r.prompt_len - left);
            fx.prefill_device.insert(id, Device::Cpu).unwrap();
        }
    }
    for id in 100..100 + n_gpu {
        fx.add_running(id, rng.gen_range(contexts.clone()), Device::Gpu);
    }
    for id in 1_000..1_000 + n_cpu {
        fx.add_running(id, rng.gen_range(contexts.clone()), Device::Cpu);
    }
    fx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// NEO's walks of the engine's context order, its incremental offload split, and
    /// its mode choice that prices nothing when no CPU decode was placed, decide exactly
    /// what the from-scratch NEO does, under the exact cost model and under a noisy
    /// profile, whose costs are not monotone in context.
    #[test]
    fn prop_incremental_split_matches_from_scratch(case in (0usize..4, 0u64..1 << 48)) {
        let (shape, seed) = case;
        let fx = split_case(shape, seed);
        let exact = a10g_cost();
        let noisy = ProfiledCostModel::with_noise(a10g_cost(), 0.1);
        let costs: [(&str, &dyn IterationCost); 2] = [("exact", &exact), ("noisy", &noisy)];
        for (name, cost) in costs {
            let ctx = fx.ctx(cost);
            let incremental = NeoScheduler::new().schedule(&ctx);
            let from_scratch = FromScratchNeo::default().schedule(&ctx);
            prop_assert!(
                incremental == from_scratch,
                "shape {shape}, seed {seed}, {name} cost:\n{incremental:?}\n!= {from_scratch:?}"
            );
        }
    }
}

/// The equivalence property's cases reach every path they aim at: step 5 sheds a
/// chunk, batch-0 is empty while CPU residents wait, the sequence cap stops step 4, a
/// plan schedules work with no CPU decode, which step 6 does not price, a swapped-out
/// request is placed as a CPU decode, a swap-out demotes CPU residents to disk, and
/// the candidates hold equal contexts, whose order the walks must keep.
#[test]
fn split_cases_reach_every_path() {
    let cost = a10g_cost();
    let (mut shed, mut empty_batch0, mut capped, mut unpriced) = (0, 0, 0, 0);
    let (mut placed_swap_out, mut demoted, mut tied) = (0, 0, 0);
    for seed in 0..32 {
        for shape in 0..4 {
            let fx = split_case(shape, seed);
            let ctx = fx.ctx(&cost);
            let mut neo = FromScratchNeo::default();
            let mut plan = IterationPlan::new(&ctx);
            neo.form_batches(&ctx, &mut plan);
            neo.admit(&ctx, &mut plan);
            let candidates = FromScratchNeo::candidates(&ctx, &plan);
            let before = plan.clone();
            neo.split_offload(&ctx, &mut plan);
            let cpu_decodes =
                |p: &IterationPlan| p.batch0.cpu_decodes.len() + p.batch1.cpu_decodes.len();
            let placed = cpu_decodes(&plan) - cpu_decodes(&before);
            shed += usize::from(plan.batch0.prefills.len() < before.batch0.prefills.len());
            empty_batch0 += usize::from(before.batch0.is_empty() && !candidates.is_empty());
            capped += usize::from(
                placed < candidates.len() && plan.sequences() >= 2 * fx.config.max_batch_seqs,
            );
            unpriced += usize::from(cpu_decodes(&plan) == 0 && plan.sequences() > 0);
            placed_swap_out += usize::from(plan.swap_out.iter().any(|id| {
                plan.batch0.cpu_decodes.iter().chain(&plan.batch1.cpu_decodes).any(|d| d.0 == *id)
            }));
            demoted += usize::from(!plan.demote_disk.is_empty());
            tied += usize::from(candidates.windows(2).any(|w| w[0].1 == w[1].1));
        }
    }
    assert!(shed > 0, "no case shed a prefill chunk");
    assert!(empty_batch0 > 0, "no case left batch-0 empty");
    assert!(capped > 0, "no case hit the sequence cap");
    assert!(unpriced > 0, "no case scheduled work without a CPU decode");
    assert!(placed_swap_out > 0, "no case placed a swapped-out request");
    assert!(demoted > 0, "no case demoted a CPU resident to disk");
    assert!(tied > 0, "no case had equal-context candidates");
}

/// Batch-0 empty and every CPU decode in batch-1: the mode choice has something to
/// price, although batch-0 holds no CPU decode, and the plain CPU batch wins.
#[test]
fn a_cpu_only_plan_still_prices_its_mode() {
    let mut fx = Fixture::new(0, 200_000);
    for id in 0..8 {
        fx.add_running(id, 900, Device::Cpu);
    }
    let cost = a10g_cost();
    let ctx = fx.ctx(&cost);
    let d = NeoScheduler::new().schedule(&ctx);
    assert!(d.batch0.is_empty() && d.batch1.cpu_decodes.len() == 8);
    assert_eq!(d.mode, ExecutionMode::Asymmetric);
    assert_eq!(d, FromScratchNeo::default().schedule(&ctx));
}

/// Compact signature of one executed iteration, for decision-trace pinning.
fn signature(e: &mut neo_core::Engine) -> (String, usize, usize, usize, usize) {
    let r = e.step();
    (r.mode.to_string(), r.prefill_tokens, r.decode_tokens, r.cpu_offloaded, r.swapped_out)
}

/// PIPO's schedule on a small deterministic trace, pinned iteration by iteration: one
/// 512-token chunked prefill per request (KV to the host), then streamed decode batches
/// covering all four requests until they retire together.
#[test]
fn pipo_decision_trace_is_pinned() {
    let scenario = Scenario::t4_7b();
    let mut e = scenario.engine(Policy::Pipo);
    for id in 0..4 {
        e.submit(Request::new(id, 0.0, 600, 4)).unwrap();
    }
    // Prefill: 600-token prompts in 512/88-token chunks, all four requests interleaved
    // under the 2048-token budget; the completing chunk emits the first output token.
    assert_eq!(signature(&mut e), ("streamed".into(), 2048, 0, 0, 0));
    assert_eq!(signature(&mut e), ("streamed".into(), 352, 4, 0, 0));
    // Decode: all four stream every iteration until their 4 tokens are out.
    assert_eq!(signature(&mut e), ("streamed".into(), 0, 4, 4, 0));
    assert_eq!(signature(&mut e), ("streamed".into(), 0, 4, 4, 0));
    assert_eq!(signature(&mut e), ("streamed".into(), 0, 4, 4, 0));
    assert!(e.is_idle(), "all requests retired after the pinned trace");
    assert_eq!(e.completed(), 4);
}

/// SpecOffload's schedule on a deterministic memory-pressure trace: GPU-first prefill,
/// swap-outs once the T4's KV pool fills, then speculative CPU decodes alongside the GPU
/// batch. Prompts that spill to the CPU cache at admission leave the GPU residents
/// room for 16 output tokens each; 64 make their decodes outgrow the GPU pool.
#[test]
fn specoffload_decision_trace_is_pinned() {
    let scenario = Scenario::t4_7b();
    let mut e = scenario.engine(Policy::SpecOffload);
    for id in 0..24 {
        e.submit(Request::new(id, 0.0, 400, 64)).unwrap();
    }
    let mut saw_swap_out = false;
    let mut saw_speculative_mix = false;
    let mut iterations = 0;
    while !e.is_idle() && iterations < 100_000 {
        let r = e.step();
        if r.swapped_out > 0 {
            saw_swap_out = true;
        }
        // A speculative iteration runs GPU decodes and claimed CPU decodes together.
        if r.cpu_offloaded > 0 && r.decode_tokens > r.cpu_offloaded {
            saw_speculative_mix = true;
        }
        iterations += 1;
    }
    assert_eq!(e.completed(), 24);
    assert!(saw_swap_out, "T4 memory pressure must force swap-outs");
    assert!(saw_speculative_mix, "speculation must mix CPU claims into GPU iterations");
}

/// The engine-facing name of each registered policy is stable — figure JSON and
/// BENCH_scheduler.json reference these strings.
#[test]
fn policy_engine_names_are_pinned() {
    let expected = [
        (Policy::Neo, "neo"),
        (Policy::VllmLike, "vllm-like"),
        (Policy::SwiftLlmLike, "swiftllm-like"),
        (Policy::FastDecodePlus, "fastdecode+"),
        (Policy::SimpleOffload, "simple-offload"),
        (Policy::SymmetricPipeline, "symmetric-pipeline"),
        (Policy::Pipo, "pipo"),
        (Policy::SpecOffload, "specoffload"),
    ];
    for (policy, name) in expected {
        assert_eq!(policy.scheduler().name(), name);
    }
}
