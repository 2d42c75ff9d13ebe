//! Integration tests of the `SchedulerPolicy` seam: the blanket-driver equivalence
//! contract, cross-policy decision invariants on randomised scheduling contexts, and
//! pinned decision traces for the pipelined-offloading baselines on a small
//! deterministic workload.

use std::collections::BTreeMap;

use neo_baselines::{
    FastDecodePlusScheduler, GpuOnlyScheduler, PipoScheduler, SimpleOffloadScheduler,
    SpecOffloadScheduler, SymmetricPipelineScheduler,
};
use neo_bench::{Policy, Scenario};
use neo_core::batch::ScheduleDecision;
use neo_core::config::EngineConfig;
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::request::Request;
use neo_core::scheduler::{NeoScheduler, ScheduleContext, Scheduler};
use neo_kvcache::Device;
use neo_sim::{CostModel, ModelDesc, Testbed};
use proptest::prelude::*;

/// A deterministic, hand-built scheduling context.
struct Fixture {
    requests: BTreeMap<u64, Request>,
    waiting: Vec<u64>,
    gpu_run: Vec<u64>,
    cpu_run: Vec<u64>,
    prefill_device: BTreeMap<u64, Device>,
    gpu_free: usize,
    cpu_free: usize,
    config: EngineConfig,
}

impl Fixture {
    fn new(gpu_free: usize, cpu_free: usize) -> Self {
        Self {
            requests: BTreeMap::new(),
            waiting: vec![],
            gpu_run: vec![],
            cpu_run: vec![],
            prefill_device: BTreeMap::new(),
            gpu_free,
            cpu_free,
            config: EngineConfig::default(),
        }
    }

    fn add_waiting(&mut self, id: u64, prompt: usize) {
        self.requests.insert(id, Request::new(id, 0.0, prompt, 32));
        self.waiting.push(id);
    }

    fn add_running(&mut self, id: u64, ctx_len: usize, device: Device) {
        let mut r = Request::new(id, 0.0, ctx_len.max(1), 32);
        r.advance_prefill(r.prompt_len);
        self.requests.insert(id, r);
        match device {
            Device::Gpu => self.gpu_run.push(id),
            Device::Cpu => self.cpu_run.push(id),
            Device::Disk => unreachable!("tests place requests on GPU or CPU"),
        }
    }

    fn ctx<'a>(&'a self, cost: &'a CostModel) -> ScheduleContext<'a> {
        ScheduleContext {
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
        prop_assert!(fx.requests.contains_key(id), "{name}: unknown id {id}");
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
            prop_assert_eq!(engine.completed().len(), specs.len());
            let expected_decode: u64 = specs.iter().map(|&(_, o)| o as u64).sum();
            prop_assert_eq!(engine.total_decode_tokens(), expected_decode);
            prop_assert_eq!(engine.kv().num_sequences(), 0);
        }
    }
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
    assert_eq!(e.completed().len(), 4);
}

/// SpecOffload's schedule on a deterministic memory-pressure trace: GPU-first prefill,
/// swap-outs once the T4's KV pool fills, then speculative CPU decodes alongside the GPU
/// batch.
#[test]
fn specoffload_decision_trace_is_pinned() {
    let scenario = Scenario::t4_7b();
    let mut e = scenario.engine(Policy::SpecOffload);
    for id in 0..24 {
        e.submit(Request::new(id, 0.0, 400, 16)).unwrap();
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
    assert_eq!(e.completed().len(), 24);
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
