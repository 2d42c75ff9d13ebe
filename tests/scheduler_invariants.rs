//! Property-based integration tests of the load-aware scheduler's invariants, exercised
//! through the full engine on randomly generated workloads.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neo_bench::{Policy, Scenario};
use neo_core::request::Request;
use neo_core::{AdmitError, Engine, EngineConfig, ExecutionMode};
use neo_core::{ScheduleContext, ScheduleDecision, Scheduler};
use neo_kvcache::Device;
use neo_serve::Server;
use neo_workload::{azure_code_like, fleet_mix, ArrivalProcess, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs a random workload through NEO's engine, checking per-iteration invariants.
fn check_run(
    scenario: &Scenario,
    specs: &[(usize, usize)],
    max_iterations: u64,
) -> Result<(), TestCaseError> {
    let mut engine = scenario.engine(Policy::Neo);
    let gpu_capacity = engine.kv().pool(Device::Gpu).capacity_tokens();
    let cpu_capacity = engine.kv().pool(Device::Cpu).capacity_tokens();
    for (i, &(prompt, output)) in specs.iter().enumerate() {
        engine.submit(Request::new(i as u64, 0.0, prompt, output)).unwrap();
    }

    let mut iterations = 0;
    let mut saw_asymmetric = false;
    while !engine.is_idle() && iterations < max_iterations {
        let report = engine.step();
        iterations += 1;
        if report.mode == ExecutionMode::Asymmetric && !report.idle {
            saw_asymmetric = true;
        }
        // Invariant: the KV pools never over-commit.
        let gpu_pool = engine.kv().pool(Device::Gpu);
        let cpu_pool = engine.kv().pool(Device::Cpu);
        prop_assert!(gpu_pool.used_tokens() <= gpu_capacity);
        prop_assert!(cpu_pool.used_tokens() <= cpu_capacity);
        // Invariant: time always advances while work remains.
        prop_assert!(report.duration > 0.0);
        // Invariant: a non-idle report does some work or applies some state change.
        if !report.idle {
            prop_assert!(
                report.prefill_tokens > 0
                    || report.decode_tokens > 0
                    || report.swapped_in > 0
                    || report.swapped_out > 0,
                "non-idle iteration did nothing"
            );
        }
    }
    // Liveness: everything finished within the iteration budget.
    prop_assert!(engine.is_idle(), "workload did not drain within {max_iterations} iterations");
    prop_assert_eq!(engine.completed(), specs.len());
    // Accounting: exact token conservation.
    let expected_prefill: u64 = specs.iter().map(|&(p, _)| p as u64).sum();
    let expected_decode: u64 = specs.iter().map(|&(_, o)| o as u64).sum();
    prop_assert_eq!(engine.total_prefill_tokens(), expected_prefill);
    prop_assert_eq!(engine.total_decode_tokens(), expected_decode);
    // All KV released at the end.
    prop_assert_eq!(engine.kv().pool(Device::Gpu).used_tokens(), 0);
    prop_assert_eq!(engine.kv().pool(Device::Cpu).used_tokens(), 0);
    // The flag is only informational here; memory-pressure cases assert on it below.
    let _ = saw_asymmetric;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// NEO drains arbitrary small workloads on the A10G testbed while respecting memory
    /// limits and conserving tokens.
    #[test]
    fn prop_neo_a10g_conserves_tokens(
        specs in proptest::collection::vec((50usize..1200, 1usize..80), 1..25)
    ) {
        check_run(&Scenario::a10g_8b(), &specs, 400_000)?;
    }

    /// Same invariants on the memory-starved T4, where swaps and preemptions are common.
    #[test]
    fn prop_neo_t4_conserves_tokens(
        specs in proptest::collection::vec((50usize..500, 1usize..60), 1..20)
    ) {
        check_run(&Scenario::t4_7b(), &specs, 400_000)?;
    }
}

#[test]
fn neo_uses_asymmetric_mode_under_memory_pressure() {
    // Deterministic complement to the properties above: a T4 workload too large for the
    // GPU cache must trigger asymmetric (offloaded) iterations.
    let scenario = Scenario::t4_7b();
    let mut engine = scenario.engine(Policy::Neo);
    for id in 0..48 {
        engine.submit(Request::new(id, 0.0, 250, 60)).unwrap();
    }
    let mut saw_asymmetric = false;
    let mut iterations = 0;
    while !engine.is_idle() && iterations < 400_000 {
        let report = engine.step();
        if report.mode == ExecutionMode::Asymmetric && report.cpu_offloaded > 0 {
            saw_asymmetric = true;
        }
        iterations += 1;
    }
    assert!(engine.is_idle());
    assert!(saw_asymmetric, "memory pressure must push NEO into asymmetric pipelining");
}

#[test]
fn gpu_only_baseline_never_touches_the_cpu_pool() {
    let scenario = Scenario::t4_7b();
    let mut engine = scenario.engine(Policy::VllmLike);
    for id in 0..32 {
        engine.submit(Request::new(id, 0.0, 250, 40)).unwrap();
    }
    let mut iterations = 0;
    while !engine.is_idle() && iterations < 400_000 {
        engine.step();
        assert_eq!(engine.kv().pool(Device::Cpu).used_tokens(), 0);
        iterations += 1;
    }
    assert!(engine.is_idle());
}

/// Iterations in a row without a token or an ended request before a `Server` run is
/// declared livelocked.
const STALL_BUDGET: u64 = 10_000;

/// Serves `trace` on one `Server` with the stall guard as its only budget; returns the
/// completed count and the submissions refused.
fn serve(scenario: &Scenario, policy: Policy, trace: &Trace) -> (usize, Vec<AdmitError>) {
    let mut server = Server::new(scenario.engine(policy)).with_max_iterations(STALL_BUDGET);
    let refused = trace
        .requests()
        .iter()
        .filter_map(|r| server.submit(r.arrival, r.prompt_len, r.output_len).err())
        .collect();
    (server.run_until_idle().completed, refused)
}

/// The T4 wedge table: every policy serves three AC traces to the end. Each request
/// completes or is refused at submit, and only the GPU-only policies refuse — the
/// contexts larger than the 3,120-token GPU pool they are bound by.
#[test]
fn every_policy_finishes_the_t4_wedge_table() {
    let scenario = Scenario::t4_7b();
    let gpu_pool = scenario.engine(Policy::Neo).kv().pool(Device::Gpu).capacity_tokens();
    for (seed, gpu_only_refusals) in [(11, 10), (3, 2), (7, 6)] {
        let trace = azure_code_like(30, ArrivalProcess::Poisson { rate: 1.0 }, seed);
        for policy in Policy::ALL {
            let (completed, refused) = serve(&scenario, policy, &trace);
            let cell = format!("{} on seed {seed}", policy.label());
            assert_eq!(completed + refused.len(), 30, "{cell}");
            let gpu_only = matches!(policy, Policy::VllmLike | Policy::SwiftLlmLike);
            assert_eq!(refused.len(), if gpu_only { gpu_only_refusals } else { 0 }, "{cell}");
            for err in refused {
                assert!(
                    matches!(err, AdmitError::NeverAdmissible { required_tokens, capacity_tokens }
                        if capacity_tokens == gpu_pool && required_tokens > gpu_pool),
                    "{cell}: {err:?}"
                );
            }
        }
    }
}

/// NEO alone on a T4 drains a fleet trace whose long prompts once left a request that
/// held no KV being preempted forever.
#[test]
fn neo_drains_a_fleet_mix_trace_on_one_t4() {
    let (completed, refused) =
        serve(&Scenario::t4_7b(), Policy::Neo, &fleet_mix(100, 0.35, 3.0, 11));
    assert!(refused.is_empty());
    assert_eq!(completed, 100);
}

/// A [`Scheduler`] decorator that checks, before every schedule, the CPU residents'
/// context order the engine hands its policy, then delegates.
struct OrderChecked {
    inner: Box<dyn Scheduler>,
    /// Schedules checked.
    schedules: Arc<AtomicU64>,
    /// Schedules whose CPU residents included two of equal context.
    tied: Arc<AtomicU64>,
}

impl Scheduler for OrderChecked {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        // The oracle: gather the CPU run queue and stably sort it by context.
        let mut expected: Vec<(u64, usize)> =
            ctx.cpu_run.iter().map(|&id| (id, ctx.context_len(id))).collect();
        expected.sort_by_key(|&(_, c)| c);
        assert_eq!(ctx.cpu_by_context, &expected[..], "the engine's order is not cpu_run's");
        self.schedules.fetch_add(1, Ordering::Relaxed);
        if expected.windows(2).any(|w| w[0].1 == w[1].1) {
            self.tied.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.schedule(ctx)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kv_pools(&self) -> &'static [Device] {
        self.inner.kv_pools()
    }
}

/// Every schedule of the policies that read the CPU residents (NEO, SpecOffload and
/// FastDecode+) sees them in the order the engine keeps: the CPU run queue stably
/// sorted by context, current to the last decode. The runs cover the A10G and the T4,
/// the disk tier on and off, and a tiny host cache, with prompts from a narrow range so
/// that equal contexts occur, and random evictions and fail-stops along the way.
#[test]
fn every_schedule_sees_the_cpu_residents_in_context_order() {
    let schedules = Arc::new(AtomicU64::new(0));
    let tied = Arc::new(AtomicU64::new(0));
    let mut seed = 0;
    for (base, prompts) in [(Scenario::a10g_8b(), 1_800..1_804), (Scenario::t4_7b(), 200..204)] {
        for policy in [Policy::Neo, Policy::SpecOffload, Policy::FastDecodePlus] {
            for (disk_tier, cpu_cache_fraction) in
                [(false, 0.6), (true, 0.6), (false, 0.01), (true, 0.01)]
            {
                seed += 1;
                let mut scenario = base.clone();
                scenario.testbed.cpu_cache_fraction = cpu_cache_fraction;
                let checked = OrderChecked {
                    inner: policy.scheduler(),
                    schedules: Arc::clone(&schedules),
                    tied: Arc::clone(&tied),
                };
                let config = EngineConfig { disk_tier, ..EngineConfig::default() };
                let mut engine = Engine::new(scenario.cost_model(), config, Box::new(checked));
                run_with_evictions_and_failures(&mut engine, prompts.clone(), seed);
            }
        }
    }
    let (schedules, tied) = (schedules.load(Ordering::Relaxed), tied.load(Ordering::Relaxed));
    assert!(tied > 0, "none of {schedules} schedules held equal contexts");
}

/// Serves 48 requests with prompts from `prompts` on `engine` to the end, evicting a
/// random request now and then and fail-stopping it up to twice; the requests a
/// failure loses are resubmitted under new ids.
fn run_with_evictions_and_failures(engine: &mut Engine, prompts: Range<usize>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0;
    for _ in 0..48 {
        let (prompt, output) = (rng.gen_range(prompts.clone()), rng.gen_range(8..160));
        // A context larger than every pool the policy keeps KV in is refused.
        let _ = engine.submit(Request::new(next_id, 0.0, prompt, output));
        next_id += 1;
    }
    let (mut failures, mut iterations) = (0, 0);
    while !engine.is_idle() && iterations < 200_000 {
        engine.step();
        iterations += 1;
        match rng.gen_range(0..400) {
            0 => {
                let _ = engine.evict(rng.gen_range(0..next_id));
            }
            1 if failures < 2 => {
                failures += 1;
                let lost = engine.fail();
                engine.recover();
                for r in lost {
                    let _ = engine.submit(Request::new(
                        next_id,
                        engine.now(),
                        r.prompt_len,
                        r.output_len,
                    ));
                    next_id += 1;
                }
            }
            _ => {}
        }
    }
    assert!(engine.is_idle(), "the run did not drain");
}
