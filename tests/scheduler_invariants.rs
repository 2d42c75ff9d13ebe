//! Property-based integration tests of the load-aware scheduler's invariants, exercised
//! through the full engine on randomly generated workloads.

use neo_bench::{Policy, Scenario};
use neo_core::request::Request;
use neo_core::{AdmitError, ExecutionMode};
use neo_kvcache::Device;
use neo_serve::Server;
use neo_workload::{azure_code_like, fleet_mix, ArrivalProcess, Trace};
use proptest::prelude::*;

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
