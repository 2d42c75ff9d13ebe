//! Property-based integration tests of the load-aware scheduler's invariants, exercised
//! through the full engine on randomly generated workloads.

use neo_bench::{Policy, Scenario};
use neo_core::request::Request;
use neo_core::ExecutionMode;
use neo_kvcache::Device;
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
