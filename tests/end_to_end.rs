//! Cross-crate integration tests: workload generation → scheduling → simulated execution
//! → metrics, for NEO and every baseline on every testbed.

use neo_bench::{Policy, Scenario};
use neo_serve::{run_offline, run_online};
use neo_workload::{azure_code_like, osc_like, synthetic, ArrivalProcess};

#[test]
fn every_policy_drains_an_offline_workload_on_every_testbed() {
    let policies = [
        Policy::Neo,
        Policy::VllmLike,
        Policy::SwiftLlmLike,
        Policy::FastDecodePlus,
        Policy::SimpleOffload,
        Policy::SymmetricPipeline,
    ];
    for scenario in [Scenario::a10g_8b(), Scenario::t4_7b(), Scenario::h100_70b()] {
        let trace = synthetic(30, 300, 40, ArrivalProcess::AllAtOnce, 1);
        for &policy in &policies {
            let result = run_offline(scenario.engine(policy), &trace);
            assert_eq!(result.completed, 30, "{} on {}", policy.label(), scenario.name);
            assert!(result.token_throughput > 0.0);
        }
    }
}

#[test]
fn neo_latency_tracks_vllm_at_low_load() {
    // §5.2: at low request rates NEO behaves like the GPU-only engine.
    let scenario = Scenario::a10g_8b();
    let trace = azure_code_like(40, ArrivalProcess::Poisson { rate: 0.3 }, 2);
    let neo = run_online(scenario.engine(Policy::Neo), &trace);
    let vllm = run_online(scenario.engine(Policy::VllmLike), &trace);
    let ratio = neo.avg_per_token_latency / vllm.avg_per_token_latency;
    assert!(
        ratio < 1.5,
        "NEO low-load latency should track vLLM: NEO {:.3}s vs vLLM {:.3}s",
        neo.avg_per_token_latency,
        vllm.avg_per_token_latency
    );
}

#[test]
fn neo_sustains_more_load_than_vllm_on_the_t4() {
    // The Figure 6c story: on the memory-starved T4 the GPU-only engine saturates at a
    // much lower request rate than NEO. The rate must sit past the GPU-only knee, which
    // depends on the exact RNG stream behind the trace; with the vendored rand shim the
    // curves separate decisively at 2 req/s (see fig6_load_latency).
    let scenario = Scenario::t4_7b();
    let rate = 2.0;
    let trace = osc_like(60, ArrivalProcess::Poisson { rate }, 3);
    let neo = run_online(scenario.engine(Policy::Neo), &trace);
    let vllm = run_online(scenario.engine(Policy::VllmLike), &trace);
    assert!(
        neo.avg_per_token_latency < vllm.avg_per_token_latency,
        "at {rate} req/s the T4 GPU-only engine should already be saturating: NEO {:.3}s vs vLLM {:.3}s",
        neo.avg_per_token_latency,
        vllm.avg_per_token_latency
    );
}

#[test]
fn neo_beats_the_baseline_where_the_paper_says_it_should() {
    // Offline relative throughput on a mid-length synthetic workload (the Figure 9 peak
    // region): NEO > GPU-only on both the A10G and (dramatically) the T4.
    for (scenario, min_gain) in [(Scenario::a10g_8b(), 1.02), (Scenario::t4_7b(), 1.3)] {
        let trace =
            synthetic(80, 1000.min(scenario.model.hidden * 4), 150, ArrivalProcess::AllAtOnce, 4);
        let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace);
        let neo = run_offline(scenario.engine(Policy::Neo), &trace);
        let gain = neo.token_throughput / baseline.token_throughput;
        assert!(
            gain >= min_gain,
            "{}: expected NEO gain ≥ {min_gain}, got {gain:.3}",
            scenario.name
        );
    }
}

#[test]
fn fastdecode_plus_collapses_at_long_outputs_but_neo_does_not() {
    // Figure 8b: with long outputs, full offload becomes CPU-bound and loses to the
    // GPU-only baseline, while NEO's greedy fallback keeps it at or above the baseline.
    let scenario = Scenario::h100_70b();
    let trace = synthetic(60, 2000, 300, ArrivalProcess::AllAtOnce, 5);
    let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace);
    let fastdecode = run_offline(scenario.engine(Policy::FastDecodePlus), &trace);
    let neo = run_offline(scenario.engine(Policy::Neo), &trace);
    let fd_rel = fastdecode.token_throughput / baseline.token_throughput;
    let neo_rel = neo.token_throughput / baseline.token_throughput;
    assert!(
        fd_rel < 1.0,
        "FastDecode+ should fall below baseline at 300-token outputs: {fd_rel:.3}"
    );
    assert!(neo_rel > fd_rel, "NEO ({neo_rel:.3}) must beat FastDecode+ ({fd_rel:.3})");
    assert!(neo_rel > 0.9, "NEO must stay close to or above the baseline: {neo_rel:.3}");
}

#[test]
fn online_latency_is_monotone_in_request_rate_for_neo() {
    let scenario = Scenario::a10g_8b();
    let mut last = 0.0;
    for &rate in &[0.3, 1.0, 2.5] {
        let trace = azure_code_like(50, ArrivalProcess::Poisson { rate }, 6);
        let result = run_online(scenario.engine(Policy::Neo), &trace);
        assert!(
            result.avg_per_token_latency + 1e-6 >= last * 0.8,
            "latency should not drop sharply as load rises"
        );
        last = result.avg_per_token_latency;
    }
}

#[test]
fn cpu_sensitivity_gain_increases_with_bandwidth() {
    // Figure 10a: the g5.16xlarge (highest host bandwidth) must show at least as much
    // peak gain as the g5.2xlarge (lowest), on the same workload.
    let trace = synthetic(60, 1000, 250, ArrivalProcess::AllAtOnce, 7);
    let gain = |n: usize| {
        let scenario = Scenario::a10g_8b_on(n);
        let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace);
        let neo = run_offline(scenario.engine(Policy::Neo), &trace);
        neo.token_throughput / baseline.token_throughput
    };
    let small = gain(2);
    let large = gain(16);
    assert!(
        large >= small - 0.02,
        "g5.16xlarge gain ({large:.3}) should be at least the g5.2xlarge gain ({small:.3})"
    );
}
