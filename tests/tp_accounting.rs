//! Tensor-parallel cost-accounting contract.
//!
//! The TP re-pricing PR changed every PCIe term in `neo-sim` to per-rank accounting
//! (each rank moves `1/tp` of the bytes over its own link) and added collective terms
//! (LM-head all-gather). These tests pin the two sides of that change:
//!
//! * **tp = 1 is bit-identical to the pre-PR cost model.** The literals below were
//!   captured from the repository *before* the re-pricing; dividing by `tp = 1` and
//!   charging zero-valued collectives must not move a single bit on the single-GPU
//!   testbeds, so every previously published A10G / T4 figure still regenerates exactly.
//! * **tp = 2 re-prices the h100_70b scenario the way §3.2 predicts.** Swap terms halve
//!   (minus the fixed link latency), the QKVO round trip halves, and the scheduler's
//!   decisions on the 2×H100 testbed follow a pinned trace.

use neo_bench::{Policy, Scenario};
use neo_core::request::Request;
use neo_sim::{CostModel, ModelDesc, Testbed};

fn a10g() -> CostModel {
    CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
}

fn t4() -> CostModel {
    CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1)
}

fn h100_tp1() -> CostModel {
    CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(1), 1)
}

fn h100_tp2() -> CostModel {
    CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(2), 2)
}

/// Captured from the pre-PR cost model (commit c8ccd31) with `{:?}` round-trip
/// precision: (label, pre-PR value, current value). `assert_eq!` on f64 — bit identity,
/// not approximate equality — is the contract.
#[test]
fn tp1_times_are_bit_identical_to_pre_pr_values() {
    let cases: [(&str, f64, f64); 24] = [
        // A10G + LLaMa-3.1-8B (g5.4xlarge).
        ("a10g linear_time_gpu(1)", 0.0009251242666666665, a10g().linear_time_gpu(1)),
        ("a10g linear_time_gpu(64)", 0.0009477034666666666, a10g().linear_time_gpu(64)),
        ("a10g linear_time_gpu(512)", 0.003589412790272, a10g().linear_time_gpu(512)),
        ("a10g linear_time_gpu(4096)", 0.028603302322176002, a10g().linear_time_gpu(4096)),
        (
            "a10g pre_projection_time_gpu(512)",
            0.00042031686041599996,
            a10g().pre_projection_time_gpu(512),
        ),
        (
            "a10g post_projection_time_gpu(512)",
            0.003169095929856,
            a10g().post_projection_time_gpu(512),
        ),
        (
            "a10g gpu_attn prefill(512,1024)",
            0.000111079215104,
            a10g().gpu_attn_time(&[(512, 1024)], 0, 0),
        ),
        (
            "a10g gpu_decode_attn_time(50000,100)",
            0.00043466666666666664,
            a10g().gpu_decode_attn_time(50_000, 100),
        ),
        (
            "a10g cpu_decode_attn_time(50000,100)",
            0.0062205714285714295,
            a10g().cpu_decode_attn_time(50_000, 100),
        ),
        (
            "a10g swap_out_time_per_layer(1000)",
            0.00018066666666666668,
            a10g().swap_out_time_per_layer(1000),
        ),
        (
            "a10g swap_in_time_per_layer(1000)",
            0.00018066666666666668,
            a10g().swap_in_time_per_layer(1000),
        ),
        ("a10g swap_out_time_total(1000)", 0.005781333333333334, a10g().swap_out_time_total(1000)),
        (
            "a10g pre_post_layer_time(256,64)",
            0.002260471466666667,
            a10g().pre_post_layer_time(256, 64),
        ),
        ("a10g pre_post_layer_time(1,1)", 0.002237219466666667, a10g().pre_post_layer_time(1, 1)),
        // T4 + LLaMa-2-7B (g4dn.4xlarge).
        ("t4 linear_time_gpu(512)", 0.007100860582290598, t4().linear_time_gpu(512)),
        (
            "t4 cpu_decode_attn_time(50000,100)",
            0.029570209523809524,
            t4().cpu_decode_attn_time(50_000, 100),
        ),
        (
            "t4 swap_out_time_per_layer(1000)",
            0.0013753333333333334,
            t4().swap_out_time_per_layer(1000),
        ),
        ("t4 swap_in_time_total(1000)", 0.04401066666666667, t4().swap_in_time_total(1000)),
        (
            "t4 pre_post_layer_time(256,64)",
            0.0012416051199999997,
            t4().pre_post_layer_time(256, 64),
        ),
        // Single H100 at tp = 1 (the 70B weights do not fit — capacity pins below).
        ("h100tp1 linear_time_gpu(512)", 0.0016211337527713497, h100_tp1().linear_time_gpu(512)),
        (
            "h100tp1 cpu_decode_attn_time(50000,100)",
            0.0021995959183673465,
            h100_tp1().cpu_decode_attn_time(50_000, 100),
        ),
        (
            "h100tp1 swap_out_time_per_layer(1000)",
            9.333333333333334e-5,
            h100_tp1().swap_out_time_per_layer(1000),
        ),
        (
            "h100tp1 swap_in_time_total(1000)",
            0.0074666666666666675,
            h100_tp1().swap_in_time_total(1000),
        ),
        (
            "h100tp1 pre_post_layer_time(256,64)",
            0.0008508494805970151,
            h100_tp1().pre_post_layer_time(256, 64),
        ),
    ];
    for (label, expected, actual) in cases {
        assert_eq!(expected, actual, "{label} drifted from the pre-PR value");
    }
}

/// Capacity accounting at tp = 1 is equally pinned (same pre-PR capture).
#[test]
fn tp1_capacities_are_bit_identical_to_pre_pr_values() {
    assert_eq!(a10g().weight_bytes_per_gpu(), 16059990016);
    assert_eq!(a10g().kv_bytes_per_token_per_gpu(), 131072);
    assert_eq!(a10g().gpu_kv_capacity_tokens(), 43667);
    assert_eq!(a10g().cpu_kv_capacity_tokens(), 314572);
    assert_eq!(t4().weight_bytes_per_gpu(), 13476298752);
    assert_eq!(t4().gpu_kv_capacity_tokens(), 1131);
    assert_eq!(t4().cpu_kv_capacity_tokens(), 78643);
    assert_eq!(h100_tp1().weight_bytes_per_gpu(), 141104775168);
    assert_eq!(h100_tp1().gpu_kv_capacity_tokens(), 0, "70B weights cannot fit one 80 GB card");
}

/// The tp = 2 re-pricing of the h100_70b scenario: PCIe terms carry half the bytes.
///
/// Pre-PR, `swap_out_time_per_layer(1000)` on the 2×H100 testbed was the *whole* 4 MiB
/// layer shard over one Gen5 link: `9.333e-5 s`. Per-rank accounting moves 2 MiB per
/// link: `5.067e-5 s`. The fixed link latency (8 µs) is unchanged, so the time does not
/// exactly halve — the *bandwidth component* does.
#[test]
fn tp2_swap_terms_carry_half_the_bytes() {
    let tp1 = h100_tp1();
    let tp2 = h100_tp2();
    let lat = tp2.testbed().pcie.latency;
    for n in [100usize, 1000, 25_000] {
        let out1 = tp1.swap_out_time_per_layer(n) - lat;
        let out2 = tp2.swap_out_time_per_layer(n) - lat;
        assert!((out2 - out1 / 2.0).abs() < 1e-15, "swap-out({n}) must halve: {out2} vs {out1}");
        let in1 = tp1.swap_in_time_per_layer(n) - lat;
        let in2 = tp2.swap_in_time_per_layer(n) - lat;
        assert!((in2 - in1 / 2.0).abs() < 1e-15, "swap-in({n}) must halve: {in2} vs {in1}");
    }
    // The QKVO round trip of CPU decode attention halves too (the CPU compute part is
    // deliberately tp-independent: the host runs all heads either way, §4).
    let cpu1 = tp1.cpu_decode_attn_time(50_000, 100);
    let cpu2 = tp2.cpu_decode_attn_time(50_000, 100);
    assert!(cpu2 < cpu1, "per-rank QKVO transfer must shrink the CPU attention term");
}

/// The per-rank terms must flow through the estimate layer: a pure swap-bound
/// iteration estimate on the 2×H100 testbed prices (close to) half the transfer time of
/// the mispriced whole-shard accounting.
#[test]
fn estimates_inherit_per_rank_swap_accounting() {
    use neo_core::batch::{ScheduleDecision, SubBatch};
    use neo_core::pipeline::estimate_gpu_only;
    use neo_core::ExecutionMode;

    let tp2 = h100_tp2();
    let batch0 = SubBatch {
        prefills: vec![],
        gpu_decodes: (0..32).map(|i| (i, 1000)).collect(),
        cpu_decodes: vec![],
    };
    let decision = ScheduleDecision {
        mode: ExecutionMode::GpuOnly,
        batch0,
        batch1: SubBatch::new(),
        swap_out: vec![],
        swap_in: vec![],
        preempt: vec![],
        demote_disk: vec![],
        promote_disk: vec![],
    };
    // 20k whole-sequence swap-in tokens, deferred (not layer-overlapped): the exposed
    // swap time is exactly L × per-layer swap-in time, i.e. per-rank wall-clock.
    let est = estimate_gpu_only(&tp2, &decision.batch0, 0, 20_000, false);
    let expected = tp2.swap_in_time_total(20_000);
    assert!(
        (est.exposed_swap_time - expected).abs() < 1e-12,
        "exposed swap {} vs per-rank total {}",
        est.exposed_swap_time,
        expected
    );
    // And the per-rank total is ~half the group-level bytes over one link.
    let tp1 = h100_tp1();
    assert!(est.exposed_swap_time < tp1.swap_in_time_total(20_000) * 0.6);
}

/// Pinned scheduling trace of the re-priced h100_70b scenario.
///
/// 24 requests × 2000 prompt tokens against a ~32.8k-token GPU KV pool forces the
/// scheduler through admission, memory pressure and offload decisions. The signature of
/// each of the first 12 iterations — (mode, batch size, prefill tokens, decode tokens,
/// CPU-offloaded decodes, swap-outs, swap-ins) — is pinned so any future change to the
/// TP cost terms that shifts 2×H100 scheduling shows up as a diff here, next to the
/// figure JSON it would also re-price.
#[test]
fn h100_70b_decision_trace_is_pinned() {
    let scenario = Scenario::h100_70b();
    let mut engine = scenario.engine(Policy::Neo);
    for id in 0..24u64 {
        engine.submit(Request::new(id, 0.0, 2000, 60)).unwrap();
    }
    let mut trace = Vec::new();
    while !engine.is_idle() && engine.iterations() < 1000 {
        let r = engine.step();
        trace.push((
            format!("{}", r.mode),
            r.batch_size,
            r.prefill_tokens,
            r.decode_tokens,
            r.cpu_offloaded,
            r.swapped_out,
            r.swapped_in,
        ));
    }
    // The run's overall shape: the workload drains in exactly 128 iterations, the KV
    // pressure of 24 × 2000-token contexts forces 4 whole-sequence swap-outs, 2 of the
    // victims are pulled back once decodes retire, and 2 iterations run the asymmetric
    // two-sub-batch pipeline with CPU-offloaded decodes.
    assert_eq!(engine.completed(), 24);
    assert_eq!(trace.len(), 128);
    assert_eq!(trace.iter().map(|t| t.5).sum::<usize>(), 4, "total swap-outs");
    assert_eq!(trace.iter().map(|t| t.6).sum::<usize>(), 2, "total swap-ins");
    assert_eq!(trace.iter().filter(|t| t.0 == "asymmetric").count(), 2);
    // The window around the memory-pressure peak, pinned iteration by iteration:
    // admission has drained, decodes have grown every context past the pool budget, and
    // the scheduler swaps out + offloads exactly as priced by the per-rank terms.
    let expected: Vec<(&str, usize, usize, usize, usize, usize, usize)> = vec![
        ("gpu-only", 18, 0, 17, 0, 0, 0),
        ("asymmetric", 24, 2031, 20, 3, 1, 0),
        ("asymmetric", 24, 1932, 21, 4, 1, 0),
        ("gpu-only", 17, 0, 17, 0, 0, 0),
        ("gpu-only", 17, 0, 17, 0, 0, 0),
        ("gpu-only", 17, 0, 17, 0, 0, 0),
        ("gpu-only", 17, 0, 17, 0, 0, 0),
        ("gpu-only", 18, 1440, 17, 0, 0, 2),
        ("gpu-only", 18, 481, 18, 0, 0, 0),
    ];
    let window: Vec<(&str, usize, usize, usize, usize, usize, usize)> = trace[60..69]
        .iter()
        .map(|(m, a, b, c, d, e, f)| (m.as_str(), *a, *b, *c, *d, *e, *f))
        .collect();
    assert_eq!(window, expected, "iterations 60..69 of the pinned h100_70b trace");
}
