//! Figure 8: NEO vs the offloading family on 2×H100 + LLaMa-3.1-70B.
//!
//! (a) Online latency on the Azure-coding-like trace across request rates: FastDecode+'s
//!     rigidity (it must run CPU-bound batches even when that hurts) shows up as higher
//!     latency at load.
//! (b) Offline relative throughput versus output length at a fixed 2000-token input:
//!     NEO stays at or above the GPU-only baseline (it can always fall back), while
//!     FastDecode+ becomes CPU-bound as outputs grow and drops well below 1.0.
//! (c) The pipelined-offloading family (PIPO, SpecOffload — see `docs/BASELINES.md`) on
//!     the same offline sweep: PIPO's double-buffered KV streaming is PCIe-bound at a
//!     2000-token input so it sits below the GPU-only baseline throughout, while
//!     SpecOffload's speculative expansion tracks NEO from below (it probes toward the
//!     balanced operating point instead of solving for it).

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::{run_offline, run_online};
use neo_workload::{azure_code_like, synthetic, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct OnlinePoint {
    policy: String,
    rate: f64,
    avg_per_token_latency: f64,
    mean_ttft: f64,
}

#[derive(Serialize)]
struct OfflinePoint {
    policy: String,
    output_len: usize,
    relative_throughput: f64,
}

fn main() {
    let scenario = Scenario::h100_70b();

    // (a) Online latency vs rate.
    let mut online_rows = Vec::new();
    let mut online_points = Vec::new();
    for &rate in &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5] {
        for policy in [Policy::Neo, Policy::FastDecodePlus] {
            let trace = azure_code_like(scaled(120), ArrivalProcess::Poisson { rate }, 21);
            let result = run_online(scenario.engine(policy), &trace);
            online_rows.push(vec![
                policy.label().to_string(),
                format!("{rate:.1}"),
                format!("{:.3}", result.avg_per_token_latency),
                format!("{:.3}", result.ttft.mean),
            ]);
            online_points.push(OnlinePoint {
                policy: policy.label().to_string(),
                rate,
                avg_per_token_latency: result.avg_per_token_latency,
                mean_ttft: result.ttft.mean,
            });
        }
    }
    print_table(
        "Figure 8a: online per-token latency, 2xH100 + LLaMa-3.1-70B + AC",
        &["policy", "req/s", "avg tok lat (s)", "TTFT (s)"],
        &online_rows,
    );

    // (b) Offline relative throughput vs output length (input fixed at 2000).
    let mut offline_rows = Vec::new();
    let mut offline_points = Vec::new();
    for &output in &[50usize, 100, 150, 200, 250, 300] {
        let trace = synthetic(scaled(120), 2000, output, ArrivalProcess::AllAtOnce, 22);
        let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace).token_throughput;
        for policy in [Policy::Neo, Policy::FastDecodePlus] {
            let result = run_offline(scenario.engine(policy), &trace);
            let relative = result.token_throughput / baseline;
            offline_rows.push(vec![
                policy.label().to_string(),
                output.to_string(),
                format!("{relative:.3}"),
            ]);
            offline_points.push(OfflinePoint {
                policy: policy.label().to_string(),
                output_len: output,
                relative_throughput: relative,
            });
        }
    }
    print_table(
        "Figure 8b: offline throughput relative to GPU-only baseline (input = 2000)",
        &["policy", "avg output len", "relative throughput"],
        &offline_rows,
    );

    // (c) The full offload family on the same offline sweep.
    let family = [Policy::Neo, Policy::FastDecodePlus, Policy::Pipo, Policy::SpecOffload];
    let mut family_rows = Vec::new();
    let mut family_points = Vec::new();
    for &output in &[50usize, 100, 150, 200, 250, 300] {
        let trace = synthetic(scaled(120), 2000, output, ArrivalProcess::AllAtOnce, 23);
        let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace).token_throughput;
        for policy in family {
            let result = run_offline(scenario.engine(policy), &trace);
            let relative = result.token_throughput / baseline;
            family_rows.push(vec![
                policy.label().to_string(),
                output.to_string(),
                format!("{relative:.3}"),
                format!("{:.2}", result.offload_fraction),
            ]);
            family_points.push(OfflinePoint {
                policy: policy.label().to_string(),
                output_len: output,
                relative_throughput: relative,
            });
        }
    }
    print_table(
        "Figure 8c: offload family, offline throughput relative to GPU-only (input = 2000)",
        &["policy", "avg output len", "relative throughput", "offload frac"],
        &family_rows,
    );

    save_json("fig8a_online", &online_points);
    save_json("fig8b_offline", &offline_points);
    save_json("fig8c_offload_family", &family_points);
}
