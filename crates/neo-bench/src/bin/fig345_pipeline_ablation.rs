//! Figures 3–5 (design ablation): simple offloading vs symmetric pipelining vs NEO's
//! asymmetric pipelining, against the GPU-only baseline.
//!
//! The paper motivates asymmetric pipelining by walking through two strawmen (§3.1):
//! simple offloading leaves the GPU idle while the CPU computes attention, and symmetric
//! pipelining wastes GPU memory and cannot balance the two devices. This harness runs all
//! four designs on the same decode-heavy workload and reports throughput relative to the
//! GPU-only baseline, plus how often each design offloads.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::run_offline;
use neo_workload::{synthetic, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    setting: String,
    policy: String,
    relative_throughput: f64,
    offload_fraction: f64,
    asymmetric_fraction: f64,
}

fn main() {
    let scenarios = [Scenario::a10g_8b(), Scenario::t4_7b()];
    let policies =
        [Policy::SimpleOffload, Policy::SymmetricPipeline, Policy::FastDecodePlus, Policy::Neo];

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for scenario in &scenarios {
        // A decode-heavy workload that stresses the offloading design choices.
        let (input, output) = if scenario.name.contains("T4") { (200, 100) } else { (1000, 200) };
        let trace = synthetic(scaled(100), input, output, ArrivalProcess::AllAtOnce, 66);
        let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace).token_throughput;
        for &policy in &policies {
            let result = run_offline(scenario.engine(policy), &trace);
            let relative = result.token_throughput / baseline;
            rows.push(vec![
                scenario.name.clone(),
                policy.label().to_string(),
                format!("{relative:.3}"),
                format!("{:.2}", result.offload_fraction),
                format!("{:.2}", result.asymmetric_fraction),
            ]);
            points.push(Point {
                setting: scenario.name.clone(),
                policy: policy.label().to_string(),
                relative_throughput: relative,
                offload_fraction: result.offload_fraction,
                asymmetric_fraction: result.asymmetric_fraction,
            });
        }
    }
    print_table(
        "Figures 3-5 ablation: offloading designs vs GPU-only baseline (relative throughput)",
        &["setting", "design", "relative throughput", "offload frac", "asym frac"],
        &rows,
    );
    save_json("fig345_pipeline_ablation", &points);
}
