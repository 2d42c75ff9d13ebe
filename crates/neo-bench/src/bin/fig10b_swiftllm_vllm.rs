//! Figure 10b: SwiftLLM vs vLLM offline token throughput.
//!
//! Feeds the Azure-coding-like trace all at once to both GPU-only baselines and reports
//! token throughput (total tokens / elapsed time, §5.5) in the single-GPU
//! (A10G + LLaMa-3.1-8B) and 2-GPU (2×H100 + LLaMa-3.1-70B) settings. The paper finds
//! the two comparable on one GPU, with SwiftLLM about 8.8% behind on two GPUs because its
//! tensor-parallel implementation does not overlap the all-reduce; we model exactly that
//! difference via the cost model's all-reduce overlap factor.

use neo_baselines::GpuOnlyScheduler;
use neo_bench::{print_table, save_json, scaled, Scenario};
use neo_core::{Engine, EngineConfig};
use neo_serve::run_offline;
use neo_workload::{azure_code_like, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    setting: String,
    system: String,
    token_throughput: f64,
}

fn main() {
    // vLLM's production tensor parallelism hides roughly half the all-reduce behind
    // compute; SwiftLLM's simple implementation exposes all of it.
    const VLLM_ALLREDUCE_OVERLAP: f64 = 0.5;

    let settings = [Scenario::a10g_8b(), Scenario::h100_70b()];
    let trace = azure_code_like(scaled(150), ArrivalProcess::AllAtOnce, 55);

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for scenario in &settings {
        for (system, overlap, chunked) in
            [("SwiftLLM", 0.0, false), ("vLLM", VLLM_ALLREDUCE_OVERLAP, true)]
        {
            let cost = scenario.cost_model().with_allreduce_overlap(overlap);
            let scheduler = if chunked {
                GpuOnlyScheduler::vllm_like()
            } else {
                GpuOnlyScheduler::swiftllm_like()
            };
            let engine = Engine::new(cost, EngineConfig::default(), Box::new(scheduler));
            let result = run_offline(engine, &trace);
            rows.push(vec![
                scenario.name.clone(),
                system.to_string(),
                format!("{:.0}", result.token_throughput),
            ]);
            points.push(Point {
                setting: scenario.name.clone(),
                system: system.to_string(),
                token_throughput: result.token_throughput,
            });
        }
    }
    print_table(
        "Figure 10b: SwiftLLM vs vLLM offline token throughput (tokens/s)",
        &["setting", "system", "token throughput"],
        &rows,
    );

    for scenario in &settings {
        let get = |sys: &str| {
            points
                .iter()
                .find(|p| p.setting == scenario.name && p.system == sys)
                .map(|p| p.token_throughput)
                .unwrap_or(f64::NAN)
        };
        println!("SwiftLLM / vLLM ratio [{}]: {:.3}", scenario.name, get("SwiftLLM") / get("vLLM"));
    }
    save_json("fig10b_swiftllm_vllm", &points);
}
