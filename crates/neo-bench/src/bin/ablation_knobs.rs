//! Design-choice ablations: how much each of NEO's mechanisms contributes.
//!
//! Quantifies, on the A10G + LLaMa-3.1-8B testbed, how much each of NEO's design choices
//! contributes and how sensitive the scheduler is to its knobs:
//!
//! * **Layer-wise swap overlap** (§3.1): overlapping the swap-out of freshly prefilled KV
//!   with per-layer compute vs deferring the whole transfer to the end of the iteration.
//! * **Profiling noise** (§3.2 / §5.4): the scheduler consults an offline-profiled,
//!   interpolated cost model; injected relative error emulates profiling inaccuracy and
//!   should cause only mild degradation.
//! * **Balance slack**: how strictly the `Tca ≤ Tl` inequalities are enforced.
//! * **Swap-in watermark**: how eagerly CPU-requests are pulled back to an idle GPU.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_core::EngineConfig;
use neo_serve::run_offline;
use neo_workload::{synthetic, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ablation: String,
    value: String,
    relative_throughput: f64,
}

fn main() {
    let scenario = Scenario::t4_7b();
    let trace = synthetic(scaled(100), 300, 120, ArrivalProcess::AllAtOnce, 77);
    let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace).token_throughput;

    let mut rows: Vec<Row> = Vec::new();
    let mut run = |ablation: &str, value: &str, config: EngineConfig| {
        let engine = scenario.engine_with_config(Policy::Neo, config);
        let result = run_offline(engine, &trace);
        rows.push(Row {
            ablation: ablation.to_string(),
            value: value.to_string(),
            relative_throughput: result.token_throughput / baseline,
        });
    };

    run("reference", "defaults", EngineConfig::default());

    run(
        "layerwise swap overlap",
        "disabled (deferred swap)",
        EngineConfig { layerwise_swap_overlap: false, ..EngineConfig::default() },
    );

    for noise in [0.05, 0.1, 0.2] {
        run(
            "profiling noise",
            &format!("±{:.0}%", noise * 100.0),
            EngineConfig { profile_noise: noise, ..EngineConfig::default() },
        );
    }

    for slack in [0.0, 0.2, 0.5] {
        run(
            "balance slack",
            &format!("{slack:.1}"),
            EngineConfig { balance_slack: slack, ..EngineConfig::default() },
        );
    }

    for watermark in [0.0, 0.5, 0.9] {
        run(
            "swap-in watermark",
            &format!("{watermark:.1}"),
            EngineConfig { swap_in_watermark: watermark, ..EngineConfig::default() },
        );
    }

    print_table(
        "Design-knob ablations: NEO throughput relative to GPU-only (T4 + LLaMa-2-7B, 300/120)",
        &["ablation", "value", "relative throughput"],
        &rows
            .iter()
            .map(|r| {
                vec![r.ablation.clone(), r.value.clone(), format!("{:.3}", r.relative_throughput)]
            })
            .collect::<Vec<_>>(),
    );
    save_json("ablation_knobs", &rows);
}
