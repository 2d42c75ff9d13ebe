//! Figure 9: relative offline throughput on synthetic workloads with varying input and
//! output lengths, for the three hardware/model settings.
//!
//! For each setting the harness fixes a set of average input lengths (500/1000/2000 for
//! the H100 and A10G settings, 100/200/500 for the T4) and sweeps the average output
//! length, reporting NEO's token throughput relative to the GPU-only baseline (SwiftLLM).
//! The expected shape (§5.4): a dip or ≈1.0 at very short outputs, a peak where GPU and
//! CPU time balance, and a slow decay back towards 1.0 as outputs grow — with far larger
//! peaks on the memory-starved T4.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::run_offline;
use neo_workload::{synthetic, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct SweepPoint {
    setting: String,
    input_len: usize,
    output_len: usize,
    relative_throughput: f64,
    offload_fraction: f64,
}

struct Setting {
    scenario: Scenario,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    requests: usize,
}

fn main() {
    let settings = vec![
        Setting {
            scenario: Scenario::h100_70b(),
            inputs: vec![500, 1000, 2000],
            outputs: vec![50, 100, 150, 200, 250, 300],
            requests: scaled(100),
        },
        Setting {
            scenario: Scenario::a10g_8b(),
            inputs: vec![500, 1000, 2000],
            outputs: vec![50, 100, 150, 200, 250, 300],
            requests: scaled(100),
        },
        Setting {
            scenario: Scenario::t4_7b(),
            inputs: vec![100, 200, 500],
            outputs: vec![50, 100, 150, 200],
            requests: scaled(100),
        },
    ];

    let mut all = Vec::new();
    for setting in &settings {
        let mut rows = Vec::new();
        for &input in &setting.inputs {
            for &output in &setting.outputs {
                let trace =
                    synthetic(setting.requests, input, output, ArrivalProcess::AllAtOnce, 33);
                let baseline = run_offline(setting.scenario.engine(Policy::SwiftLlmLike), &trace);
                let neo = run_offline(setting.scenario.engine(Policy::Neo), &trace);
                let relative = neo.token_throughput / baseline.token_throughput;
                rows.push(vec![
                    input.to_string(),
                    output.to_string(),
                    format!("{relative:.3}"),
                    format!("{:.2}", neo.offload_fraction),
                ]);
                all.push(SweepPoint {
                    setting: setting.scenario.name.clone(),
                    input_len: input,
                    output_len: output,
                    relative_throughput: relative,
                    offload_fraction: neo.offload_fraction,
                });
            }
        }
        print_table(
            &format!("Figure 9: NEO throughput relative to GPU-only — {}", setting.scenario.name),
            &["avg input", "avg output", "relative throughput", "offload frac"],
            &rows,
        );
    }

    // Peak gain per setting, the numbers quoted in §5.4 (14% / 26% / 750%).
    for setting in &settings {
        let peak = all
            .iter()
            .filter(|p| p.setting == setting.scenario.name)
            .map(|p| p.relative_throughput)
            .fold(0.0_f64, f64::max);
        println!("peak gain [{}]: {:+.1}%", setting.scenario.name, (peak - 1.0) * 100.0);
    }
    save_json("fig9_synthetic_sweep", &all);
}
