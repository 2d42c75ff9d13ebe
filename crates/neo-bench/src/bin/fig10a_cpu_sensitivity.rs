//! Figure 10a: sensitivity of NEO's gain to CPU capacity (g5.2x/4x/8x/16xlarge).
//!
//! All four instance sizes carry the same A10G GPU (identical GPU-only baseline) but
//! differ in CPU cores, memory size and — decisively — memory bandwidth. The paper's
//! finding: peak throughput gain tracks CPU *memory bandwidth*, not core count, because
//! the offloaded decode attention is bandwidth-bound; bigger instances also keep their
//! advantage to longer output lengths. The paper reports peak gains of roughly 12%, 13%,
//! 30% and 79% for the four sizes.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::run_offline;
use neo_workload::{synthetic, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    instance: String,
    cpu_bandwidth_gbs: f64,
    output_len: usize,
    relative_throughput: f64,
}

fn main() {
    let sizes = [2usize, 4, 8, 16];
    let outputs = [100usize, 200, 300, 400];
    let input = 1000;
    let requests = scaled(100);

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &n in &sizes {
        let scenario = Scenario::a10g_8b_on(n);
        let cpu_bw = scenario.testbed.cpu.mem_bw / 1e9;
        for &output in &outputs {
            let trace = synthetic(requests, input, output, ArrivalProcess::AllAtOnce, 44);
            let baseline = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace);
            let neo = run_offline(scenario.engine(Policy::Neo), &trace);
            let relative = neo.token_throughput / baseline.token_throughput;
            rows.push(vec![
                format!("g5.{n}xlarge"),
                format!("{cpu_bw:.0}"),
                output.to_string(),
                format!("{relative:.3}"),
            ]);
            points.push(Point {
                instance: format!("g5.{n}xlarge"),
                cpu_bandwidth_gbs: cpu_bw,
                output_len: output,
                relative_throughput: relative,
            });
        }
    }
    print_table(
        "Figure 10a: NEO relative throughput vs CPU capacity (A10G + LLaMa-3.1-8B, input=1000)",
        &["instance", "CPU BW (GB/s)", "avg output", "relative throughput"],
        &rows,
    );

    // Peak gain per instance — should increase with CPU memory bandwidth.
    for &n in &sizes {
        let name = format!("g5.{n}xlarge");
        let peak = points
            .iter()
            .filter(|p| p.instance == name)
            .map(|p| p.relative_throughput)
            .fold(0.0_f64, f64::max);
        println!("peak gain [{name}]: {:+.1}%", (peak - 1.0) * 100.0);
    }
    save_json("fig10a_cpu_sensitivity", &points);
}
