//! Serving a summarisation workload on a memory-starved T4 GPU — the setting where the
//! paper reports its largest gains (up to 7.5× over GPU-only serving).
//!
//! A 16 GB T4 holding the 13 GB of LLaMa-2-7B weights has almost no room for KV cache, so
//! the GPU-only engine is stuck at tiny batch sizes (and preempts constantly); NEO parks
//! most requests' KV in host DRAM and runs their attention on the CPU.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p neo-bench --example summarization_t4
//! ```

use neo_bench::{Policy, Scenario};
use neo_serve::run_offline;
use neo_workload::{osc_like, ArrivalProcess};

fn main() {
    let scenario = Scenario::t4_7b();
    let cost = scenario.cost_model();
    println!("testbed: {}", scenario.testbed);
    println!(
        "GPU KV capacity: {} tokens | CPU KV capacity: {} tokens\n",
        cost.gpu_kv_capacity_tokens(),
        cost.cpu_kv_capacity_tokens()
    );

    let trace = osc_like(150, ArrivalProcess::AllAtOnce, 99).as_offline();
    let stats = trace.stats();
    println!(
        "workload: {} summarisation requests, mean prompt {:.0} tokens, mean output {:.0} tokens\n",
        stats.count, stats.mean_prompt, stats.mean_output
    );

    let mut results = Vec::new();
    for policy in [Policy::SwiftLlmLike, Policy::FastDecodePlus, Policy::Neo] {
        let result = run_offline(scenario.engine(policy), &trace);
        println!(
            "{:>12}: {:>6.0} tokens/s (makespan {:.1}s, offloaded {:.0}% of iterations)",
            policy.label(),
            result.token_throughput,
            result.makespan,
            result.offload_fraction * 100.0
        );
        results.push((policy, result.token_throughput));
    }

    let baseline = results.iter().find(|(p, _)| *p == Policy::SwiftLlmLike).unwrap().1;
    let neo = results.iter().find(|(p, _)| *p == Policy::Neo).unwrap().1;
    println!("\nNEO / GPU-only throughput on the T4: {:.1}x", neo / baseline);
}
