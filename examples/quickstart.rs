//! Quickstart: serve a small batch of requests with NEO on an A10G-class testbed and
//! compare against the GPU-only baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p neo-bench --example quickstart
//! ```

use neo_baselines::GpuOnlyScheduler;
use neo_core::{Engine, EngineConfig, NeoScheduler, Scheduler};
use neo_serve::{RequestStatus, Server};
use neo_sim::{CostModel, ModelDesc, Testbed};

/// Requests in the burst, and the prompt and output tokens of each.
const REQUESTS: usize = 256;
const PROMPT: usize = 600;
const OUTPUT: usize = 120;

fn run(label: &str, scheduler: Box<dyn Scheduler>) -> (f64, f64) {
    // A g5.4xlarge (one A10G GPU, 8-core EPYC host) serving LLaMa-3.1-8B.
    let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
    let engine = Engine::new(cost, EngineConfig::default(), scheduler);
    let mut server = Server::new(engine);

    // Chat-style requests all arriving at once: their 184,320 tokens of KV are more than
    // three times what the A10G's 51,728-token GPU pool holds.
    let handles: Vec<_> =
        (0..REQUESTS).map(|_| server.submit(0.0, PROMPT, OUTPUT).unwrap()).collect();
    let report = server.run_until_idle();

    // Token throughput as in §5.5: the burst's own input and output tokens over the
    // makespan. Prompts recomputed after a preemption are work, not throughput.
    let makespan = report.makespan;
    let throughput = (REQUESTS * (PROMPT + OUTPUT)) as f64 / makespan;
    // Per-token latency: arrival (t = 0) to the last token, over the output tokens.
    let per_token: Vec<f64> = handles
        .iter()
        .filter_map(|&h| match server.status(h) {
            RequestStatus::Finished { finish_time } => Some(finish_time / OUTPUT as f64),
            _ => None,
        })
        .collect();
    let mean_latency = per_token.iter().sum::<f64>() / per_token.len() as f64;
    println!(
        "{label:>10}: {:>7.0} tokens/s, mean per-token latency {:.3}s, makespan {:.1}s",
        throughput, mean_latency, makespan
    );
    (throughput, mean_latency)
}

fn main() {
    println!(
        "NEO quickstart — A10G + LLaMa-3.1-8B, {REQUESTS} requests ({PROMPT} in / {OUTPUT} out)\n"
    );
    let (gpu_only, _) = run("GPU-only", Box::new(GpuOnlyScheduler::swiftllm_like()));
    let (neo, _) = run("NEO", Box::new(NeoScheduler::new()));
    println!("\nNEO / GPU-only throughput: {:.2}x", neo / gpu_only);
}
