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

fn run(label: &str, scheduler: Box<dyn Scheduler>) -> (f64, f64) {
    // A g5.4xlarge (one A10G GPU, 8-core EPYC host) serving LLaMa-3.1-8B.
    let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
    let engine = Engine::new(cost, EngineConfig::default(), scheduler);
    let mut server = Server::new(engine).with_max_iterations(1_000_000);

    // 64 chat-style requests: 600-token prompts, 120 output tokens, all arriving at once.
    let handles: Vec<_> = (0..64).map(|_| server.submit(0.0, 600, 120).unwrap()).collect();
    let report = server.run_until_idle();

    let makespan = report.makespan;
    let engine = server.engine();
    let tokens: u64 = engine.total_decode_tokens() + engine.total_prefill_tokens();
    let throughput = tokens as f64 / makespan;
    // Per-token latency: arrival (t = 0) to the last token, over the 120 output tokens.
    let per_token: Vec<f64> = handles
        .iter()
        .filter_map(|&h| match server.status(h) {
            RequestStatus::Finished { finish_time } => Some(finish_time / 120.0),
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
    println!("NEO quickstart — A10G + LLaMa-3.1-8B, 64 requests (600 in / 120 out)\n");
    let (gpu_only, _) = run("GPU-only", Box::new(GpuOnlyScheduler::swiftllm_like()));
    let (neo, _) = run("NEO", Box::new(NeoScheduler::new()));
    println!("\nNEO / GPU-only throughput: {:.2}x", neo / gpu_only);
}
