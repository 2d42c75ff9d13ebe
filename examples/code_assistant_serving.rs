//! Online serving of a coding-assistant workload (the scenario the paper's introduction
//! motivates): long prompts, Poisson arrivals, latency-sensitive users.
//!
//! Uses the event-driven serving loop directly, the way a real client front-end would:
//! every request is *submitted* individually, the first one *streams* its tokens through
//! a callback, and one impatient user *cancels* mid-decode — freeing the request's KV
//! blocks immediately. NEO and the vLLM-like baseline are compared on an A10G serving
//! LLaMa-3.1-8B, reporting per-token latency plus the streaming metrics (TTFT, ITL).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p neo-bench --example code_assistant_serving
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use neo_bench::{Policy, Scenario};
use neo_serve::{RequestStatus, Server, TokenEvent};
use neo_workload::{azure_code_like, ArrivalProcess};

fn main() {
    let scenario = Scenario::a10g_8b();
    let rate = 1.2; // requests per second
    let trace = azure_code_like(120, ArrivalProcess::Poisson { rate }, 2024);
    let stats = trace.stats();
    println!(
        "workload: {} coding requests, mean prompt {:.0} tokens, mean output {:.0} tokens, \
         {rate} req/s Poisson arrivals\n",
        stats.count, stats.mean_prompt, stats.mean_output
    );

    for policy in [Policy::VllmLike, Policy::Neo] {
        let mut server = Server::new(scenario.engine(policy));

        // Submit each trace request at its arrival time. The first request streams its
        // tokens; everyone else is submitted plainly.
        let first_tokens: Rc<RefCell<Vec<TokenEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (index, r) in trace.requests().iter().enumerate() {
            let handle = if index == 0 {
                let sink = Rc::clone(&first_tokens);
                server.submit_with_callback(r.arrival, r.prompt_len, r.output_len, move |token| {
                    sink.borrow_mut().push(*token)
                })
            } else {
                server.submit(r.arrival, r.prompt_len, r.output_len)
            };
            handles.push(handle.expect("trace requests fit the A10G pools"));
        }

        // One impatient user: request #5 is abandoned two seconds after it arrives.
        let impatient = handles[5];
        let abandoned_at = trace.requests()[5].arrival + 2.0;
        server.cancel(impatient, abandoned_at);

        let report = server.run_until_idle();

        // Per-token latency of each completed request: arrival to last token, over its
        // output length.
        let per_token: Vec<f64> = trace
            .requests()
            .iter()
            .zip(&handles)
            .filter_map(|(request, &handle)| match server.status(handle) {
                RequestStatus::Finished { finish_time } => {
                    Some((finish_time - request.arrival) / request.output_len as f64)
                }
                _ => None,
            })
            .collect();
        let mean_tok = per_token.iter().sum::<f64>() / per_token.len().max(1) as f64;
        let ttft = report.ttft.expect("requests produced tokens");
        let itl = report.itl.expect("multi-token outputs");
        let streamed = first_tokens.borrow();

        println!("{:>12}:", policy.label());
        println!(
            "    {} completed, {} cancelled | mean tok latency {mean_tok:.3}s | \
             TTFT p50 {:.2}s p99 {:.2}s | ITL p50 {:.3}s p99 {:.3}s",
            report.completed, report.cancelled, ttft.p50, ttft.p99, itl.p50, itl.p99
        );
        println!(
            "    first request streamed {} tokens, first at t={:.2}s, last at t={:.2}s",
            streamed.len(),
            streamed.first().map(|t| t.time).unwrap_or(f64::NAN),
            streamed.last().map(|t| t.time).unwrap_or(f64::NAN),
        );
        let cancelled_after = match server.status(impatient) {
            RequestStatus::Cancelled { generated } => generated,
            other => panic!("request #5 should have been cancelled, got {other:?}"),
        };
        println!(
            "    request #5 abandoned at t={abandoned_at:.2}s after streaming \
             {cancelled_after} tokens; its KV blocks were freed mid-decode\n"
        );

        assert_eq!(report.completed + report.cancelled, trace.len());
        assert!(streamed.iter().enumerate().all(|(i, t)| t.index == i));
    }
    println!("NEO keeps latency comparable to the GPU-only engine while offloading part of");
    println!("the decode attention to the host CPU, which is what lets it absorb higher rates");
    println!("(see `cargo run -p neo-bench --bin fig6_load_latency` for the full curve).");
}
