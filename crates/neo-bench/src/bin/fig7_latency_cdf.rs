//! Figure 7: per-token latency CDF of NEO vs vLLM (A10G + LLaMa-3.1-8B + AC, 1.6 req/s).
//!
//! The paper's point: NEO's throughput gains do not come at the cost of latency — the two
//! CDFs lie on top of each other at every percentile. Both distributions are skewed
//! because the trace's request lengths are skewed.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::run_online;
use neo_workload::{azure_code_like, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct CdfSummary {
    policy: String,
    rate: f64,
    quantiles: Vec<(f64, f64)>,
    mean: f64,
    /// Streaming latency summaries from the serving loop (the CDF figure's companions).
    mean_ttft: f64,
    p99_ttft: f64,
    mean_itl: f64,
    p99_itl: f64,
}

fn main() {
    let rate = 1.6;
    let scenario = Scenario::a10g_8b();
    let trace = azure_code_like(scaled(200), ArrivalProcess::Poisson { rate }, 7);

    let quantile_grid = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for policy in [Policy::Neo, Policy::VllmLike] {
        let result = run_online(scenario.engine(policy), &trace);
        let cdf = result.cdf();
        let quantiles: Vec<(f64, f64)> =
            quantile_grid.iter().map(|&q| (q, cdf.quantile(q).unwrap_or(f64::NAN))).collect();
        rows.push(
            std::iter::once(policy.label().to_string())
                .chain(quantiles.iter().map(|(_, v)| format!("{v:.3}")))
                .chain(std::iter::once(format!("{:.3}", result.avg_per_token_latency)))
                .collect::<Vec<_>>(),
        );
        let itl = result.itl.expect("multi-token outputs");
        summaries.push(CdfSummary {
            policy: policy.label().to_string(),
            rate,
            quantiles,
            mean: result.avg_per_token_latency,
            mean_ttft: result.ttft.mean,
            p99_ttft: result.ttft.p99,
            mean_itl: itl.mean,
            p99_itl: itl.p99,
        });
    }

    let headers: Vec<String> = std::iter::once("policy".to_string())
        .chain(quantile_grid.iter().map(|q| format!("p{:.0}", q * 100.0)))
        .chain(std::iter::once("mean".to_string()))
        .collect();
    print_table(
        "Figure 7: per-token latency quantiles (s), A10G + LLaMa-3.1-8B + AC @ 1.6 req/s",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        &rows,
    );

    // Streaming latency companions: TTFT and ITL at the same operating point.
    print_table(
        "Time-to-first-token and inter-token latency (s)",
        &["policy", "mean TTFT", "p99 TTFT", "mean ITL", "p99 ITL"],
        &summaries
            .iter()
            .map(|s| {
                vec![
                    s.policy.clone(),
                    format!("{:.3}", s.mean_ttft),
                    format!("{:.3}", s.p99_ttft),
                    format!("{:.3}", s.mean_itl),
                    format!("{:.3}", s.p99_itl),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The comparable-latency check the figure makes visually.
    let neo_p99 = summaries[0].quantiles.iter().find(|(q, _)| *q == 0.99).map(|(_, v)| *v);
    let vllm_p99 = summaries[1].quantiles.iter().find(|(q, _)| *q == 0.99).map(|(_, v)| *v);
    if let (Some(a), Some(b)) = (neo_p99, vllm_p99) {
        println!("p99 ratio NEO/vLLM: {:.2}", a / b);
    }
    save_json("fig7_latency_cdf", &summaries);
}
