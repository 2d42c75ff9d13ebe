//! Figure 6: online load–latency curves, NEO vs vLLM.
//!
//! Reproduces the three settings of Figure 6: (a) 2×H100 + LLaMa-3.1-70B on the
//! Azure-coding-like trace, (b) A10G + LLaMa-3.1-8B on the same trace, and (c) T4 +
//! LLaMa-2-7B on the OSC-like trace. For each offered request rate the harness runs an
//! online simulation with Poisson arrivals and reports the average per-token latency.
//!
//! Passing `--headline` additionally prints the sustainable-throughput gain at a
//! per-token latency target. The paper evaluates at 2 s (H100/A10G) and 1 s (T4); our
//! simulated latencies are lower in absolute terms (shorter synthetic outputs, no Python
//! overhead), so the targets here are scaled down to the knee of the simulated curves
//! (0.15 s for H100/A10G, 0.25 s for T4) — the comparison between NEO and vLLM at the
//! target is what matters, not the absolute cut-off.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::run_online;
use neo_workload::{azure_code_like, osc_like, ArrivalProcess, Trace};
use serde::Serialize;

#[derive(Serialize, Clone)]
struct RatePoint {
    setting: String,
    policy: String,
    rate: f64,
    avg_per_token_latency: f64,
    p90_per_token_latency: f64,
    mean_ttft: f64,
    p99_itl: f64,
    offload_fraction: f64,
}

struct Setting {
    scenario: Scenario,
    trace: fn(usize, f64, u64) -> Trace,
    rates: Vec<f64>,
    requests: usize,
    latency_slo: f64,
}

fn ac_trace(n: usize, rate: f64, seed: u64) -> Trace {
    azure_code_like(n, ArrivalProcess::Poisson { rate }, seed)
}

fn osc_trace(n: usize, rate: f64, seed: u64) -> Trace {
    osc_like(n, ArrivalProcess::Poisson { rate }, seed)
}

fn main() {
    let headline = std::env::args().any(|a| a == "--headline");
    let settings = vec![
        Setting {
            scenario: Scenario::h100_70b(),
            trace: ac_trace,
            rates: vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
            requests: scaled(150),
            latency_slo: 0.15,
        },
        Setting {
            scenario: Scenario::a10g_8b(),
            trace: ac_trace,
            rates: vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
            requests: scaled(150),
            latency_slo: 0.15,
        },
        Setting {
            scenario: Scenario::t4_7b(),
            trace: osc_trace,
            rates: vec![0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
            requests: scaled(150),
            latency_slo: 0.25,
        },
    ];

    let mut all_points: Vec<RatePoint> = Vec::new();
    for setting in &settings {
        let mut rows = Vec::new();
        for &rate in &setting.rates {
            for policy in [Policy::Neo, Policy::VllmLike] {
                let trace = (setting.trace)(setting.requests, rate, 42);
                let engine = setting.scenario.engine(policy);
                let result = run_online(engine, &trace);
                let point = RatePoint {
                    setting: setting.scenario.name.clone(),
                    policy: policy.label().to_string(),
                    rate,
                    avg_per_token_latency: result.avg_per_token_latency,
                    p90_per_token_latency: result.per_token_latency.p90,
                    mean_ttft: result.ttft.mean,
                    p99_itl: result.itl.map(|s| s.p99).unwrap_or(f64::NAN),
                    offload_fraction: result.offload_fraction,
                };
                rows.push(vec![
                    point.policy.clone(),
                    format!("{:.2}", point.rate),
                    format!("{:.3}", point.avg_per_token_latency),
                    format!("{:.3}", point.p90_per_token_latency),
                    format!("{:.3}", point.mean_ttft),
                    format!("{:.3}", point.p99_itl),
                    format!("{:.2}", point.offload_fraction),
                ]);
                all_points.push(point);
            }
        }
        print_table(
            &format!("Figure 6: load vs per-token latency — {}", setting.scenario.name),
            &[
                "policy",
                "req/s",
                "avg tok lat (s)",
                "p90 tok lat (s)",
                "TTFT (s)",
                "p99 ITL (s)",
                "offload frac",
            ],
            &rows,
        );

        if headline {
            headline_gain(&all_points, &setting.scenario.name, setting.latency_slo);
        }
    }
    save_json("fig6_load_latency", &all_points);
}

/// Highest offered rate whose average per-token latency stays under `slo`, per policy,
/// and the resulting NEO-over-vLLM throughput gain.
fn headline_gain(points: &[RatePoint], setting: &str, slo: f64) {
    let max_rate = |policy: &str| {
        points
            .iter()
            .filter(|p| p.setting == setting && p.policy == policy)
            .filter(|p| p.avg_per_token_latency <= slo)
            .map(|p| p.rate)
            .fold(0.0_f64, f64::max)
    };
    let neo = max_rate("NEO");
    let vllm = max_rate("vLLM");
    if vllm > 0.0 {
        println!(
            "headline [{setting}]: sustainable rate at {slo:.1}s/token — NEO {neo:.2} req/s, \
             vLLM {vllm:.2} req/s, gain {:+.1}%",
            (neo / vllm - 1.0) * 100.0
        );
    } else {
        println!("headline [{setting}]: vLLM met the {slo:.1}s/token target at no tested rate");
    }
}
