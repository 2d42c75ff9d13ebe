//! Cluster load–latency curves: four routing disciplines over two fleets.
//!
//! The paper's Figure 6 measures one engine; this driver asks the fleet-level question
//! online providers face: given N NEO engines behind a router, how much does the
//! *routing discipline* move the load–latency curve? Two fleets are swept:
//!
//! * **4×(A10G + LLaMa-3.1-8B)** — homogeneous, on the Azure-coding-like trace. All
//!   engines are identical, so request-count balancing (round-robin, cFCFS, dFCFS)
//!   is near-optimal and least-KV has little edge — the control.
//! * **T4 + A10G + 2×H100 (Table 1 pairings)** — heterogeneous, on a mixed AC+OSC
//!   arrival stream ([`neo_workload::fleet_mix`]). Here a request *count* is the wrong
//!   unit of load: the T4's KV cache is a fraction of an H100 rank's, so
//!   capacity-blind disciplines drown the small engine at high load while
//!   least-KV-occupancy keeps tail latency flat — the fleet-level analogue of the
//!   paper's point that KV headroom, not request count, is the binding resource.
//!
//! Every run is fully deterministic (fixed trace seeds), so the
//! emitted `results/fig_cluster_sweep.json` is bit-stable and CI regenerates and
//! diffs it (`results-fresh`).

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, Discipline};
use neo_core::Engine;
use neo_workload::{azure_code_like, fleet_mix, ArrivalProcess, Trace, TraceRequest};
use serde::Serialize;

/// One (fleet, discipline, offered-rate) measurement — a flat row, one JSON object
/// per swept point, so downstream tooling can pivot freely.
#[derive(Serialize, Clone)]
struct SweepPoint {
    fleet: String,
    discipline: String,
    rate: f64,
    requests: usize,
    completed: usize,
    mean_ttft: f64,
    p99_ttft: f64,
    mean_itl: f64,
    p99_itl: f64,
    streamed_tokens: u64,
    makespan: f64,
    max_central_queue: usize,
    rebalances: usize,
}

struct FleetSetting {
    name: &'static str,
    engines: fn() -> Vec<(String, Engine)>,
    /// Base trace at an offered rate of 1 request/s. Load is swept by *compressing
    /// this one arrival sequence* (dividing arrival times by the target rate), so
    /// every point of a discipline's curve serves the identical request sequence and
    /// latency is monotone in offered load — sampling a fresh Poisson trace per rate
    /// would instead reshuffle which engine each request lands on, burying the load
    /// trend under assignment noise on a heterogeneous fleet.
    base_trace: fn(usize) -> Trace,
    rates: Vec<f64>,
    requests: usize,
}

/// The base trace compressed to an offered rate of `rate` requests/s.
fn at_rate(base: &Trace, rate: f64) -> Trace {
    base.requests().iter().map(|r| TraceRequest { arrival: r.arrival / rate, ..*r }).collect()
}

fn homogeneous_fleet() -> Vec<(String, Engine)> {
    (0..4).map(|i| (format!("a10g-{i}"), Scenario::a10g_8b().engine(Policy::Neo))).collect()
}

fn heterogeneous_fleet() -> Vec<(String, Engine)> {
    vec![
        ("t4-7b".to_string(), Scenario::t4_7b().engine(Policy::Neo)),
        ("a10g-8b".to_string(), Scenario::a10g_8b().engine(Policy::Neo)),
        ("h100-70b".to_string(), Scenario::h100_70b().engine(Policy::Neo)),
    ]
}

fn ac_trace(n: usize) -> Trace {
    azure_code_like(n, ArrivalProcess::Poisson { rate: 1.0 }, 42)
}

fn mixed_trace(n: usize) -> Trace {
    fleet_mix(n, 0.35, 1.0, 42)
}

fn main() {
    let settings = [
        FleetSetting {
            name: "4xA10G (homogeneous)",
            engines: homogeneous_fleet,
            base_trace: ac_trace,
            rates: vec![1.0, 2.0, 4.0, 6.0],
            requests: scaled(96),
        },
        FleetSetting {
            name: "T4+A10G+2xH100 (heterogeneous)",
            engines: heterogeneous_fleet,
            base_trace: mixed_trace,
            rates: vec![1.0, 2.0, 4.0, 6.0],
            requests: scaled(96),
        },
    ];

    let mut points: Vec<SweepPoint> = Vec::new();
    for setting in &settings {
        let mut rows = Vec::new();
        let base = (setting.base_trace)(setting.requests);
        for &rate in &setting.rates {
            let trace = at_rate(&base, rate);
            for discipline in Discipline::ALL {
                let config = ClusterConfig { discipline, ..ClusterConfig::default() };
                let report = Cluster::new((setting.engines)(), &trace, config).run();
                let ttft = report.ttft.expect("every request streams at least one token");
                let point = SweepPoint {
                    fleet: setting.name.to_string(),
                    discipline: discipline.label().to_string(),
                    rate,
                    requests: report.requests,
                    completed: report.completed,
                    mean_ttft: ttft.mean,
                    p99_ttft: ttft.p99,
                    mean_itl: report.itl.map(|s| s.mean).unwrap_or(f64::NAN),
                    p99_itl: report.itl.map(|s| s.p99).unwrap_or(f64::NAN),
                    streamed_tokens: report.streamed_tokens,
                    makespan: report.makespan,
                    max_central_queue: report.max_central_queue,
                    rebalances: report.rebalances,
                };
                rows.push(vec![
                    point.discipline.clone(),
                    format!("{:.2}", point.rate),
                    format!("{:.3}", point.mean_ttft),
                    format!("{:.3}", point.p99_ttft),
                    format!("{:.4}", point.mean_itl),
                    format!("{:.4}", point.p99_itl),
                    format!("{}", point.max_central_queue),
                    format!("{}", point.rebalances),
                ]);
                points.push(point);
            }
        }
        print_table(
            &format!("Cluster sweep — {}", setting.name),
            &[
                "discipline",
                "req/s",
                "mean TTFT (s)",
                "p99 TTFT (s)",
                "mean ITL (s)",
                "p99 ITL (s)",
                "max central q",
                "rebalances",
            ],
            &rows,
        );
    }
    save_json("fig_cluster_sweep", &points);
}
