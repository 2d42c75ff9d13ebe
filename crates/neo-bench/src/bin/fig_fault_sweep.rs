//! Goodput under faults: outage rate × routing discipline, with and without failover.
//!
//! The load sweeps ask how a healthy fleet behaves; this driver asks the operator's
//! question: when engines *die mid-decode*, how much goodput does router failover
//! buy, and what does it cost in retries and tail latency? The heterogeneous
//! Table-1 fleet (T4 + A10G + H100) serves the mixed AC+OSC stream while a seeded
//! [`neo_cluster::FaultPlan`] fail-stops engines at a swept outage rate; each outage
//! kills whatever the engine held (KV included) and recovers it empty a few seconds
//! later. Every cell is run twice:
//!
//! * **failover on** — orphans are re-dispatched to survivors under capped
//!   exponential backoff and a per-request retry budget, restarting from scratch;
//! * **failover off** — every request a dead engine held is shed on the spot.
//!
//! A moderate completion SLO prices the retries: a request that cannot finish by its
//! deadline is shed even with failover, so the failover advantage shown here is
//! *goodput* (completions within SLO), not mere eventual completion. Every run is
//! fully deterministic (fixed trace and plan seeds), so the emitted
//! `results/fig_fault_sweep.json` is bit-stable and CI regenerates and diffs it
//! (`results-fresh`).

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, Discipline, FaultPlan};
use neo_core::Engine;
use neo_workload::{fleet_mix, SloPolicy, Trace, TraceRequest};
use serde::Serialize;

/// One (outage-count, discipline, failover) measurement — a flat row, one JSON
/// object per swept point, so downstream tooling can pivot freely.
#[derive(Serialize, Clone)]
struct SweepPoint {
    fleet: String,
    discipline: String,
    failover: bool,
    outages: usize,
    retry_budget: u32,
    requests: usize,
    completed: usize,
    dropped: usize,
    retries: u64,
    mean_ttft: f64,
    p99_ttft: f64,
    streamed_tokens: u64,
    makespan: f64,
}

fn heterogeneous_fleet() -> Vec<(String, Engine)> {
    vec![
        ("t4-7b".to_string(), Scenario::t4_7b().engine(Policy::Neo)),
        ("a10g-8b".to_string(), Scenario::a10g_8b().engine(Policy::Neo)),
        ("h100-70b".to_string(), Scenario::h100_70b().engine(Policy::Neo)),
    ]
}

/// The mixed AC+OSC stream compressed to `rate` requests/s (same compression trick
/// as the cluster sweep: one arrival sequence, so every cell serves identical work).
fn mixed_trace(n: usize, rate: f64) -> Trace {
    fleet_mix(n, 0.35, 1.0, 42)
        .requests()
        .iter()
        .map(|r| TraceRequest { arrival: r.arrival / rate, ..*r })
        .collect()
}

fn main() {
    let requests = scaled(96);
    let rate = 2.0;
    let trace = mixed_trace(requests, rate);
    // Outages land inside the busy period; each kills an engine for 5 s.
    let horizon = trace.requests().last().map(|r| r.arrival).unwrap_or(1.0);
    let outage_s = 5.0;
    // Generous completion SLO: a healthy fleet meets it easily, so every shed
    // request below is attributable to the injected faults.
    let slo = SloPolicy::new(60.0, 0.5);
    let outage_counts = [0usize, 2, 4, 8];

    let mut points: Vec<SweepPoint> = Vec::new();
    let mut rows = Vec::new();
    for &outages in &outage_counts {
        let plan = if outages == 0 {
            FaultPlan::new()
        } else {
            FaultPlan::seeded_outages(3, horizon, outages, outage_s, 7 + outages as u64)
        };
        for discipline in Discipline::ALL {
            for failover in [true, false] {
                let config = ClusterConfig {
                    discipline,
                    failover,
                    fault_plan: plan.clone(),
                    slo: Some(slo),
                    ..ClusterConfig::default()
                };
                let report = Cluster::new(heterogeneous_fleet(), &trace, config).run();
                let (ttft_mean, ttft_p99) =
                    report.ttft.as_ref().map_or((f64::NAN, f64::NAN), |t| (t.mean, t.p99));
                let point = SweepPoint {
                    fleet: "T4+A10G+H100 (heterogeneous)".to_string(),
                    discipline: discipline.label().to_string(),
                    failover,
                    outages,
                    retry_budget: config_budget(),
                    requests: report.requests,
                    completed: report.completed,
                    dropped: report.dropped,
                    retries: report.retries,
                    mean_ttft: ttft_mean,
                    p99_ttft: ttft_p99,
                    streamed_tokens: report.streamed_tokens,
                    makespan: report.makespan,
                };
                rows.push(vec![
                    format!("{}", point.outages),
                    point.discipline.clone(),
                    if point.failover { "on".to_string() } else { "off".to_string() },
                    format!("{}/{}", point.completed, point.requests),
                    format!("{}", point.dropped),
                    format!("{}", point.retries),
                    format!("{:.3}", point.p99_ttft),
                ]);
                points.push(point);
            }
        }
    }
    print_table(
        "Fault sweep — T4+A10G+H100, mixed AC+OSC stream",
        &["outages", "discipline", "failover", "goodput", "shed", "retries", "p99 TTFT (s)"],
        &rows,
    );
    save_json("fig_fault_sweep", &points);
}

/// The retry budget every cell runs under (recorded per point for the schema test).
fn config_budget() -> u32 {
    ClusterConfig::default().retry_budget
}
