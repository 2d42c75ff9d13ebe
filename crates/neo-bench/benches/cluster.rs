//! Whole-run benchmark of the fleet's settle path.
//!
//! A `LeastKv` fleet of NEO engines (T4, A10G and two 2×H100 per group of four, as in
//! the repository benchmark's `fleet64_faults`) drains one fixed `fleet_mix` trace
//! under seeded outages, failover and a completion deadline. The trace and the fault
//! plan are the same at every fleet size, so the 64- and 256-engine cases serve the
//! same requests and differ in how many engines share them: a settle path whose cost
//! follows the engines that have work keeps the two close. Each sample builds a fresh
//! cluster (untimed) and times `Cluster::run`, report included.
#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use neo_bench::{Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, Discipline, FaultPlan};
use neo_core::Engine;
use neo_workload::{fleet_mix, SloPolicy, Trace, TraceRequest};

/// Requests in the trace, and their aggregate arrival rate in requests per second.
const REQUESTS: usize = 512;
const RATE: f64 = 64.0;

/// Outages over the first 64 engines (present at every size), and their length.
const OUTAGES: usize = 4;
const OUTAGE_S: f64 = 5.0;

fn trace() -> Trace {
    fleet_mix(REQUESTS, 0.35, 1.0, 1)
        .requests()
        .iter()
        .map(|r| TraceRequest { arrival: r.arrival / RATE, ..*r })
        .collect()
}

fn fleet(engines: usize) -> Vec<(String, Engine)> {
    let pattern =
        [Scenario::t4_7b(), Scenario::a10g_8b(), Scenario::h100_70b(), Scenario::h100_70b()];
    (0..engines)
        .map(|i| {
            let scenario = &pattern[i % pattern.len()];
            (format!("{}#{i}", scenario.name), scenario.engine(Policy::Neo))
        })
        .collect()
}

fn bench_least_kv_fleet(c: &mut Criterion) {
    let trace = trace();
    let horizon = trace.requests().last().map_or(1.0, |r| r.arrival);
    let config = ClusterConfig {
        discipline: Discipline::LeastKv,
        fault_plan: FaultPlan::seeded_outages(64, horizon, OUTAGES, OUTAGE_S, 7),
        failover: true,
        slo: Some(SloPolicy::new(120.0, 1.0)),
        ..ClusterConfig::default()
    };
    let mut group = c.benchmark_group("cluster/least_kv_fleet");
    for engines in [64usize, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(engines), &engines, |b, &engines| {
            b.iter_batched(
                || Cluster::new(fleet(engines), &trace, config.clone()),
                Cluster::run,
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_least_kv_fleet);
criterion_main!(benches);
