//! Whole-run benchmark of the simulator: reduced copies of the repository benchmark's
//! three workloads (`simbench/`), each run until it drains.
//!
//! * `sim/a10g_ac_overload` — one A10G server running NEO on 1,000 AC-like requests at
//!   6 req/s, about four times what it sustains. The waitqueue grows to most of the
//!   trace, and every iteration re-plans over every admitted request, GPU- and
//!   CPU-resident alike.
//! * `sim/a10g_chat_prefix` — one A10G server with the prefix cache and the disk tier,
//!   on 150 four-turn chat sessions: prefix adoption, insertion and copy-on-write
//!   splits.
//! * `sim/fleet64_faults` — 64 heterogeneous NEO engines with least-KV routing on 4,000
//!   fleet-mix requests at 64 req/s, with 4 seeded outages, failover and a completion
//!   deadline: the cluster's settle, routing and re-polling.
//!
//! Each sample builds the system and submits its requests untimed, then times the run
//! to drain, report included.
#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use neo_bench::{Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, Discipline, FaultPlan};
use neo_core::{Engine, EngineConfig};
use neo_kvcache::TokenRun;
use neo_serve::Server;
use neo_workload::{azure_code_like, fleet_mix, multi_turn_chat, ArrivalProcess, ChatConfig};
use neo_workload::{SloPolicy, Trace, TraceRequest};

const SEED: u64 = 1;

/// One request of a server workload: arrival, prompt length, output length, and the
/// prompt's token runs (empty for an opaque prompt).
type Submission = (f64, usize, usize, Vec<TokenRun>);

/// A NEO server on the A10G with `config`, every request of `requests` submitted.
fn loaded_server(config: &EngineConfig, requests: &[Submission]) -> Server {
    let engine = Scenario::a10g_8b().engine_with_config(Policy::Neo, config.clone());
    let mut server = Server::new(engine);
    for (arrival, prompt_len, output_len, runs) in requests {
        // A refused request is part of the workload, as in the repository benchmark.
        let _ = if runs.is_empty() {
            server.submit(*arrival, *prompt_len, *output_len)
        } else {
            server.submit_with_runs(*arrival, runs.clone(), *output_len)
        };
    }
    server
}

fn bench_ac_overload(c: &mut Criterion) {
    let trace = azure_code_like(1_000, ArrivalProcess::Poisson { rate: 6.0 }, SEED);
    let requests: Vec<Submission> = trace
        .requests()
        .iter()
        .map(|r| (r.arrival, r.prompt_len, r.output_len, Vec::new()))
        .collect();
    let config = EngineConfig::default();
    c.bench_function("sim/a10g_ac_overload", |b| {
        b.iter_batched(
            || loaded_server(&config, &requests),
            |mut server| server.run_until_idle(),
            BatchSize::LargeInput,
        );
    });
}

fn bench_chat_prefix(c: &mut Criterion) {
    let chat = ChatConfig {
        sessions: 150,
        turns: 4,
        system_len: 1024,
        user_len: 96,
        output_len: 48,
        shared_system_prob: 0.5,
        session_rate: 1.0,
        turn_gap: 10.0,
    };
    let requests: Vec<Submission> = multi_turn_chat(&chat, SEED)
        .requests()
        .iter()
        .map(|r| (r.arrival, r.prompt_len(), r.output_len, r.runs.clone()))
        .collect();
    let config = EngineConfig { prefix_cache: true, disk_tier: true, ..EngineConfig::default() };
    c.bench_function("sim/a10g_chat_prefix", |b| {
        b.iter_batched(
            || loaded_server(&config, &requests),
            |mut server| server.run_until_idle(),
            BatchSize::LargeInput,
        );
    });
}

fn bench_fleet_faults(c: &mut Criterion) {
    let trace: Trace = fleet_mix(4_000, 0.35, 1.0, SEED)
        .requests()
        .iter()
        .map(|r| TraceRequest { arrival: r.arrival / 64.0, ..*r })
        .collect();
    let horizon = trace.requests().last().map_or(1.0, |r| r.arrival);
    let config = ClusterConfig {
        discipline: Discipline::LeastKv,
        fault_plan: FaultPlan::seeded_outages(64, horizon, 4, 5.0, SEED),
        failover: true,
        slo: Some(SloPolicy::new(120.0, 1.0)),
        ..ClusterConfig::default()
    };
    let pattern =
        [Scenario::t4_7b(), Scenario::a10g_8b(), Scenario::h100_70b(), Scenario::h100_70b()];
    let fleet = || -> Vec<(String, Engine)> {
        (0..64)
            .map(|i| {
                let scenario = &pattern[i % pattern.len()];
                (format!("{}#{i}", scenario.name), scenario.engine(Policy::Neo))
            })
            .collect()
    };
    c.bench_function("sim/fleet64_faults", |b| {
        b.iter_batched(
            || Cluster::new(fleet(), &trace, config.clone()),
            Cluster::run,
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(benches, bench_ac_overload, bench_chat_prefix, bench_fleet_faults);
criterion_main!(benches);
