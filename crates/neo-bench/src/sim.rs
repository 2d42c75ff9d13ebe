//! Reduced copies of the repository benchmark's three workloads (`simbench/`), each run
//! until it drains. `benches/sim.rs` times them; `tests/sim_workloads.rs` pins what
//! each run simulates, so a change that claims the same bits is checked by `cargo
//! test`.
//!
//! * [`ServerRun::ac_overload`] — one A10G server running NEO on 1,000 AC-like requests
//!   at 6 req/s, about four times what it sustains. The waitqueue grows to most of the
//!   trace, and every iteration re-plans over every admitted request, GPU- and
//!   CPU-resident alike.
//! * [`ServerRun::chat_prefix`] — one A10G server with the prefix cache and the disk
//!   tier, on 150 four-turn chat sessions: prefix adoption, insertion and copy-on-write
//!   splits.
//! * [`FleetRun::faults`] — 64 heterogeneous NEO engines with least-KV routing on
//!   4,000 fleet-mix requests at 64 req/s, with 4 seeded outages, failover and a
//!   completion deadline: the cluster's settle, routing and re-polling.

use neo_cluster::{Cluster, ClusterConfig, Discipline, FaultPlan};
use neo_core::{Engine, EngineConfig};
use neo_kvcache::TokenRun;
use neo_serve::Server;
use neo_workload::{azure_code_like, fleet_mix, multi_turn_chat, ArrivalProcess, ChatConfig};
use neo_workload::{SloPolicy, Trace, TraceRequest};

use crate::{Policy, Scenario};

/// The seed every workload draws its requests from.
const SEED: u64 = 1;

/// Engines in [`FleetRun::faults`], cycling through the T4, the A10G and two 2×H100s.
const FLEET_ENGINES: usize = 64;

/// One request of a server workload: arrival, prompt length, output length, and the
/// prompt's token runs (empty for an opaque prompt).
type Submission = (f64, usize, usize, Vec<TokenRun>);

/// A server workload: the engine configuration and every request, generated once.
#[derive(Debug)]
pub struct ServerRun {
    config: EngineConfig,
    requests: Vec<Submission>,
}

impl ServerRun {
    /// NEO on the A10G, 1,000 AC-like requests at 6 req/s.
    pub fn ac_overload() -> Self {
        let trace = azure_code_like(1_000, ArrivalProcess::Poisson { rate: 6.0 }, SEED);
        let requests = trace
            .requests()
            .iter()
            .map(|r| (r.arrival, r.prompt_len, r.output_len, Vec::new()))
            .collect();
        Self { config: EngineConfig::default(), requests }
    }

    /// NEO on the A10G with the prefix cache and the disk tier, 150 four-turn chat
    /// sessions.
    pub fn chat_prefix() -> Self {
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
        let requests = multi_turn_chat(&chat, SEED)
            .requests()
            .iter()
            .map(|r| (r.arrival, r.prompt_len(), r.output_len, r.runs.clone()))
            .collect();
        let config =
            EngineConfig { prefix_cache: true, disk_tier: true, ..EngineConfig::default() };
        Self { config, requests }
    }

    /// A NEO server on the A10G with every request of the workload submitted.
    pub fn server(&self) -> Server {
        let engine = Scenario::a10g_8b().engine_with_config(Policy::Neo, self.config.clone());
        let mut server = Server::new(engine);
        for (arrival, prompt_len, output_len, runs) in &self.requests {
            // A refused request is part of the workload, as in the repository benchmark.
            let _ = if runs.is_empty() {
                server.submit(*arrival, *prompt_len, *output_len)
            } else {
                server.submit_with_runs(*arrival, runs.clone(), *output_len)
            };
        }
        server
    }
}

/// A fleet workload: the arrival trace and the cluster configuration, generated once.
#[derive(Debug)]
pub struct FleetRun {
    trace: Trace,
    config: ClusterConfig,
}

impl FleetRun {
    /// 64 engines, 4,000 fleet-mix requests at 64 req/s, 4 seeded outages of 5 s,
    /// failover, and a 120 s + 1 s per output token completion deadline.
    pub fn faults() -> Self {
        let trace: Trace = fleet_mix(4_000, 0.35, 1.0, SEED)
            .requests()
            .iter()
            .map(|r| TraceRequest { arrival: r.arrival / 64.0, ..*r })
            .collect();
        let horizon = trace.requests().last().map_or(1.0, |r| r.arrival);
        let config = ClusterConfig {
            discipline: Discipline::LeastKv,
            fault_plan: FaultPlan::seeded_outages(FLEET_ENGINES, horizon, 4, 5.0, SEED),
            failover: true,
            slo: Some(SloPolicy::new(120.0, 1.0)),
            ..ClusterConfig::default()
        };
        Self { trace, config }
    }

    /// The cluster, its engines built by `engine` from their scenarios (the benchmark
    /// passes NEO's engine; a test may wrap its scheduler).
    pub fn cluster(&self, mut engine: impl FnMut(&Scenario) -> Engine) -> Cluster {
        let pattern =
            [Scenario::t4_7b(), Scenario::a10g_8b(), Scenario::h100_70b(), Scenario::h100_70b()];
        let fleet = (0..FLEET_ENGINES)
            .map(|i| {
                let scenario = &pattern[i % pattern.len()];
                (format!("{}#{i}", scenario.name), engine(scenario))
            })
            .collect();
        Cluster::new(fleet, &self.trace, self.config.clone())
    }
}
