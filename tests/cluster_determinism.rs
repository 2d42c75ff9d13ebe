//! Cluster-level determinism contracts.
//!
//! The cluster layer is where event order is most tempting to leak into outputs: a
//! router reading engine queue depths at instant *t* would see different depths
//! depending on whether an engine's same-instant completion was processed first.
//! `neo_cluster` is built so that cannot happen (its run loop settles each instant in
//! one fixed global order), and this suite pins the contract:
//!
//! * one routing trace is pinned with exact literals, so any change to the settle
//!   order, the link model, or a discipline shows up as a reviewable diff;
//! * total tokens served are conserved: every discipline streams exactly the trace's
//!   output tokens, no matter how differently it spreads them over engines.

use neo_bench::{Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, ClusterReport, Discipline, RouteRecord};
use neo_core::Engine;
use neo_workload::{synthetic, ArrivalProcess, Trace};
use proptest::prelude::*;

/// T4 + A10G: the smallest fleet where capacity-aware and capacity-blind disciplines
/// genuinely disagree, small enough for 32+ proptest cases.
fn hetero_pair() -> Vec<(String, Engine)> {
    vec![
        ("t4".to_string(), Scenario::t4_7b().engine(Policy::Neo)),
        ("a10g".to_string(), Scenario::a10g_8b().engine(Policy::Neo)),
    ]
}

fn pinned_trace() -> Trace {
    synthetic(10, 200, 8, ArrivalProcess::Uniform { rate: 5.0 }, 13)
}

fn run_cluster(discipline: Discipline) -> ClusterReport {
    let config = ClusterConfig { discipline, ..ClusterConfig::default() };
    Cluster::new(hetero_pair(), &pinned_trace(), config).run()
}

/// Golden routing trace: least-KV over the T4+A10G pair, pinned with `{:?}` round-trip
/// literals. The A10G (larger KV cache) must absorb the majority of the stream; any
/// change to the settle order, link serialization, or the KV-pressure score moves at
/// least one of these records.
#[test]
fn least_kv_routing_trace_is_pinned() {
    let report = run_cluster(Discipline::LeastKv);
    let expected = vec![
        RouteRecord { id: 0, time: 0.2, engine: 0 },
        RouteRecord { id: 1, time: 0.4, engine: 1 },
        RouteRecord { id: 2, time: 0.6, engine: 1 },
        RouteRecord { id: 3, time: 0.8, engine: 0 },
        RouteRecord { id: 4, time: 1.0, engine: 1 },
        RouteRecord { id: 5, time: 1.2, engine: 1 },
        RouteRecord { id: 6, time: 1.4, engine: 0 },
        RouteRecord { id: 7, time: 1.6, engine: 1 },
        RouteRecord { id: 8, time: 1.8, engine: 1 },
        RouteRecord { id: 9, time: 2.0, engine: 0 },
    ];
    assert_eq!(report.routes, expected);
    assert_eq!(report.completed, 10);
    assert_eq!(report.streamed_tokens, 84);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Token conservation across router disciplines: whatever the routing, the fleet
    /// streams exactly the trace's output tokens and completes every request.
    #[test]
    fn total_tokens_served_are_conserved_across_disciplines(
        trace_seed in 1u64..1_000_000u64,
    ) {
        let trace = synthetic(8, 180, 6, ArrivalProcess::Uniform { rate: 4.0 }, trace_seed);
        let expected_tokens: u64 =
            trace.requests().iter().map(|r| r.output_len as u64).sum();
        for discipline in Discipline::ALL {
            let config = ClusterConfig { discipline, ..ClusterConfig::default() };
            let report = Cluster::new(hetero_pair(), &trace, config).run();
            prop_assert_eq!(report.completed, trace.len());
            prop_assert_eq!(report.streamed_tokens, expected_tokens);
            let per_engine: u64 = report.engines.iter().map(|e| e.streamed_tokens).sum();
            prop_assert_eq!(per_engine, expected_tokens);
            prop_assert_eq!(report.routes.len(), trace.len());
        }
    }
}
