//! Fault-injection determinism contracts.
//!
//! Faults are the easiest place for nondeterminism to sneak back into the cluster:
//! an engine death races against deliveries, completions, and retries all landing at
//! the same instant. The fault machinery runs in the same fixed settle order as
//! everything else, and this suite pins that contract:
//!
//! * one mid-decode engine failure is pinned with exact literals: which requests
//!   died, where they failed over, and that the survivor completed them;
//! * conservation: under seeded outages and under a plan exercising every fault kind,
//!   every request ends in exactly one terminal state, a shed or retried request's
//!   partial output is counted exactly once (never double), and retries respect the
//!   per-request budget.

use neo_bench::{Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, ClusterReport, Discipline, FaultPlan, RouteRecord};
use neo_core::Engine;
use neo_workload::{synthetic, ArrivalProcess, Trace};
use proptest::prelude::*;

/// Same T4 + A10G pair as `cluster_determinism`: heterogeneous enough that failing
/// either engine reshapes the routing, small enough for 32+ proptest cases.
fn hetero_pair() -> Vec<(String, Engine)> {
    vec![
        ("t4".to_string(), Scenario::t4_7b().engine(Policy::Neo)),
        ("a10g".to_string(), Scenario::a10g_8b().engine(Policy::Neo)),
    ]
}

fn pinned_trace() -> Trace {
    synthetic(10, 200, 8, ArrivalProcess::Uniform { rate: 5.0 }, 13)
}

/// A plan that exercises every fault kind against the pinned trace: the T4 dies
/// mid-decode and recovers, the A10G's link degrades for a stretch, and one request
/// is given an explicit deadline.
fn pinned_plan() -> FaultPlan {
    FaultPlan::new()
        .engine_fail(0.9, 0)
        .link_degrade(1.0, 1, 0.25, 0.01)
        .engine_recover(2.5, 0)
        .link_restore(3.0, 1)
        .deadline_expire(1.5, 9)
}

fn run_faulted(discipline: Discipline, plan: FaultPlan) -> ClusterReport {
    let config = ClusterConfig { discipline, fault_plan: plan, ..ClusterConfig::default() };
    Cluster::new(hetero_pair(), &pinned_trace(), config).run()
}

/// Golden fault trace: the T4 fail-stops at t=0.9 holding live work, and every
/// orphan fails over to the A10G and completes. Pinned with `{:?}` round-trip
/// literals so any change to fault ordering, the backoff, or the failover path
/// shows up as a reviewable diff.
#[test]
fn mid_decode_failure_trace_is_pinned() {
    let report = run_faulted(Discipline::RoundRobin, FaultPlan::new().engine_fail(0.9, 0));
    let expected = vec![
        RouteRecord { id: 0, time: 0.2, engine: 0 },
        RouteRecord { id: 1, time: 0.4, engine: 1 },
        RouteRecord { id: 2, time: 0.6, engine: 0 },
        RouteRecord { id: 3, time: 0.8, engine: 1 },
        RouteRecord { id: 2, time: 0.9500000000000001, engine: 1 },
        RouteRecord { id: 4, time: 1.0, engine: 1 },
        RouteRecord { id: 5, time: 1.2, engine: 1 },
        RouteRecord { id: 6, time: 1.4, engine: 1 },
        RouteRecord { id: 7, time: 1.6, engine: 1 },
        RouteRecord { id: 8, time: 1.8, engine: 1 },
        RouteRecord { id: 9, time: 2.0, engine: 1 },
    ];
    assert_eq!(report.routes, expected);
    assert_eq!(report.completed, 10, "the survivor must complete every orphan");
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.retries, 1,
        "request 2 was mid-decode on the T4 when it died (0 had already finished there)"
    );
    assert!(report.drops.is_empty());
    assert_eq!(report.engines[0].completed, 1, "request 0 finished on the T4 before t=0.9");
    assert_eq!(report.engines[1].completed, 9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation under faults: every request reaches exactly one terminal state,
    /// retries stay within the per-request budget, a faulted run never streams more
    /// than the clean run (discarded partial output is not double-counted), and
    /// exactly the completed requests have a first token. Each case checks seeded
    /// outages and the pinned plan that exercises every fault kind.
    #[test]
    fn every_request_reaches_exactly_one_terminal_state(
        plan_seed in 0u64..1_000_000u64,
        discipline_index in 0usize..4,
    ) {
        let discipline = Discipline::ALL[discipline_index];
        let clean = run_faulted(discipline, FaultPlan::new());
        for plan in [FaultPlan::seeded_outages(2, 2.5, 2, 0.6, plan_seed), pinned_plan()] {
            let report = run_faulted(discipline, plan);
            prop_assert_eq!(report.completed + report.dropped, report.requests);
            prop_assert_eq!(report.drops.len(), report.dropped);
            let config = ClusterConfig::default();
            prop_assert!(report.retries <= report.requests as u64 * config.retry_budget as u64);
            prop_assert!(report.streamed_tokens <= clean.streamed_tokens);
            let per_engine: u64 = report.engines.iter().map(|e| e.streamed_tokens).sum();
            prop_assert!(report.streamed_tokens <= per_engine,
                "frontend-visible tokens exclude discarded partial output, {} vs {}",
                report.streamed_tokens, per_engine);
            if let Some(ttft) = &report.ttft {
                prop_assert_eq!(ttft.count, report.completed);
            } else {
                prop_assert_eq!(report.completed, 0);
            }
        }
    }
}
