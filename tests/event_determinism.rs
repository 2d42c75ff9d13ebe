//! Pricing-oracle contracts: the event-ordered iteration pricing
//! (`neo_core::event_overlap`) checked against the closed forms the engine charges.
//!
//! * **replayable** — the exact `(tick, component, event)` sequence of an h100_70b
//!   decision window is pinned, in the style of the scheduling traces in
//!   `tests/tp_accounting.rs`;
//! * **agreeing with the closed forms** — every decision of real NEO runs on the T4,
//!   A10G and H100 scenarios is re-priced through both paths: the event-ordered
//!   estimate is never slower than the closed form and at most 8 % faster in
//!   aggregate.

use std::sync::{Arc, Mutex};

use neo_bench::{Policy, Scenario};
use neo_core::config::EngineConfig;
use neo_core::pipeline::estimate_decision;
use neo_core::request::Request;
use neo_core::{
    estimate_decision_event, trace_decision_event, Engine, ExecutionMode, ScheduleContext,
    ScheduleDecision, Scheduler, SubBatch,
};
use neo_sim::CostModel;

/// `NEO_KV_HIERARCHY=on` (the CI `prefix-cache` matrix) turns the shared-prefix cache
/// on for every engine in this suite. None of these workloads share token runs, so the
/// cache must be a pure no-op: the agreement contract below must hold unchanged — the
/// "on" matrix leg re-proves the hierarchy's transparency.
fn kv_hierarchy_on() -> bool {
    std::env::var("NEO_KV_HIERARCHY").map(|v| v == "on" || v == "1").unwrap_or(false)
}

/// A representative h100_70b (tp = 2) asymmetric decision: a prefill chunk headed for
/// the CPU cache, GPU decodes, an offloaded batch-1, and whole-sequence swap traffic in
/// both directions.
fn h100_decision() -> ScheduleDecision {
    ScheduleDecision {
        mode: ExecutionMode::Asymmetric,
        batch0: SubBatch {
            prefills: vec![neo_core::PrefillItem {
                req: 900,
                new_tokens: 512,
                ctx_after: 512,
                target: neo_kvcache::Device::Cpu,
            }],
            gpu_decodes: (0..24).map(|i| (i, 1500)).collect(),
            cpu_decodes: vec![],
        },
        batch1: SubBatch {
            prefills: vec![],
            gpu_decodes: vec![],
            cpu_decodes: (100..112).map(|i| (i, 1500)).collect(),
        },
        swap_out: vec![],
        swap_in: vec![],
        preempt: vec![],
        demote_disk: vec![],
        promote_disk: vec![],
    }
}

/// Golden trace: the exact `(tick, component, event)` sequence of the first ten
/// dispatches of the h100_70b decision window, plus the window's totals, pinned with
/// `{:?}` round-trip literals. Any change to dispatch ordering, job construction or the
/// cost model shows up here as a bit-level diff.
#[test]
fn h100_70b_event_trace_is_pinned() {
    let scenario = Scenario::h100_70b_tp(2);
    let cost = scenario.cost_model();
    let decision = h100_decision();
    let (estimate, trace) = trace_decision_event(&cost, &decision, 3000, 2000, true);

    // 80 layers × (4 compute + 2 link jobs), two dispatches (start/finish, possibly
    // fused) each; the exact length is part of the replay contract.
    let window: Vec<(f64, &str, &str)> =
        trace.iter().take(10).map(|r| (r.tick, r.name.as_str(), r.event.as_str())).collect();
    let expected: Vec<(f64, &str, &str)> = vec![
        (0.0, "gpu", "start layer0/gpu.linear0"),
        (0.0, "cpu", "start layer0/cpu.attn1"),
        (0.0007899345306122448, "cpu", "finish layer0/cpu.attn1"),
        (0.0009173112776051424, "gpu", "finish layer0/gpu.linear0; start layer0/gpu.linear1+attn0"),
        (0.0013081066670578786, "gpu", "finish layer0/gpu.linear1+attn0; start layer1/gpu.linear0"),
        (0.0013081066670578786, "cpu", "start layer1/cpu.attn1"),
        (0.0013081066670578786, "link.d2h", "start layer0/d2h"),
        (0.0013081066670578786, "link.h2d", "start layer0/h2d"),
        (0.001401440000391212, "link.h2d", "finish layer0/h2d"),
        (0.001473952000391212, "link.d2h", "finish layer0/d2h"),
    ];
    assert_eq!(window, expected);
    assert_eq!(trace.len(), 641);
    assert_eq!(estimate.total_time, 0.10528941657338621);
    assert_eq!(estimate.exposed_swap_time, 0.00016584533333303952);
}

/// `(closed form, event-ordered)` price of every non-idle decision, in simulated
/// seconds.
type Prices = Arc<Mutex<Vec<(f64, f64)>>>;

/// A [`Scheduler`] decorator that returns the wrapped policy's decisions unchanged and
/// re-prices each one through both paths against the engine's exact cost model
/// (assuming every requested swap succeeds — both paths see the same inputs either
/// way).
struct BothPaths {
    inner: Box<dyn Scheduler>,
    exact: CostModel,
    layerwise_overlap: bool,
    prices: Prices,
}

impl Scheduler for BothPaths {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let decision = self.inner.schedule(ctx);
        if !decision.is_idle() {
            let tokens = |ids: &[u64]| -> usize { ids.iter().map(|&id| ctx.context_len(id)).sum() };
            let (out, into) = (tokens(&decision.swap_out), tokens(&decision.swap_in));
            let layerwise = self.layerwise_overlap;
            let closed = estimate_decision(&self.exact, &decision, out, into, layerwise);
            let event = estimate_decision_event(&self.exact, &decision, out, into, layerwise);
            self.prices.lock().unwrap().push((closed.total_time, event.total_time));
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Oracle agreement on real runs: every decision NEO makes while draining each
/// scenario's workload is priced by the event-ordered path no slower than by the
/// closed forms, and the two totals differ by at most 8 %.
#[test]
fn event_path_agrees_with_closed_form_within_pinned_tolerance() {
    // Workloads sized so each scenario drains: the T4 has far less KV headroom than
    // the A10G or the H100, so it gets fewer, shorter requests.
    for (label, scenario, n_requests, prompt) in [
        ("t4_7b", Scenario::t4_7b(), 10u64, 240usize),
        ("a10g_8b", Scenario::a10g_8b(), 16, 1200),
        ("h100_70b", Scenario::h100_70b(), 16, 1200),
    ] {
        let config = EngineConfig { prefix_cache: kv_hierarchy_on(), ..EngineConfig::default() };
        let prices = Prices::default();
        let scheduler = BothPaths {
            inner: Policy::Neo.scheduler(),
            exact: scenario.cost_model().with_max_batch_tokens(config.max_batch_tokens),
            layerwise_overlap: config.layerwise_swap_overlap,
            prices: Arc::clone(&prices),
        };
        let mut engine = Engine::new(scenario.cost_model(), config, Box::new(scheduler));
        for id in 0..n_requests {
            engine.submit(Request::new(id, 0.0, prompt, 24)).unwrap();
        }
        while !engine.is_idle() {
            engine.step();
        }
        let prices = prices.lock().unwrap();
        assert!(!prices.is_empty(), "{label}: no decision was priced");
        let mut closed_total = 0.0;
        let mut event_total = 0.0;
        for (i, &(closed, event)) in prices.iter().enumerate() {
            assert!(
                event <= closed + 1e-9,
                "{label} decision {i}: event {event} > closed {closed}"
            );
            closed_total += closed;
            event_total += event;
        }
        let rel = (closed_total - event_total) / closed_total;
        assert!(
            (-1e-9..=0.08).contains(&rel),
            "{label}: event makespan deviates {:.2}% from the closed forms",
            rel * 100.0
        );
    }
}
