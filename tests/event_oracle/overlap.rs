//! Event-ordered iteration-time estimation: the pricing oracle for the closed forms.
//!
//! `neo_core::pipeline` prices an iteration with closed forms — one formula per
//! [`ExecutionMode`] that *assumes* how compute and transfers overlap. This module
//! re-expresses the same machinery as a [`TaskGraph`] over four serial resources — the
//! GPU compute stream, the CPU attention pool, and the two directions of each rank's
//! PCIe link (d2h, h2d; priced per rank) — and lets the overlap *fall out of event
//! ordering* instead.
//!
//! The engine always charges the closed forms; this path is the oracle
//! `tests/event_determinism.rs` checks them against. The two agree exactly when swap
//! traffic flows in a single direction and the GPU is the per-layer critical resource,
//! and within a small pinned tolerance otherwise, because the event model is *finer* in
//! two ways the closed forms round up:
//!
//! * d2h and h2d traffic ride separate link directions concurrently, whereas the
//!   closed forms serialize them into one per-layer transfer term;
//! * a transfer-bound streamed pipeline drains in `L·t + c` rather than the
//!   steady-state cadence `t + L·t` charged by
//!   [`neo_sim::transfer::double_buffered_time`].
//!
//! Both refinements only ever make the event-ordered estimate *at most one stage time
//! faster* than the closed form, never slower — the tolerance the cross-check tests
//! pin.

use neo_core::pipeline::{estimate_decision, stage_times, IterationEstimate};
use neo_core::{ExecutionMode, ScheduleDecision};
use neo_sim::profiler::IterationCost;

use super::task_graph::{EventRecord, JobId, ResourceId, TaskGraph};

/// Resource index of the GPU compute stream.
pub const GPU: ResourceId = 0;
/// Resource index of the CPU attention pool.
pub const CPU: ResourceId = 1;
/// Resource index of the device-to-host direction of the rank's PCIe link.
pub const LINK_D2H: ResourceId = 2;
/// Resource index of the host-to-device direction of the rank's PCIe link.
pub const LINK_H2D: ResourceId = 3;
/// Number of serial resources in a decision graph.
pub const N_RESOURCES: usize = 4;
/// Trace names of the decision-graph resources, indexed by [`ResourceId`].
pub const RESOURCE_NAMES: [&str; N_RESOURCES] = ["gpu", "cpu", "link.d2h", "link.h2d"];

/// A decision lowered to a job DAG, plus the closed-form terms needed to convert its
/// makespan back into an [`IterationEstimate`].
struct DecisionGraph {
    graph: TaskGraph,
    /// `L ×` per-layer compute critical path — the part of the makespan that is not
    /// exposed swap time.
    base_compute: f64,
    /// Non-layer stages (embedding, LM head, sampling), outside the event graph.
    pre_post: f64,
}

/// Estimates a decision by event-ordered execution of its job graph.
///
/// Same signature and semantics as [`estimate_decision`]; `total_time` and
/// `exposed_swap_time` come from the simulated makespan while the per-layer diagnostic
/// fields (busy/bubble times, batch size) are shared with the closed-form estimate,
/// which they describe equally well.
pub fn estimate_decision_event(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
) -> IterationEstimate {
    simulate_decision(
        cost,
        decision,
        whole_swap_out_tokens,
        whole_swap_in_tokens,
        layerwise_overlap,
        false,
    )
    .0
}

/// Like [`estimate_decision_event`], but also returns the exact
/// `(tick, component, event)` dispatch trace — the deterministic-replay surface the
/// golden-trace tests pin.
pub fn trace_decision_event(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
) -> (IterationEstimate, Vec<EventRecord>) {
    simulate_decision(
        cost,
        decision,
        whole_swap_out_tokens,
        whole_swap_in_tokens,
        layerwise_overlap,
        true,
    )
}

fn simulate_decision(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
    trace: bool,
) -> (IterationEstimate, Vec<EventRecord>) {
    let closed = estimate_decision(
        cost,
        decision,
        whole_swap_out_tokens,
        whole_swap_in_tokens,
        layerwise_overlap,
    );
    let model = match decision.mode {
        ExecutionMode::Asymmetric => build_asymmetric(
            cost,
            decision,
            whole_swap_out_tokens,
            whole_swap_in_tokens,
            layerwise_overlap,
        ),
        ExecutionMode::GpuOnly => build_gpu_only(
            cost,
            decision,
            whole_swap_out_tokens,
            whole_swap_in_tokens,
            layerwise_overlap,
        ),
        ExecutionMode::Streamed => {
            build_streamed(cost, decision, whole_swap_out_tokens, whole_swap_in_tokens)
        }
    };
    let run = model.graph.simulate(trace);
    let estimate = IterationEstimate {
        total_time: run.makespan + model.pre_post,
        exposed_swap_time: (run.makespan - model.base_compute).max(0.0),
        ..closed
    };
    (estimate, run.trace)
}

/// Appends one link-chunk job to a direction's FIFO chain (no-op for zero traffic).
fn push_link_job(
    graph: &mut TaskGraph,
    name: String,
    direction: ResourceId,
    duration: f64,
    compute_dep: JobId,
    chain: &mut Option<JobId>,
) {
    if duration <= 0.0 {
        return;
    }
    let mut deps = vec![compute_dep];
    if let Some(prev) = *chain {
        deps.push(prev);
    }
    *chain = Some(graph.push(name, direction, duration, &deps));
}

/// NEO's asymmetric pipelining as a job graph. Per layer, stage A runs batch-0's linear
/// stage against batch-1's CPU attention, stage B runs batch-1's linear stage plus
/// batch-0's GPU attention against batch-0's CPU attention; each stage is a barrier, so
/// the makespan reproduces `L × (max{Tl0, Tca1} + max{Tl1 + Tga0, Tca0})` exactly.
/// Layer-wise swap chunks ride each link direction as soon as the layer's GPU work is
/// done; deferred swaps run as one bulk transfer after the last layer.
fn build_asymmetric(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
) -> DecisionGraph {
    let s0 = stage_times(cost, &decision.batch0);
    let s1 = stage_times(cost, &decision.batch1);
    let layers = cost.n_layers();
    let prefill_swap_tokens = decision.batch0.swap_out_tokens() + decision.batch1.swap_out_tokens();
    let out_t = cost.swap_out_time(prefill_swap_tokens) + cost.swap_out_time(whole_swap_out_tokens);
    let in_t = cost.swap_in_time(whole_swap_in_tokens);

    let mut graph = TaskGraph::named(&RESOURCE_NAMES);
    let mut prev: Vec<JobId> = Vec::new();
    let mut d2h: Option<JobId> = None;
    let mut h2d: Option<JobId> = None;
    for i in 0..layers {
        let a_gpu = graph.push(format!("layer{i}/gpu.linear0"), GPU, s0.tl, &prev);
        let a_cpu =
            (s1.tca > 0.0).then(|| graph.push(format!("layer{i}/cpu.attn1"), CPU, s1.tca, &prev));
        let stage_a: Vec<JobId> = std::iter::once(a_gpu).chain(a_cpu).collect();
        let b_gpu =
            graph.push(format!("layer{i}/gpu.linear1+attn0"), GPU, s1.tl + s0.tga, &stage_a);
        let b_cpu = (s0.tca > 0.0)
            .then(|| graph.push(format!("layer{i}/cpu.attn0"), CPU, s0.tca, &stage_a));
        prev = std::iter::once(b_gpu).chain(b_cpu).collect();
        if layerwise_overlap {
            push_link_job(&mut graph, format!("layer{i}/d2h"), LINK_D2H, out_t, b_gpu, &mut d2h);
            push_link_job(&mut graph, format!("layer{i}/h2d"), LINK_H2D, in_t, b_gpu, &mut h2d);
        }
    }
    if !layerwise_overlap {
        let last = *prev.first().expect("layers > 0");
        let lf = layers as f64;
        push_link_job(&mut graph, "bulk/d2h".into(), LINK_D2H, lf * out_t, last, &mut d2h);
        push_link_job(&mut graph, "bulk/h2d".into(), LINK_H2D, lf * in_t, last, &mut h2d);
    }

    let per_layer = s0.tl.max(s1.tca) + (s1.tl + s0.tga).max(s0.tca);
    DecisionGraph {
        graph,
        base_compute: layers as f64 * per_layer,
        pre_post: cost.pre_post_time(decision.total_linear_tokens(), decision.batch_size()),
    }
}

/// GPU-only execution as a job graph: one fused compute job per layer on the GPU, with
/// the same swap chains as the asymmetric graph.
fn build_gpu_only(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
) -> DecisionGraph {
    let batch0 = &decision.batch0;
    let s0 = stage_times(cost, batch0);
    let layers = cost.n_layers();
    let per_layer = s0.tl + s0.tga;
    let out_t =
        cost.swap_out_time(batch0.swap_out_tokens()) + cost.swap_out_time(whole_swap_out_tokens);
    let in_t = cost.swap_in_time(whole_swap_in_tokens);

    let mut graph = TaskGraph::named(&RESOURCE_NAMES);
    let mut prev: Option<JobId> = None;
    let mut d2h: Option<JobId> = None;
    let mut h2d: Option<JobId> = None;
    for i in 0..layers {
        let deps: Vec<JobId> = prev.into_iter().collect();
        let compute = graph.push(format!("layer{i}/gpu"), GPU, per_layer, &deps);
        prev = Some(compute);
        if layerwise_overlap {
            push_link_job(&mut graph, format!("layer{i}/d2h"), LINK_D2H, out_t, compute, &mut d2h);
            push_link_job(&mut graph, format!("layer{i}/h2d"), LINK_H2D, in_t, compute, &mut h2d);
        }
    }
    if !layerwise_overlap {
        let last = prev.expect("layers > 0");
        let lf = layers as f64;
        push_link_job(&mut graph, "bulk/d2h".into(), LINK_D2H, lf * out_t, last, &mut d2h);
        push_link_job(&mut graph, "bulk/h2d".into(), LINK_H2D, lf * in_t, last, &mut h2d);
    }

    DecisionGraph {
        graph,
        base_compute: layers as f64 * per_layer,
        pre_post: cost.pre_post_time(batch0.linear_tokens(), batch0.sequences()),
    }
}

/// PIPO-style streamed execution as a job graph: per layer, the h2d direction streams
/// the layer's host-resident KV into one of two buffers (so stream `i` must wait for
/// compute `i − 2` to release its buffer), the GPU computes over it, and the d2h
/// direction writes the freshly produced KV back out.
fn build_streamed(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
) -> DecisionGraph {
    let b0 = &decision.batch0;
    let b1 = &decision.batch1;
    let layers = cost.n_layers();

    let streamed_ctx = b0.cpu_decode_ctx() + b1.cpu_decode_ctx();
    let streamed_reqs = b0.cpu_decodes.len() + b1.cpu_decodes.len();
    let total_tokens = decision.total_linear_tokens();
    let mut prefill_chunks = b0.prefill_chunks();
    prefill_chunks.extend(b1.prefill_chunks());
    let compute_per_layer = cost.linear_time(total_tokens)
        + cost.gpu_attn_time(
            &prefill_chunks,
            b0.gpu_decode_ctx() + b1.gpu_decode_ctx() + streamed_ctx,
            b0.gpu_decodes.len() + b1.gpu_decodes.len() + streamed_reqs,
        );
    let in_t = cost.swap_in_time(streamed_ctx) + cost.swap_in_time(whole_swap_in_tokens);
    let prefill_swap_tokens = b0.swap_out_tokens() + b1.swap_out_tokens();
    let out_t = cost.swap_out_time(streamed_reqs)
        + cost.swap_out_time(prefill_swap_tokens)
        + cost.swap_out_time(whole_swap_out_tokens);

    let mut graph = TaskGraph::named(&RESOURCE_NAMES);
    let mut computes: Vec<JobId> = Vec::new();
    let mut d2h: Option<JobId> = None;
    for i in 0..layers {
        let stream = (in_t > 0.0).then(|| {
            // Double-buffer depth 2: the link serializes streams FIFO; stream i reuses
            // the buffer compute i − 2 ran out of.
            let deps: Vec<JobId> = (i >= 2).then(|| computes[i - 2]).into_iter().collect();
            graph.push(format!("layer{i}/h2d"), LINK_H2D, in_t, &deps)
        });
        let deps: Vec<JobId> = stream.into_iter().chain(computes.last().copied()).collect();
        let compute = graph.push(format!("layer{i}/gpu"), GPU, compute_per_layer, &deps);
        computes.push(compute);
        push_link_job(&mut graph, format!("layer{i}/d2h"), LINK_D2H, out_t, compute, &mut d2h);
    }

    DecisionGraph {
        graph,
        base_compute: layers as f64 * compute_per_layer,
        pre_post: cost.pre_post_time(total_tokens, decision.batch_size()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_core::{PrefillItem, SubBatch};
    use neo_kvcache::Device;
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn cost() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    fn decode_batch(gpu: &[(u64, usize)], cpu: &[(u64, usize)]) -> SubBatch {
        SubBatch { prefills: vec![], gpu_decodes: gpu.to_vec(), cpu_decodes: cpu.to_vec() }
    }

    fn decision(mode: ExecutionMode, batch0: SubBatch, batch1: SubBatch) -> ScheduleDecision {
        ScheduleDecision {
            mode,
            batch0,
            batch1,
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        }
    }

    #[test]
    fn gpu_only_without_swaps_matches_the_closed_form_exactly() {
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..24).map(|i| (i, 700)).collect();
        let d = decision(ExecutionMode::GpuOnly, decode_batch(&gpu, &[]), SubBatch::new());
        let closed = estimate_decision(&cm, &d, 0, 0, true);
        let event = estimate_decision_event(&cm, &d, 0, 0, true);
        assert!(
            (event.total_time - closed.total_time).abs() < 1e-12,
            "event {} closed {}",
            event.total_time,
            closed.total_time
        );
        assert_eq!(event.exposed_swap_time, 0.0);
        assert_eq!(event.batch_size, closed.batch_size);
    }

    #[test]
    fn gpu_only_single_direction_swap_matches_the_closed_form_exactly() {
        // Layer-wise swap-out only (no h2d traffic): the event graph reduces to the
        // layerwise_pipeline_time recurrence, which the closed form solves exactly.
        let cm = cost();
        let mut batch0 = decode_batch(&(0..24).map(|i| (i, 700)).collect::<Vec<_>>(), &[]);
        batch0.prefills.push(PrefillItem {
            req: 99,
            new_tokens: 512,
            ctx_after: 512,
            target: Device::Cpu,
        });
        for whole_out in [0usize, 4000] {
            let d = decision(ExecutionMode::GpuOnly, batch0.clone(), SubBatch::new());
            let closed = estimate_decision(&cm, &d, whole_out, 0, true);
            let event = estimate_decision_event(&cm, &d, whole_out, 0, true);
            let rel = (event.total_time - closed.total_time).abs() / closed.total_time;
            assert!(rel < 1e-12, "whole_out {whole_out}: relative difference {rel}");
            assert!((event.exposed_swap_time - closed.exposed_swap_time).abs() < 1e-9);
        }
    }

    #[test]
    fn deferred_single_direction_swap_matches_the_closed_form_exactly() {
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..16).map(|i| (i, 600)).collect();
        let d = decision(ExecutionMode::GpuOnly, decode_batch(&gpu, &[]), SubBatch::new());
        let closed = estimate_decision(&cm, &d, 3000, 0, false);
        let event = estimate_decision_event(&cm, &d, 3000, 0, false);
        assert!((event.total_time - closed.total_time).abs() < 1e-9);
        assert!((event.exposed_swap_time - closed.exposed_swap_time).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_gpu_critical_matches_the_closed_form_exactly() {
        // A small CPU sub-batch hides entirely under the GPU shadow, so the GPU is the
        // critical resource of both stages and the barrier cadence equals the closed
        // form's per-layer term.
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..48).map(|i| (i, 900)).collect();
        let cpu: Vec<(u64, usize)> = (100..108).map(|i| (i, 900)).collect();
        let d =
            decision(ExecutionMode::Asymmetric, decode_batch(&gpu, &[]), decode_batch(&[], &cpu));
        let closed = estimate_decision(&cm, &d, 0, 0, true);
        let event = estimate_decision_event(&cm, &d, 0, 0, true);
        assert!(
            (event.total_time - closed.total_time).abs() / closed.total_time < 1e-12,
            "event {} closed {}",
            event.total_time,
            closed.total_time
        );
    }

    #[test]
    fn cpu_bound_asymmetric_still_reproduces_the_barrier_cadence() {
        // Oversized batch-1: the CPU attention dominates stage A. The barriers make the
        // compute makespan exactly L × per_layer either way.
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..16).map(|i| (i, 500)).collect();
        let cpu: Vec<(u64, usize)> = (100..400).map(|i| (i, 800)).collect();
        let d =
            decision(ExecutionMode::Asymmetric, decode_batch(&gpu, &[]), decode_batch(&[], &cpu));
        let closed = estimate_decision(&cm, &d, 0, 0, true);
        let event = estimate_decision_event(&cm, &d, 0, 0, true);
        assert!((event.total_time - closed.total_time).abs() / closed.total_time < 1e-12);
    }

    #[test]
    fn dual_direction_swaps_are_at_most_one_closed_form_but_never_slower() {
        // With both d2h and h2d traffic the closed form serializes the two directions
        // into one per-layer transfer term; the event model runs them on separate link
        // directions, so it can only be faster — and by no more than the serialized
        // transfer term itself.
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..24).map(|i| (i, 700)).collect();
        let d = decision(ExecutionMode::GpuOnly, decode_batch(&gpu, &[]), SubBatch::new());
        let closed = estimate_decision(&cm, &d, 2000, 2000, true);
        let event = estimate_decision_event(&cm, &d, 2000, 2000, true);
        assert!(event.total_time <= closed.total_time + 1e-12);
        let slack = cm.swap_out_time(2000) + cm.swap_in_time(2000);
        assert!(closed.total_time - event.total_time <= cm.n_layers() as f64 * slack + 1e-12);
    }

    #[test]
    fn streamed_agrees_with_the_closed_form_within_one_stage_time() {
        let cm = cost();
        for ctx in [100usize, 1000, 4000] {
            let streamed: Vec<(u64, usize)> = (0..16).map(|i| (i, ctx)).collect();
            let d =
                decision(ExecutionMode::Streamed, decode_batch(&[], &streamed), SubBatch::new());
            let closed = estimate_decision(&cm, &d, 0, 0, true);
            let event = estimate_decision_event(&cm, &d, 0, 0, true);
            // The event pipeline drains in L·max(c,t) + min(c,t) instead of the
            // closed form's t + L·max(c,t): never slower, within one stage time.
            assert!(event.total_time <= closed.total_time + 1e-12, "ctx {ctx}");
            let stage = cm.swap_in_time(16 * ctx) + cm.swap_out_time(16);
            let compute_stage = closed.gpu_busy_per_layer;
            assert!(
                closed.total_time - event.total_time <= stage.max(compute_stage) + 1e-12,
                "ctx {ctx}: closed {} event {}",
                closed.total_time,
                event.total_time
            );
        }
    }

    #[test]
    fn streamed_exposure_is_transfer_bound_for_long_contexts() {
        let cm = cost();
        let long: Vec<(u64, usize)> = (0..16).map(|i| (i, 4000)).collect();
        let d = decision(ExecutionMode::Streamed, decode_batch(&[], &long), SubBatch::new());
        let event = estimate_decision_event(&cm, &d, 0, 0, true);
        assert!(event.exposed_swap_time > 0.0, "long contexts must expose transfer time");
    }

    #[test]
    fn trace_is_deterministic_and_time_ordered() {
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..8).map(|i| (i, 400)).collect();
        let d = decision(ExecutionMode::GpuOnly, decode_batch(&gpu, &[]), SubBatch::new());
        let (est, trace) = trace_decision_event(&cm, &d, 0, 0, true);
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].tick <= w[1].tick));
        assert_eq!(trace.last().unwrap().tick + cm.pre_post_time(8, 8), est.total_time);
        let (_, again) = trace_decision_event(&cm, &d, 0, 0, true);
        assert_eq!(trace, again);
    }
}
