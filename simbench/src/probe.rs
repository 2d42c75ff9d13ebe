//! Tracing from outside the program: a [`Scheduler`] decorator that times every
//! `schedule()` call, counts and times the cost-model queries the policy makes through
//! an [`IterationCost`] wrapper, and re-prices every returned decision against the exact
//! [`CostModel`] to split the iteration's simulated time the way the paper's
//! Figures 3–5 do.
//!
//! The decorator forwards every value unchanged: the wrapped policy sees the same
//! context (only the cost reference is swapped for a forwarding wrapper) and the engine
//! receives the policy's decision as returned. The benchmark checks this by comparing
//! the traced run's simulated metrics with the untraced run's, bit for bit.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use neo_core::pipeline::{estimate_decision, stage_times};
use neo_core::{ExecutionMode, ScheduleContext, ScheduleDecision, Scheduler};
use neo_sim::profiler::IterationCost;
use neo_sim::CostModel;

use crate::clock::Stamp;

/// Simulated time the engine charges an idle scheduling quantum. Mirrors the engine's
/// private constant; the per-iteration duration check fails loudly if the two drift.
const IDLE_QUANTUM_S: f64 = 1e-3;

/// Shortest iteration the engine charges. Mirrors the engine's clamp, like
/// [`IDLE_QUANTUM_S`].
const MIN_ITERATION_S: f64 = 1e-6;

/// Simulated seconds of one or more iterations, split by stage (Figures 3–5).
///
/// `gpu_linear` … `idle` partition simulated time; `cpu_attn_busy` overlaps them (it
/// runs under the GPU stages or, where it cannot hide, shows up as `bubble`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Breakdown {
    /// Linear stages (projections + FFN) of both sub-batches.
    pub gpu_linear: f64,
    /// GPU attention (prefill attention and GPU-resident decodes).
    pub gpu_attn: f64,
    /// Pipeline bubble on the critical path.
    pub bubble: f64,
    /// PCIe swap traffic not hidden behind compute.
    pub transfer_exposed: f64,
    /// NVMe demotions and promotions, charged serially.
    pub disk: f64,
    /// Embedding, LM head and sampling.
    pub pre_post: f64,
    /// Idle scheduling quanta, plus (when the caller sees them) clock jumps to the next
    /// arrival.
    pub idle: f64,
    /// CPU attention busy time (overlaps the partition above).
    pub cpu_attn_busy: f64,
}

impl Breakdown {
    /// Adds `other` stage by stage.
    pub fn add(&mut self, other: &Breakdown) {
        self.gpu_linear += other.gpu_linear;
        self.gpu_attn += other.gpu_attn;
        self.bubble += other.bubble;
        self.transfer_exposed += other.transfer_exposed;
        self.disk += other.disk;
        self.pre_post += other.pre_post;
        self.idle += other.idle;
        self.cpu_attn_busy += other.cpu_attn_busy;
    }

    /// Sum of the parts that partition simulated time.
    pub fn partitioned(&self) -> f64 {
        self.gpu_linear
            + self.gpu_attn
            + self.bubble
            + self.transfer_exposed
            + self.disk
            + self.pre_post
            + self.idle
    }
}

/// One decision re-priced against the exact cost model: what the engine is about to
/// charge for it.
#[derive(Debug, Clone, Copy)]
pub struct Priced {
    /// Iteration duration the engine will charge, in simulated seconds.
    pub duration: f64,
    /// Whether the decision is an idle quantum.
    pub idle: bool,
    /// The duration split by stage.
    pub parts: Breakdown,
    /// Execution mode of the decision.
    pub mode: ExecutionMode,
    /// Whole-sequence swaps and tier moves the pricing assumed all succeed.
    pub swap_out: usize,
    /// See [`Priced::swap_out`].
    pub swap_in: usize,
    /// See [`Priced::swap_out`].
    pub demoted: usize,
    /// See [`Priced::swap_out`].
    pub promoted: usize,
}

/// Everything the decorator recorded for one engine.
#[derive(Debug, Default)]
pub struct EngineProbe {
    /// `schedule()` calls (one per engine iteration).
    pub calls: u64,
    /// Host time inside `schedule()`, per call, in nanoseconds.
    pub call_ns: Vec<u64>,
    /// Decisions that scheduled no work.
    pub idle_decisions: u64,
    /// Decisions that offloaded attention to the CPU.
    pub offload_decisions: u64,
    /// Requests preempted (KV discarded, prompt recomputed).
    pub preemptions: u64,
    /// Whole-sequence GPU→CPU swaps.
    pub swap_out: u64,
    /// Whole-sequence CPU→GPU swaps.
    pub swap_in: u64,
    /// Σ batch size over decisions that scheduled work.
    pub batch_sum: u64,
    /// Prompt tokens scheduled for prefill.
    pub prefill_tokens: u64,
    /// The part of `prefill_tokens` that re-prefills a preempted request.
    pub recompute_tokens: u64,
    /// Cost-model queries the policy issued.
    pub cost_calls: u64,
    /// Host time inside those queries, in nanoseconds.
    pub cost_ns: u64,
    /// Σ GPU KV-pool occupancy (used ÷ capacity) sampled at each call.
    pub gpu_occupancy_sum: f64,
    /// Σ CPU KV-pool occupancy sampled at each call.
    pub cpu_occupancy_sum: f64,
    /// Simulated time of every priced iteration, by stage.
    pub breakdown: Breakdown,
    /// The most recent decision's pricing, for the caller's per-iteration check.
    pub last: Option<Priced>,
    /// First pricing inconsistency seen, reported by the run instead of panicking
    /// inside the engine.
    pub error: Option<String>,
    preempted: BTreeSet<u64>,
}

/// Shared handle to one engine's probe.
pub type ProbeHandle = Arc<Mutex<EngineProbe>>;

/// Locks a probe. The benchmark is single-threaded, so the lock is never contended; a
/// poisoned lock means a scheduler call already panicked.
pub fn lock(probe: &ProbeHandle) -> MutexGuard<'_, EngineProbe> {
    probe.lock().expect("probe lock poisoned by a panicking scheduler call")
}

/// An [`IterationCost`] that forwards to the scheduler's cost model and counts and
/// times the queries.
struct CountingCost<'a> {
    inner: &'a dyn IterationCost,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl<'a> CountingCost<'a> {
    fn new(inner: &'a dyn IterationCost) -> Self {
        Self { inner, calls: AtomicU64::new(0), ns: AtomicU64::new(0) }
    }

    fn timed<T>(&self, query: impl FnOnce(&dyn IterationCost) -> T) -> T {
        let start = Stamp::now();
        let value = query(self.inner);
        // Statistics only: no other data is published through these counters.
        self.ns.fetch_add(start.elapsed_ns(), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        value
    }
}

impl IterationCost for CountingCost<'_> {
    fn linear_time(&self, n_tokens: usize) -> f64 {
        self.timed(|c| c.linear_time(n_tokens))
    }
    fn gpu_attn_time(
        &self,
        prefill: &[(usize, usize)],
        decode_ctx: usize,
        decode_reqs: usize,
    ) -> f64 {
        self.timed(|c| c.gpu_attn_time(prefill, decode_ctx, decode_reqs))
    }
    fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        self.timed(|c| c.cpu_attn_time(ctx_total, n_reqs))
    }
    fn swap_out_time(&self, n_tokens: usize) -> f64 {
        self.timed(|c| c.swap_out_time(n_tokens))
    }
    fn swap_in_time(&self, n_tokens: usize) -> f64 {
        self.timed(|c| c.swap_in_time(n_tokens))
    }
    fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
        self.timed(|c| c.pre_post_time(n_tokens, n_seqs))
    }
    fn n_layers(&self) -> usize {
        self.timed(|c| c.n_layers())
    }
    fn tp(&self) -> usize {
        self.timed(|c| c.tp())
    }
}

/// A [`Scheduler`] decorator that records an [`EngineProbe`] around the wrapped policy.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    /// The exact cost model the engine charges iterations from.
    exact: CostModel,
    layerwise_swap_overlap: bool,
    probe: ProbeHandle,
}

impl TimedScheduler {
    /// Wraps `inner`. `exact` must be the engine's own exact cost model (the scenario's
    /// model with the engine's `max_batch_tokens`), so re-pricing reproduces the
    /// engine's charge.
    pub fn new(
        inner: Box<dyn Scheduler>,
        exact: CostModel,
        layerwise_swap_overlap: bool,
    ) -> (Self, ProbeHandle) {
        let probe = ProbeHandle::default();
        (Self { inner, exact, layerwise_swap_overlap, probe: Arc::clone(&probe) }, probe)
    }
}

impl Scheduler for TimedScheduler {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let counting = CountingCost::new(ctx.cost);
        let forwarded = ScheduleContext { cost: &counting, ..*ctx };
        let start = Stamp::now();
        let decision = self.inner.schedule(&forwarded);
        let ns = start.elapsed_ns();

        let priced = price(&self.exact, self.layerwise_swap_overlap, ctx, &decision);
        let cpu_capacity = self.exact.cpu_kv_capacity_tokens();
        let mut probe = lock(&self.probe);
        probe.calls += 1;
        probe.call_ns.push(ns);
        probe.cost_calls += counting.calls.load(Ordering::Relaxed);
        probe.cost_ns += counting.ns.load(Ordering::Relaxed);
        probe.gpu_occupancy_sum += occupancy(ctx.gpu_free_tokens, ctx.gpu_capacity_tokens);
        probe.cpu_occupancy_sum += occupancy(ctx.cpu_free_tokens, cpu_capacity);
        probe.preempted.extend(decision.preempt.iter().copied());
        probe.preemptions += decision.preempt.len() as u64;
        probe.swap_out += decision.swap_out.len() as u64;
        probe.swap_in += decision.swap_in.len() as u64;
        if decision.is_idle() {
            probe.idle_decisions += 1;
        } else {
            probe.batch_sum += decision.batch_size() as u64;
        }
        let cpu_decodes = decision.batch0.cpu_decodes.len() + decision.batch1.cpu_decodes.len();
        if cpu_decodes > 0 {
            probe.offload_decisions += 1;
        }
        for item in decision.batch0.prefills.iter().chain(&decision.batch1.prefills) {
            probe.prefill_tokens += item.new_tokens as u64;
            if probe.preempted.contains(&item.req) {
                probe.recompute_tokens += item.new_tokens as u64;
            }
        }
        match priced {
            Ok(priced) => {
                probe.breakdown.add(&priced.parts);
                probe.last = Some(priced);
            }
            Err(err) => {
                probe.last = None;
                probe.error.get_or_insert(err);
            }
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn occupancy(free: usize, capacity: usize) -> f64 {
    if capacity == 0 {
        return 0.0;
    }
    1.0 - free as f64 / capacity as f64
}

/// Re-prices `decision` the way the engine's closed-form path charges it: swaps and
/// tier moves are priced by the context lengths they move (assuming each succeeds —
/// the caller checks that against the engine's report), the iteration through
/// [`estimate_decision`], and its stages through [`stage_times`].
fn price(
    cost: &CostModel,
    layerwise: bool,
    ctx: &ScheduleContext<'_>,
    decision: &ScheduleDecision,
) -> Result<Priced, String> {
    let tokens = |ids: &[u64]| -> usize { ids.iter().map(|&id| ctx.context_len(id)).sum() };
    let mut priced = Priced {
        duration: IDLE_QUANTUM_S,
        idle: true,
        parts: Breakdown { idle: IDLE_QUANTUM_S, ..Breakdown::default() },
        mode: ExecutionMode::GpuOnly,
        swap_out: 0,
        swap_in: 0,
        demoted: 0,
        promoted: 0,
    };
    if decision.is_idle() {
        return Ok(priced);
    }
    let swap_out_tokens = tokens(&decision.swap_out);
    let swap_in_tokens = tokens(&decision.swap_in);
    let estimate = estimate_decision(cost, decision, swap_out_tokens, swap_in_tokens, layerwise);
    let disk = cost.disk_write_time_total(tokens(&decision.demote_disk))
        + cost.disk_read_time_total(tokens(&decision.promote_disk));

    let layers = cost.n_layers() as f64;
    let s0 = stage_times(cost, &decision.batch0);
    let s1 = stage_times(cost, &decision.batch1);
    let (linear_per_layer, pre_post) = match decision.mode {
        ExecutionMode::Asymmetric => (
            s0.tl + s1.tl,
            cost.pre_post_time(decision.total_linear_tokens(), decision.batch_size()),
        ),
        ExecutionMode::GpuOnly => (
            s0.tl,
            cost.pre_post_time(decision.batch0.linear_tokens(), decision.batch0.sequences()),
        ),
        ExecutionMode::Streamed => {
            return Err("streamed decisions are not priced: NEO never emits them".to_string())
        }
    };
    let parts = Breakdown {
        gpu_linear: layers * linear_per_layer,
        gpu_attn: layers * s0.tga,
        bubble: layers * estimate.bubble_per_layer,
        transfer_exposed: estimate.exposed_swap_time,
        disk,
        pre_post,
        idle: 0.0,
        cpu_attn_busy: layers * estimate.cpu_busy_per_layer,
    };
    let charged = estimate.total_time + disk;
    if (parts.partitioned() - charged).abs() > 1e-9 * charged.max(1.0) {
        return Err(format!(
            "stage split {} does not add up to the priced iteration {charged}",
            parts.partitioned()
        ));
    }
    priced.duration = charged.max(MIN_ITERATION_S);
    priced.idle = false;
    priced.parts = parts;
    priced.mode = decision.mode;
    priced.swap_out = decision.swap_out.len();
    priced.swap_in = decision.swap_in.len();
    priced.demoted = decision.demote_disk.len();
    priced.promoted = decision.promote_disk.len();
    Ok(priced)
}
