//! Iteration-time estimation for asymmetric pipelining, GPU-only execution and PIPO-style
//! KV streaming.
//!
//! This module turns a candidate [`ScheduleDecision`] into the iteration-time estimate the
//! paper's scheduler maximises throughput with (§3.2):
//!
//! ```text
//! T ≈ L × ( max{Tl0, Tca1} + max{Tl1 + Tga0, Tca0} )      (asymmetric, eq. in §3.2)
//! ```
//!
//! plus the non-layer stages (embedding, LM head, sampling) and the *exposed* part of any
//! KV swap traffic. GPU-only execution is the same formula with an empty batch-1 and no
//! CPU decodes (`Tl1 = Tca0 = Tca1 = 0`), which is exactly `L × (Tl0 + Tga0)`, so
//! [`estimate_asymmetric`] prices both modes. Only PIPO's double-buffered KV stream
//! ([`estimate_streamed`]) has a formula of its own. Swap-out of newly prefilled KV is
//! overlapped layer by layer with compute when
//! [`crate::EngineConfig::layerwise_swap_overlap`] is on; whole-sequence swap-in/swap-out
//! decided by the scheduler is charged through the PCIe model directly.
//!
//! All PCIe terms obtained from [`IterationCost`] are *per-rank wall-clock* times: under
//! tensor parallelism every rank moves only its `1/tp` KV shard over its own link, in
//! parallel with the other ranks, so the estimates below need no further `tp` scaling.
//! The collective costs of sharded execution (per-layer all-reduces, the LM-head
//! all-gather) are folded into the linear-stage and `pre_post_time` queries by the cost
//! model itself.

use neo_sim::profiler::IterationCost;
use neo_sim::transfer::{deferred_exposed_time, layerwise_exposed_time};

use crate::batch::{ScheduleDecision, SubBatch};
use crate::ExecutionMode;

/// Breakdown of one iteration's estimated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEstimate {
    /// Total wall-clock time of the iteration in seconds.
    pub total_time: f64,
    /// Number of sequences producing an output token (the paper's `x`).
    pub batch_size: usize,
    /// Per-layer GPU busy time (linear stages + GPU attention).
    pub gpu_busy_per_layer: f64,
    /// Per-layer CPU busy time (offloaded attention).
    pub cpu_busy_per_layer: f64,
    /// Per-layer pipeline bubble (idle time on the critical path).
    pub bubble_per_layer: f64,
    /// Seconds of swap traffic that could not be hidden behind compute.
    pub exposed_swap_time: f64,
}

impl IterationEstimate {
    /// Estimated decode throughput of the iteration, in sequences per second
    /// (`x / T`, the quantity the paper's greedy rule maximises).
    pub fn throughput(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        self.batch_size as f64 / self.total_time
    }
}

/// Per-layer stage times of one sub-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimes {
    /// Linear-stage time `Tl = Tpr + Tpo` on the GPU.
    pub tl: f64,
    /// GPU attention time `Tga` (prefill attention + GPU decode attention).
    pub tga: f64,
    /// CPU attention time `Tca` (offloaded decode attention).
    pub tca: f64,
}

/// Computes the per-layer stage times of a sub-batch under a cost model. An empty
/// sub-batch takes no time and asks the cost model nothing.
pub fn stage_times(cost: &dyn IterationCost, batch: &SubBatch) -> StageTimes {
    if batch.is_empty() {
        return StageTimes { tl: 0.0, tga: 0.0, tca: 0.0 };
    }
    let tl = cost.linear_time(batch.linear_tokens());
    let tga = cost.gpu_attn_time(
        &batch.prefill_chunks(),
        batch.gpu_decode_ctx(),
        batch.gpu_decodes.len(),
    );
    let tca = cost.cpu_attn_time(batch.cpu_decode_ctx(), batch.cpu_decodes.len());
    StageTimes { tl, tga, tca }
}

/// The first balancing inequality, `Tca1 ≤ Tl0` with relative slack: batch-1's CPU
/// attention hides under batch-0's linear stage.
pub fn batch1_cpu_hidden(tca1: f64, tl0: f64, slack: f64) -> bool {
    tca1 <= tl0 * (1.0 + slack)
}

/// The second balancing inequality, `Tca0 ≤ Tl1 + Tga0` with relative slack: batch-0's
/// CPU attention hides under batch-1's linear stage plus batch-0's GPU attention.
pub fn batch0_cpu_hidden(tca0: f64, tl1: f64, tga0: f64, slack: f64) -> bool {
    tca0 <= (tl1 + tga0) * (1.0 + slack)
}

/// The paper's balancing inequalities (step 4 of §3.2), priced from scratch: the CPU
/// attention of each sub-batch must hide under the other's GPU shadow
/// ([`batch1_cpu_hidden`] and [`batch0_cpu_hidden`]).
///
/// The SpecOffload baseline checks its one-shot speculation with this. `NeoScheduler`
/// tests the same two inequalities while placing CPU decodes one at a time, from stage
/// times it keeps up to date instead of re-pricing both sub-batches per candidate, so
/// the two policies always judge "hidden" by the same rule.
pub fn balanced(
    cost: &dyn IterationCost,
    batch0: &SubBatch,
    batch1: &SubBatch,
    slack: f64,
) -> bool {
    let s0 = stage_times(cost, batch0);
    let s1 = stage_times(cost, batch1);
    batch1_cpu_hidden(s1.tca, s0.tl, slack) && batch0_cpu_hidden(s0.tca, s1.tl, s0.tga, slack)
}

/// Estimates one iteration of NEO's asymmetric pipelining, or of GPU-only execution when
/// batch-1 is empty and batch-0 has no CPU decodes.
///
/// `whole_swap_out_tokens` / `whole_swap_in_tokens` are the tokens of whole-sequence swaps
/// the scheduler decided on (step 2 of §3.2); newly prefilled KV headed for the CPU cache
/// is taken from the decision's batch-0 and overlapped layer-wise when
/// `layerwise_overlap` is true.
pub fn estimate_asymmetric(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
) -> IterationEstimate {
    let s0 = stage_times(cost, &decision.batch0);
    let s1 = stage_times(cost, &decision.batch1);
    let layers = cost.n_layers() as f64;

    // The paper's iteration formula: the two sub-batches alternate long and short stages.
    let stage_a = s0.tl.max(s1.tca);
    let stage_b = (s1.tl + s0.tga).max(s0.tca);
    let per_layer = stage_a + stage_b;

    let gpu_busy = s0.tl + s1.tl + s0.tga;
    let cpu_busy = s0.tca + s1.tca;
    let bubble = (per_layer - gpu_busy).max(0.0);

    // Layer-wise swap-out of freshly prefilled KV destined for the CPU cache.
    let prefill_swap_tokens = decision.batch0.swap_out_tokens() + decision.batch1.swap_out_tokens();
    let per_layer_transfer = cost.swap_out_time(prefill_swap_tokens)
        + cost.swap_out_time(whole_swap_out_tokens)
        + cost.swap_in_time(whole_swap_in_tokens);
    let exposed_swap = if layerwise_overlap {
        layerwise_exposed_time(cost.n_layers(), per_layer, per_layer_transfer)
    } else {
        deferred_exposed_time(cost.n_layers(), per_layer_transfer)
    };

    let total_tokens = decision.total_linear_tokens();
    let batch_size = decision.batch_size();
    let pre_post = cost.pre_post_time(total_tokens, batch_size);

    IterationEstimate {
        total_time: layers * per_layer + exposed_swap + pre_post,
        batch_size,
        gpu_busy_per_layer: gpu_busy,
        cpu_busy_per_layer: cpu_busy,
        bubble_per_layer: bubble,
        exposed_swap_time: exposed_swap,
    }
}

/// Estimates one iteration of PIPO-style pipelined KV streaming.
///
/// In [`ExecutionMode::Streamed`] the `cpu_decodes` of both sub-batches are *streamed*
/// decodes: their KV cache stays host-resident, but their attention runs on the **GPU**
/// over KV brought in layer by layer, double-buffered with compute (the PIPO design).
/// Per layer, the compute stage covers the linear stage plus GPU attention over all
/// decodes (GPU-resident and streamed alike); the transfer stage covers streaming the
/// cached KV in, writing the freshly generated KV token of each streamed request back
/// out, plus any whole-sequence swap traffic. The iteration time follows
/// [`neo_sim::transfer::double_buffered_time`]: transfers hide behind compute until the
/// PCIe stage becomes the bottleneck, after which the pipeline runs at the DMA engine's
/// pace — which is exactly how PIPO degrades as contexts grow.
pub fn estimate_streamed(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
) -> IterationEstimate {
    let b0 = &decision.batch0;
    let b1 = &decision.batch1;
    let layers = cost.n_layers();

    let streamed_ctx = b0.cpu_decode_ctx() + b1.cpu_decode_ctx();
    let streamed_reqs = b0.cpu_decodes.len() + b1.cpu_decodes.len();
    let gpu_decode_ctx = b0.gpu_decode_ctx() + b1.gpu_decode_ctx();
    let gpu_decode_reqs = b0.gpu_decodes.len() + b1.gpu_decodes.len();

    let total_tokens = decision.total_linear_tokens();
    let mut prefill_chunks = b0.prefill_chunks();
    prefill_chunks.extend(b1.prefill_chunks());

    // Compute stage: one fused batch — streamed attention runs on the GPU.
    let tl = cost.linear_time(total_tokens);
    let tga = cost.gpu_attn_time(
        &prefill_chunks,
        gpu_decode_ctx + streamed_ctx,
        gpu_decode_reqs + streamed_reqs,
    );
    let compute_per_layer = tl + tga;

    // Transfer stage: stream cached KV in, write fresh streamed KV (one token per
    // streamed request) and CPU-targeted prefill KV out, plus whole-sequence swaps.
    let prefill_swap_tokens = b0.swap_out_tokens() + b1.swap_out_tokens();
    let transfer_per_layer = cost.swap_in_time(streamed_ctx)
        + cost.swap_in_time(whole_swap_in_tokens)
        + cost.swap_out_time(streamed_reqs)
        + cost.swap_out_time(prefill_swap_tokens)
        + cost.swap_out_time(whole_swap_out_tokens);

    let pipeline_time =
        neo_sim::transfer::double_buffered_time(layers, compute_per_layer, transfer_per_layer);
    let exposed_swap =
        neo_sim::transfer::double_buffered_exposed(layers, compute_per_layer, transfer_per_layer);

    let batch_size = decision.batch_size();
    let pre_post = cost.pre_post_time(total_tokens, batch_size);

    IterationEstimate {
        total_time: pipeline_time + pre_post,
        batch_size,
        gpu_busy_per_layer: compute_per_layer,
        cpu_busy_per_layer: 0.0,
        bubble_per_layer: (transfer_per_layer - compute_per_layer).max(0.0),
        exposed_swap_time: exposed_swap,
    }
}

/// Estimates a decision in whichever mode it selects. A GPU-only decision is priced by
/// [`estimate_asymmetric`], which its empty batch-1 reduces to `L × (Tl0 + Tga0)`.
pub fn estimate_decision(
    cost: &dyn IterationCost,
    decision: &ScheduleDecision,
    whole_swap_out_tokens: usize,
    whole_swap_in_tokens: usize,
    layerwise_overlap: bool,
) -> IterationEstimate {
    match decision.mode {
        ExecutionMode::Asymmetric | ExecutionMode::GpuOnly => {
            debug_assert!(
                decision.mode == ExecutionMode::Asymmetric
                    || (decision.batch0.cpu_decodes.is_empty() && decision.batch1.is_empty()),
                "a GPU-only decision carries no CPU decode and has an empty batch-1"
            );
            estimate_asymmetric(
                cost,
                decision,
                whole_swap_out_tokens,
                whole_swap_in_tokens,
                layerwise_overlap,
            )
        }
        ExecutionMode::Streamed => {
            estimate_streamed(cost, decision, whole_swap_out_tokens, whole_swap_in_tokens)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PrefillItem;
    use neo_kvcache::Device;
    use neo_sim::profiler::ProfiledCostModel;
    use neo_sim::{CostModel, ModelDesc, Testbed};
    use proptest::prelude::*;

    fn cost() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    fn decode_batch(gpu: &[(u64, usize)], cpu: &[(u64, usize)]) -> SubBatch {
        SubBatch { prefills: vec![], gpu_decodes: gpu.to_vec(), cpu_decodes: cpu.to_vec() }
    }

    #[test]
    fn small_cpu_sub_batch_hides_under_the_gpu_shadow() {
        // This is the core mechanism behind NEO's gains: when GPU memory caps the GPU
        // batch at 64 requests, a *small* extra batch-1 of CPU-resident requests adds
        // sequences to the iteration while its CPU attention hides under batch-0's linear
        // stage, so throughput (sequences per second) goes up versus GPU-only.
        let cm = cost();
        let gpu_batch: Vec<(u64, usize)> = (0..64).map(|i| (i, 1000)).collect();
        // Include a prefill chunk, as NEO's batch-0 normally does, to lengthen Tl0.
        let mut batch0 = decode_batch(&gpu_batch, &[]);
        batch0.prefills.push(PrefillItem {
            req: 999,
            new_tokens: 768,
            ctx_after: 768,
            target: Device::Gpu,
        });
        let mut decision = ScheduleDecision {
            mode: ExecutionMode::GpuOnly,
            batch0,
            batch1: SubBatch::new(),
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        };
        let gpu_only = estimate_decision(&cm, &decision, 0, 0, true);

        let cpu_extra: Vec<(u64, usize)> = (100..116).map(|i| (i, 1000)).collect();
        decision.mode = ExecutionMode::Asymmetric;
        decision.batch1 = decode_batch(&[], &cpu_extra);
        let asym = estimate_asymmetric(&cm, &decision, 0, 0, true);
        assert_eq!(asym.batch_size, gpu_only.batch_size + 16);
        assert!(asym.cpu_busy_per_layer > 0.0);
        // The offloaded attention runs on the CPU, not the GPU (the only extra GPU work is
        // batch-1's small linear stage).
        assert!(asym.gpu_busy_per_layer <= gpu_only.gpu_busy_per_layer * 1.3);
        // More sequences per iteration at (nearly) the same iteration time => higher
        // estimated throughput — the quantity the greedy rule compares.
        assert!(
            asym.throughput() > gpu_only.throughput(),
            "asym {} vs gpu-only {}",
            asym.throughput(),
            gpu_only.throughput()
        );
    }

    proptest! {
        /// A GPU-only decision prices to the closed form `L·(Tl0 + Tga0) + exposed swap +
        /// pre/post` bit for bit, on the exact and the profiled cost model (noisy or
        /// not), single-GPU and tensor-parallel, with and without layer-wise overlap.
        #[test]
        fn prop_gpu_only_prices_to_the_closed_form_bit_for_bit(
            chunks in proptest::collection::vec((1usize..2_048, 0usize..6_000, 0u8..2), 0..4),
            decodes in proptest::collection::vec(1usize..8_192, 0..96),
            swaps in (0usize..40_000, 0usize..40_000),
            knobs in (0u8..2, 0u8..3, 0u8..2),
        ) {
            let (overlap, model, testbed) = (knobs.0 == 1, knobs.1, knobs.2);
            let exact = if testbed == 0 {
                cost()
            } else {
                CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(2), 2)
            };
            let cost: Box<dyn IterationCost> = match model {
                0 => Box::new(exact),
                1 => Box::new(ProfiledCostModel::new(exact)),
                _ => Box::new(ProfiledCostModel::with_noise(exact, 0.05)),
            };
            let batch0 = SubBatch {
                prefills: chunks
                    .iter()
                    .enumerate()
                    .map(|(i, &(new_tokens, already, cpu))| PrefillItem {
                        req: i as u64,
                        new_tokens,
                        ctx_after: already + new_tokens,
                        target: if cpu == 1 { Device::Cpu } else { Device::Gpu },
                    })
                    .collect(),
                gpu_decodes: decodes.iter().enumerate().map(|(i, &c)| (100 + i as u64, c)).collect(),
                cpu_decodes: vec![],
            };
            let (swap_out, swap_in) = swaps;

            let s0 = stage_times(cost.as_ref(), &batch0);
            let layers = cost.n_layers();
            let per_layer = s0.tl + s0.tga;
            let transfer = cost.swap_out_time(batch0.swap_out_tokens())
                + cost.swap_out_time(swap_out)
                + cost.swap_in_time(swap_in);
            let exposed = if overlap {
                layerwise_exposed_time(layers, per_layer, transfer)
            } else {
                deferred_exposed_time(layers, transfer)
            };
            let pre_post = cost.pre_post_time(batch0.linear_tokens(), batch0.sequences());
            let total = layers as f64 * per_layer + exposed + pre_post;

            let decision = ScheduleDecision {
                mode: ExecutionMode::GpuOnly,
                batch0,
                batch1: SubBatch::new(),
                swap_out: vec![],
                swap_in: vec![],
                preempt: vec![],
                demote_disk: vec![],
                promote_disk: vec![],
            };
            let est = estimate_decision(cost.as_ref(), &decision, swap_out, swap_in, overlap);
            prop_assert_eq!(est.total_time.to_bits(), total.to_bits());
            prop_assert_eq!(est.exposed_swap_time.to_bits(), exposed.to_bits());
            prop_assert_eq!(est.gpu_busy_per_layer.to_bits(), per_layer.to_bits());
            prop_assert_eq!((est.cpu_busy_per_layer, est.bubble_per_layer), (0.0, 0.0));
            prop_assert_eq!(est.batch_size, decision.batch0.sequences());
        }
    }

    #[test]
    fn larger_cpu_batch_eventually_makes_cpu_the_bottleneck() {
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..32).map(|i| (i, 800)).collect();
        let small_cpu: Vec<(u64, usize)> = (100..108).map(|i| (i, 800)).collect();
        let big_cpu: Vec<(u64, usize)> = (100..400).map(|i| (i, 800)).collect();

        let mk = |cpu: &[(u64, usize)]| ScheduleDecision {
            mode: ExecutionMode::Asymmetric,
            batch0: decode_batch(&gpu, &[]),
            batch1: decode_batch(&[], cpu),
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        };
        let small = estimate_asymmetric(&cm, &mk(&small_cpu), 0, 0, true);
        let big = estimate_asymmetric(&cm, &mk(&big_cpu), 0, 0, true);
        // A small offload fits in the GPU shadow (little bubble); a huge one cannot.
        assert!(small.bubble_per_layer < big.bubble_per_layer);
        assert!(big.total_time > small.total_time);
    }

    #[test]
    fn layerwise_overlap_beats_deferred_swap() {
        let cm = cost();
        let batch0 = SubBatch {
            prefills: vec![PrefillItem {
                req: 1,
                new_tokens: 1024,
                ctx_after: 1024,
                target: Device::Cpu,
            }],
            gpu_decodes: (2..40).map(|i| (i, 600)).collect(),
            cpu_decodes: vec![],
        };
        let decision = ScheduleDecision {
            mode: ExecutionMode::Asymmetric,
            batch0,
            batch1: SubBatch::new(),
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        };
        let overlapped = estimate_asymmetric(&cm, &decision, 0, 0, true);
        let deferred = estimate_asymmetric(&cm, &decision, 0, 0, false);
        assert!(overlapped.exposed_swap_time < deferred.exposed_swap_time);
        assert!(overlapped.total_time < deferred.total_time);
    }

    #[test]
    fn throughput_is_batch_over_time() {
        let est = IterationEstimate {
            total_time: 0.5,
            batch_size: 100,
            gpu_busy_per_layer: 0.0,
            cpu_busy_per_layer: 0.0,
            bubble_per_layer: 0.0,
            exposed_swap_time: 0.0,
        };
        assert!((est.throughput() - 200.0).abs() < 1e-9);
        assert_eq!(IterationEstimate { batch_size: 0, ..est }.throughput(), 0.0);
    }

    #[test]
    fn streamed_transfer_hides_until_the_pipeline_is_transfer_bound() {
        let cm = cost();
        // A short-context streamed batch: KV streaming hides behind the linear stage.
        let short: Vec<(u64, usize)> = (0..16).map(|i| (i, 100)).collect();
        let mk = |cpu: &[(u64, usize)]| ScheduleDecision {
            mode: ExecutionMode::Streamed,
            batch0: decode_batch(&[], cpu),
            batch1: SubBatch::new(),
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        };
        let hidden = estimate_streamed(&cm, &mk(&short), 0, 0);
        // A long-context streamed batch: the PCIe link re-carries far more KV per layer
        // than the compute stage lasts, so exposure grows sharply.
        let long: Vec<(u64, usize)> = (0..16).map(|i| (i, 4000)).collect();
        let bound = estimate_streamed(&cm, &mk(&long), 0, 0);
        assert!(hidden.exposed_swap_time < bound.exposed_swap_time);
        assert!(bound.bubble_per_layer > 0.0, "long contexts must be transfer-bound");
        assert!(bound.total_time > hidden.total_time);
        // Streamed attention runs on the GPU: no CPU busy time in either estimate.
        assert_eq!(hidden.cpu_busy_per_layer, 0.0);
        assert_eq!(bound.cpu_busy_per_layer, 0.0);
    }

    #[test]
    fn streamed_estimate_counts_both_sub_batches() {
        let cm = cost();
        let d = ScheduleDecision {
            mode: ExecutionMode::Streamed,
            batch0: decode_batch(&[(1, 300)], &[(2, 500)]),
            batch1: decode_batch(&[], &[(3, 400)]),
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        };
        let est = estimate_streamed(&cm, &d, 0, 0);
        assert_eq!(est.batch_size, 3);
        assert!(est.total_time > 0.0 && est.gpu_busy_per_layer > 0.0);
        // Whole-sequence swap traffic adds to the streamed pipeline's transfer stage.
        let with_swaps = estimate_streamed(&cm, &d, 2000, 2000);
        assert!(with_swaps.total_time > est.total_time);
    }

    #[test]
    fn estimate_decision_dispatches_on_mode() {
        let cm = cost();
        let gpu: Vec<(u64, usize)> = (0..8).map(|i| (i, 300)).collect();
        let mut d = ScheduleDecision {
            mode: ExecutionMode::GpuOnly,
            batch0: decode_batch(&gpu, &[]),
            batch1: SubBatch::new(),
            swap_out: vec![],
            swap_in: vec![],
            preempt: vec![],
            demote_disk: vec![],
            promote_disk: vec![],
        };
        let a = estimate_decision(&cm, &d, 0, 0, true);
        d.mode = ExecutionMode::Asymmetric;
        let b = estimate_decision(&cm, &d, 0, 0, true);
        d.mode = ExecutionMode::Streamed;
        let c = estimate_decision(&cm, &d, 0, 0, true);
        assert!(a.total_time > 0.0 && b.total_time > 0.0 && c.total_time > 0.0);
    }
}
