//! Per-operator cost primitives for a model running on a testbed.
//!
//! The NEO scheduler (§3.2 of the paper) estimates each iteration's duration as
//!
//! ```text
//! T ≈ L × ( max{Tl0, Tca1} + max{Tl1 + Tga0, Tca0} )
//! ```
//!
//! where `Tl` is the per-layer linear-stage time of a sub-batch on the GPU, `Tga` the
//! per-layer GPU attention time and `Tca` the per-layer CPU attention time. This module
//! provides those per-layer primitives (plus memory-capacity accounting, PCIe swap times
//! and tensor-parallel all-reduce) from the roofline model; the combination into the
//! iteration formula lives in `neo-core`.

use serde::{Deserialize, Serialize};

use crate::hardware::Testbed;
use crate::model_desc::ModelDesc;
use crate::roofline::{OpWork, Roofline};

/// Memory budget of a single tensor-parallel rank (one GPU of the group).
///
/// Model weights, activations and every token's KV cache are sharded `1/tp` per rank, so
/// capacity questions ("can the group hold another token?") reduce to the *tightest*
/// rank's budget. [`CostModel::rank_budget`] derives this view; group-level helpers like
/// [`CostModel::gpu_kv_capacity_tokens`] take the minimum over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankBudget {
    /// Rank index within the tensor-parallel group (`0..tp`).
    pub rank: usize,
    /// Total HBM/GDDR of this rank's GPU in bytes.
    pub mem_bytes: u64,
    /// Bytes the serving engine may use on this rank (`mem_bytes × gpu_mem_utilization`).
    pub usable_bytes: u64,
    /// Bytes of this rank's model-weight shard.
    pub weight_bytes: u64,
    /// Bytes reserved on this rank for peak activations of the largest batch.
    pub activation_bytes: u64,
    /// Bytes of one token's KV shard on this rank.
    pub kv_bytes_per_token: usize,
    /// Tokens whose KV shard fits in this rank's remaining budget.
    pub kv_capacity_tokens: usize,
}

impl RankBudget {
    /// Bytes left for KV cache after weights and activations (zero when the shard does
    /// not fit at all).
    pub fn kv_budget_bytes(&self) -> u64 {
        (self.usable_bytes as i64 - self.weight_bytes as i64 - self.activation_bytes as i64).max(0)
            as u64
    }
}

/// Sustained DRAM read bandwidth a single CPU core can extract (bytes/s). The effective
/// CPU attention bandwidth is capped at `cores × PER_CORE_STREAM_BW` so that small
/// instances (e.g. g5.2xlarge with 4 cores) cannot saturate the socket bandwidth, matching
/// the observation behind Figure 10a.
const PER_CORE_STREAM_BW: f64 = 16e9;

/// Cost model for one (model, testbed, tensor-parallel degree) combination.
///
/// All `*_time_*` methods return **seconds for a single transformer layer** unless stated
/// otherwise, matching the per-layer formulation of the paper's scheduler.
#[derive(Debug, Clone)]
pub struct CostModel {
    model: ModelDesc,
    testbed: Testbed,
    tp: usize,
    gpu: Roofline,
    cpu: Roofline,
    /// Largest number of batched tokens the engine will ever schedule; activations for
    /// this many tokens are reserved when computing the GPU KV budget.
    max_batch_tokens: usize,
    /// Fraction of the tensor-parallel all-reduce hidden behind compute (0.0 = fully
    /// exposed, as in a simple TP implementation; production engines overlap part of it).
    allreduce_overlap: f64,
}

impl CostModel {
    /// Creates a cost model.
    ///
    /// `tp` is the tensor-parallel degree (1 for single-GPU testbeds).
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero, exceeds the number of GPUs in the testbed, or is greater
    /// than 1 on a testbed without a GPU-GPU interconnect (the per-layer all-reduces and
    /// the LM-head all-gather would otherwise be silently priced as free).
    pub fn new(model: ModelDesc, testbed: Testbed, tp: usize) -> Self {
        assert!(tp >= 1, "tensor-parallel degree must be at least 1");
        assert!(tp <= testbed.num_gpus, "tensor-parallel degree exceeds GPU count");
        assert!(
            tp == 1 || testbed.interconnect.is_some(),
            "tensor parallelism requires a GPU-GPU interconnect: testbed {:?} has none \
             but tp = {tp} (the collectives would be priced as free)",
            testbed.name
        );
        let gpu = Roofline::new(
            testbed.gpu_eff_flops(),
            testbed.gpu_eff_bw(),
            testbed.gpu.kernel_launch_overhead,
        );
        let cpu_bw = testbed.cpu_eff_bw().min(testbed.cpu.cores as f64 * PER_CORE_STREAM_BW);
        let cpu = Roofline::new(testbed.cpu.flops, cpu_bw, testbed.cpu.dispatch_overhead);
        Self { model, testbed, tp, gpu, cpu, max_batch_tokens: 8192, allreduce_overlap: 0.0 }
    }

    /// Overrides the number of batched tokens reserved for activations (default 8192).
    pub fn with_max_batch_tokens(mut self, tokens: usize) -> Self {
        self.max_batch_tokens = tokens.max(1);
        self
    }

    /// Sets the fraction of the tensor-parallel all-reduce hidden behind compute
    /// (clamped to `[0, 1]`). Production engines such as vLLM overlap part of the
    /// collective; the SwiftLLM-like baseline does not (Figure 10b's 2-GPU gap).
    pub fn with_allreduce_overlap(mut self, fraction: f64) -> Self {
        self.allreduce_overlap = fraction.clamp(0.0, 1.0);
        self
    }

    /// The model this cost model describes.
    pub fn model(&self) -> &ModelDesc {
        &self.model
    }

    /// The testbed this cost model describes.
    pub fn testbed(&self) -> &Testbed {
        &self.testbed
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> usize {
        self.tp
    }

    // ------------------------------------------------------------------
    // Memory accounting
    // ------------------------------------------------------------------

    /// Bytes of model weights resident on each GPU (weights are sharded across the
    /// tensor-parallel group).
    pub fn weight_bytes_per_gpu(&self) -> u64 {
        self.model.weight_bytes() / self.tp as u64
    }

    /// Bytes of KV cache one token occupies on each GPU (KV heads are sharded).
    pub fn kv_bytes_per_token_per_gpu(&self) -> usize {
        self.model.kv_bytes_per_token() / self.tp
    }

    /// Bytes of KV cache one token occupies across the whole tensor-parallel group
    /// (i.e. the host-side size when the token is offloaded).
    pub fn kv_bytes_per_token(&self) -> usize {
        self.model.kv_bytes_per_token()
    }

    /// Memory budget of one tensor-parallel rank (see [`RankBudget`]).
    ///
    /// All ranks of the modelled testbeds are identical GPUs, so every rank currently
    /// reports the same budget; the per-rank view exists so capacity decisions are framed
    /// as "the tightest rank admits it" rather than a group-level average, which is the
    /// correct shape once ranks differ (MIG slices, asymmetric reservations).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= tp`.
    pub fn rank_budget(&self, rank: usize) -> RankBudget {
        assert!(rank < self.tp, "rank {rank} out of range for tp = {}", self.tp);
        let mem_bytes = self.testbed.gpu.mem_bytes;
        let mut budget = RankBudget {
            rank,
            mem_bytes,
            usable_bytes: (mem_bytes as f64 * self.testbed.gpu_mem_utilization) as u64,
            weight_bytes: self.weight_bytes_per_gpu(),
            activation_bytes: self.model.activation_bytes(self.max_batch_tokens) / self.tp as u64,
            kv_bytes_per_token: self.kv_bytes_per_token_per_gpu(),
            kv_capacity_tokens: 0,
        };
        budget.kv_capacity_tokens =
            (budget.kv_budget_bytes() / budget.kv_bytes_per_token as u64) as usize;
        budget
    }

    /// Memory budgets of every rank in the tensor-parallel group, in rank order.
    pub fn rank_budgets(&self) -> Vec<RankBudget> {
        (0..self.tp).map(|r| self.rank_budget(r)).collect()
    }

    /// Number of tokens the GPU KV cache can hold across the tensor-parallel group after
    /// reserving weights and peak activations.
    ///
    /// Every token's KV is sharded over all ranks, so the group holds a token only if the
    /// *tightest* rank still has room for its shard: this is the minimum of the per-rank
    /// [`RankBudget::kv_capacity_tokens`]. It is the quantity that collapses on
    /// memory-constrained GPUs (16 GB T4 serving a 13 GB LLaMa-2-7B keeps only a sliver
    /// for KV), which is exactly the regime where the paper reports up to 7.5× gains.
    pub fn gpu_kv_capacity_tokens(&self) -> usize {
        (0..self.tp)
            .map(|r| self.rank_budget(r).kv_capacity_tokens)
            .min()
            // neo-lint: allow(panic-hygiene) -- CostModel::new validates tp >= 1, so the range is never empty; a default capacity would silently change every schedule
            .expect("tp >= 1, so there is at least one rank")
    }

    /// Number of tokens the CPU (host DRAM) KV cache can hold.
    pub fn cpu_kv_capacity_tokens(&self) -> usize {
        (self.testbed.cpu_cache_bytes() / self.kv_bytes_per_token() as u64) as usize
    }

    /// Number of tokens the disk (NVMe) KV tier can hold.
    pub fn disk_kv_capacity_tokens(&self) -> usize {
        (self.testbed.disk.capacity_bytes / self.kv_bytes_per_token() as u64) as usize
    }

    // ------------------------------------------------------------------
    // Per-layer GPU times
    // ------------------------------------------------------------------

    /// Per-layer time of the full linear stage (pre-projection + post-projection + FFN)
    /// for a batch of `n_tokens` tokens on the GPU: `Tl = Tpr + Tpo`.
    pub fn linear_time_gpu(&self, n_tokens: usize) -> f64 {
        self.pre_projection_time_gpu(n_tokens) + self.post_projection_time_gpu(n_tokens)
    }

    /// Per-layer time of the pre-projection (QKV GEMM) for `n_tokens` tokens: `Tpr`.
    pub fn pre_projection_time_gpu(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let frac = self.model.pre_projection_flops_per_token()
            / self.model.linear_flops_per_token_per_layer();
        let work = OpWork::new(
            n_tokens as f64 * self.model.pre_projection_flops_per_token() / self.tp as f64,
            frac * self.model.linear_weight_bytes_per_layer() as f64 / self.tp as f64
                + self.model.activation_bytes(n_tokens) as f64 * frac / self.tp as f64,
        );
        self.gpu.time(work)
    }

    /// Per-layer time of the post-projection + FFN for `n_tokens` tokens: `Tpo`,
    /// including the tensor-parallel all-reduce when `tp > 1`.
    pub fn post_projection_time_gpu(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let frac = self.model.post_projection_flops_per_token()
            / self.model.linear_flops_per_token_per_layer();
        let work = OpWork::new(
            n_tokens as f64 * self.model.post_projection_flops_per_token() / self.tp as f64,
            frac * self.model.linear_weight_bytes_per_layer() as f64 / self.tp as f64
                + self.model.activation_bytes(n_tokens) as f64 * frac / self.tp as f64,
        );
        self.gpu.time(work) + self.allreduce_time(n_tokens)
    }

    /// Per-layer GPU attention time for a mixed sub-batch: prefill chunks described by
    /// `(new_tokens, total_context)` pairs plus decode tokens whose cached context lengths
    /// sum to `decode_ctx_total` over `decode_reqs` requests: `Tga`.
    pub fn gpu_attn_time(
        &self,
        prefill_chunks: &[(usize, usize)],
        decode_ctx_total: usize,
        decode_reqs: usize,
    ) -> f64 {
        if prefill_chunks.is_empty() && decode_reqs == 0 {
            return 0.0;
        }
        let mut work = OpWork::default();
        for &(new_tokens, ctx_total) in prefill_chunks {
            work = work.combine(&OpWork::new(
                self.model.prefill_attn_flops(new_tokens, ctx_total) / self.tp as f64,
                // Prefill attention streams the (new) KV once plus activations.
                (ctx_total * self.model.kv_bytes_per_token_per_layer()) as f64 / self.tp as f64,
            ));
        }
        if decode_reqs > 0 {
            work = work.combine(&OpWork::new(
                self.model.decode_attn_flops(decode_ctx_total) / self.tp as f64,
                self.model.decode_attn_bytes(decode_ctx_total) as f64 / self.tp as f64,
            ));
        }
        self.gpu.time(work)
    }

    /// Per-layer GPU decode-attention time when only decode requests are present.
    pub fn gpu_decode_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        self.gpu_attn_time(&[], ctx_total, n_reqs)
    }

    // ------------------------------------------------------------------
    // Per-layer CPU times
    // ------------------------------------------------------------------

    /// Per-layer CPU decode-attention time for `n_reqs` offloaded requests whose cached
    /// context lengths sum to `ctx_total`: `Tca`.
    ///
    /// CPU attention is executed over *all* KV heads on the host regardless of the GPU
    /// tensor-parallel degree (the host actors partition heads but share one NUMA node's
    /// bandwidth, §4 of the paper).
    pub fn cpu_decode_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        if n_reqs == 0 || ctx_total == 0 {
            return 0.0;
        }
        let work = OpWork::new(
            self.model.decode_attn_flops(ctx_total),
            self.model.decode_attn_bytes(ctx_total) as f64,
        );
        // Q/K/V transfer down (device→host) + O transfer up (host→device) for the
        // offloaded tokens of this layer. Each rank ships only its own `1/tp` head shard
        // over its own PCIe link, so the per-link bytes divide by `tp`; the two legs of
        // the round trip are issued back to back, so the link latency is paid once.
        let down =
            n_reqs as f64 * self.model.qkv_down_bytes_per_token_per_layer() as f64 / self.tp as f64;
        let up =
            n_reqs as f64 * self.model.o_up_bytes_per_token_per_layer() as f64 / self.tp as f64;
        let transfer = down / self.testbed.pcie.bw_d2h
            + up / self.testbed.pcie.bw_h2d
            + self.testbed.pcie.latency;
        self.cpu.time(work) + transfer
    }

    // ------------------------------------------------------------------
    // PCIe swap times
    // ------------------------------------------------------------------

    /// Time to swap the KV cache of `n_tokens` tokens out to the host for a single layer
    /// (used when swap-out is overlapped layer by layer with compute, §3.1).
    ///
    /// KV heads are sharded over the tensor-parallel group and every rank has its own
    /// PCIe link, so each rank moves only `1/tp` of the bytes in parallel with the
    /// others: the wall-clock is the per-rank (device→host) transfer time.
    pub fn swap_out_time_per_layer(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let bytes_per_rank =
            (n_tokens * self.model.kv_bytes_per_token_per_layer()) as f64 / self.tp as f64;
        bytes_per_rank / self.testbed.pcie.bw_d2h + self.testbed.pcie.latency
    }

    /// Time to swap the full-model KV cache of `n_tokens` tokens out to the host.
    pub fn swap_out_time_total(&self, n_tokens: usize) -> f64 {
        self.swap_out_time_per_layer(n_tokens) * self.model.n_layers as f64
    }

    /// Time to swap the KV cache of `n_tokens` tokens from the host into the GPU, for a
    /// single layer.
    ///
    /// As with [`CostModel::swap_out_time_per_layer`], each rank pulls only its own
    /// `1/tp` KV shard over its own (host→device) link, in parallel with the others.
    pub fn swap_in_time_per_layer(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let bytes_per_rank =
            (n_tokens * self.model.kv_bytes_per_token_per_layer()) as f64 / self.tp as f64;
        bytes_per_rank / self.testbed.pcie.bw_h2d + self.testbed.pcie.latency
    }

    /// Time to swap the full-model KV cache of `n_tokens` tokens into the GPU.
    pub fn swap_in_time_total(&self, n_tokens: usize) -> f64 {
        self.swap_in_time_per_layer(n_tokens) * self.model.n_layers as f64
    }

    /// Time to demote the full-model KV cache of `n_tokens` tokens from host DRAM to
    /// the disk tier (one sequential write).
    ///
    /// Unlike PCIe swaps there is no per-rank split: host-resident KV is the *full*
    /// (un-sharded) cache and the testbeds have a single NVMe shared by the whole
    /// tensor-parallel group, so all bytes cross one link. The transfer is a single
    /// whole-sequence write (demotion is not layer-pipelined), hence one latency term.
    pub fn disk_write_time_total(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let bytes = (n_tokens * self.kv_bytes_per_token()) as f64;
        bytes / self.testbed.disk.bw_write + self.testbed.disk.latency
    }

    /// Time to promote the full-model KV cache of `n_tokens` tokens from the disk tier
    /// back into host DRAM (one sequential read; same single-link model as
    /// [`CostModel::disk_write_time_total`]).
    pub fn disk_read_time_total(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let bytes = (n_tokens * self.kv_bytes_per_token()) as f64;
        bytes / self.testbed.disk.bw_read + self.testbed.disk.latency
    }

    // ------------------------------------------------------------------
    // Collectives and non-layer stages
    // ------------------------------------------------------------------

    /// Per-layer tensor-parallel all-reduce time for `n_tokens` tokens (two all-reduces of
    /// the hidden activations per layer). Zero when `tp == 1`.
    pub fn allreduce_time(&self, n_tokens: usize) -> f64 {
        if self.tp <= 1 || n_tokens == 0 {
            return 0.0;
        }
        let ic = self
            .testbed
            .interconnect
            // neo-lint: allow(panic-hygiene) -- CostModel::new rejects tp > 1 without an interconnect, so this is unreachable; a default bandwidth would silently corrupt the cost model
            .expect("CostModel::new rejects tp > 1 without an interconnect");
        let bytes = (n_tokens * self.model.hidden * self.model.dtype_bytes) as f64;
        let ring_factor = 2.0 * (self.tp as f64 - 1.0) / self.tp as f64;
        2.0 * (ring_factor * bytes / ic.bw + ic.latency) * (1.0 - self.allreduce_overlap)
    }

    /// Time of the pre-layer (embedding) and post-layer (final norm + LM head + sampling)
    /// stages for a batch with `n_tokens` total tokens and `n_seqs` sequences needing
    /// sampling. This is **not** per layer; it is incurred once per iteration.
    ///
    /// Under tensor parallelism the LM head is vocab-sharded: each rank computes
    /// `vocab / tp` logits and the full distribution is assembled with an all-gather
    /// over the interconnect before sampling ([`CostModel::lm_head_allgather_time`]).
    pub fn pre_post_layer_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        // Only sequences producing a next token run the LM head in modern engines.
        let head_tokens = n_seqs.max(1);
        let work = OpWork::new(
            self.model.lm_head_flops(head_tokens) / self.tp as f64,
            (self.model.vocab * self.model.hidden * self.model.dtype_bytes) as f64 / self.tp as f64,
        );
        let embed =
            (n_tokens * self.model.hidden * self.model.dtype_bytes) as f64 / self.gpu.bandwidth;
        self.gpu.time(work)
            + embed
            + self.lm_head_allgather_time(head_tokens)
            + self.python_overhead(n_seqs)
    }

    /// Time of the all-gather assembling the vocab-sharded LM-head logits of `head_tokens`
    /// sampled tokens across the tensor-parallel group. Zero when `tp == 1`.
    ///
    /// A ring all-gather delivers `(tp - 1) / tp` of the full logit tensor over each
    /// rank's interconnect link.
    pub fn lm_head_allgather_time(&self, head_tokens: usize) -> f64 {
        if self.tp <= 1 || head_tokens == 0 {
            return 0.0;
        }
        let ic = self
            .testbed
            .interconnect
            // neo-lint: allow(panic-hygiene) -- CostModel::new rejects tp > 1 without an interconnect, so this is unreachable; a default bandwidth would silently corrupt the cost model
            .expect("CostModel::new rejects tp > 1 without an interconnect");
        let bytes = (head_tokens * self.model.vocab * self.model.dtype_bytes) as f64;
        let ring_factor = (self.tp as f64 - 1.0) / self.tp as f64;
        ring_factor * bytes / ic.bw + ic.latency
    }

    /// Per-iteration scheduling / Python / launch overhead outside the transformer layers.
    fn python_overhead(&self, n_seqs: usize) -> f64 {
        40e-6 + n_seqs as f64 * 0.3e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::PcieSpec;

    fn a10g_8b() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    fn t4_7b() -> CostModel {
        CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1)
    }

    fn h100_70b() -> CostModel {
        CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(2), 2)
    }

    #[test]
    fn t4_kv_capacity_is_tiny() {
        // 16 GB T4 minus ~13 GB of LLaMa-2-7B weights leaves very little KV room;
        // this is the regime of the paper's 7.5x gains.
        let cap = t4_7b().gpu_kv_capacity_tokens();
        assert!(cap < 6000, "T4 KV capacity should be small, got {cap}");
    }

    #[test]
    fn a10g_kv_capacity_moderate() {
        let cap = a10g_8b().gpu_kv_capacity_tokens();
        assert!(cap > 20_000 && cap < 80_000, "A10G KV capacity {cap}");
    }

    #[test]
    fn h100_pair_holds_70b() {
        let cm = h100_70b();
        assert!(cm.weight_bytes_per_gpu() < cm.testbed().gpu.mem_bytes);
        let cap = cm.gpu_kv_capacity_tokens();
        assert!(cap > 10_000, "2xH100 should still hold some KV, got {cap}");
    }

    #[test]
    fn cpu_cache_larger_than_gpu_cache() {
        for cm in [a10g_8b(), t4_7b()] {
            assert!(cm.cpu_kv_capacity_tokens() > cm.gpu_kv_capacity_tokens());
        }
    }

    #[test]
    fn disk_tier_is_the_largest_and_slowest() {
        for cm in [a10g_8b(), t4_7b(), h100_70b()] {
            assert!(cm.disk_kv_capacity_tokens() > cm.cpu_kv_capacity_tokens());
            // Moving the same tokens to disk costs more than PCIe swap-out: the drive
            // is slower than the link and not layer-pipelined per rank.
            let n = 1000;
            assert!(cm.disk_write_time_total(n) > cm.swap_out_time_total(n));
            // Reads are faster than writes on every modelled drive.
            assert!(cm.disk_read_time_total(n) < cm.disk_write_time_total(n));
        }
    }

    #[test]
    fn disk_times_scale_with_bytes_not_tp() {
        // Disk traffic is full KV bytes over one shared drive: tp does not shrink it.
        let tp1 = CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(2), 1);
        let tp2 = h100_70b();
        assert!((tp1.disk_write_time_total(500) - tp2.disk_write_time_total(500)).abs() < 1e-12);
        assert!(tp2.swap_out_time_total(500) < tp1.swap_out_time_total(500));
        assert_eq!(tp1.disk_write_time_total(0), 0.0);
        assert_eq!(tp1.disk_read_time_total(0), 0.0);
    }

    #[test]
    fn linear_time_saturates_with_batch() {
        // Tokens/s improves as the batch grows (weight loading amortised), then flattens.
        let cm = a10g_8b();
        let tps = |n: usize| n as f64 / cm.linear_time_gpu(n);
        assert!(tps(64) > tps(8) * 2.0);
        let large = tps(4096);
        let larger = tps(8192);
        assert!(larger / large < 1.3, "should be near compute roof");
    }

    #[test]
    fn cpu_attention_slower_than_gpu_but_not_absurdly() {
        let cm = a10g_8b();
        let ctx_total = 100 * 500; // 100 requests with 500 ctx tokens each
        let g = cm.gpu_decode_attn_time(ctx_total, 100);
        let c = cm.cpu_decode_attn_time(ctx_total, 100);
        let ratio = c / g;
        // §2.2: bandwidth gap (not compute gap) governs the ratio; expect ~5-20x.
        assert!(ratio > 2.0 && ratio < 40.0, "CPU/GPU attention ratio {ratio}");
    }

    #[test]
    fn decode_attention_time_linear_in_context() {
        let cm = a10g_8b();
        let t1 = cm.cpu_decode_attn_time(10_000, 50);
        let t2 = cm.cpu_decode_attn_time(20_000, 50);
        let ratio = t2 / t1;
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn zero_work_is_zero_time() {
        let cm = a10g_8b();
        assert_eq!(cm.linear_time_gpu(0), 0.0);
        assert_eq!(cm.cpu_decode_attn_time(0, 0), 0.0);
        assert_eq!(cm.gpu_attn_time(&[], 0, 0), 0.0);
        assert_eq!(cm.swap_out_time_per_layer(0), 0.0);
        assert_eq!(cm.pre_post_layer_time(0, 0), 0.0);
    }

    #[test]
    fn allreduce_only_with_tp() {
        let single = a10g_8b();
        assert_eq!(single.allreduce_time(128), 0.0);
        let multi = h100_70b();
        assert!(multi.allreduce_time(128) > 0.0);
    }

    #[test]
    fn swap_total_is_layers_times_per_layer() {
        let cm = a10g_8b();
        let per = cm.swap_out_time_per_layer(100);
        let total = cm.swap_out_time_total(100);
        let l = cm.model().n_layers as f64;
        assert!((total - per * l).abs() < 1e-9);
    }

    #[test]
    fn tp_reduces_per_gpu_weights() {
        let cm = h100_70b();
        let single = CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(1), 1);
        assert!(cm.weight_bytes_per_gpu() < single.weight_bytes_per_gpu());
    }

    #[test]
    #[should_panic(expected = "exceeds GPU count")]
    fn tp_larger_than_gpus_panics() {
        let _ = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 2);
    }

    #[test]
    #[should_panic(expected = "requires a GPU-GPU interconnect")]
    fn tp_without_interconnect_is_rejected() {
        // A 2-GPU box with no NVLink/PCIe-P2P model must not price collectives as free.
        let mut testbed = Testbed::hgx_h100(2);
        testbed.interconnect = None;
        let _ = CostModel::new(ModelDesc::llama3_70b(), testbed, 2);
    }

    #[test]
    fn tp_halves_per_rank_swap_times() {
        let tp2 = h100_70b();
        let tp1 = CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(1), 1);
        let lat = tp2.testbed().pcie.latency;
        for n in [100usize, 1000, 10_000] {
            let bw1 = tp1.swap_out_time_per_layer(n) - lat;
            let bw2 = tp2.swap_out_time_per_layer(n) - lat;
            assert!((bw2 - bw1 / 2.0).abs() < 1e-15, "swap-out bytes must halve at tp=2");
            let in1 = tp1.swap_in_time_per_layer(n) - lat;
            let in2 = tp2.swap_in_time_per_layer(n) - lat;
            assert!((in2 - in1 / 2.0).abs() < 1e-15, "swap-in bytes must halve at tp=2");
        }
    }

    #[test]
    fn per_rank_swap_time_monotone_in_tp() {
        let mut last = f64::INFINITY;
        for tp in [1usize, 2, 4, 8] {
            let cm = CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(tp.max(2)), tp);
            let t = cm.swap_out_time_per_layer(5000);
            assert!(t <= last, "per-rank swap time must not increase with tp");
            last = t;
        }
    }

    #[test]
    fn rank_budgets_back_the_group_capacity() {
        for cm in [a10g_8b(), h100_70b()] {
            let budgets = cm.rank_budgets();
            assert_eq!(budgets.len(), cm.tp());
            let min = budgets.iter().map(|b| b.kv_capacity_tokens).min().unwrap();
            assert_eq!(cm.gpu_kv_capacity_tokens(), min, "group capacity is the tightest rank");
            for (i, b) in budgets.iter().enumerate() {
                assert_eq!(b.rank, i);
                assert_eq!(b.kv_bytes_per_token, cm.kv_bytes_per_token_per_gpu());
                assert_eq!(b.weight_bytes, cm.weight_bytes_per_gpu());
                assert!(b.kv_budget_bytes() <= b.usable_bytes);
            }
        }
    }

    #[test]
    fn lm_head_allgather_only_with_tp() {
        assert_eq!(a10g_8b().lm_head_allgather_time(64), 0.0);
        let multi = h100_70b();
        assert_eq!(multi.lm_head_allgather_time(0), 0.0);
        assert!(multi.lm_head_allgather_time(64) > 0.0);
        // And it is charged inside the non-layer stage.
        let tokens_only = multi.lm_head_allgather_time(64);
        let with = multi.pre_post_layer_time(64, 64);
        assert!(with > tokens_only);
    }

    #[test]
    fn qkvo_round_trip_charges_each_leg_at_its_own_direction() {
        // An asymmetric link (fast h2d, slow d2h) must price the Q/K/V down-leg at the
        // d2h bandwidth — the pre-fix code charged the whole round trip at h2d.
        let mut testbed = Testbed::g5_xlarge(4);
        testbed.pcie = PcieSpec { bw_h2d: 24e9, bw_d2h: 6e9, latency: 10e-6 };
        let asym = CostModel::new(ModelDesc::llama3_8b(), testbed, 1);
        let sym = a10g_8b();
        let m = ModelDesc::llama3_8b();
        let n_reqs = 100usize;
        let delta =
            asym.cpu_decode_attn_time(50_000, n_reqs) - sym.cpu_decode_attn_time(50_000, n_reqs);
        // The compute part is identical; the difference is exactly the down-leg priced at
        // 6 GB/s instead of 24 GB/s.
        let down = n_reqs as f64 * m.qkv_down_bytes_per_token_per_layer() as f64;
        let expected = down / 6e9 - down / 24e9;
        assert!((delta - expected).abs() < 1e-12, "delta {delta} vs expected {expected}");
    }

    #[test]
    fn prefill_attention_dominates_long_prompts() {
        let cm = a10g_8b();
        let short = cm.gpu_attn_time(&[(128, 128)], 0, 0);
        let long = cm.gpu_attn_time(&[(2048, 2048)], 0, 0);
        assert!(long > short * 10.0);
    }

    #[test]
    fn with_max_batch_tokens_changes_capacity() {
        let small = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
            .with_max_batch_tokens(1024);
        let big = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
            .with_max_batch_tokens(16384);
        assert!(small.gpu_kv_capacity_tokens() > big.gpu_kv_capacity_tokens());
    }
}
