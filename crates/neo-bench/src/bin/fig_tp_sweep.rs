//! Tensor-parallel sweep: how NEO's cost terms and throughput gains re-price as the
//! LLaMa-3.1-70B deployment is sharded over tp ∈ {1, 2, 4, 8} H100 GPUs.
//!
//! The sweep separates two effects of sharding on the §3.2 offload-split inequalities:
//!
//! * **PCIe terms shrink with tp** — each rank moves only its `1/tp` KV shard over its
//!   own link, so per-rank swap and QKVO round-trip times fall, making offloading
//!   *cheaper* per token as the group grows.
//! * **Collective terms grow with tp** — the per-layer all-reduces and the LM-head
//!   all-gather add interconnect time that a single GPU never pays.
//!
//! Each row reports the per-rank budget ([`neo_sim::RankBudget`]), the priced cost
//! terms, and — where the weight shard actually fits the 80 GB card (tp ≥ 2) — offline
//! token throughput of NEO against the SwiftLLM-like GPU-only baseline on the Figure-8b
//! workload. Output: `results/fig_tp_sweep.json`.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_serve::run_offline;
use neo_workload::{synthetic, ArrivalProcess};
use serde::Serialize;

#[derive(Serialize)]
struct TpSweepPoint {
    tp: usize,
    /// Whether the per-rank weight shard fits the GPU at all (tp = 1 cannot hold 70B).
    feasible: bool,
    weight_gb_per_rank: f64,
    kv_shard_kib_per_token: f64,
    rank_kv_capacity_tokens: usize,
    /// Per-rank, per-layer swap-out time of 1000 tokens (seconds).
    swap_out_s_per_layer_1k: f64,
    /// Per-rank, per-layer swap-in time of 1000 tokens (seconds).
    swap_in_s_per_layer_1k: f64,
    /// Per-layer CPU decode-attention time, 100 requests × 500 ctx (seconds).
    cpu_attn_s_50k: f64,
    /// Per-layer tensor-parallel all-reduce time for 512 tokens (seconds).
    allreduce_s_512: f64,
    /// LM-head all-gather time for 64 sampled tokens (seconds).
    lm_head_allgather_s_64: f64,
    /// Offline token throughput (tok/s); 0.0 when the deployment is infeasible.
    neo_token_throughput: f64,
    gpu_only_token_throughput: f64,
    /// NEO / GPU-only; 0.0 when infeasible.
    neo_relative_throughput: f64,
}

fn main() {
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for tp in [1usize, 2, 4, 8] {
        let scenario = Scenario::h100_70b_tp(tp);
        let cm = scenario.cost_model();
        let budget = cm.rank_budget(0);
        let feasible = budget.kv_capacity_tokens > 0;

        let (neo_tps, gpu_tps) = if feasible {
            // The Figure-8b offline workload at a fixed mid-sweep output length.
            let trace = synthetic(scaled(120), 2000, 150, ArrivalProcess::AllAtOnce, 24);
            let neo = run_offline(scenario.engine(Policy::Neo), &trace);
            let gpu = run_offline(scenario.engine(Policy::SwiftLlmLike), &trace);
            (neo.token_throughput, gpu.token_throughput)
        } else {
            (0.0, 0.0)
        };

        let point = TpSweepPoint {
            tp,
            feasible,
            weight_gb_per_rank: budget.weight_bytes as f64 / 1e9,
            kv_shard_kib_per_token: budget.kv_bytes_per_token as f64 / 1024.0,
            rank_kv_capacity_tokens: budget.kv_capacity_tokens,
            swap_out_s_per_layer_1k: cm.swap_out_time_per_layer(1000),
            swap_in_s_per_layer_1k: cm.swap_in_time_per_layer(1000),
            cpu_attn_s_50k: cm.cpu_decode_attn_time(50_000, 100),
            allreduce_s_512: cm.allreduce_time(512),
            lm_head_allgather_s_64: cm.lm_head_allgather_time(64),
            neo_token_throughput: neo_tps,
            gpu_only_token_throughput: gpu_tps,
            neo_relative_throughput: if gpu_tps > 0.0 { neo_tps / gpu_tps } else { 0.0 },
        };
        rows.push(vec![
            point.tp.to_string(),
            if point.feasible { "yes" } else { "no" }.to_string(),
            format!("{:.1}", point.weight_gb_per_rank),
            point.rank_kv_capacity_tokens.to_string(),
            format!("{:.3}", point.swap_out_s_per_layer_1k * 1e3),
            format!("{:.3}", point.allreduce_s_512 * 1e6),
            format!("{:.3}", point.lm_head_allgather_s_64 * 1e6),
            format!("{:.1}", point.neo_token_throughput),
            format!("{:.3}", point.neo_relative_throughput),
        ]);
        points.push(point);
    }

    print_table(
        "TP sweep: HGX H100 + LLaMa-3.1-70B, tp in {1, 2, 4, 8}",
        &[
            "tp",
            "fits",
            "weights/rank (GB)",
            "rank KV cap (tok)",
            "swap-out 1k (ms/layer)",
            "all-reduce 512 (us)",
            "LM all-gather 64 (us)",
            "NEO tok/s",
            "NEO/GPU-only",
        ],
        &rows,
    );
    save_json("fig_tp_sweep", &points);
}
