//! Prefix-cache experiment: TTFT and throughput under shared-prefix reuse.
//!
//! Serves a multi-turn chat workload on the A10G + LLaMa-3.1-8B setting and sweeps the
//! fraction of sessions that share one fleet-wide system prompt
//! (`shared_system_prob` ∈ {0, ¼, ½, ¾, 1}), with the engine's prefix cache on and off.
//! Every turn re-sends the whole conversation, so even the 0-share points reuse
//! within-session history once caching is on; the sweep adds cross-session sharing on
//! top. The share decision comes from a per-session stream independent of the swept
//! probability, so the *flattened* workload (arrivals and lengths) is identical at every
//! share point — the cache-off rows are all the same run, and any change in the cache-on
//! rows is purely identity-driven.
//!
//! Reported per point: the measured cache hit rate (prompt tokens served from cached KV
//! over prompt tokens submitted), TTFT mean/p99, average per-token latency, decode
//! throughput, and the copy-on-write split count. The headline: at a fixed offered
//! load, TTFT improves monotonically with the hit rate.

use neo_bench::{print_table, save_json, scaled, Policy, Scenario};
use neo_core::EngineConfig;
use neo_serve::run_sessions;
use neo_workload::{multi_turn_chat, ChatConfig};
use serde::Serialize;

#[derive(Serialize, Clone)]
struct PrefixPoint {
    setting: String,
    policy: String,
    cache: String,
    shared_system_prob: f64,
    request_rate: f64,
    hit_rate: f64,
    prefix_hit_tokens: usize,
    prompt_tokens: usize,
    cow_splits: usize,
    mean_ttft: f64,
    p99_ttft: f64,
    avg_per_token_latency: f64,
    decode_throughput: f64,
    completed: usize,
}

fn main() {
    let scenario = Scenario::a10g_8b();
    let sessions = scaled(36);
    let turns = 4;
    let session_rate = 0.6;
    let request_rate = session_rate * turns as f64;

    let mut points: Vec<PrefixPoint> = Vec::new();
    let mut rows = Vec::new();
    for &share in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let trace = multi_turn_chat(
            &ChatConfig {
                sessions,
                turns,
                system_len: 1024,
                user_len: 96,
                output_len: 48,
                shared_system_prob: share,
                session_rate,
                turn_gap: 4.0,
            },
            42,
        );
        for cache in [true, false] {
            let config = EngineConfig { prefix_cache: cache, ..EngineConfig::default() };
            let engine = scenario.engine_with_config(Policy::Neo, config);
            let result = run_sessions(engine, &trace);
            let point = PrefixPoint {
                setting: scenario.name.clone(),
                policy: Policy::Neo.label().to_string(),
                cache: if cache { "on" } else { "off" }.to_string(),
                shared_system_prob: share,
                request_rate,
                hit_rate: result.hit_rate(),
                prefix_hit_tokens: result.prefix_hit_tokens,
                prompt_tokens: result.prompt_tokens,
                cow_splits: result.cow_splits,
                mean_ttft: result.online.ttft.mean,
                p99_ttft: result.online.ttft.p99,
                avg_per_token_latency: result.online.avg_per_token_latency,
                decode_throughput: result.online.decode_throughput,
                completed: result.online.completed,
            };
            rows.push(vec![
                format!("{:.2}", point.shared_system_prob),
                point.cache.clone(),
                format!("{:.3}", point.hit_rate),
                format!("{}", point.cow_splits),
                format!("{:.4}", point.mean_ttft),
                format!("{:.4}", point.p99_ttft),
                format!("{:.4}", point.avg_per_token_latency),
                format!("{:.1}", point.decode_throughput),
            ]);
            points.push(point);
        }
    }
    print_table(
        &format!("Prefix cache: multi-turn chat on {} at {request_rate:.1} req/s", scenario.name),
        &[
            "share",
            "cache",
            "hit rate",
            "COW",
            "TTFT (s)",
            "p99 TTFT (s)",
            "avg tok lat (s)",
            "decode tok/s",
        ],
        &rows,
    );
    save_json("fig_prefix_cache", &points);
}
