//! Micro-benchmarks of the paged KV cache: allocation, growth, release and swap, plus
//! the prefix cache's free-space query and eviction over a full index, and chat turns
//! adopting and inserting against a warm index.

#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_kvcache::manager::{KvCacheConfig, KvCacheManager};
use neo_kvcache::{Device, TokenRun};

fn manager() -> KvCacheManager {
    KvCacheManager::new(KvCacheConfig {
        block_size: 16,
        gpu_capacity_tokens: 1 << 18,
        cpu_capacity_tokens: 1 << 20,
        kv_bytes_per_token: 128 * 1024,
    })
}

/// Sequences whose prompts fill the prefix-cached GPU pool, four blocks each.
const CACHED_SEQS: u64 = 1024;

/// A prefix-enabled manager whose GPU pool is exactly full of index-only blocks: 1,024
/// distinct four-block prompts (4,096 blocks) were prefilled, indexed and freed.
fn cached_manager() -> KvCacheManager {
    let block_size = 16;
    let mut mgr = KvCacheManager::with_features(
        KvCacheConfig {
            block_size,
            gpu_capacity_tokens: CACHED_SEQS as usize * 4 * block_size,
            cpu_capacity_tokens: 1 << 20,
            kv_bytes_per_token: 128 * 1024,
        },
        true,
        0,
    );
    for id in 0..CACHED_SEQS {
        let prompt = [TokenRun { id, len: 4 * block_size }];
        mgr.allocate_sequence(id, 4 * block_size, Device::Gpu).unwrap();
        mgr.insert_prefix(id, &prompt).unwrap();
        mgr.free_sequence(id).unwrap();
    }
    mgr
}

/// Chat sessions in the warm index, each sharing one 1,024-token system run.
const CHAT_SESSIONS: u64 = 48;
/// Turns each session has already served when the timed turn arrives.
const CHAT_TURNS: u64 = 3;

/// The prompt of session `s`'s turn `turn`: the system run, then each earlier turn's
/// user and answer runs, then this turn's user run (the shape `multi_turn_chat` gives).
fn chat_prompt(s: u64, turn: u64) -> Vec<TokenRun> {
    let mut runs = vec![TokenRun { id: 0, len: 1024 }];
    for t in 0..turn {
        runs.push(TokenRun { id: 1 + 2 * (s * 16 + t), len: 96 });
        runs.push(TokenRun { id: 2 + 2 * (s * 16 + t), len: 48 });
    }
    runs.push(TokenRun { id: 1 + 2 * (s * 16 + turn), len: 96 });
    runs
}

/// Serves one turn as the engine does: adopt the cached head, prefill the rest on the
/// GPU, and publish the prompt.
fn serve_turn(mgr: &mut KvCacheManager, id: u64, prompt: &[TokenRun]) {
    let len: usize = prompt.iter().map(|r| r.len).sum();
    let cached = mgr.adopt_prefix(id, prompt, len - 1).unwrap().cached_tokens;
    if cached == 0 {
        mgr.allocate_sequence(id, len, Device::Gpu).unwrap();
    } else {
        mgr.append_tokens(id, len - cached).unwrap();
    }
    mgr.insert_prefix(id, prompt).unwrap();
}

/// A prefix-enabled manager whose index holds every earlier turn of the chat sessions,
/// their sequences freed.
fn warm_chat_manager() -> KvCacheManager {
    let mut mgr = KvCacheManager::with_features(
        KvCacheConfig {
            block_size: 16,
            gpu_capacity_tokens: 1 << 16,
            cpu_capacity_tokens: 1 << 16,
            kv_bytes_per_token: 128 * 1024,
        },
        true,
        0,
    );
    for turn in 0..CHAT_TURNS {
        for s in 0..CHAT_SESSIONS {
            let id = turn * CHAT_SESSIONS + s;
            serve_turn(&mut mgr, id, &chat_prompt(s, turn));
            mgr.free_sequence(id).unwrap();
        }
    }
    mgr
}

fn bench_prefix_cache(c: &mut Criterion) {
    c.bench_function("kvcache/prefix_free_tokens_x1000", |b| {
        let mgr = cached_manager();
        b.iter(|| {
            (0..1000).map(|_| criterion::black_box(&mgr).free_tokens(Device::Gpu)).sum::<usize>()
        });
    });
    c.bench_function("kvcache/prefix_evict_64_blocks", |b| {
        // The pool is full, so placing 64 blocks evicts the 64 least recently used.
        b.iter_batched_ref(
            cached_manager,
            |mgr| mgr.allocate_sequence(CACHED_SEQS, 64 * 16, Device::Gpu).unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
    c.bench_function("kvcache/prefix_adopt_insert_chat", |b| {
        // Every session's next turn (1,552 prompt tokens) adopts its whole history and
        // inserts its new user run, past 48 sibling sessions under the system run.
        let warm = warm_chat_manager();
        let prompts: Vec<Vec<TokenRun>> =
            (0..CHAT_SESSIONS).map(|s| chat_prompt(s, CHAT_TURNS)).collect();
        b.iter_batched_ref(
            || warm.clone(),
            |mgr| {
                for (s, prompt) in (0..).zip(&prompts) {
                    serve_turn(mgr, CHAT_TURNS * CHAT_SESSIONS + s, prompt);
                }
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

fn bench_allocate_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvcache/allocate_free");
    for &tokens in &[128usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(tokens), &tokens, |b, &tokens| {
            let mut mgr = manager();
            b.iter(|| {
                mgr.allocate_sequence(1, tokens, Device::Gpu).unwrap();
                mgr.free_sequence(1).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_decode_append(c: &mut Criterion) {
    c.bench_function("kvcache/append_one_token_x1000_seqs", |b| {
        // A fresh manager per sample batch: repeated appends would otherwise exhaust the
        // pool during criterion's warm-up.
        b.iter_batched_ref(
            || {
                let mut mgr = manager();
                for id in 0..1000u64 {
                    mgr.allocate_sequence(id, 100, Device::Gpu).unwrap();
                }
                mgr
            },
            |mgr| {
                for id in 0..1000u64 {
                    mgr.append_tokens(id, 1).unwrap();
                }
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

fn bench_swap(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvcache/swap_round_trip");
    for &tokens in &[256usize, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(tokens), &tokens, |b, &tokens| {
            let mut mgr = manager();
            mgr.allocate_sequence(1, tokens, Device::Gpu).unwrap();
            b.iter(|| {
                mgr.swap(1, Device::Cpu).unwrap();
                mgr.swap(1, Device::Gpu).unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_allocate_free, bench_decode_append, bench_swap, bench_prefix_cache);
criterion_main!(benches);
