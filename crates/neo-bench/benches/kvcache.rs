//! Micro-benchmarks of the paged KV cache: allocation, growth, release and swap, plus
//! the prefix cache's free-space query and eviction over a full index.

#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_kvcache::manager::{KvCacheConfig, KvCacheManager};
use neo_kvcache::{expand, Device, TokenRun};

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
        let prompt = expand(&[TokenRun { id, len: 4 * block_size }]);
        mgr.allocate_sequence(id, prompt.len(), Device::Gpu).unwrap();
        mgr.insert_prefix(id, &prompt).unwrap();
        mgr.free_sequence(id).unwrap();
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
