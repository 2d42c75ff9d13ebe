//! Paged, grouped-query decode attention with Flash-Decoding-style partitioning.
//!
//! This is the Rust equivalent of the paper's PACPU kernel (§4): for every offloaded
//! request, one new query token attends over the request's entire cached context, which is
//! read block-by-block from the paged CPU cache. The context of each request is split into
//! block-aligned *partitions*; partitions are processed independently and in parallel
//! across the rayon pool's worker threads — the role the paper's ISPC "core groups" play —
//! each producing an online-softmax partial, and the partials are merged per request.
//! Memory access inside a partition is contiguous at block granularity, mirroring the
//! paper's "unique and continuous memory at block granularity" strategy.
//!
//! [`paged_decode_attention`] sizes partitions automatically from
//! [`rayon::current_num_threads`] via [`auto_partition_blocks`]: enough partitions that
//! every worker gets several steal-units (so unequal context lengths still balance), but
//! no more, because each extra partition costs one extra online-softmax merge per head.
//! With a single worker the whole batch collapses to one partition per sequence — the
//! partitioning overhead disappears from the measurement instead of being mistaken for
//! kernel cost. [`paged_decode_attention_with_partitions`] keeps the explicit knob for
//! benchmarks that study the trade-off.

use neo_kvcache::{BlockTable, PagedStorage};
use rayon::prelude::*;

use crate::softmax::OnlineSoftmax;
use crate::AttentionConfig;

/// Steal-units targeted per pool worker by [`auto_partition_blocks`]. More than one unit
/// per worker lets the pool's atomic claim index rebalance unequal partition costs; the
/// value matches the pool's own unit granularity (see the rayon shim).
const PARTITIONS_PER_THREAD: usize = 4;

/// Picks a partition size (in KV blocks) for one sequence at the current pool width.
///
/// Aims for roughly four partitions per [`rayon::current_num_threads`] worker over the
/// sequence's own block count. On a single-threaded pool this returns the sequence's
/// whole block count — one partition, no merge overhead. Deliberately a function of the
/// sequence alone (never of the batch it happens to share a step with): a request's
/// partition grouping — and hence its floating-point output — must not change with
/// concurrent load, only with the explicit pool width.
pub fn auto_partition_blocks(seq_len: usize, block_size: usize) -> usize {
    let blocks = seq_len.div_ceil(block_size.max(1)).max(1);
    let threads = rayon::current_num_threads();
    if threads <= 1 {
        return blocks;
    }
    blocks.div_ceil(threads * PARTITIONS_PER_THREAD)
}

/// One unit of work: a contiguous range of blocks of one sequence.
#[derive(Debug, Clone, Copy)]
struct Task {
    seq: usize,
    /// First token index (inclusive) covered by this partition.
    token_start: usize,
    /// Last token index (exclusive).
    token_end: usize,
}

/// Splits every sequence's context into block-aligned partitions, `partition_blocks(len)`
/// blocks each (evaluated per sequence, so sizing policies can depend on the sequence
/// alone).
fn build_tasks(
    seq_lens: &[usize],
    block_size: usize,
    partition_blocks: impl Fn(usize) -> usize,
) -> Vec<Task> {
    let mut tasks = Vec::new();
    for (seq, &len) in seq_lens.iter().enumerate() {
        let chunk = block_size * partition_blocks(len).max(1);
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            tasks.push(Task { seq, token_start: start, token_end: end });
            start = end;
        }
    }
    tasks
}

/// Computes the online-softmax partials of one task for all query heads.
fn run_task(
    task: Task,
    queries: &[f32],
    storage: &PagedStorage,
    table: &BlockTable,
    cfg: &AttentionConfig,
) -> Vec<OnlineSoftmax> {
    let hd = cfg.head_dim;
    let group = cfg.group_size();
    let q_base = task.seq * cfg.q_stride();
    let mut partials: Vec<OnlineSoftmax> =
        (0..cfg.n_heads).map(|_| OnlineSoftmax::new(hd)).collect();

    for tok in task.token_start..task.token_end {
        let (block, slot) = table
            .locate(tok)
            .expect("sequence length and block table are consistent by construction");
        let k_row = storage.read_k(block, slot).expect("block table points into storage");
        let v_row = storage.read_v(block, slot).expect("block table points into storage");
        for h in 0..cfg.n_heads {
            let kv_h = h / group;
            let q_vec = &queries[q_base + h * hd..q_base + (h + 1) * hd];
            let k_vec = &k_row[kv_h * hd..(kv_h + 1) * hd];
            let v_vec = &v_row[kv_h * hd..(kv_h + 1) * hd];
            let score: f32 = q_vec.iter().zip(k_vec).map(|(a, b)| a * b).sum::<f32>() * cfg.scale;
            partials[h].push(score, v_vec);
        }
    }
    partials
}

/// Paged decode attention over a batch of sequences, parallelised across partitions.
///
/// * `queries` — `[n_seqs, n_heads, head_dim]`, one new token per sequence.
/// * `storage` — the layer's paged KV storage (already containing each sequence's cached
///   K/V, including the current token's entry).
/// * `tables` / `seq_lens` — per-sequence block table and cached length (in tokens).
/// * `out` — `[n_seqs, n_heads, head_dim]`.
///
/// The partition size is tuned to the pool width via [`auto_partition_blocks`]. Partials
/// merge deterministically in context order, but the partition *size* changes the
/// grouping of the online-softmax reductions, so outputs are equal across pool widths
/// only to floating-point tolerance — callers needing bit-stable outputs across widths
/// must pin the size via [`paged_decode_attention_with_partitions`]. Sequences with
/// length zero produce zero output.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with `cfg` and the number of sequences, or if
/// a block table is shorter than the stated sequence length.
pub fn paged_decode_attention(
    queries: &[f32],
    storage: &PagedStorage,
    tables: &[&BlockTable],
    seq_lens: &[usize],
    cfg: &AttentionConfig,
    out: &mut [f32],
) {
    let block_size = storage.block_size();
    run_with_partition_policy(queries, storage, tables, seq_lens, cfg, out, |len| {
        auto_partition_blocks(len, block_size)
    });
}

/// Like [`paged_decode_attention`] but with an explicit partition size (in blocks), used
/// by the benchmarks to study the partitioning trade-off.
///
/// # Panics
///
/// See [`paged_decode_attention`].
pub fn paged_decode_attention_with_partitions(
    queries: &[f32],
    storage: &PagedStorage,
    tables: &[&BlockTable],
    seq_lens: &[usize],
    cfg: &AttentionConfig,
    partition_blocks: usize,
    out: &mut [f32],
) {
    run_with_partition_policy(queries, storage, tables, seq_lens, cfg, out, |_| partition_blocks);
}

/// Shared checked body of the two public entry points: partitions each sequence with
/// `partition_blocks(len)`, runs the tasks across the pool, and merges the partials.
fn run_with_partition_policy(
    queries: &[f32],
    storage: &PagedStorage,
    tables: &[&BlockTable],
    seq_lens: &[usize],
    cfg: &AttentionConfig,
    out: &mut [f32],
    partition_blocks: impl Fn(usize) -> usize,
) {
    let n_seqs = seq_lens.len();
    assert_eq!(tables.len(), n_seqs, "one block table per sequence");
    assert_eq!(queries.len(), n_seqs * cfg.q_stride(), "query buffer has wrong length");
    assert_eq!(out.len(), n_seqs * cfg.q_stride(), "output buffer has wrong length");
    for (i, (&len, table)) in seq_lens.iter().zip(tables).enumerate() {
        assert!(
            table.num_tokens() >= len,
            "block table of sequence {i} holds {} tokens but {len} were requested",
            table.num_tokens()
        );
    }

    let tasks = build_tasks(seq_lens, storage.block_size(), partition_blocks);

    // Each task is independent; run them across the rayon pool (the CPU "core groups" of
    // the paper), then merge the partials of each sequence.
    let partials: Vec<(usize, Vec<OnlineSoftmax>)> = tasks
        .par_iter()
        .map(|&t| (t.seq, run_task(t, queries, storage, tables[t.seq], cfg)))
        .collect();

    let mut merged: Vec<Option<Vec<OnlineSoftmax>>> = (0..n_seqs).map(|_| None).collect();
    for (seq, partial) in partials {
        match &mut merged[seq] {
            None => merged[seq] = Some(partial),
            Some(existing) => {
                for (e, p) in existing.iter_mut().zip(&partial) {
                    e.merge(p);
                }
            }
        }
    }

    for (seq, maybe) in merged.iter().enumerate() {
        let base = seq * cfg.q_stride();
        match maybe {
            Some(heads) => {
                for (h, acc) in heads.iter().enumerate() {
                    acc.finish(&mut out[base + h * cfg.head_dim..base + (h + 1) * cfg.head_dim]);
                }
            }
            None => out[base..base + cfg.q_stride()].iter_mut().for_each(|o| *o = 0.0),
        }
    }
}

/// Single-threaded, non-partitioned variant used as a baseline in tests and benchmarks.
///
/// # Panics
///
/// See [`paged_decode_attention`].
pub fn paged_decode_attention_serial(
    queries: &[f32],
    storage: &PagedStorage,
    tables: &[&BlockTable],
    seq_lens: &[usize],
    cfg: &AttentionConfig,
    out: &mut [f32],
) {
    let n_seqs = seq_lens.len();
    assert_eq!(tables.len(), n_seqs, "one block table per sequence");
    assert_eq!(queries.len(), n_seqs * cfg.q_stride(), "query buffer has wrong length");
    assert_eq!(out.len(), n_seqs * cfg.q_stride(), "output buffer has wrong length");

    for seq in 0..n_seqs {
        let task = Task { seq, token_start: 0, token_end: seq_lens[seq] };
        let heads = run_task(task, queries, storage, tables[seq], cfg);
        let base = seq * cfg.q_stride();
        for (h, acc) in heads.iter().enumerate() {
            acc.finish(&mut out[base + h * cfg.head_dim..base + (h + 1) * cfg.head_dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dense_attention;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a paged cache holding `seq_lens` sequences of random KV data and returns the
    /// matching contiguous copies for the reference kernel.
    struct Fixture {
        storage: PagedStorage,
        tables: Vec<BlockTable>,
        dense_k: Vec<Vec<f32>>,
        dense_v: Vec<Vec<f32>>,
        queries: Vec<f32>,
    }

    fn build_fixture(seq_lens: &[usize], cfg: &AttentionConfig, seed: u64) -> Fixture {
        let block_size = 4;
        let total_blocks: usize =
            seq_lens.iter().map(|l| l.div_ceil(block_size)).sum::<usize>() + 1;
        let mut storage = PagedStorage::new(total_blocks, block_size, cfg.n_kv_heads, cfg.head_dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tables = Vec::new();
        let mut dense_k = Vec::new();
        let mut dense_v = Vec::new();
        let mut next_block = 0;
        for &len in seq_lens {
            let blocks_needed = len.div_ceil(block_size);
            let mut table = BlockTable::new(block_size);
            table.append(len, (next_block..next_block + blocks_needed).collect()).unwrap();
            next_block += blocks_needed;
            let mut k_seq = Vec::new();
            let mut v_seq = Vec::new();
            for i in 0..len {
                let k: Vec<f32> = (0..cfg.kv_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let v: Vec<f32> = (0..cfg.kv_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let (b, s) = table.locate(i).unwrap();
                storage.write_token(b, s, &k, &v).unwrap();
                k_seq.extend_from_slice(&k);
                v_seq.extend_from_slice(&v);
            }
            tables.push(table);
            dense_k.push(k_seq);
            dense_v.push(v_seq);
        }
        let queries: Vec<f32> =
            (0..seq_lens.len() * cfg.q_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Fixture { storage, tables, dense_k, dense_v, queries }
    }

    fn check_against_reference(seq_lens: &[usize], cfg: &AttentionConfig, seed: u64) {
        let fx = build_fixture(seq_lens, cfg, seed);
        let table_refs: Vec<&BlockTable> = fx.tables.iter().collect();
        let mut out = vec![0.0f32; seq_lens.len() * cfg.q_stride()];
        paged_decode_attention(&fx.queries, &fx.storage, &table_refs, seq_lens, cfg, &mut out);

        for (i, &len) in seq_lens.iter().enumerate() {
            let mut expected = vec![0.0f32; cfg.q_stride()];
            if len > 0 {
                dense_attention(
                    &fx.queries[i * cfg.q_stride()..(i + 1) * cfg.q_stride()],
                    &fx.dense_k[i],
                    &fx.dense_v[i],
                    1,
                    len,
                    cfg,
                    None,
                    &mut expected,
                );
            }
            for (a, b) in out[i * cfg.q_stride()..(i + 1) * cfg.q_stride()].iter().zip(&expected) {
                assert!((a - b).abs() < 1e-4, "seq {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn matches_reference_mha() {
        check_against_reference(&[7, 13, 1], &AttentionConfig::new(4, 4, 8), 1);
    }

    #[test]
    fn matches_reference_gqa() {
        check_against_reference(&[9, 32, 5, 17], &AttentionConfig::new(8, 2, 16), 2);
    }

    #[test]
    fn matches_reference_long_context_many_partitions() {
        check_against_reference(&[257], &AttentionConfig::new(2, 1, 8), 3);
    }

    #[test]
    fn zero_length_sequence_gives_zero_output() {
        let cfg = AttentionConfig::new(2, 2, 4);
        let fx = build_fixture(&[0, 5], &cfg, 4);
        let table_refs: Vec<&BlockTable> = fx.tables.iter().collect();
        let mut out = vec![1.0f32; 2 * cfg.q_stride()];
        paged_decode_attention(&fx.queries, &fx.storage, &table_refs, &[0, 5], &cfg, &mut out);
        assert!(out[..cfg.q_stride()].iter().all(|&x| x == 0.0));
        assert!(out[cfg.q_stride()..].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let cfg = AttentionConfig::new(8, 4, 16);
        let seq_lens = [33usize, 64, 5, 100];
        let fx = build_fixture(&seq_lens, &cfg, 5);
        let table_refs: Vec<&BlockTable> = fx.tables.iter().collect();
        let mut par = vec![0.0f32; seq_lens.len() * cfg.q_stride()];
        let mut ser = vec![0.0f32; seq_lens.len() * cfg.q_stride()];
        paged_decode_attention(&fx.queries, &fx.storage, &table_refs, &seq_lens, &cfg, &mut par);
        paged_decode_attention_serial(
            &fx.queries,
            &fx.storage,
            &table_refs,
            &seq_lens,
            &cfg,
            &mut ser,
        );
        for (a, b) in par.iter().zip(&ser) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn partition_size_does_not_change_result() {
        let cfg = AttentionConfig::new(4, 2, 8);
        let seq_lens = [50usize, 23];
        let fx = build_fixture(&seq_lens, &cfg, 6);
        let table_refs: Vec<&BlockTable> = fx.tables.iter().collect();
        let mut out1 = vec![0.0f32; seq_lens.len() * cfg.q_stride()];
        let mut out8 = vec![0.0f32; seq_lens.len() * cfg.q_stride()];
        paged_decode_attention_with_partitions(
            &fx.queries,
            &fx.storage,
            &table_refs,
            &seq_lens,
            &cfg,
            1,
            &mut out1,
        );
        paged_decode_attention_with_partitions(
            &fx.queries,
            &fx.storage,
            &table_refs,
            &seq_lens,
            &cfg,
            8,
            &mut out8,
        );
        for (a, b) in out1.iter().zip(&out8) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn auto_partition_tracks_pool_width() {
        // One sequence of 256 tokens over 4-token blocks = 64 blocks.
        let width = |n: usize| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
        // One worker: a single partition spanning the sequence.
        assert_eq!(width(1).install(|| auto_partition_blocks(256, 4)), 64);
        // Four workers x four units each: 64 / 16 = 4 blocks per partition.
        assert_eq!(width(4).install(|| auto_partition_blocks(256, 4)), 4);
        // More units than blocks: clamps at one block per partition.
        assert_eq!(width(64).install(|| auto_partition_blocks(256, 4)), 1);
        // Empty sequences still return a positive size, and the sizing depends only on
        // the sequence itself — never on what else is in the batch.
        assert_eq!(width(4).install(|| auto_partition_blocks(0, 4)), 1);
    }

    #[test]
    #[should_panic(expected = "query buffer")]
    fn wrong_query_length_panics() {
        let cfg = AttentionConfig::new(2, 2, 4);
        let storage = PagedStorage::new(1, 4, 2, 4);
        let table = BlockTable::new(4);
        let mut out = vec![0.0f32; cfg.q_stride()];
        paged_decode_attention(&[0.0; 3], &storage, &[&table], &[0], &cfg, &mut out);
    }

    #[test]
    #[should_panic(expected = "block table of sequence")]
    fn table_shorter_than_seq_len_panics() {
        let cfg = AttentionConfig::new(2, 2, 4);
        let storage = PagedStorage::new(1, 4, 2, 4);
        let table = BlockTable::new(4); // zero tokens
        let q = vec![0.0f32; cfg.q_stride()];
        let mut out = vec![0.0f32; cfg.q_stride()];
        paged_decode_attention(&q, &storage, &[&table], &[4], &cfg, &mut out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The paged, partitioned, parallel kernel agrees with the dense reference for
        /// random shapes and lengths.
        #[test]
        fn prop_matches_reference(
            lens in proptest::collection::vec(1usize..60, 1..5),
            heads_pow in 0u32..3,
            group_pow in 0u32..2,
            seed in 0u64..1000,
        ) {
            let n_kv = 1usize << heads_pow;
            let n_heads = n_kv << group_pow;
            let cfg = AttentionConfig::new(n_heads, n_kv, 8);
            let fx = build_fixture(&lens, &cfg, seed);
            let table_refs: Vec<&BlockTable> = fx.tables.iter().collect();
            let mut out = vec![0.0f32; lens.len() * cfg.q_stride()];
            paged_decode_attention(&fx.queries, &fx.storage, &table_refs, &lens, &cfg, &mut out);
            for (i, &len) in lens.iter().enumerate() {
                let mut expected = vec![0.0f32; cfg.q_stride()];
                dense_attention(
                    &fx.queries[i * cfg.q_stride()..(i + 1) * cfg.q_stride()],
                    &fx.dense_k[i], &fx.dense_v[i], 1, len, &cfg, None, &mut expected,
                );
                for (a, b) in out[i * cfg.q_stride()..(i + 1) * cfg.q_stride()].iter().zip(&expected) {
                    prop_assert!((a - b).abs() < 1e-3, "seq {}: {} vs {}", i, a, b);
                }
            }
        }
    }
}
