//! KV-hierarchy test suite: the shared-prefix radix tree, the multi-tier manager, and
//! the engine-level guarantees the `fig_prefix_cache` experiment rests on.
//!
//! Three layers of checks:
//!
//! * **Radix tree vs. a naive oracle** — random interleaved insert/lookup/evict
//!   sequences against a `BTreeMap`-of-prefixes model that re-derives the tree's
//!   documented semantics from scratch (paths as keys, parents as length-truncated
//!   prefixes). The tree gets each prompt as token runs, the oracle the same prompt
//!   spelled out token by token. Every operation's result and the whole indexed block
//!   set must agree.
//! * **Manager conservation** — random adopt/prefill/decode/swap/free interleavings on a
//!   tiny three-tier [`KvCacheManager`]: pools never leak a block, every indexed block
//!   stays referenced, and after releasing all sequences the full GPU capacity is
//!   allocatable again (transparent eviction reclaims every index-only block).
//! * **Engine bit-identity and a pinned cache-hit schedule** — with zero shared
//!   prefixes the enabled hierarchy must not move a single bit of the fig8b-style
//!   iteration trace (the pay-for-what-you-use property behind regenerating all
//!   pre-existing figures unchanged), while a two-session multi-turn chat on a
//!   host-cache-starved T4 follows a pinned decision trace with prefix-hit prefill
//!   skips, copy-on-write splits, and disk demotions.

use std::collections::{BTreeMap, BTreeSet};

use neo_bench::{Policy, Scenario};
use neo_core::request::Request;
use neo_core::{Engine, EngineConfig, NeoScheduler};
use neo_kvcache::{expand, Device, KvCacheConfig, KvCacheManager, PrefixIndex, Token, TokenRun};
use neo_sim::{CostModel, ModelDesc, Testbed};
use proptest::prelude::*;

const BS: usize = 4;

// ---------------------------------------------------------------------------
// Part 1: PrefixIndex vs. a naive HashMap-of-prefixes oracle.
// ---------------------------------------------------------------------------

/// Naive model of the radix tree: every node is its full token path from the root, so
/// the map key *is* the node identity. A node's parent is the longest strictly shorter
/// prefix of its key that ends on a block boundary; partial nodes (path length not a
/// multiple of the block size) can never be parents, hence are always leaves. A node's
/// children are listed in creation order: the order in which the index releases pruned
/// blocks, and so which blocks later allocations get.
#[derive(Debug, Clone, Default)]
struct OracleIndex {
    nodes: BTreeMap<Vec<Token>, OracleNode>,
    clock: u64,
    created: u64,
}

#[derive(Debug, Clone, Copy)]
struct OracleNode {
    block: usize,
    last_touch: u64,
    /// Creation number: siblings are ordered by it.
    created: u64,
}

impl OracleIndex {
    fn parent_path(key: &[Token]) -> &[Token] {
        &key[..(key.len() - 1) / BS * BS]
    }

    fn children(&self, path: &[Token]) -> Vec<Vec<Token>> {
        let mut children: Vec<(u64, Vec<Token>)> = self
            .nodes
            .iter()
            .filter(|(k, _)| k.len() > path.len() && Self::parent_path(k) == path)
            .map(|(k, n)| (n.created, k.clone()))
            .collect();
        children.sort_unstable();
        children.into_iter().map(|(_, k)| k).collect()
    }

    fn add(&mut self, key: Vec<Token>, block: usize, now: u64) {
        self.created += 1;
        self.nodes.insert(key, OracleNode { block, last_touch: now, created: self.created });
    }

    fn sorted_blocks(&self) -> Vec<usize> {
        let mut blocks: Vec<usize> = self.nodes.values().map(|n| n.block).collect();
        blocks.sort_unstable();
        blocks
    }

    fn lookup(&mut self, tokens: &[Token]) -> (Vec<usize>, Option<(usize, usize)>) {
        self.clock += 1;
        let now = self.clock;
        let mut path: Vec<Token> = Vec::new();
        let mut blocks = Vec::new();
        let mut start = 0usize;
        loop {
            if start >= tokens.len() {
                return (blocks, None);
            }
            let remaining = &tokens[start..];
            if remaining.len() >= BS {
                let mut key = path.clone();
                key.extend_from_slice(&remaining[..BS]);
                if let Some(node) = self.nodes.get_mut(&key) {
                    node.last_touch = now;
                    blocks.push(node.block);
                    path = key;
                    start += BS;
                    continue;
                }
            }
            // No full-block step: best partially matching child, ties to smallest block.
            let mut best: Option<(usize, usize, Vec<Token>)> = None; // (cpl, block, key)
            for key in self.children(&path) {
                let content = &key[path.len()..];
                let cpl = content.iter().zip(remaining.iter()).take_while(|(a, b)| a == b).count();
                let block = self.nodes[&key].block;
                if cpl >= 1 {
                    let better = match &best {
                        None => true,
                        Some((bcpl, bblock, _)) => cpl > *bcpl || (cpl == *bcpl && block < *bblock),
                    };
                    if better {
                        best = Some((cpl, block, key));
                    }
                }
            }
            return match best {
                Some((cpl, block, key)) => {
                    self.nodes.get_mut(&key).expect("live node").last_touch = now;
                    (blocks, Some((block, cpl)))
                }
                None => (blocks, None),
            };
        }
    }

    fn insert(&mut self, tokens: &[Token], blocks: &[usize]) -> (Vec<usize>, Vec<usize>) {
        self.clock += 1;
        let now = self.clock;
        let mut retained = Vec::new();
        let mut released = Vec::new();
        let mut path: Vec<Token> = Vec::new();
        let mut i = 0usize;
        while i * BS < tokens.len() {
            let end = ((i + 1) * BS).min(tokens.len());
            let chunk = &tokens[i * BS..end];
            let mut key = path.clone();
            key.extend_from_slice(chunk);
            if chunk.len() == BS {
                if let Some(node) = self.nodes.get_mut(&key) {
                    node.last_touch = now;
                    path = key;
                    i += 1;
                    continue;
                }
                for child in self.children(&path) {
                    let content = &child[path.len()..];
                    if content.len() < BS && chunk.starts_with(content) {
                        released.push(self.nodes.remove(&child).expect("live node").block);
                    }
                }
                self.add(key.clone(), blocks[i], now);
                retained.push(blocks[i]);
                path = key;
                i += 1;
            } else {
                let covered = self.children(&path).iter().any(|child| {
                    let content = &child[path.len()..];
                    content.len() >= chunk.len() && content[..chunk.len()] == *chunk
                });
                if !covered {
                    for child in self.children(&path) {
                        let content = &child[path.len()..];
                        if content.len() < chunk.len() && chunk.starts_with(content) {
                            released.push(self.nodes.remove(&child).expect("live node").block);
                        }
                    }
                    self.add(key, blocks[i], now);
                    retained.push(blocks[i]);
                }
                break;
            }
        }
        (retained, released)
    }

    fn evict_lru(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        let parents: BTreeSet<&[Token]> = self.nodes.keys().map(|k| Self::parent_path(k)).collect();
        let victim = self
            .nodes
            .iter()
            .filter(|(key, n)| !parents.contains(key.as_slice()) && evictable(n.block))
            .min_by_key(|(_, n)| (n.last_touch, n.block))
            .map(|(key, _)| key.clone())?;
        Some(self.nodes.remove(&victim).expect("live node").block)
    }
}

/// Decodes one generated op tuple into prompt runs from a tiny run alphabet, so random
/// sequences constantly produce shared prefixes, diverging suffixes, and partial tails.
/// The first run may be empty or span many blocks, so shared heads of different lengths
/// cut long chains mid-way; `extra % 3 == 0` repeats its id back to back (a run that
/// restarts at offset 0), an odd `extra` puts an empty run between the first two, and a
/// third run of 0 to 6 tokens follows.
fn op_runs(run: u64, len: usize, extra: usize) -> Vec<TokenRun> {
    let second = (run + extra as u64) % 3 + 1;
    let mut runs = vec![TokenRun { id: run + 1, len }];
    if extra % 2 == 1 {
        runs.push(TokenRun { id: second, len: 0 });
    }
    runs.push(TokenRun { id: second, len: 1 + extra });
    runs.push(TokenRun { id: (run + extra as u64 / 2) % 3 + 1, len: extra * 5 % 7 });
    runs
}

/// One generated op: `((selector, insert cut), (run, len, extra))`.
type IndexOp = ((usize, usize), (u64, usize, usize));

/// Random op sequences for the oracle property: first runs of up to 40 tokens (ten
/// blocks) from the three-run alphabet.
fn index_ops() -> impl Strategy<Value = Vec<IndexOp>> {
    proptest::collection::vec(((0usize..6, 0usize..6), (0u64..3, 0usize..41, 0usize..6)), 1..60)
}

fn check_index_against_oracle(ops: &[IndexOp]) -> Result<(), TestCaseError> {
    let mut idx = PrefixIndex::new(BS);
    let mut oracle = OracleIndex::default();
    let mut next_block = 100usize;
    for &((sel, cut), (run, len, extra)) in ops {
        let runs = op_runs(run, len, extra);
        let tokens = expand(&runs);
        match sel {
            // Insert (weighted heaviest: it is the only tree-growing op), capped `cut`
            // tokens short of the prompt as for a sequence holding fewer tokens than
            // its prompt, with one spare block in the table on odd `extra`.
            0..=2 => {
                let limit = tokens.len().saturating_sub(cut);
                let blocks: Vec<usize> =
                    (0..limit.div_ceil(BS) + extra % 2).map(|i| next_block + i).collect();
                next_block += blocks.len();
                let real = idx.insert(&runs, limit, &blocks);
                let (retained, released) = oracle.insert(&tokens[..limit], &blocks);
                // Unsorted: the release order decides which blocks later allocations get.
                prop_assert_eq!(real.retained, retained, "insert retained blocks");
                prop_assert_eq!(real.released, released, "insert released blocks");
            }
            3 | 4 => {
                let real = idx.lookup(&runs);
                let (blocks, partial) = oracle.lookup(&tokens);
                prop_assert_eq!(&real.blocks, &blocks, "lookup full chain");
                prop_assert_eq!(real.partial, partial, "lookup partial tail");
            }
            _ => {
                let pred: Box<dyn Fn(usize) -> bool> = match extra % 3 {
                    0 => Box::new(|_| true),
                    1 => Box::new(|b| b % 2 == 0),
                    _ => Box::new(|b| b % 3 != 0),
                };
                let real = idx.evict_lru(&pred);
                let want = oracle.evict_lru(&pred);
                prop_assert_eq!(real, want, "evict_lru victim");
            }
        }
        prop_assert_eq!(idx.len(), oracle.nodes.len(), "node count diverged");
        let mut real_blocks = idx.blocks();
        real_blocks.sort_unstable();
        prop_assert_eq!(real_blocks, oracle.sorted_blocks(), "indexed block set diverged");
    }
    // Drain the tree: every parent that loses its last child must enter the LRU order
    // under its own stamp, so the victims match the oracle down to the last root.
    loop {
        let real = idx.evict_lru(|_| true);
        prop_assert_eq!(real, oracle.evict_lru(|_| true), "drain victim");
        if real.is_none() {
            break;
        }
    }
    prop_assert!(idx.is_empty(), "draining empties the index");
    Ok(())
}

// ---------------------------------------------------------------------------
// Part 2: KvCacheManager block conservation under random interleavings.
// ---------------------------------------------------------------------------

const GPU_TOKENS: usize = 64;
const CPU_TOKENS: usize = 32;
const DISK_TOKENS: usize = 32;

fn tiny_manager() -> KvCacheManager {
    KvCacheManager::with_features(
        KvCacheConfig {
            block_size: BS,
            gpu_capacity_tokens: GPU_TOKENS,
            cpu_capacity_tokens: CPU_TOKENS,
            kv_bytes_per_token: 1024,
        },
        true,
        DISK_TOKENS,
    )
}

fn check_manager_invariants(m: &KvCacheManager) -> Result<(), TestCaseError> {
    for dev in [Device::Gpu, Device::Cpu, Device::Disk] {
        let p = m.pool(dev);
        prop_assert_eq!(
            p.used_tokens() + p.free_tokens(),
            p.capacity_tokens(),
            "pool accounting must conserve blocks on {:?}",
            dev
        );
    }
    for b in m.prefix_blocks() {
        let rc = m.pool(Device::Gpu).ref_count(b);
        prop_assert!(
            matches!(rc, Ok(n) if n >= 1),
            "indexed block {b} must stay allocated (rc = {rc:?})"
        );
    }
    let index_only =
        m.prefix_blocks().into_iter().filter(|&b| m.pool(Device::Gpu).ref_count(b) == Ok(1));
    prop_assert_eq!(
        m.evictable_tokens(),
        index_only.count() * BS,
        "the evictable count must match a recount of the index-only blocks"
    );
    prop_assert!(m.evictable_tokens() <= m.pool(Device::Gpu).used_tokens());
    prop_assert_eq!(
        m.free_tokens(Device::Gpu),
        m.pool(Device::Gpu).free_tokens() + m.evictable_tokens(),
        "GPU free space must count index-only blocks as reclaimable"
    );
    Ok(())
}

/// The engine's per-request flow against the manager: adopt what the cache has, prefill
/// the rest, publish the prompt. Returns whether the sequence ended up live.
fn admit_request(
    m: &mut KvCacheManager,
    id: u64,
    runs: &[TokenRun],
) -> Result<bool, TestCaseError> {
    let plen: usize = runs.iter().map(|r| r.len).sum();
    let adoption = m.adopt_prefix(id, runs, plen - 1).expect("fresh id");
    prop_assert!(adoption.cached_tokens < plen, "adoption is capped below the prompt");
    if adoption.cached_tokens == 0 {
        if m.allocate_sequence(id, plen, Device::Gpu).is_err() {
            prop_assert!(m.device_of(id).is_err(), "failed admission must not track the id");
            return Ok(false);
        }
    } else if m.append_tokens(id, plen - adoption.cached_tokens).is_err() {
        // Mid-prefill OOM: the engine frees the partially admitted sequence.
        m.free_sequence(id).expect("adopted sequence exists");
        return Ok(false);
    }
    m.insert_prefix(id, runs).expect("live sequence");
    Ok(true)
}

fn check_manager_conservation(ops: &[(usize, u64, usize, usize)]) -> Result<(), TestCaseError> {
    let mut m = tiny_manager();
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    for &(sel, run, len, extra) in ops {
        match sel {
            0..=3 => {
                let id = next_id;
                next_id += 1;
                if admit_request(&mut m, id, &op_runs(run, len, extra))? {
                    live.push(id);
                }
            }
            4 | 5 if !live.is_empty() => {
                let id = live.remove(extra % live.len());
                m.free_sequence(id).expect("live sequence");
            }
            6 if !live.is_empty() => {
                // Decode growth; OOM leaves the sequence unchanged.
                let _ = m.append_tokens(live[extra % live.len()], 1 + extra % 3);
            }
            7 if !live.is_empty() => {
                let id = live[extra % live.len()];
                let target = match m.device_of(id).expect("live sequence") {
                    Device::Gpu => Device::Cpu,
                    _ => Device::Gpu,
                };
                let _ = m.swap(id, target); // OOM leaves the sequence in place
            }
            _ => {}
        }
        check_manager_invariants(&m)?;
    }
    // Release everything: only index-held blocks may remain, all of them evictable.
    for id in live {
        m.free_sequence(id).expect("live sequence");
    }
    prop_assert_eq!(m.num_sequences(), 0);
    prop_assert_eq!(m.pool(Device::Cpu).used_tokens(), 0, "CPU pool must drain");
    prop_assert_eq!(m.pool(Device::Disk).used_tokens(), 0, "disk pool must drain");
    prop_assert_eq!(
        m.pool(Device::Gpu).used_tokens(),
        m.prefix_blocks().len() * BS,
        "after freeing all sequences only index-held blocks remain"
    );
    for b in m.prefix_blocks() {
        prop_assert_eq!(m.pool(Device::Gpu).ref_count(b).expect("allocated"), 1);
    }
    prop_assert_eq!(m.free_tokens(Device::Gpu), GPU_TOKENS, "full capacity reclaimable");
    // The conservation proof: a capacity-sized allocation transparently evicts every
    // cached block and succeeds, leaving the pools exactly as freshly constructed.
    m.allocate_sequence(u64::MAX, GPU_TOKENS, Device::Gpu)
        .expect("transparent eviction must reclaim the whole pool");
    prop_assert!(m.prefix_blocks().is_empty(), "eviction drained the index");
    m.free_sequence(u64::MAX).expect("live sequence");
    prop_assert_eq!(m.pool(Device::Gpu).used_tokens(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The radix tree agrees with the naive oracle on every operation of random
    /// interleaved insert/lookup/evict sequences.
    #[test]
    fn prop_prefix_index_matches_naive_oracle(ops in index_ops()) {
        check_index_against_oracle(&ops)?;
    }

    /// Random adopt/prefill/decode/swap/free interleavings conserve blocks across all
    /// three tiers, and releasing every sequence makes the whole GPU pool allocatable.
    #[test]
    fn prop_kv_manager_conserves_blocks(
        ops in proptest::collection::vec((0usize..9, 0u64..3, 1usize..14, 0usize..8), 1..40)
    ) {
        check_manager_conservation(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The oracle property at soak depth, with the same generator. The `prefix-cache`
    /// CI job runs it with `--include-ignored`.
    #[test]
    #[ignore = "soak: 4,096 cases; run with --include-ignored"]
    fn prop_prefix_index_matches_naive_oracle_soak(ops in index_ops()) {
        check_index_against_oracle(&ops)?;
    }
}

// ---------------------------------------------------------------------------
// Part 3: engine bit-identity with zero sharing, and the pinned cache-hit trace.
// ---------------------------------------------------------------------------

/// With zero shared prefixes (opaque fig8b-style prompts) the full iteration trace of
/// the h100_70b scenario is bit-identical with the KV hierarchy on and off — including
/// the window `tests/tp_accounting.rs` pins, so every published figure regenerates
/// unchanged while the features are available.
#[test]
fn fig8b_style_trace_is_bit_identical_with_the_hierarchy_enabled() {
    let run = |hierarchy: bool| {
        let config = EngineConfig {
            prefix_cache: hierarchy,
            disk_tier: hierarchy,
            ..EngineConfig::default()
        };
        let mut engine = Scenario::h100_70b().engine_with_config(Policy::Neo, config);
        for id in 0..24u64 {
            engine.submit(Request::new(id, 0.0, 2000, 60)).unwrap();
        }
        let mut reports = Vec::new();
        while !engine.is_idle() && reports.len() < 10_000 {
            reports.push(engine.step());
        }
        assert_eq!(engine.completed(), 24);
        assert_eq!(engine.prefix_hit_tokens(), 0, "opaque prompts never share");
        assert_eq!(engine.cow_splits(), 0);
        reports
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off, on, "zero-share trace must be bit-identical under the hierarchy");
    // Re-assert the pinned tp_accounting window with the features enabled.
    let window: Vec<(String, usize, usize, usize, usize)> = on[60..69]
        .iter()
        .map(|r| {
            (format!("{}", r.mode), r.batch_size, r.prefill_tokens, r.decode_tokens, r.swapped_out)
        })
        .collect();
    let expected: Vec<(String, usize, usize, usize, usize)> = vec![
        ("gpu-only".into(), 18, 0, 17, 0),
        ("asymmetric".into(), 24, 2031, 20, 1),
        ("asymmetric".into(), 24, 1932, 21, 1),
        ("gpu-only".into(), 17, 0, 17, 0),
        ("gpu-only".into(), 17, 0, 17, 0),
        ("gpu-only".into(), 17, 0, 17, 0),
        ("gpu-only".into(), 17, 0, 17, 0),
        ("gpu-only".into(), 18, 1440, 17, 0),
        ("gpu-only".into(), 18, 481, 18, 0),
    ];
    assert_eq!(window, expected, "the pinned h100_70b window moved under the hierarchy");
}

/// A two-session multi-turn chat on a host-cache-starved T4, with the full KV hierarchy
/// on, follows a pinned per-turn schedule: later turns adopt the cached history
/// (prefilling only the new tokens), partial tails split copy-on-write, and the shrunken
/// CPU cache pushes overflow to the disk tier.
#[test]
fn two_session_chat_cache_hit_schedule_is_pinned() {
    let mut testbed = Testbed::g4dn_4xlarge();
    testbed.cpu_cache_fraction = 0.019;
    let cost = CostModel::new(ModelDesc::llama2_7b(), testbed, 1);
    let config = EngineConfig { prefix_cache: true, disk_tier: true, ..EngineConfig::default() };
    let mut engine = Engine::new(cost, config, Box::new(NeoScheduler::new()));

    let system = TokenRun { id: 1, len: 600 };
    let output_len = 150usize;
    let mut histories: Vec<Vec<TokenRun>> = vec![vec![system], vec![system]];
    let mut demoted = 0usize;
    let mut promoted = 0usize;
    let mut iterations = 0usize;
    // Each session's next turn is typed while the previous answer still streams, so up
    // to four contexts overlap: session B's first turn adopts the system prompt session
    // A cached, later turns adopt their own history, and the overlapping decodes
    // overflow the shrunken host cache into the disk tier.
    //
    // Per admission: (prefilled tokens adopted at submit, cumulative hit tokens,
    // cumulative COW splits, iterations so far, demotions, promotions) — captured once
    // and pinned; any scheduling or cache-semantics change shows up here.
    let mut turn_log: Vec<(usize, usize, usize, usize, usize, usize)> = Vec::new();
    for turn in 0..3u64 {
        for (s, history) in histories.iter_mut().enumerate() {
            let user = TokenRun { id: 100 + s as u64 * 10 + turn, len: 400 };
            let mut runs = history.clone();
            runs.push(user);
            let prompt_len: usize = runs.iter().map(|r| r.len).sum();
            let id = s as u64 * 10 + turn;
            engine
                .submit(Request::with_runs(id, 0.0, prompt_len, output_len, runs.clone()))
                .unwrap();
            turn_log.push((
                engine.request(id).unwrap().prefilled,
                engine.prefix_hit_tokens(),
                engine.cow_splits(),
                iterations,
                demoted,
                promoted,
            ));
            runs.push(TokenRun { id: 200 + s as u64 * 10 + turn, len: output_len });
            *history = runs;
            // Step until this prompt is prefilled (publishing it in the index) before
            // admitting the next one, leaving its decode running concurrently.
            while iterations < 200_000
                && !engine.request(id).map(|r| r.prefill_complete()).unwrap_or(true)
            {
                let r = engine.step();
                demoted += r.demoted_disk;
                promoted += r.promoted_disk;
                iterations += 1;
            }
        }
    }
    while !engine.is_idle() && iterations < 200_000 {
        let r = engine.step();
        demoted += r.demoted_disk;
        promoted += r.promoted_disk;
        iterations += 1;
    }
    turn_log.push((
        0,
        engine.prefix_hit_tokens(),
        engine.cow_splits(),
        iterations,
        demoted,
        promoted,
    ));
    assert_eq!(engine.completed(), 6);
    assert_eq!(engine.disk_resident(), 0, "disk drains once decodes retire");
    assert_eq!(engine.kv().num_sequences(), 0, "only the prefix index holds blocks");
    // The pinned schedule, admission by admission (final row = the drain):
    //
    // * B's first turn adopts the 600-token system prompt A cached — 37 shared blocks
    //   plus an 8-token copy-on-write tail (COW split #1).
    // * Each turn-1 prompt adopts its session's full 1000-token turn-0 prompt (COW
    //   splits #2, #3 for the partial tails), each turn-2 prompt its 1550-token turn-1
    //   prompt (split #4); B's turn-2 adoption is clipped to the 1520-token full-block
    //   chain because the pressured pool has no free block left for the COW copy.
    // * The overlapping decodes overflow the shrunken host cache: two CPU residents are
    //   demoted to disk and both are promoted back (the second via the empty-CPU
    //   starvation guard) to finish decoding.
    let expected: Vec<(usize, usize, usize, usize, usize, usize)> = vec![
        (0, 0, 0, 0, 0, 0),
        (600, 600, 1, 2, 0, 0),
        (1000, 1600, 2, 3, 0, 0),
        (1000, 2600, 3, 5, 0, 0),
        (1550, 4150, 4, 7, 0, 0),
        (1520, 5670, 4, 27, 1, 0),
        (0, 5670, 4, 432, 2, 2),
    ];
    assert_eq!(turn_log, expected, "the pinned two-session cache-hit schedule moved");
    assert!(demoted > 0, "the starved host cache must overflow to disk");
    assert!(promoted > 0, "parked contexts must return to finish decoding");
    assert!(engine.cow_splits() >= 2, "partial history tails must split copy-on-write");
}
