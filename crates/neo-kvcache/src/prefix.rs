//! Radix (prefix) tree over KV blocks: shared-prompt reuse at block granularity.
//!
//! Heavy online traffic is dominated by requests that share a prompt prefix — a fleet-wide
//! system prompt, or the growing history of a multi-turn session. The [`PrefixIndex`]
//! records, per KV block, which run of prompt tokens it caches, so a later request whose
//! prompt starts with the same tokens can *adopt* those blocks (bumping their reference
//! counts) instead of re-prefilling them. Partially matching tail blocks are reused
//! copy-on-write: the cached span is copied into a fresh private block so the shared block
//! is never written.
//!
//! Prompts are identified by [`TokenRun`]s — `(run id, length)` pairs — rather than raw
//! token ids: the simulator has no vocabulary, but two requests share a prefix exactly when
//! their leading runs are identical, which is how workload generators express "same system
//! prompt" or "same session history". [`expand`] flattens runs into per-token identities.
//!
//! The index itself owns no memory; it only names blocks. The [`crate::KvCacheManager`]
//! holds one allocator reference per indexed block, and eviction (LRU over leaves whose
//! block nobody else references) is driven by the manager when the GPU pool runs dry.
//! The leaves are kept in LRU order as nodes gain and lose children and are touched, so
//! an eviction walks only the oldest leaves instead of the whole tree.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// A run of `len` prompt tokens with a workload-assigned identity.
///
/// Two runs with the same `id` denote the same token content; sharing is detected at run
/// granularity (plus offsets within a run), never across distinct ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TokenRun {
    /// Content identity of the run (workload-assigned; equal ids = equal tokens).
    pub id: u64,
    /// Number of tokens in the run.
    pub len: usize,
}

/// One prompt token's identity: `(run id, offset within the run)`.
pub type Token = (u64, u64);

/// Flattens runs into per-token identities, in prompt order.
pub fn expand(runs: &[TokenRun]) -> Vec<Token> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len).sum());
    for run in runs {
        for off in 0..run.len {
            out.push((run.id, off as u64));
        }
    }
    out
}

/// Result of a prefix lookup: the chain of fully matching blocks, plus at most one
/// partially matching block (`(block, matched_tokens)`) usable copy-on-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixHit {
    /// Blocks whose full content matches the prompt, in prefix order.
    pub blocks: Vec<usize>,
    /// A block whose leading `len` tokens match the prompt past the full chain.
    pub partial: Option<(usize, usize)>,
}

impl PrefixHit {
    /// Tokens covered by the hit, given the index block size.
    pub fn tokens(&self, block_size: usize) -> usize {
        self.blocks.len() * block_size + self.partial.map(|(_, len)| len).unwrap_or(0)
    }
}

/// What an insertion changed: blocks the index newly references and blocks it dropped
/// (pruned partial nodes subsumed by longer content). The manager mirrors these into
/// allocator retains/releases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Blocks the index now holds a reference to (one per newly created node).
    pub retained: Vec<usize>,
    /// Blocks the index no longer references (pruned nodes).
    pub released: Vec<usize>,
}

/// One node: a block caching `content` (1..=block_size tokens; less than a full block
/// only for leaf "tail" nodes).
#[derive(Debug, Clone)]
struct Node {
    content: Vec<Token>,
    block: usize,
    parent: Option<usize>,
    children: Vec<usize>,
    last_touch: u64,
}

/// Block-granular radix tree mapping token prefixes to cached KV blocks.
#[derive(Debug, Clone, Default)]
pub struct PrefixIndex {
    block_size: usize,
    nodes: Vec<Option<Node>>,
    free_slots: Vec<usize>,
    roots: Vec<usize>,
    clock: u64,
    /// Exactly the childless nodes, keyed `(last_touch, block, node)`: LRU order with
    /// the eviction tie-breaks built in.
    leaves: BTreeSet<(u64, usize, usize)>,
    /// `held[b]`: whether block `b` backs a node (grown on demand).
    held: Vec<bool>,
}

impl PrefixIndex {
    /// Creates an empty index over blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self { block_size, ..Self::default() }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of indexed blocks (= nodes).
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Whether the index holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every indexed block, in slab order (deterministic).
    pub fn blocks(&self) -> Vec<usize> {
        self.nodes.iter().flatten().map(|n| n.block).collect()
    }

    /// Whether `block` backs a node of the index.
    pub(crate) fn holds(&self, block: usize) -> bool {
        self.held.get(block).copied().unwrap_or(false)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn node(&self, idx: usize) -> &Node {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own edges; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own edges; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        self.nodes[idx].as_mut().expect("live node")
    }

    fn children_of(&self, parent: Option<usize>) -> &[usize] {
        match parent {
            Some(p) => &self.node(p).children,
            None => &self.roots,
        }
    }

    /// The child of `parent` whose content is exactly `chunk`.
    fn child_with(&self, parent: Option<usize>, chunk: &[Token]) -> Option<usize> {
        self.children_of(parent).iter().copied().find(|&c| self.node(c).content == chunk)
    }

    /// The leaf-set key of node `idx`.
    fn leaf_key(&self, idx: usize) -> (u64, usize, usize) {
        let node = self.node(idx);
        (node.last_touch, node.block, idx)
    }

    /// Stamps node `idx` as used at `now`, re-keying it if it is a leaf.
    fn touch(&mut self, idx: usize, now: u64) {
        if self.node(idx).children.is_empty() {
            let key = self.leaf_key(idx);
            self.leaves.remove(&key);
            self.leaves.insert((now, key.1, idx));
        }
        self.node_mut(idx).last_touch = now;
    }

    /// Removes the leaf children of `parent` whose content is a strict prefix of
    /// `chunk` (subsumed partial tails), in child order, returning their blocks.
    fn prune_subsumed(&mut self, parent: Option<usize>, chunk: &[Token]) -> Vec<usize> {
        let subsumed: Vec<usize> = self
            .children_of(parent)
            .iter()
            .copied()
            .filter(|&c| {
                let n = self.node(c);
                n.content.len() < chunk.len()
                    && n.children.is_empty()
                    && chunk.starts_with(&n.content)
            })
            .collect();
        subsumed.into_iter().map(|c| self.remove_node(c)).collect()
    }

    fn add_node(
        &mut self,
        parent: Option<usize>,
        content: Vec<Token>,
        block: usize,
        now: u64,
    ) -> usize {
        let node = Node { content, block, parent, children: Vec::new(), last_touch: now };
        let idx = match self.free_slots.pop() {
            Some(slot) => {
                self.nodes[slot] = Some(node);
                slot
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        match parent {
            Some(p) => {
                if self.node(p).children.is_empty() {
                    self.leaves.remove(&self.leaf_key(p));
                }
                self.node_mut(p).children.push(idx);
            }
            None => self.roots.push(idx),
        }
        self.leaves.insert((now, block, idx));
        if self.held.len() <= block {
            self.held.resize(block + 1, false);
        }
        self.held[block] = true;
        idx
    }

    /// Detaches and frees a node, returning its block. The node must be a leaf.
    fn remove_node(&mut self, idx: usize) -> usize {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own edges; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        let node = self.nodes[idx].take().expect("live node");
        debug_assert!(node.children.is_empty(), "only leaves are removed");
        self.leaves.remove(&(node.last_touch, node.block, idx));
        self.held[node.block] = false;
        let siblings = match node.parent {
            Some(p) => &mut self.node_mut(p).children,
            None => &mut self.roots,
        };
        // `remove`, not `swap_remove`: sibling order fixes the order in which pruned
        // blocks are released, and so which blocks later allocations get.
        if let Some(pos) = siblings.iter().position(|&c| c == idx) {
            siblings.remove(pos);
        }
        if let Some(p) = node.parent.filter(|&p| self.node(p).children.is_empty()) {
            self.leaves.insert(self.leaf_key(p));
        }
        self.free_slots.push(idx);
        node.block
    }

    /// Longest cached prefix of `tokens`: the chain of fully matching blocks plus at most
    /// one partially matching child (best common prefix; ties broken by smallest block).
    /// Touches every matched node for LRU purposes.
    pub fn lookup(&mut self, tokens: &[Token]) -> PrefixHit {
        let now = self.tick();
        let bs = self.block_size;
        let mut parent: Option<usize> = None;
        let mut blocks = Vec::new();
        let mut start = 0usize;
        loop {
            if start >= tokens.len() {
                return PrefixHit { blocks, partial: None };
            }
            let remaining = &tokens[start..];
            if remaining.len() >= bs {
                if let Some(c) = self.child_with(parent, &remaining[..bs]) {
                    self.touch(c, now);
                    blocks.push(self.node(c).block);
                    parent = Some(c);
                    start += bs;
                    continue;
                }
            }
            // No full-block step: find the best partially matching child.
            let mut best: Option<(usize, usize, usize)> = None; // (cpl, block, node)
            for &c in self.children_of(parent) {
                let content = &self.node(c).content;
                let cpl = content.iter().zip(remaining.iter()).take_while(|(a, b)| a == b).count();
                if cpl >= 1 {
                    let key = (cpl, self.node(c).block);
                    let better = match best {
                        None => true,
                        Some((bcpl, bblock, _)) => cpl > bcpl || (cpl == bcpl && key.1 < bblock),
                    };
                    if better {
                        best = Some((cpl, key.1, c));
                    }
                }
            }
            return match best {
                Some((cpl, block, c)) => {
                    self.touch(c, now);
                    PrefixHit { blocks, partial: Some((block, cpl)) }
                }
                None => PrefixHit { blocks, partial: None },
            };
        }
    }

    /// Registers the prompt `tokens` of a prefilled sequence, backed block-by-block by
    /// `blocks` (the sequence's block table, chunk `i` caching
    /// `tokens[i*block_size..(i+1)*block_size]`). Existing nodes with identical content
    /// are reused (touched, not re-referenced); shorter partial nodes subsumed by new
    /// content are pruned.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` has fewer entries than `tokens` needs.
    pub fn insert(&mut self, tokens: &[Token], blocks: &[usize]) -> InsertOutcome {
        assert!(
            blocks.len() * self.block_size >= tokens.len(),
            "insert needs one block per {} tokens: {} tokens, {} blocks",
            self.block_size,
            tokens.len(),
            blocks.len()
        );
        let now = self.tick();
        let bs = self.block_size;
        let mut outcome = InsertOutcome::default();
        let mut parent: Option<usize> = None;
        let mut i = 0usize;
        while i * bs < tokens.len() {
            let end = ((i + 1) * bs).min(tokens.len());
            let chunk = &tokens[i * bs..end];
            if chunk.len() == bs {
                if let Some(c) = self.child_with(parent, chunk) {
                    self.touch(c, now);
                    parent = Some(c);
                    i += 1;
                    continue;
                }
                // Prune partial siblings the new full block subsumes.
                outcome.released.extend(self.prune_subsumed(parent, chunk));
                let id = self.add_node(parent, chunk.to_vec(), blocks[i], now);
                outcome.retained.push(blocks[i]);
                parent = Some(id);
                i += 1;
            } else {
                // Partial tail: only index it if no existing child already serves it.
                let covered = self.children_of(parent).iter().any(|&c| {
                    let content = &self.node(c).content;
                    content.len() >= chunk.len() && content[..chunk.len()] == *chunk
                });
                if !covered {
                    outcome.released.extend(self.prune_subsumed(parent, chunk));
                    self.add_node(parent, chunk.to_vec(), blocks[i], now);
                    outcome.retained.push(blocks[i]);
                }
                break;
            }
        }
        outcome
    }

    /// Evicts the least-recently-touched *leaf* whose block satisfies `evictable`
    /// (ties broken by smallest block) and returns its block, or `None` when no leaf
    /// qualifies. Interior nodes become evictable as their subtrees drain, so repeated
    /// calls free whole unreferenced subtrees bottom-up. The walk visits leaves oldest
    /// first and stops at the first one `evictable` accepts.
    pub fn evict_lru(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        let &(_, _, idx) = self.leaves.iter().find(|&&(_, block, _)| evictable(block))?;
        Some(self.remove_node(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u64]) -> Vec<Token> {
        // Helper: one run per id, each of length 1, so tokens are just ids.
        ids.iter().map(|&id| (id, 0)).collect()
    }

    fn run(id: u64, len: usize) -> TokenRun {
        TokenRun { id, len }
    }

    #[test]
    fn expand_flattens_runs_in_order() {
        let t = expand(&[run(7, 2), run(9, 3)]);
        assert_eq!(t, vec![(7, 0), (7, 1), (9, 0), (9, 1), (9, 2)]);
        assert!(expand(&[]).is_empty());
    }

    #[test]
    fn insert_then_lookup_full_chain() {
        let mut idx = PrefixIndex::new(2);
        let tokens = expand(&[run(1, 6)]);
        let out = idx.insert(&tokens, &[10, 11, 12]);
        assert_eq!(out.retained, vec![10, 11, 12]);
        assert!(out.released.is_empty());
        let hit = idx.lookup(&tokens);
        assert_eq!(hit.blocks, vec![10, 11, 12]);
        assert_eq!(hit.partial, None);
        assert_eq!(hit.tokens(2), 6);
        // A shorter prompt matches a shorter chain.
        let hit = idx.lookup(&tokens[..4]);
        assert_eq!(hit.blocks, vec![10, 11]);
        assert_eq!(hit.partial, None);
    }

    #[test]
    fn reinserting_identical_content_adds_no_nodes() {
        let mut idx = PrefixIndex::new(2);
        let tokens = expand(&[run(1, 4)]);
        idx.insert(&tokens, &[10, 11]);
        let out = idx.insert(&tokens, &[20, 21]);
        assert!(out.retained.is_empty(), "identical chunks are deduplicated");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn diverging_suffixes_share_the_common_prefix() {
        let mut idx = PrefixIndex::new(2);
        let a = expand(&[run(1, 2), run(2, 2)]);
        let b = expand(&[run(1, 2), run(3, 2)]);
        idx.insert(&a, &[10, 11]);
        let out = idx.insert(&b, &[20, 21]);
        assert_eq!(out.retained, vec![21], "only the diverging block is new");
        let hit = idx.lookup(&b);
        assert_eq!(hit.blocks, vec![10, 21]);
    }

    #[test]
    fn partial_tail_hits_copy_on_write_candidates() {
        let mut idx = PrefixIndex::new(4);
        // 6 tokens: one full block + a 2-token tail.
        let tokens = expand(&[run(1, 6)]);
        idx.insert(&tokens, &[10, 11]);
        // A prompt sharing 5 tokens: full block + 1 token of the tail block.
        let probe = [&tokens[..5], &toks(&[99, 98, 97])[..]].concat();
        let hit = idx.lookup(&probe);
        assert_eq!(hit.blocks, vec![10]);
        assert_eq!(hit.partial, Some((11, 1)));
        assert_eq!(hit.tokens(4), 5);
    }

    #[test]
    fn longer_tail_prunes_the_shorter_partial_node() {
        let mut idx = PrefixIndex::new(4);
        let short = expand(&[run(1, 6)]); // block 10 full, block 11 holds 2 tokens
        idx.insert(&short, &[10, 11]);
        let long = expand(&[run(1, 8)]); // same run, now two full blocks
        let out = idx.insert(&long, &[20, 21]);
        assert_eq!(out.released, vec![11], "subsumed partial is pruned");
        assert_eq!(out.retained, vec![21]);
        let hit = idx.lookup(&long);
        assert_eq!(hit.blocks, vec![10, 21]);
    }

    #[test]
    fn covered_partial_is_not_reindexed() {
        let mut idx = PrefixIndex::new(4);
        let long = expand(&[run(1, 8)]);
        idx.insert(&long, &[10, 11]);
        let short = expand(&[run(1, 6)]);
        let out = idx.insert(&short, &[20, 21]);
        assert!(out.retained.is_empty(), "existing full block covers the shorter tail");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn evict_lru_prefers_oldest_leaf_and_respects_predicate() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 2)]), &[10]);
        idx.insert(&expand(&[run(2, 2)]), &[11]);
        idx.lookup(&expand(&[run(1, 2)])); // refresh block 10
        assert_eq!(idx.evict_lru(|_| true), Some(11), "LRU leaf goes first");
        assert_eq!(idx.evict_lru(|b| b != 10), None, "predicate can veto");
        assert_eq!(idx.evict_lru(|_| true), Some(10));
        assert!(idx.is_empty());
    }

    #[test]
    fn eviction_is_leaf_first() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10, 11]);
        // The interior block 10 is never evicted while its child lives.
        assert_eq!(idx.evict_lru(|_| true), Some(11));
        assert_eq!(idx.evict_lru(|_| true), Some(10));
        assert_eq!(idx.evict_lru(|_| true), None);
    }

    #[test]
    fn blocks_lists_every_indexed_block() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10, 11]);
        idx.insert(&expand(&[run(2, 2)]), &[12]);
        let mut blocks = idx.blocks();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![10, 11, 12]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let _ = PrefixIndex::new(0);
    }

    #[test]
    #[should_panic(expected = "one block per")]
    fn insert_with_too_few_blocks_panics() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10]);
    }
}
