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
//! prompt" or "same session history". Token `k` of a run with id `r` is the token
//! `(r, k)`; [`expand`] spells a prompt out token by token. The index never does: each
//! node holds its block's content as the canonical segments `(run id, first offset, len)`
//! the block's tokens fall into, so a block inside one run is one segment, and every
//! comparison walks segments with the same meaning as comparing the tokens.
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

/// Flattens runs into per-token identities, in prompt order: the token-level meaning of
/// the segments the index compares.
pub fn expand(runs: &[TokenRun]) -> Vec<Token> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len).sum());
    for run in runs {
        for off in 0..run.len {
            out.push((run.id, off as u64));
        }
    }
    out
}

/// `len` consecutive tokens of run `run`, starting at offset `first`.
///
/// A block's segments are canonical: one per run the block touches, empty runs skipped.
/// Every segment after a block's first starts a run at offset 0, so two neighbours never
/// continue each other (not even two runs with the same id), and equal token sequences
/// have equal segment lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    run: u64,
    first: usize,
    len: usize,
}

/// Number of tokens the segments hold.
fn tokens_in(segments: &[Segment]) -> usize {
    segments.iter().map(|s| s.len).sum()
}

/// Length of the longest common token prefix of two canonical segment lists.
fn common_prefix(a: &[Segment], b: &[Segment]) -> usize {
    let mut n = 0;
    for (x, y) in a.iter().zip(b) {
        if (x.run, x.first) != (y.run, y.first) {
            break;
        }
        n += x.len.min(y.len);
        // The shorter segment's successor starts a run at offset 0, while the longer
        // one continues at a positive offset: the sequences diverge here.
        if x.len != y.len {
            break;
        }
    }
    n
}

/// A block's content, inline when the block lies inside one run.
#[derive(Debug, Clone)]
enum Content {
    One(Segment),
    Many(Box<[Segment]>),
}

impl Content {
    fn new(segments: &[Segment]) -> Self {
        match segments {
            [one] => Self::One(*one),
            many => Self::Many(many.into()),
        }
    }

    fn segments(&self) -> &[Segment] {
        match self {
            Self::One(one) => std::slice::from_ref(one),
            Self::Many(many) => many,
        }
    }
}

/// Walks a prompt's runs one block at a time, up to a token limit.
struct Chunks<'a> {
    runs: &'a [TokenRun],
    /// Offset into `runs[0]` of the next token.
    offset: usize,
    /// Tokens still to walk.
    left: usize,
}

impl<'a> Chunks<'a> {
    fn new(runs: &'a [TokenRun], limit: usize) -> Self {
        Self { runs, offset: 0, left: limit }
    }

    /// Replaces `out` with the segments of the next `block_size` tokens (fewer at the
    /// end) and returns how many tokens they hold.
    fn next_into(&mut self, block_size: usize, out: &mut Vec<Segment>) -> usize {
        out.clear();
        let mut taken = 0;
        while taken < block_size && self.left > 0 {
            let Some((run, rest)) = self.runs.split_first() else { break };
            let n = (run.len - self.offset).min(block_size - taken).min(self.left);
            if n == 0 {
                self.runs = rest;
                self.offset = 0;
                continue;
            }
            out.push(Segment { run: run.id, first: self.offset, len: n });
            self.offset += n;
            self.left -= n;
            taken += n;
        }
        taken
    }
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
    content: Content,
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
    fn child_with(&self, parent: Option<usize>, chunk: &[Segment]) -> Option<usize> {
        self.children_of(parent).iter().copied().find(|&c| self.node(c).content.segments() == chunk)
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
    fn prune_subsumed(&mut self, parent: Option<usize>, chunk: &[Segment]) -> Vec<usize> {
        let chunk_len = tokens_in(chunk);
        let subsumed: Vec<usize> = self
            .children_of(parent)
            .iter()
            .copied()
            .filter(|&c| {
                let n = self.node(c);
                let content = n.content.segments();
                let len = tokens_in(content);
                len < chunk_len && n.children.is_empty() && common_prefix(content, chunk) == len
            })
            .collect();
        subsumed.into_iter().map(|c| self.remove_node(c)).collect()
    }

    fn add_node(
        &mut self,
        parent: Option<usize>,
        content: Content,
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

    /// Longest cached prefix of the prompt `runs`: the chain of fully matching blocks plus
    /// at most one partially matching child (best common prefix; ties broken by smallest
    /// block). Touches every matched node for LRU purposes.
    pub fn lookup(&mut self, runs: &[TokenRun]) -> PrefixHit {
        let now = self.tick();
        let bs = self.block_size;
        let mut chunks = Chunks::new(runs, usize::MAX);
        let mut chunk = Vec::new();
        let mut parent: Option<usize> = None;
        let mut blocks = Vec::new();
        loop {
            let len = chunks.next_into(bs, &mut chunk);
            if len == 0 {
                return PrefixHit { blocks, partial: None };
            }
            if len == bs {
                if let Some(c) = self.child_with(parent, &chunk) {
                    self.touch(c, now);
                    blocks.push(self.node(c).block);
                    parent = Some(c);
                    continue;
                }
            }
            // No full-block step: find the best partially matching child.
            let mut best: Option<(usize, usize, usize)> = None; // (cpl, block, node)
            for &c in self.children_of(parent) {
                let cpl = common_prefix(self.node(c).content.segments(), &chunk);
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

    /// Registers the first `limit` tokens of the prompt `runs` (all of them if the prompt
    /// is shorter) for a prefilled sequence, backed block-by-block by `blocks` (the
    /// sequence's block table, block `i` caching tokens `i*block_size..(i+1)*block_size`).
    /// Existing nodes with identical content are reused (touched, not re-referenced);
    /// shorter partial nodes subsumed by new content are pruned.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` has fewer entries than the registered tokens need.
    pub fn insert(&mut self, runs: &[TokenRun], limit: usize, blocks: &[usize]) -> InsertOutcome {
        let bs = self.block_size;
        let total = runs.iter().map(|r| r.len).sum::<usize>().min(limit);
        assert!(
            blocks.len() * bs >= total,
            "insert needs one block per {bs} tokens: {total} tokens, {} blocks",
            blocks.len()
        );
        let now = self.tick();
        let mut chunks = Chunks::new(runs, limit);
        let mut chunk = Vec::new();
        let mut outcome = InsertOutcome::default();
        let mut parent: Option<usize> = None;
        for &block in blocks {
            let len = chunks.next_into(bs, &mut chunk);
            if len == 0 {
                break;
            }
            if len == bs {
                if let Some(c) = self.child_with(parent, &chunk) {
                    self.touch(c, now);
                    parent = Some(c);
                    continue;
                }
                // Prune partial siblings the new full block subsumes.
                outcome.released.extend(self.prune_subsumed(parent, &chunk));
                let id = self.add_node(parent, Content::new(&chunk), block, now);
                outcome.retained.push(block);
                parent = Some(id);
            } else {
                // Partial tail: only index it if no existing child already serves it.
                let covered = self
                    .children_of(parent)
                    .iter()
                    .any(|&c| common_prefix(self.node(c).content.segments(), &chunk) == len);
                if !covered {
                    outcome.released.extend(self.prune_subsumed(parent, &chunk));
                    self.add_node(parent, Content::new(&chunk), block, now);
                    outcome.retained.push(block);
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
    use proptest::prelude::*;

    fn run(id: u64, len: usize) -> TokenRun {
        TokenRun { id, len }
    }

    /// Every block's segments, walked as the index walks a prompt.
    fn segment_blocks(runs: &[TokenRun], limit: usize, bs: usize) -> Vec<Vec<Segment>> {
        let mut chunks = Chunks::new(runs, limit);
        let mut out = Vec::new();
        loop {
            let mut chunk = Vec::new();
            if chunks.next_into(bs, &mut chunk) == 0 {
                return out;
            }
            out.push(chunk);
        }
    }

    /// The same blocks, token by token.
    fn token_blocks(runs: &[TokenRun], limit: usize, bs: usize) -> Vec<Vec<Token>> {
        let tokens = expand(runs);
        tokens[..tokens.len().min(limit)].chunks(bs).map(<[Token]>::to_vec).collect()
    }

    fn token_common_prefix(a: &[Token], b: &[Token]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    #[test]
    fn expand_flattens_runs_in_order() {
        let t = expand(&[run(7, 2), run(9, 3)]);
        assert_eq!(t, vec![(7, 0), (7, 1), (9, 0), (9, 1), (9, 2)]);
        assert!(expand(&[]).is_empty());
    }

    #[test]
    fn blocks_split_into_one_segment_per_run() {
        let runs = [run(7, 6), run(3, 0), run(9, 5)];
        let seg = |run, first, len| Segment { run, first, len };
        assert_eq!(
            segment_blocks(&runs, usize::MAX, 4),
            vec![vec![seg(7, 0, 4)], vec![seg(7, 4, 2), seg(9, 0, 2)], vec![seg(9, 2, 3)]]
        );
        assert_eq!(
            segment_blocks(&runs, 7, 4),
            vec![vec![seg(7, 0, 4)], vec![seg(7, 4, 2), seg(9, 0, 1)]]
        );
        assert!(segment_blocks(&[run(1, 0)], usize::MAX, 4).is_empty());
    }

    #[test]
    fn a_repeated_run_restarts_and_never_merges() {
        // `5 5` spelled as two runs is (5,0) (5,1) (5,2) (5,0) (5,1) (5,2), not six
        // consecutive tokens of run 5.
        let twice = [run(5, 3), run(5, 3)];
        let once = [run(5, 6)];
        let a = segment_blocks(&twice, usize::MAX, 4);
        let b = segment_blocks(&once, usize::MAX, 4);
        assert_eq!(a[0].len(), 2, "the second run starts a segment of its own");
        assert_eq!(common_prefix(&a[0], &b[0]), 3);
        let mut idx = PrefixIndex::new(4);
        idx.insert(&once, usize::MAX, &[10, 11]);
        assert_eq!(idx.lookup(&twice), PrefixHit { blocks: vec![], partial: Some((10, 3)) });
    }

    proptest! {
        /// The segment walk agrees with a token-by-token comparison of every pair of
        /// blocks, across zero-length runs, ids repeated back to back, and limits that
        /// cut a run mid-block: same block lengths, equal segments exactly when the
        /// tokens are equal, and the same common-prefix length.
        #[test]
        fn prop_segment_common_prefix_matches_a_token_count(
            a in proptest::collection::vec((0u64..3, 0usize..7), 0..6),
            b in proptest::collection::vec((0u64..3, 0usize..7), 0..6),
            bs in 1usize..6,
            limit in 0usize..40,
        ) {
            let runs =
                |v: &[(u64, usize)]| v.iter().map(|&(id, len)| run(id, len)).collect::<Vec<_>>();
            let (a, b) = (runs(&a), runs(&b));
            let (sa, sb) = (segment_blocks(&a, limit, bs), segment_blocks(&b, usize::MAX, bs));
            let (ta, tb) = (token_blocks(&a, limit, bs), token_blocks(&b, usize::MAX, bs));
            prop_assert_eq!(sa.len(), ta.len());
            prop_assert_eq!(sb.len(), tb.len());
            for (s, t) in sa.iter().zip(&ta).chain(sb.iter().zip(&tb)) {
                prop_assert_eq!(tokens_in(s), t.len());
            }
            for (s, t) in sa.iter().zip(&ta) {
                for (u, v) in sb.iter().zip(&tb) {
                    prop_assert_eq!(common_prefix(s, u), token_common_prefix(t, v));
                    prop_assert_eq!(s == u, t == v);
                }
            }
        }
    }

    #[test]
    fn insert_then_lookup_full_chain() {
        let mut idx = PrefixIndex::new(2);
        let prompt = [run(1, 6)];
        let out = idx.insert(&prompt, usize::MAX, &[10, 11, 12]);
        assert_eq!(out.retained, vec![10, 11, 12]);
        assert!(out.released.is_empty());
        let hit = idx.lookup(&prompt);
        assert_eq!(hit.blocks, vec![10, 11, 12]);
        assert_eq!(hit.partial, None);
        assert_eq!(hit.tokens(2), 6);
        // A shorter prompt matches a shorter chain.
        let hit = idx.lookup(&[run(1, 4)]);
        assert_eq!(hit.blocks, vec![10, 11]);
        assert_eq!(hit.partial, None);
    }

    #[test]
    fn reinserting_identical_content_adds_no_nodes() {
        let mut idx = PrefixIndex::new(2);
        let prompt = [run(1, 4)];
        idx.insert(&prompt, usize::MAX, &[10, 11]);
        let out = idx.insert(&prompt, usize::MAX, &[20, 21]);
        assert!(out.retained.is_empty(), "identical chunks are deduplicated");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn diverging_suffixes_share_the_common_prefix() {
        let mut idx = PrefixIndex::new(2);
        let a = [run(1, 2), run(2, 2)];
        let b = [run(1, 2), run(3, 2)];
        idx.insert(&a, usize::MAX, &[10, 11]);
        let out = idx.insert(&b, usize::MAX, &[20, 21]);
        assert_eq!(out.retained, vec![21], "only the diverging block is new");
        let hit = idx.lookup(&b);
        assert_eq!(hit.blocks, vec![10, 21]);
    }

    #[test]
    fn partial_tail_hits_copy_on_write_candidates() {
        let mut idx = PrefixIndex::new(4);
        // 6 tokens: one full block + a 2-token tail.
        idx.insert(&[run(1, 6)], usize::MAX, &[10, 11]);
        // A prompt sharing 5 tokens: full block + 1 token of the tail block.
        let probe = [run(1, 5), run(99, 1), run(98, 1), run(97, 1)];
        let hit = idx.lookup(&probe);
        assert_eq!(hit.blocks, vec![10]);
        assert_eq!(hit.partial, Some((11, 1)));
        assert_eq!(hit.tokens(4), 5);
    }

    #[test]
    fn longer_tail_prunes_the_shorter_partial_node() {
        let mut idx = PrefixIndex::new(4);
        idx.insert(&[run(1, 6)], usize::MAX, &[10, 11]); // block 11 holds 2 tokens
        let long = [run(1, 8)]; // same run, now two full blocks
        let out = idx.insert(&long, usize::MAX, &[20, 21]);
        assert_eq!(out.released, vec![11], "subsumed partial is pruned");
        assert_eq!(out.retained, vec![21]);
        let hit = idx.lookup(&long);
        assert_eq!(hit.blocks, vec![10, 21]);
    }

    #[test]
    fn covered_partial_is_not_reindexed() {
        let mut idx = PrefixIndex::new(4);
        idx.insert(&[run(1, 8)], usize::MAX, &[10, 11]);
        let out = idx.insert(&[run(1, 6)], usize::MAX, &[20, 21]);
        assert!(out.retained.is_empty(), "existing full block covers the shorter tail");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn the_limit_caps_what_is_indexed() {
        let mut idx = PrefixIndex::new(4);
        // A sequence holding 6 of its 9 prompt tokens indexes a 2-token tail, cut
        // inside the second run.
        let prompt = [run(1, 5), run(2, 4)];
        let out = idx.insert(&prompt, 6, &[10, 11]);
        assert_eq!(out.retained, vec![10, 11]);
        let hit = idx.lookup(&prompt);
        assert_eq!(hit, PrefixHit { blocks: vec![10], partial: Some((11, 2)) });
    }

    #[test]
    fn evict_lru_prefers_oldest_leaf_and_respects_predicate() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&[run(1, 2)], usize::MAX, &[10]);
        idx.insert(&[run(2, 2)], usize::MAX, &[11]);
        idx.lookup(&[run(1, 2)]); // refresh block 10
        assert_eq!(idx.evict_lru(|_| true), Some(11), "LRU leaf goes first");
        assert_eq!(idx.evict_lru(|b| b != 10), None, "predicate can veto");
        assert_eq!(idx.evict_lru(|_| true), Some(10));
        assert!(idx.is_empty());
    }

    #[test]
    fn eviction_is_leaf_first() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&[run(1, 4)], usize::MAX, &[10, 11]);
        // The interior block 10 is never evicted while its child lives.
        assert_eq!(idx.evict_lru(|_| true), Some(11));
        assert_eq!(idx.evict_lru(|_| true), Some(10));
        assert_eq!(idx.evict_lru(|_| true), None);
    }

    #[test]
    fn blocks_lists_every_indexed_block() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&[run(1, 4)], usize::MAX, &[10, 11]);
        idx.insert(&[run(2, 2)], usize::MAX, &[12]);
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
        idx.insert(&[run(1, 4)], usize::MAX, &[10]);
    }
}
