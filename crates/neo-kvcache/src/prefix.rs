//! Radix (prefix) tree over KV blocks: shared-prompt reuse at block granularity.
//!
//! Heavy online traffic is dominated by requests that share a prompt prefix — a fleet-wide
//! system prompt, or the growing history of a multi-turn session. The [`PrefixIndex`]
//! records which run of prompt tokens each cached KV block holds, so a later request whose
//! prompt starts with the same tokens can *adopt* those blocks (bumping their reference
//! counts) instead of re-prefilling them. Partially matching tail blocks are reused
//! copy-on-write: the cached span is copied into a fresh private block so the shared block
//! is never written.
//!
//! Prompts are identified by [`TokenRun`]s — `(run id, length)` pairs — rather than raw
//! token ids: the simulator has no vocabulary, but two requests share a prefix exactly when
//! their leading runs are identical, which is how workload generators express "same system
//! prompt" or "same session history". Token `k` of a run with id `r` is the token
//! `(r, k)`; [`expand`] spells a prompt out token by token. The index never does: it holds
//! token content as the canonical segments `(run id, first offset, len)` the tokens fall
//! into, so a stretch inside one run is one segment, and every comparison walks segments
//! with the same meaning as comparing the tokens.
//!
//! In meaning the tree is block-granular: every cached block is a node whose parent is
//! the block before it in the prompt. Nearly all of those nodes have one child, so the
//! tree stores each unbranched chain as one *edge*: the chain's block ids, one LRU stamp
//! per block, and the chain's tokens as segments. Only an edge's last block may be
//! partial, and an edge whose last block is partial has no children. A lookup or an insert
//! compares one edge per shared run of blocks instead of one node per block; a chain that
//! grows appends to its edge, and an insert that diverges inside an edge splits it at the
//! block boundary, the old continuation staying the first child.
//!
//! The index itself owns no memory; it only names blocks. The [`crate::KvCacheManager`]
//! holds one allocator reference per indexed block, and eviction (LRU over leaves whose
//! block nobody else references) is driven by the manager when the GPU pool runs dry.
//! A leaf is the last block of a childless edge. The leaves are kept in LRU order as edges
//! grow, shrink, split, gain and lose children and are touched, so an eviction walks only
//! the oldest leaves instead of the whole tree.

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
/// Segment lists are canonical: one segment per maximal stretch of consecutive tokens of
/// one run, so every segment after a list's first starts a run at offset 0, two
/// neighbours never continue each other (not even two runs with the same id), and equal
/// token sequences have equal segment lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    run: u64,
    first: usize,
    len: usize,
}

/// Length of the longest common token prefix of two canonical segment sequences.
fn common_prefix(
    a: impl IntoIterator<Item = Segment>,
    b: impl IntoIterator<Item = Segment>,
) -> usize {
    let mut n = 0;
    for (x, y) in a.into_iter().zip(b) {
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

/// Appends the tokens `tokens` walks to a canonical segment list, merging the first new
/// segment into the last old one where it continues it (a cut inside a run).
fn extend_segments(segments: &mut Vec<Segment>, tokens: Cursor) {
    for segment in tokens {
        match segments.last_mut() {
            Some(last) if last.run == segment.run && last.first + last.len == segment.first => {
                last.len += segment.len
            }
            _ => segments.push(segment),
        }
    }
}

/// Removes the last `n` tokens from a canonical segment list.
fn truncate_segments(segments: &mut Vec<Segment>, mut n: usize) {
    while let Some(last) = segments.last_mut() {
        if last.len > n {
            last.len -= n;
            return;
        }
        n -= last.len;
        segments.pop();
    }
}

/// Splits the first `at` tokens off a canonical segment list and returns them; a segment
/// the cut falls inside is shared out between the two lists.
fn split_segments(segments: &mut Vec<Segment>, at: usize) -> Vec<Segment> {
    let mut seen = 0;
    let whole = segments
        .iter()
        .take_while(|s| {
            seen += s.len;
            seen <= at
        })
        .count();
    let mut head: Vec<Segment> = segments.drain(..whole).collect();
    let cut = at - tokens_in(&head);
    if let Some(first) = segments.first_mut().filter(|_| cut > 0) {
        head.push(Segment { len: cut, ..*first });
        first.first += cut;
        first.len -= cut;
    }
    head
}

/// Number of tokens the segments hold.
fn tokens_in(segments: &[Segment]) -> usize {
    segments.iter().map(|s| s.len).sum()
}

/// A position in a prompt's runs, with the tokens left before a limit. As an iterator
/// it yields the canonical segments of those tokens: the rest of the current run, then
/// one segment per non-empty run, the last one cut at the limit.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    /// The runs from the one holding the next token on.
    runs: &'a [TokenRun],
    /// Offset into `runs[0]` of the next token.
    offset: usize,
    /// Tokens left before the limit.
    left: usize,
}

impl<'a> Cursor<'a> {
    /// The first `limit` tokens of the prompt `runs` (all of them if it is shorter).
    fn new(runs: &'a [TokenRun], limit: usize) -> Self {
        let total = runs.iter().map(|r| r.len).sum::<usize>();
        Self { runs, offset: 0, left: total.min(limit) }
    }

    /// Moves past the next `n` tokens (at most the tokens left).
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.left, "advancing past the limit");
        self.left -= n;
        while let Some((run, rest)) = self.runs.split_first() {
            let here = run.len - self.offset;
            if n < here {
                self.offset += n;
                return;
            }
            n -= here;
            self.runs = rest;
            self.offset = 0;
            if n == 0 {
                return;
            }
        }
    }
}

impl Iterator for Cursor<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        while self.left > 0 {
            let (run, rest) = self.runs.split_first()?;
            let len = (run.len - self.offset).min(self.left);
            if len == 0 {
                self.runs = rest;
                self.offset = 0;
                continue;
            }
            let segment = Segment { run: run.id, first: self.offset, len };
            self.advance(len);
            return Some(segment);
        }
        None
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
/// (pruned partial blocks subsumed by longer content). The manager mirrors these into
/// allocator retains/releases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Blocks the index now holds a reference to, in prefix order.
    pub retained: Vec<usize>,
    /// Blocks the index no longer references (pruned), in sibling order.
    pub released: Vec<usize>,
}

/// One edge: an unbranched chain of blocks caching consecutive prompt tokens, every block
/// but the last holding a full block of them.
#[derive(Debug, Clone)]
struct Edge {
    parent: Option<usize>,
    /// Child edges, in the order their first blocks were indexed.
    children: Vec<usize>,
    /// The chain's blocks, in prefix order (never empty).
    blocks: Vec<usize>,
    /// `stamps[i]`: when `blocks[i]` was last touched.
    stamps: Vec<u64>,
    /// The chain's tokens, as a canonical segment list.
    segments: Vec<Segment>,
    /// Number of tokens in the chain.
    tokens: usize,
}

/// Radix tree mapping token prefixes to cached KV blocks, one edge per unbranched chain.
#[derive(Debug, Clone, Default)]
pub struct PrefixIndex {
    block_size: usize,
    edges: Vec<Option<Edge>>,
    free_slots: Vec<usize>,
    roots: Vec<usize>,
    clock: u64,
    /// The last block of every childless edge, keyed `(stamp, block, edge)`: LRU order
    /// with the eviction tie-breaks built in.
    leaves: BTreeSet<(u64, usize, usize)>,
    /// `held[b]`: whether block `b` is indexed (grown on demand).
    held: Vec<bool>,
    /// Number of indexed blocks.
    len: usize,
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

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every indexed block, edge by edge in slab order and each edge's blocks in prefix
    /// order (deterministic).
    pub fn blocks(&self) -> Vec<usize> {
        self.edges.iter().flatten().flat_map(|e| e.blocks.iter().copied()).collect()
    }

    /// Whether `block` is indexed.
    pub(crate) fn holds(&self, block: usize) -> bool {
        self.held.get(block).copied().unwrap_or(false)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn edge(&self, idx: usize) -> &Edge {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own links; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        self.edges[idx].as_ref().expect("live edge")
    }

    fn edge_mut(&mut self, idx: usize) -> &mut Edge {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own links; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        self.edges[idx].as_mut().expect("live edge")
    }

    fn children_of(&self, parent: Option<usize>) -> &[usize] {
        match parent {
            Some(p) => &self.edge(p).children,
            None => &self.roots,
        }
    }

    fn children_mut(&mut self, parent: Option<usize>) -> &mut Vec<usize> {
        match parent {
            Some(p) => &mut self.edge_mut(p).children,
            None => &mut self.roots,
        }
    }

    /// The leaf-set key of edge `idx`'s last block, if the edge is childless.
    fn leaf_key(&self, idx: usize) -> Option<(u64, usize, usize)> {
        let edge = self.edge(idx);
        match (edge.children.is_empty(), edge.stamps.last(), edge.blocks.last()) {
            (true, Some(&stamp), Some(&block)) => Some((stamp, block, idx)),
            _ => None,
        }
    }

    /// Stamps the first `n` blocks of edge `idx` as used at `now`, re-keying the edge's
    /// leaf if that reaches it.
    fn touch(&mut self, idx: usize, n: usize, now: u64) {
        let leaf = self.leaf_key(idx).filter(|_| n == self.edge(idx).blocks.len());
        self.edge_mut(idx).stamps[..n].fill(now);
        if let Some(key) = leaf {
            self.leaves.remove(&key);
            self.leaves.insert((now, key.1, idx));
        }
    }

    /// Stores `edge` in a free slot and returns its index.
    fn alloc(&mut self, edge: Edge) -> usize {
        match self.free_slots.pop() {
            Some(slot) => {
                self.edges[slot] = Some(edge);
                slot
            }
            None => {
                self.edges.push(Some(edge));
                self.edges.len() - 1
            }
        }
    }

    /// Marks `blocks` as indexed.
    fn hold(&mut self, blocks: &[usize]) {
        for &block in blocks {
            if self.held.len() <= block {
                self.held.resize(block + 1, false);
            }
            self.held[block] = true;
        }
        self.len += blocks.len();
    }

    /// Indexes `blocks`, caching the tokens `tokens` walks, as a new last child of
    /// `parent`.
    fn add_edge(&mut self, parent: Option<usize>, tokens: Cursor, blocks: &[usize], now: u64) {
        debug_assert!(parent.map_or(true, |p| !self.edge(p).children.is_empty()));
        let edge = Edge {
            parent,
            children: Vec::new(),
            blocks: blocks.to_vec(),
            stamps: vec![now; blocks.len()],
            tokens: tokens.left,
            segments: tokens.collect(),
        };
        let idx = self.alloc(edge);
        self.children_mut(parent).push(idx);
        self.leaves.extend(self.leaf_key(idx));
        self.hold(blocks);
    }

    /// Appends `blocks`, caching the tokens `tokens` walks, to the childless edge `idx`,
    /// whose last block is full.
    fn append(&mut self, idx: usize, tokens: Cursor, blocks: &[usize], now: u64) {
        if let Some(key) = self.leaf_key(idx) {
            self.leaves.remove(&key);
        }
        let bs = self.block_size;
        let edge = self.edge_mut(idx);
        debug_assert!(edge.children.is_empty() && edge.tokens == edge.blocks.len() * bs);
        edge.tokens += tokens.left;
        extend_segments(&mut edge.segments, tokens);
        edge.blocks.extend_from_slice(blocks);
        edge.stamps.resize(edge.blocks.len(), now);
        self.leaves.extend(self.leaf_key(idx));
        self.hold(blocks);
    }

    /// Splits edge `idx` after its first `n` blocks (`0 < n < len`). The first `n` blocks
    /// move to a new edge that takes `idx`'s place among its siblings and has `idx`, now
    /// holding the rest, as its only child; the new edge's index is returned.
    fn split(&mut self, idx: usize, n: usize) -> usize {
        let at = n * self.block_size;
        let edge = self.edge_mut(idx);
        let head = Edge {
            parent: edge.parent,
            children: vec![idx],
            blocks: edge.blocks.drain(..n).collect(),
            stamps: edge.stamps.drain(..n).collect(),
            segments: split_segments(&mut edge.segments, at),
            tokens: at,
        };
        edge.tokens -= at;
        let parent = head.parent;
        let head_idx = self.alloc(head);
        self.edge_mut(idx).parent = Some(head_idx);
        if let Some(slot) = self.children_mut(parent).iter_mut().find(|c| **c == idx) {
            *slot = head_idx;
        }
        head_idx
    }

    /// Removes the last block of the childless edge `idx` and returns it. An edge left
    /// empty is detached, and its parent's last block becomes a leaf if it was the only
    /// child.
    fn pop_tail(&mut self, idx: usize) -> usize {
        if let Some(key) = self.leaf_key(idx) {
            self.leaves.remove(&key);
        }
        let bs = self.block_size;
        let edge = self.edge_mut(idx);
        let tail = (edge.tokens - 1) % bs + 1;
        debug_assert!(edge.children.is_empty(), "only leaves are removed");
        // neo-lint: allow(panic-hygiene) -- a live edge holds at least one block; an empty one is a structural bug that must fail loudly, not corrupt the radix tree
        let block = edge.blocks.pop().expect("live edge holds a block");
        edge.stamps.pop();
        edge.tokens -= tail;
        truncate_segments(&mut edge.segments, tail);
        self.held[block] = false;
        self.len -= 1;
        if !self.edge(idx).blocks.is_empty() {
            self.leaves.extend(self.leaf_key(idx));
            return block;
        }
        let parent = self.edge(idx).parent;
        self.edges[idx] = None;
        self.free_slots.push(idx);
        let siblings = self.children_mut(parent);
        // `remove`, not `swap_remove`: siblings stay in the order they were indexed,
        // which is the order pruned blocks are released in.
        if let Some(pos) = siblings.iter().position(|&c| c == idx) {
            siblings.remove(pos);
        }
        if let Some(p) = parent {
            self.leaves.extend(self.leaf_key(p));
        }
        block
    }

    /// Longest cached prefix of the prompt `runs`: the chain of fully matching blocks plus
    /// at most one partially matching block after it (best common prefix; ties broken by
    /// smallest block). Touches every matched block for LRU purposes.
    pub fn lookup(&mut self, runs: &[TokenRun]) -> PrefixHit {
        let now = self.tick();
        let bs = self.block_size;
        let mut cursor = Cursor::new(runs, usize::MAX);
        let mut blocks = Vec::new();
        let mut at: Option<usize> = None;
        loop {
            // The child sharing the most tokens with the prompt within its first block
            // (only one child can share the whole of it; ties go to the smallest block),
            // with the tokens it shares in all.
            let mut best: Option<(usize, usize, usize, usize)> = None;
            for &c in self.children_of(at) {
                let edge = self.edge(c);
                let shared = common_prefix(edge.segments.iter().copied(), cursor);
                let (first, block) = (shared.min(bs), edge.blocks[0]);
                if first >= 1
                    && best.map_or(true, |(f, b, ..)| first > f || (first == f && block < b))
                {
                    best = Some((first, block, c, shared));
                    if first == bs {
                        break;
                    }
                }
            }
            let Some((first, block, c, shared)) = best else {
                return PrefixHit { blocks, partial: None };
            };
            if first < bs {
                self.touch(c, 1, now);
                return PrefixHit { blocks, partial: Some((block, first)) };
            }
            let full = shared / bs;
            let edge = self.edge(c);
            blocks.extend_from_slice(&edge.blocks[..full]);
            if full == edge.blocks.len() {
                self.touch(c, full, now);
                cursor.advance(full * bs);
                at = Some(c);
                continue;
            }
            let rest = shared - full * bs;
            let partial = (rest > 0).then(|| (edge.blocks[full], rest));
            self.touch(c, full + usize::from(rest > 0), now);
            return PrefixHit { blocks, partial };
        }
    }

    /// Registers the first `limit` tokens of the prompt `runs` (all of them if the prompt
    /// is shorter) for a prefilled sequence, backed block-by-block by `blocks` (the
    /// sequence's block table, block `i` caching tokens `i*block_size..(i+1)*block_size`).
    /// Blocks whose content is already indexed are reused (touched, not re-referenced);
    /// shorter partial blocks subsumed by new content are pruned.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` has fewer entries than the registered tokens need.
    pub fn insert(&mut self, runs: &[TokenRun], limit: usize, blocks: &[usize]) -> InsertOutcome {
        let bs = self.block_size;
        let mut cursor = Cursor::new(runs, limit);
        let total = cursor.left;
        assert!(
            blocks.len() * bs >= total,
            "insert needs one block per {bs} tokens: {total} tokens, {} blocks",
            blocks.len()
        );
        let now = self.tick();
        let mut outcome = InsertOutcome::default();
        let mut at: Option<usize> = None;
        // Blocks of the prompt already indexed.
        let mut done = 0;
        loop {
            if cursor.left == 0 {
                return outcome;
            }
            // The child whose first block holds the next full block of the prompt.
            let step = self.children_of(at).iter().find_map(|&c| {
                let shared = common_prefix(self.edge(c).segments.iter().copied(), cursor);
                (shared >= bs).then_some((c, shared))
            });
            let Some((c, shared)) = step else { break };
            let full = shared / bs;
            self.touch(c, full, now);
            cursor.advance(full * bs);
            done += full;
            if full == self.edge(c).blocks.len() {
                at = Some(c);
                continue;
            }
            // Diverged inside edge `c`, at its block `full`.
            if cursor.left == 0 {
                return outcome;
            }
            let next = (self.edge(c).tokens - full * bs).min(bs);
            let chunk = cursor.left.min(bs);
            let rest = shared - full * bs;
            if rest == chunk {
                return outcome; // block `full` already serves the partial tail
            }
            let new = &blocks[done..done + cursor.left.div_ceil(bs)];
            outcome.retained.extend_from_slice(new);
            if next < chunk && rest == next {
                // Block `full` is a partial tail the new content subsumes.
                outcome.released.push(self.pop_tail(c));
                self.append(c, cursor, new, now);
            } else {
                let head = self.split(c, full);
                self.add_edge(Some(head), cursor, new, now);
            }
            return outcome;
        }
        // Diverged at the end of `at`: no child holds the next full block. A partial tail
        // is indexed only if no child already serves it; children whose only block is a
        // partial one the new content subsumes are pruned.
        let chunk = cursor.left.min(bs);
        let mut subsumed = Vec::new();
        for &c in self.children_of(at) {
            let edge = self.edge(c);
            let shared = common_prefix(edge.segments.iter().copied(), cursor).min(bs);
            if shared == chunk {
                return outcome;
            }
            if edge.tokens < chunk && shared == edge.tokens {
                subsumed.push(c);
            }
        }
        for c in subsumed {
            outcome.released.push(self.pop_tail(c));
        }
        let new = &blocks[done..done + cursor.left.div_ceil(bs)];
        outcome.retained.extend_from_slice(new);
        match at {
            Some(p) if self.edge(p).children.is_empty() => self.append(p, cursor, new, now),
            _ => self.add_edge(at, cursor, new, now),
        }
        outcome
    }

    /// Evicts the least-recently-touched *leaf* whose block satisfies `evictable`
    /// (ties broken by smallest block) and returns its block, or `None` when no leaf
    /// qualifies. A block becomes a leaf once every block after it is gone, so repeated
    /// calls free whole unreferenced subtrees bottom-up. The walk visits leaves oldest
    /// first and stops at the first one `evictable` accepts.
    pub fn evict_lru(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        let &(_, _, idx) = self.leaves.iter().find(|&&(_, block, _)| evictable(block))?;
        Some(self.pop_tail(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn run(id: u64, len: usize) -> TokenRun {
        TokenRun { id, len }
    }

    /// Every block's segments, cut from the prompt as the index cuts it.
    fn segment_blocks(runs: &[TokenRun], limit: usize, bs: usize) -> Vec<Vec<Segment>> {
        let mut cursor = Cursor::new(runs, limit);
        let mut out = Vec::new();
        while cursor.left > 0 {
            let n = cursor.left.min(bs);
            out.push(Cursor { left: n, ..cursor }.collect());
            cursor.advance(n);
        }
        out
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
        assert_eq!(common_prefix(a[0].iter().copied(), b[0].iter().copied()), 3);
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
                    prop_assert_eq!(
                        common_prefix(s.iter().copied(), u.iter().copied()),
                        token_common_prefix(t, v)
                    );
                    prop_assert_eq!(s == u, t == v);
                }
            }
        }
    }

    /// Checks the edge layout: links both ways, non-empty canonical segment lists that
    /// hold `tokens` tokens in one block per `block_size`, childless partial tails,
    /// stamps that never increase from the root down, the leaf set, `held` and `len`.
    fn check_edges(idx: &PrefixIndex) {
        let bs = idx.block_size;
        let mut leaves = BTreeSet::new();
        let mut blocks = 0;
        for (i, edge) in idx.edges.iter().enumerate() {
            let Some(edge) = edge else {
                assert!(idx.free_slots.contains(&i), "a dead slot is free");
                continue;
            };
            assert_eq!(edge.blocks.len(), edge.tokens.div_ceil(bs), "one block per {bs} tokens");
            assert_eq!(edge.stamps.len(), edge.blocks.len());
            assert_eq!(tokens_in(&edge.segments), edge.tokens);
            assert!(edge.segments.iter().all(|s| s.len > 0), "no empty segment");
            assert!(edge.segments.iter().skip(1).all(|s| s.first == 0), "segments are maximal");
            assert!(edge.tokens % bs == 0 || edge.children.is_empty(), "a partial tail is a leaf");
            assert!(idx.children_of(edge.parent).contains(&i), "the parent lists its child");
            assert!(edge.children.iter().all(|&c| idx.edge(c).parent == Some(i)));
            assert!(edge.blocks.iter().all(|&b| idx.holds(b)));
            // A touch stamps a prefix of a path at one instant, and new blocks take the
            // instant that touched the path above them.
            let above = edge.parent.and_then(|p| idx.edge(p).stamps.last().copied());
            let path: Vec<u64> = above.into_iter().chain(edge.stamps.iter().copied()).collect();
            assert!(path.windows(2).all(|w| w[0] >= w[1]), "stamps never increase down a path");
            leaves.extend(idx.leaf_key(i));
            blocks += edge.blocks.len();
        }
        assert!(idx.roots.iter().all(|&r| idx.edge(r).parent.is_none()));
        assert_eq!(leaves, idx.leaves, "the leaf set is the childless edges' last blocks");
        assert_eq!(blocks, idx.len());
        assert_eq!(idx.held.iter().filter(|&&h| h).count(), idx.len());
    }

    proptest! {
        /// Building a segment list block by block, splitting it at a block boundary and
        /// truncating it give the canonical lists of the same tokens cut from the prompt.
        #[test]
        fn prop_segment_edits_stay_canonical(
            runs in proptest::collection::vec((0u64..3, 0usize..9), 0..6),
            bs in 1usize..6,
            limit in 0usize..50,
            at in 0usize..12,
            drop in 0usize..20,
        ) {
            let runs: Vec<TokenRun> = runs.iter().map(|&(id, len)| run(id, len)).collect();
            let whole = Cursor::new(&runs, limit);
            let total = whole.left;
            let canonical = |n: usize| Cursor::new(&runs, n).collect::<Vec<_>>();
            let mut segments = Vec::new();
            let mut cursor = whole;
            while cursor.left > 0 {
                let n = cursor.left.min(bs);
                extend_segments(&mut segments, Cursor { left: n, ..cursor });
                cursor.advance(n);
            }
            prop_assert_eq!(&segments, &canonical(total));
            let at = (at * bs).min(total);
            let head = split_segments(&mut segments, at);
            prop_assert_eq!(&head, &canonical(at));
            let mut rest = whole;
            rest.advance(at);
            prop_assert_eq!(segments, rest.collect::<Vec<_>>());
            let mut head = head;
            let drop = drop.min(at);
            truncate_segments(&mut head, drop);
            prop_assert_eq!(head, canonical(at - drop));
        }

        /// Random inserts, lookups and evictions keep the edge layout's invariants at
        /// every step, and draining the index frees every edge.
        #[test]
        fn prop_edges_keep_their_invariants(
            ops in proptest::collection::vec(
                ((0usize..5, 0u64..3), (0usize..30, 0usize..6, 0usize..4)),
                1..50,
            ),
            bs in 1usize..6,
        ) {
            let mut idx = PrefixIndex::new(bs);
            let mut next = 0;
            for ((sel, id), (len, tail, cut)) in ops {
                let runs = [run(id, len), run((id + cut as u64) % 3, tail)];
                match sel {
                    0 | 1 => {
                        let limit = (len + tail).saturating_sub(cut);
                        let blocks: Vec<usize> = (next..next + limit.div_ceil(bs)).collect();
                        next += blocks.len();
                        idx.insert(&runs, limit, &blocks);
                    }
                    2 | 3 => {
                        idx.lookup(&runs);
                    }
                    _ => {
                        idx.evict_lru(|b| b % 4 != cut);
                    }
                }
                check_edges(&idx);
            }
            while idx.evict_lru(|_| true).is_some() {
                check_edges(&idx);
            }
            prop_assert!(idx.is_empty() && idx.edges.iter().all(Option::is_none));
        }
    }

    #[test]
    fn a_chain_is_one_edge_and_grows_in_place() {
        let mut idx = PrefixIndex::new(4);
        idx.insert(&[run(1, 8)], usize::MAX, &[10, 11]);
        let out = idx.insert(&[run(1, 14)], usize::MAX, &[20, 21, 22, 23]);
        assert_eq!(out.retained, vec![22, 23]);
        assert_eq!(idx.roots.len(), 1);
        assert_eq!(idx.edge(idx.roots[0]).blocks, vec![10, 11, 22, 23]);
        assert_eq!(idx.edge(idx.roots[0]).segments, vec![Segment { run: 1, first: 0, len: 14 }]);
        // A longer tail replaces the partial one in place.
        let out = idx.insert(&[run(1, 16)], usize::MAX, &[30, 31, 32, 33]);
        assert_eq!((out.retained, out.released), (vec![33], vec![23]));
        assert_eq!(idx.edge(idx.roots[0]).blocks, vec![10, 11, 22, 33]);
        assert_eq!(idx.edges.iter().flatten().count(), 1);
        check_edges(&idx);
    }

    #[test]
    fn a_divergence_inside_an_edge_splits_it_in_sibling_order() {
        let mut idx = PrefixIndex::new(4);
        idx.insert(&[run(1, 12)], usize::MAX, &[10, 11, 12]);
        let out = idx.insert(&[run(1, 6), run(2, 6)], usize::MAX, &[20, 21, 22]);
        assert_eq!(out.retained, vec![21, 22]);
        let head = idx.edge(idx.roots[0]);
        assert_eq!(head.blocks, vec![10]);
        let children: Vec<&[usize]> =
            head.children.iter().map(|&c| idx.edge(c).blocks.as_slice()).collect();
        assert_eq!(children, vec![&[11, 12][..], &[21, 22][..]], "old continuation first");
        check_edges(&idx);
        assert_eq!(idx.lookup(&[run(1, 12)]).blocks, vec![10, 11, 12]);
        assert_eq!(idx.lookup(&[run(1, 6), run(2, 6)]).blocks, vec![10, 21, 22]);
        assert_eq!(
            idx.lookup(&[run(1, 9)]),
            PrefixHit { blocks: vec![10, 11], partial: Some((12, 1)) }
        );
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
