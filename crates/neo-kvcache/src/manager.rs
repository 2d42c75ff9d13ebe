//! Multi-tier (GPU-cache + CPU-cache + disk) sequence-level manager.
//!
//! This is the accounting heart of NEO's partial offloading: every prefilled sequence owns
//! a block table on exactly one device, the scheduler asks "can I fit these new tokens on
//! the GPU?" / "how many tokens must I swap out?", and swaps move a whole sequence between
//! pools while reporting the bytes that crossed PCIe (so the cost model can charge for it).
//!
//! Two optional features extend the two-tier core:
//!
//! * a **shared-prefix cache** ([`crate::prefix::PrefixIndex`]): prompt blocks of
//!   prefilled GPU sequences are indexed by token identity, later requests *adopt* the
//!   cached prefix (refcount bump, copy-on-write for partial tail blocks) and skip
//!   re-prefilling it. Index-only blocks (refcount 1) are *evictable*: they are counted
//!   as free capacity and reclaimed LRU-first the moment a real allocation needs room,
//!   so with zero sharing the cache is accounting-invisible.
//! * a **disk tier** ([`Device::Disk`]): a third pool sequences can be demoted to when
//!   the CPU cache fills; parked sequences cannot decode until promoted back.

use crate::blocktable::BlockTable;
use crate::error::KvCacheError;
use crate::idtable::IdTable;
use crate::pool::{Device, KvPool};
use crate::prefix::{PrefixIndex, Token};

/// Configuration of the two KV pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvCacheConfig {
    /// Tokens per block.
    pub block_size: usize,
    /// GPU pool capacity in tokens.
    pub gpu_capacity_tokens: usize,
    /// CPU pool capacity in tokens.
    pub cpu_capacity_tokens: usize,
    /// Bytes of KV cache one token occupies across all layers (for swap byte accounting).
    pub kv_bytes_per_token: usize,
}

/// Statistics of one swap operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapStats {
    /// Sequence that was moved.
    pub seq_id: u64,
    /// Tokens whose KV entries were moved.
    pub tokens: usize,
    /// Bytes moved across PCIe (all layers).
    pub bytes: u64,
    /// Direction of the move.
    pub to: Device,
}

/// Occupancy of the GPU KV pool as seen by one tensor-parallel rank.
///
/// Every token's KV entries are sharded `1/tp` per rank, so each rank caches the same
/// *token count* as the group but only its shard of the *bytes*. This view is what
/// capacity dashboards and TP-aware policies consume instead of group-level token
/// totals: the pool is full exactly when the tightest rank's shard budget is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankOccupancy {
    /// Rank index within the tensor-parallel group (`0..tp`).
    pub rank: usize,
    /// Tokens whose KV shard this rank currently caches (block-granular, like
    /// [`KvPool::used_tokens`]).
    pub used_tokens: usize,
    /// Tokens this rank can still accept.
    pub free_tokens: usize,
    /// Bytes of KV shard currently resident on this rank.
    pub used_bytes: u64,
    /// Total bytes of KV shard this rank can hold.
    pub capacity_bytes: u64,
}

/// What a prefix adoption reused: tokens served from cache and copy-on-write splits
/// performed (at most one — the partially matching tail block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixAdoption {
    /// Prompt tokens covered by cached KV (the sequence skips prefilling them).
    pub cached_tokens: usize,
    /// Copy-on-write block splits performed for a partially matching tail block.
    pub cow_splits: usize,
}

/// Per-sequence record kept by the manager.
#[derive(Debug, Clone)]
struct SeqEntry {
    device: Device,
    table: BlockTable,
}

/// The GPU + CPU (+ optional disk) paged KV cache manager.
#[derive(Debug, Clone)]
pub struct KvCacheManager {
    config: KvCacheConfig,
    gpu: KvPool,
    cpu: KvPool,
    disk: KvPool,
    prefix: Option<PrefixIndex>,
    /// GPU blocks held only by the prefix index: indexed, refcount 1. Kept in step on
    /// every transition that changes it, so free-space queries never scan the index.
    evictable_blocks: usize,
    prefix_hit_tokens: usize,
    cow_splits: usize,
    seqs: IdTable<SeqEntry>,
}

impl KvCacheManager {
    /// Creates a manager with the given pool configuration (no prefix cache, no disk
    /// tier — the historical two-tier behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero (propagated from [`KvPool::new`]).
    pub fn new(config: KvCacheConfig) -> Self {
        Self::with_features(config, false, 0)
    }

    /// Creates a manager with the optional shared-prefix cache and a disk tier of
    /// `disk_capacity_tokens` (0 disables the tier).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero (propagated from [`KvPool::new`]).
    pub fn with_features(
        config: KvCacheConfig,
        prefix_cache: bool,
        disk_capacity_tokens: usize,
    ) -> Self {
        Self {
            gpu: KvPool::new(Device::Gpu, config.gpu_capacity_tokens, config.block_size),
            cpu: KvPool::new(Device::Cpu, config.cpu_capacity_tokens, config.block_size),
            disk: KvPool::new(Device::Disk, disk_capacity_tokens, config.block_size),
            prefix: if prefix_cache { Some(PrefixIndex::new(config.block_size)) } else { None },
            evictable_blocks: 0,
            prefix_hit_tokens: 0,
            cow_splits: 0,
            config,
            seqs: IdTable::new(),
        }
    }

    /// The configuration this manager was created with.
    pub fn config(&self) -> &KvCacheConfig {
        &self.config
    }

    /// The pool for `device`.
    pub fn pool(&self, device: Device) -> &KvPool {
        match device {
            Device::Gpu => &self.gpu,
            Device::Cpu => &self.cpu,
            Device::Disk => &self.disk,
        }
    }

    fn pool_mut(&mut self, device: Device) -> &mut KvPool {
        match device {
            Device::Gpu => &mut self.gpu,
            Device::Cpu => &mut self.cpu,
            Device::Disk => &mut self.disk,
        }
    }

    /// Cumulative prompt tokens served from the prefix cache.
    pub fn prefix_hit_tokens(&self) -> usize {
        self.prefix_hit_tokens
    }

    /// Cumulative copy-on-write block splits performed for partial prefix hits.
    pub fn cow_splits(&self) -> usize {
        self.cow_splits
    }

    /// Blocks currently held by the prefix index (empty when the cache is disabled).
    pub fn prefix_blocks(&self) -> Vec<usize> {
        self.prefix.as_ref().map(|p| p.blocks()).unwrap_or_default()
    }

    /// Number of sequences currently tracked.
    pub fn num_sequences(&self) -> usize {
        self.seqs.len()
    }

    /// Device a sequence currently resides on.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::UnknownSequence`] if the sequence is not tracked.
    pub fn device_of(&self, seq_id: u64) -> Result<Device, KvCacheError> {
        self.seqs.get(seq_id).map(|e| e.device).ok_or(KvCacheError::UnknownSequence(seq_id))
    }

    /// Number of cached tokens of a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::UnknownSequence`] if the sequence is not tracked.
    pub fn num_tokens_of(&self, seq_id: u64) -> Result<usize, KvCacheError> {
        self.seqs
            .get(seq_id)
            .map(|e| e.table.num_tokens())
            .ok_or(KvCacheError::UnknownSequence(seq_id))
    }

    /// The block table of a sequence (for the functional kernels).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::UnknownSequence`] if the sequence is not tracked.
    pub fn block_table(&self, seq_id: u64) -> Result<&BlockTable, KvCacheError> {
        self.seqs.get(seq_id).map(|e| &e.table).ok_or(KvCacheError::UnknownSequence(seq_id))
    }

    /// Tokens' worth of GPU blocks held only by the prefix index (refcount 1): they are
    /// reclaimable on demand, so they count as free capacity everywhere the scheduler
    /// looks.
    pub fn evictable_tokens(&self) -> usize {
        self.evictable_blocks * self.config.block_size
    }

    /// Tokens' worth of GPU blocks that live sequences hold: the pool's used blocks
    /// minus the evictable ones only the prefix index holds (block-granular, like
    /// [`KvPool::used_tokens`]).
    pub fn gpu_used_tokens(&self) -> usize {
        self.pool(Device::Gpu).used_tokens() - self.evictable_tokens()
    }

    /// Releases a sequence's reference to each of its blocks on `device`. A GPU block
    /// the index also holds becomes evictable when only the index's reference is left.
    fn release_seq_blocks(&mut self, device: Device, blocks: &[usize]) -> Result<(), KvCacheError> {
        self.pool_mut(device).release_blocks(blocks)?;
        if let (Device::Gpu, Some(prefix)) = (device, &self.prefix) {
            let gpu = &self.gpu;
            self.evictable_blocks +=
                blocks.iter().filter(|&&b| prefix.holds(b) && gpu.ref_count(b) == Ok(1)).count();
        }
        Ok(())
    }

    /// Evicts index-only blocks (LRU leaves first) until at least `n_blocks` GPU blocks
    /// are free or nothing evictable remains.
    fn ensure_gpu_free(&mut self, n_blocks: usize) {
        let bs = self.config.block_size;
        loop {
            if self.gpu.free_tokens() / bs >= n_blocks {
                return;
            }
            let evicted = {
                let gpu = &self.gpu;
                match self.prefix.as_mut() {
                    Some(prefix) => prefix.evict_lru(|b| matches!(gpu.ref_count(b), Ok(1))),
                    None => None,
                }
            };
            match evicted {
                // The eviction callback admits only ref_count == 1 blocks, so the
                // release cannot fail; an error here means the index and the pool
                // disagree and stopping eviction (returning) is the safe response.
                Some(block) => {
                    self.evictable_blocks -= 1;
                    if self.gpu.release_blocks(&[block]).is_err() {
                        return;
                    }
                }
                None => return,
            }
        }
    }

    /// Free token capacity of a device's pool. For the GPU this includes blocks held
    /// only by the prefix index — they are evicted transparently when space is needed.
    pub fn free_tokens(&self, device: Device) -> usize {
        let base = self.pool(device).free_tokens();
        if device == Device::Gpu {
            base + self.evictable_tokens()
        } else {
            base
        }
    }

    /// Whether `n_tokens` new tokens can be placed on `device` right now (counting
    /// evictable prefix-index blocks as free on the GPU).
    pub fn can_allocate(&self, device: Device, n_tokens: usize) -> bool {
        let needed = self.pool(device).blocks_for(n_tokens);
        let free_blocks = self.free_tokens(device) / self.config.block_size;
        needed <= free_blocks
    }

    /// Allocates a new sequence of `n_tokens` tokens (its prefill KV) on `device`.
    ///
    /// # Errors
    ///
    /// * [`KvCacheError::DuplicateSequence`] if the id is already tracked.
    /// * [`KvCacheError::IdOutOfWindow`] if the id lies too far from the tracked ones.
    /// * [`KvCacheError::OutOfMemory`] if the pool cannot hold the tokens.
    pub fn allocate_sequence(
        &mut self,
        seq_id: u64,
        n_tokens: usize,
        device: Device,
    ) -> Result<(), KvCacheError> {
        self.check_new_id(seq_id)?;
        let block_size = self.config.block_size;
        if device == Device::Gpu {
            self.ensure_gpu_free(n_tokens.div_ceil(block_size));
        }
        let blocks = self.pool_mut(device).allocate_tokens(n_tokens)?;
        let mut table = BlockTable::new(block_size);
        table.append(n_tokens, blocks)?;
        self.seqs.insert(seq_id, SeqEntry { device, table })?;
        Ok(())
    }

    /// Refuses a sequence-creating call for an id that is tracked already or would not
    /// fit the sequence table's id window, before anything changes.
    fn check_new_id(&self, seq_id: u64) -> Result<(), KvCacheError> {
        if self.seqs.contains(seq_id) {
            return Err(KvCacheError::DuplicateSequence(seq_id));
        }
        Ok(self.seqs.fits(seq_id)?)
    }

    /// Appends `n_tokens` decode tokens to an existing sequence on its current device.
    ///
    /// # Errors
    ///
    /// * [`KvCacheError::UnknownSequence`] if the id is not tracked.
    /// * [`KvCacheError::OutOfMemory`] if the device pool is full (sequence unchanged).
    pub fn append_tokens(&mut self, seq_id: u64, n_tokens: usize) -> Result<(), KvCacheError> {
        let entry = self.seqs.get(seq_id).ok_or(KvCacheError::UnknownSequence(seq_id))?;
        let device = entry.device;
        let needed = entry.table.blocks_needed_for_append(n_tokens);
        if device == Device::Gpu {
            self.ensure_gpu_free(needed);
        }
        let blocks = self.pool_mut(device).allocate_blocks(needed)?;
        let entry = self.seqs.get_mut(seq_id).ok_or(KvCacheError::UnknownSequence(seq_id))?;
        entry.table.append(n_tokens, blocks)?;
        Ok(())
    }

    /// Releases a sequence and returns how many tokens' worth of cache it freed.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::UnknownSequence`] if the id is not tracked.
    pub fn free_sequence(&mut self, seq_id: u64) -> Result<usize, KvCacheError> {
        let mut entry = self.seqs.remove(seq_id).ok_or(KvCacheError::UnknownSequence(seq_id))?;
        let tokens = entry.table.num_tokens();
        let blocks = entry.table.take_blocks();
        self.release_seq_blocks(entry.device, &blocks)?;
        Ok(tokens)
    }

    /// Moves a sequence's whole KV cache to the other device, returning the transfer stats.
    ///
    /// # Errors
    ///
    /// * [`KvCacheError::UnknownSequence`] if the id is not tracked.
    /// * [`KvCacheError::AlreadyOnDevice`] if it already lives on `to`.
    /// * [`KvCacheError::OutOfMemory`] if the destination pool cannot hold it (the
    ///   sequence stays untouched on its current device).
    pub fn swap(&mut self, seq_id: u64, to: Device) -> Result<SwapStats, KvCacheError> {
        let entry = self.seqs.get(seq_id).ok_or(KvCacheError::UnknownSequence(seq_id))?;
        if entry.device == to {
            return Err(KvCacheError::AlreadyOnDevice { seq_id, device: to });
        }
        let tokens = entry.table.num_tokens();
        // Reserve space on the destination first so failure leaves the source intact.
        if to == Device::Gpu {
            self.ensure_gpu_free(tokens.div_ceil(self.config.block_size));
        }
        let new_blocks = self.pool_mut(to).allocate_tokens(tokens)?;
        let entry = self.seqs.get_mut(seq_id).ok_or(KvCacheError::UnknownSequence(seq_id))?;
        let from = entry.device;
        let old_blocks = entry.table.take_blocks();
        entry.table.append(tokens, new_blocks)?;
        entry.device = to;
        self.release_seq_blocks(from, &old_blocks)?;
        Ok(SwapStats {
            seq_id,
            tokens,
            bytes: tokens as u64 * self.config.kv_bytes_per_token as u64,
            to,
        })
    }

    /// Tries to serve the head of a new sequence's prompt from the prefix cache.
    ///
    /// `tokens` is the prompt's token identity (see [`crate::prefix::expand`]) and
    /// `max_tokens` caps how much may be adopted (callers pass `prompt_len - 1` so at
    /// least one token is always prefilled and the first output token is produced
    /// normally). On a hit the sequence is created on the GPU holding the shared blocks
    /// (refcounts bumped); a partially matching tail block is reused copy-on-write into
    /// one fresh private block. With `cached_tokens == 0` no sequence is created — the
    /// caller proceeds exactly as without a cache.
    ///
    /// # Errors
    ///
    /// * [`KvCacheError::DuplicateSequence`] if the id is already tracked.
    /// * [`KvCacheError::IdOutOfWindow`] if the id lies too far from the tracked ones.
    pub fn adopt_prefix(
        &mut self,
        seq_id: u64,
        tokens: &[Token],
        max_tokens: usize,
    ) -> Result<PrefixAdoption, KvCacheError> {
        self.check_new_id(seq_id)?;
        let bs = self.config.block_size;
        let hit = match self.prefix.as_mut() {
            Some(prefix) => prefix.lookup(tokens),
            None => return Ok(PrefixAdoption::default()),
        };
        let full_take = hit.blocks.len().min(max_tokens / bs);
        let leftover = max_tokens - full_take * bs;
        let mut partial_len = if leftover == 0 {
            0
        } else if full_take < hit.blocks.len() {
            // The cap cut into the full chain: reuse the next full block partially.
            leftover.min(bs)
        } else {
            hit.partial.map(|(_, len)| len.min(leftover)).unwrap_or(0)
        };
        let mut cow_blocks = Vec::new();
        if partial_len > 0 {
            self.ensure_gpu_free(1);
            match self.gpu.allocate_blocks(1) {
                Ok(b) => cow_blocks = b,
                Err(_) => partial_len = 0, // no room for the COW copy: drop the tail hit
            }
        }
        let cached = full_take * bs + partial_len;
        if cached == 0 {
            return Ok(PrefixAdoption::default());
        }
        let shared = hit.blocks[..full_take].to_vec();
        for &b in &shared {
            if self.gpu.ref_count(b)? == 1 {
                self.evictable_blocks -= 1;
            }
            self.gpu.retain(b)?;
        }
        let mut table = BlockTable::new(bs);
        table.append(full_take * bs, shared)?;
        if partial_len > 0 {
            table.append(partial_len, cow_blocks)?;
        }
        self.seqs.insert(seq_id, SeqEntry { device: Device::Gpu, table })?;
        let splits = usize::from(partial_len > 0);
        self.prefix_hit_tokens += cached;
        self.cow_splits += splits;
        Ok(PrefixAdoption { cached_tokens: cached, cow_splits: splits })
    }

    /// Registers a prefilled GPU sequence's prompt blocks in the prefix cache so later
    /// requests can adopt them. `tokens` is the *prompt* token identity; only the first
    /// `min(tokens.len(), cached len)` tokens are indexed. No-op when the cache is
    /// disabled or the sequence lives off-GPU. Safe to call repeatedly: identical
    /// content is deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::UnknownSequence`] if the id is not tracked.
    pub fn insert_prefix(&mut self, seq_id: u64, tokens: &[Token]) -> Result<(), KvCacheError> {
        let entry = self.seqs.get(seq_id).ok_or(KvCacheError::UnknownSequence(seq_id))?;
        if entry.device != Device::Gpu {
            return Ok(());
        }
        let n = tokens.len().min(entry.table.num_tokens());
        let blocks: Vec<usize> = entry.table.blocks().to_vec();
        let Some(prefix) = self.prefix.as_mut() else { return Ok(()) };
        let outcome = prefix.insert(&tokens[..n], &blocks);
        // Newly indexed blocks are also the sequence's, so none becomes evictable; a
        // pruned block stops being evictable if only the index held it.
        for &b in &outcome.retained {
            self.gpu.retain(b)?;
        }
        for &b in &outcome.released {
            if self.gpu.ref_count(b)? == 1 {
                self.evictable_blocks -= 1;
            }
            self.gpu.release_blocks(&[b])?;
        }
        Ok(())
    }

    /// Ids of all sequences currently resident on `device`, in ascending order.
    pub fn sequences_on(&self, device: Device) -> Vec<u64> {
        self.seqs.iter().filter(|(_, e)| e.device == device).map(|(id, _)| id).collect()
    }

    /// Per-rank occupancy of the GPU pool under a `tp`-way tensor-parallel sharding.
    ///
    /// Token counts are identical across ranks (every token is sharded over all of
    /// them); byte counts are each rank's `1/tp` shard of
    /// [`KvCacheConfig::kv_bytes_per_token`]. Block-granular, like the pool's own
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn rank_occupancy(&self, tp: usize) -> Vec<RankOccupancy> {
        assert!(tp >= 1, "tensor-parallel degree must be at least 1");
        let pool = self.pool(Device::Gpu);
        let shard_bytes_per_token = self.config.kv_bytes_per_token as u64 / tp as u64;
        // Index-only blocks are reclaimable on demand, so ranks report them as free.
        let used = self.gpu_used_tokens();
        let free = pool.free_tokens() + self.evictable_tokens();
        (0..tp)
            .map(|rank| RankOccupancy {
                rank,
                used_tokens: used,
                free_tokens: free,
                used_bytes: used as u64 * shard_bytes_per_token,
                capacity_bytes: pool.capacity_tokens() as u64 * shard_bytes_per_token,
            })
            .collect()
    }

    /// Total cached tokens per device `(gpu_tokens, cpu_tokens)`, counting logical tokens.
    /// Disk-resident sequences are excluded; see [`Self::cached_tokens_on`].
    pub fn cached_tokens(&self) -> (usize, usize) {
        (self.cached_tokens_on(Device::Gpu), self.cached_tokens_on(Device::Cpu))
    }

    /// Total logical tokens of sequences resident on `device`.
    pub fn cached_tokens_on(&self, device: Device) -> usize {
        self.seqs.values().filter(|e| e.device == device).map(|e| e.table.num_tokens()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mgr(gpu: usize, cpu: usize) -> KvCacheManager {
        KvCacheManager::new(KvCacheConfig {
            block_size: 16,
            gpu_capacity_tokens: gpu,
            cpu_capacity_tokens: cpu,
            kv_bytes_per_token: 1024,
        })
    }

    #[test]
    fn allocate_append_free_cycle() {
        let mut m = mgr(256, 256);
        m.allocate_sequence(1, 100, Device::Gpu).unwrap();
        assert_eq!(m.device_of(1).unwrap(), Device::Gpu);
        assert_eq!(m.num_tokens_of(1).unwrap(), 100);
        m.append_tokens(1, 30).unwrap();
        assert_eq!(m.num_tokens_of(1).unwrap(), 130);
        let freed = m.free_sequence(1).unwrap();
        assert_eq!(freed, 130);
        assert_eq!(m.free_tokens(Device::Gpu), 256);
        assert!(m.device_of(1).is_err());
    }

    #[test]
    fn duplicate_allocation_is_rejected() {
        let mut m = mgr(256, 256);
        m.allocate_sequence(1, 10, Device::Gpu).unwrap();
        assert!(matches!(
            m.allocate_sequence(1, 10, Device::Cpu),
            Err(KvCacheError::DuplicateSequence(1))
        ));
    }

    #[test]
    fn an_id_past_the_window_is_refused_before_anything_changes() {
        let mut m = pmgr(256, 256);
        m.allocate_sequence(5, 40, Device::Gpu).unwrap();
        let far = 5 + crate::MAX_ID_WINDOW;
        let refused = KvCacheError::IdOutOfWindow { seq_id: far, oldest: 5, newest: 5 };
        let used = |m: &KvCacheManager| {
            (m.pool(Device::Gpu).used_tokens(), m.pool(Device::Cpu).used_tokens())
        };
        let before = used(&m);
        assert_eq!(m.allocate_sequence(far, 40, Device::Cpu), Err(refused.clone()));
        assert_eq!(m.adopt_prefix(far, &prompt(1, 40), 39), Err(refused));
        assert_eq!((used(&m), m.num_sequences()), (before, 1));
        assert!(m.device_of(far).is_err());
        // Once the old sequence is gone, the window rebases on the new id.
        m.free_sequence(5).unwrap();
        m.allocate_sequence(far, 40, Device::Cpu).unwrap();
        assert_eq!(m.sequences_on(Device::Cpu), vec![far]);
    }

    #[test]
    fn gpu_exhaustion_reports_oom_and_leaves_state_clean() {
        let mut m = mgr(64, 256);
        m.allocate_sequence(1, 60, Device::Gpu).unwrap();
        let err = m.allocate_sequence(2, 32, Device::Gpu).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { device: Device::Gpu, .. }));
        // Sequence 2 must not be half-created.
        assert!(m.device_of(2).is_err());
        // And the CPU pool still works.
        m.allocate_sequence(2, 32, Device::Cpu).unwrap();
    }

    #[test]
    fn swap_moves_tokens_and_accounts_bytes() {
        let mut m = mgr(256, 256);
        m.allocate_sequence(5, 100, Device::Gpu).unwrap();
        let used_gpu_before = m.pool(Device::Gpu).used_tokens();
        let stats = m.swap(5, Device::Cpu).unwrap();
        assert_eq!(stats.tokens, 100);
        assert_eq!(stats.bytes, 100 * 1024);
        assert_eq!(stats.to, Device::Cpu);
        assert_eq!(m.device_of(5).unwrap(), Device::Cpu);
        assert_eq!(m.num_tokens_of(5).unwrap(), 100);
        assert_eq!(m.pool(Device::Gpu).used_tokens(), used_gpu_before - 112); // 7 blocks

        // Swapping back also works.
        let back = m.swap(5, Device::Gpu).unwrap();
        assert_eq!(back.to, Device::Gpu);
    }

    #[test]
    fn swap_to_same_device_is_rejected() {
        let mut m = mgr(256, 256);
        m.allocate_sequence(5, 10, Device::Gpu).unwrap();
        assert!(matches!(
            m.swap(5, Device::Gpu),
            Err(KvCacheError::AlreadyOnDevice { seq_id: 5, device: Device::Gpu })
        ));
    }

    #[test]
    fn swap_to_full_destination_keeps_source_intact() {
        let mut m = mgr(256, 32);
        m.allocate_sequence(5, 100, Device::Gpu).unwrap();
        let err = m.swap(5, Device::Cpu).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { device: Device::Cpu, .. }));
        assert_eq!(m.device_of(5).unwrap(), Device::Gpu);
        assert_eq!(m.num_tokens_of(5).unwrap(), 100);
    }

    #[test]
    fn sequences_on_filters_by_device() {
        let mut m = mgr(256, 256);
        m.allocate_sequence(1, 10, Device::Gpu).unwrap();
        m.allocate_sequence(2, 10, Device::Cpu).unwrap();
        m.allocate_sequence(3, 10, Device::Gpu).unwrap();
        assert_eq!(m.sequences_on(Device::Gpu), vec![1, 3]);
        assert_eq!(m.sequences_on(Device::Cpu), vec![2]);
        assert_eq!(m.cached_tokens(), (20, 10));
    }

    #[test]
    fn rank_occupancy_shards_bytes_not_tokens() {
        let mut m = mgr(256, 256);
        m.allocate_sequence(1, 100, Device::Gpu).unwrap(); // 7 blocks = 112 tokens
        m.allocate_sequence(2, 10, Device::Cpu).unwrap(); // CPU tokens are not per-rank
        let ranks = m.rank_occupancy(2);
        assert_eq!(ranks.len(), 2);
        for (i, r) in ranks.iter().enumerate() {
            assert_eq!(r.rank, i);
            // Every rank caches a shard of every GPU token: token counts match the pool.
            assert_eq!(r.used_tokens, m.pool(Device::Gpu).used_tokens());
            assert_eq!(r.free_tokens, m.free_tokens(Device::Gpu));
            // Bytes are the 1/tp shard.
            assert_eq!(r.used_bytes, r.used_tokens as u64 * 1024 / 2);
            assert_eq!(r.capacity_bytes, 256 * 1024 / 2);
        }
        // tp = 1 degenerates to the whole-pool view.
        let solo = m.rank_occupancy(1);
        assert_eq!(solo.len(), 1);
        assert_eq!(solo[0].used_bytes, solo[0].used_tokens as u64 * 1024);
    }

    #[test]
    fn append_to_unknown_sequence_fails() {
        let mut m = mgr(64, 64);
        assert!(matches!(m.append_tokens(42, 1), Err(KvCacheError::UnknownSequence(42))));
    }

    fn pmgr(gpu: usize, cpu: usize) -> KvCacheManager {
        KvCacheManager::with_features(
            KvCacheConfig {
                block_size: 16,
                gpu_capacity_tokens: gpu,
                cpu_capacity_tokens: cpu,
                kv_bytes_per_token: 1024,
            },
            true,
            0,
        )
    }

    fn prompt(id: u64, len: usize) -> Vec<Token> {
        crate::prefix::expand(&[crate::prefix::TokenRun { id, len }])
    }

    #[test]
    fn adopting_a_cached_prefix_shares_blocks_copy_on_write() {
        let mut m = pmgr(320, 320);
        let toks = prompt(7, 100);
        m.allocate_sequence(1, 100, Device::Gpu).unwrap();
        m.insert_prefix(1, &toks).unwrap();
        // 100 tokens = 6 full blocks (96) + a 4-token tail. Capped at 99, the adopter
        // shares the 6 full blocks and COW-copies 3 tokens of the tail.
        let a = m.adopt_prefix(2, &toks, 99).unwrap();
        assert_eq!(a, PrefixAdoption { cached_tokens: 99, cow_splits: 1 });
        assert_eq!(m.num_tokens_of(2).unwrap(), 99);
        assert_eq!(m.device_of(2).unwrap(), Device::Gpu);
        // The shared full blocks are the same physical blocks, three ways referenced
        // (owner + adopter + index); the COW tail is private.
        let t1: Vec<usize> = m.block_table(1).unwrap().blocks().to_vec();
        let t2: Vec<usize> = m.block_table(2).unwrap().blocks().to_vec();
        assert_eq!(&t1[..6], &t2[..6]);
        assert_ne!(t1[6], t2[6]);
        for &b in &t1[..6] {
            assert_eq!(m.pool(Device::Gpu).ref_count(b).unwrap(), 3);
        }
        assert_eq!(m.pool(Device::Gpu).ref_count(t2[6]).unwrap(), 1);
        assert_eq!(m.prefix_hit_tokens(), 99);
        assert_eq!(m.cow_splits(), 1);
        // Freeing both sequences leaves only index references; everything is evictable
        // and thus reported free, but physically still cached.
        m.free_sequence(1).unwrap();
        m.free_sequence(2).unwrap();
        assert_eq!(m.evictable_tokens(), 7 * 16);
        assert_eq!(m.free_tokens(Device::Gpu), 320);
        assert!(m.pool(Device::Gpu).used_tokens() > 0);
        // A longer prompt adopts the six full blocks and COW-copies the tail, then its
        // insertion prunes the index-only tail node: no block is left to the index alone.
        let longer = prompt(7, 112);
        assert_eq!(m.adopt_prefix(3, &longer, 111).unwrap().cached_tokens, 100);
        m.append_tokens(3, 12).unwrap();
        m.insert_prefix(3, &longer).unwrap();
        assert_eq!(m.evictable_tokens(), 0);
        assert_eq!(m.free_tokens(Device::Gpu), 320 - 7 * 16);
    }

    #[test]
    fn adoption_with_no_hit_creates_nothing() {
        let mut m = pmgr(320, 320);
        let a = m.adopt_prefix(9, &prompt(1, 50), 49).unwrap();
        assert_eq!(a, PrefixAdoption::default());
        assert!(m.device_of(9).is_err());
        assert_eq!(m.num_sequences(), 0);
        // Duplicate ids are still rejected.
        m.allocate_sequence(9, 10, Device::Gpu).unwrap();
        assert!(matches!(
            m.adopt_prefix(9, &prompt(1, 50), 49),
            Err(KvCacheError::DuplicateSequence(9))
        ));
    }

    #[test]
    fn allocation_pressure_evicts_index_only_blocks_transparently() {
        let mut m = pmgr(64, 320); // 4 GPU blocks
        let toks = prompt(1, 64);
        m.allocate_sequence(1, 64, Device::Gpu).unwrap();
        m.insert_prefix(1, &toks).unwrap();
        // Swapping the owner out leaves the whole chain index-only on the GPU.
        m.swap(1, Device::Cpu).unwrap();
        assert_eq!(m.pool(Device::Gpu).free_tokens(), 0);
        assert_eq!(m.evictable_tokens(), 64);
        assert_eq!(m.free_tokens(Device::Gpu), 64);
        assert!(m.can_allocate(Device::Gpu, 64));
        // A new allocation evicts just enough cached blocks (leaf-first).
        m.allocate_sequence(2, 40, Device::Gpu).unwrap();
        assert_eq!(m.evictable_tokens(), 16, "one cached block survives");
        assert_eq!(m.free_tokens(Device::Gpu), 16);
        // Swapping seq 1 back needs 4 blocks; even after evicting the last cached
        // block only 1 is free, so the swap fails typed and the source is intact.
        let err = m.swap(1, Device::Gpu).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { device: Device::Gpu, .. }));
        assert_eq!(m.device_of(1).unwrap(), Device::Cpu);
        assert_eq!(m.num_tokens_of(1).unwrap(), 64);
        assert_eq!(m.evictable_tokens(), 0, "the failed swap still reclaimed the cache");
    }

    #[test]
    fn disk_tier_swaps_round_trip_and_respect_capacity() {
        let cfg = KvCacheConfig {
            block_size: 16,
            gpu_capacity_tokens: 256,
            cpu_capacity_tokens: 320,
            kv_bytes_per_token: 1024,
        };
        let mut m = KvCacheManager::with_features(cfg, false, 64);
        m.allocate_sequence(1, 50, Device::Gpu).unwrap();
        m.swap(1, Device::Cpu).unwrap();
        let stats = m.swap(1, Device::Disk).unwrap();
        assert_eq!((stats.tokens, stats.to), (50, Device::Disk));
        assert_eq!(stats.bytes, 50 * 1024);
        assert_eq!(m.sequences_on(Device::Disk), vec![1]);
        assert_eq!(m.cached_tokens(), (0, 0), "disk tokens are not GPU/CPU cached");
        assert_eq!(m.cached_tokens_on(Device::Disk), 50);
        // Promotion back to the CPU cache.
        m.swap(1, Device::Cpu).unwrap();
        assert_eq!(m.device_of(1).unwrap(), Device::Cpu);
        assert_eq!(m.pool(Device::Disk).used_tokens(), 0);
        // A sequence bigger than the disk tier is refused, source intact.
        m.allocate_sequence(2, 100, Device::Cpu).unwrap();
        let err = m.swap(2, Device::Disk).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { device: Device::Disk, .. }));
        assert_eq!(m.device_of(2).unwrap(), Device::Cpu);
    }

    #[test]
    fn default_manager_has_no_disk_and_no_prefix_cache() {
        let mut m = mgr(256, 256);
        assert_eq!(m.pool(Device::Disk).capacity_tokens(), 0);
        m.allocate_sequence(1, 10, Device::Cpu).unwrap();
        assert!(matches!(
            m.swap(1, Device::Disk),
            Err(KvCacheError::OutOfMemory { device: Device::Disk, .. })
        ));
        // insert/adopt degrade to no-ops.
        m.insert_prefix(1, &prompt(1, 10)).unwrap();
        let a = m.adopt_prefix(2, &prompt(1, 10), 9).unwrap();
        assert_eq!(a, PrefixAdoption::default());
        assert_eq!(m.prefix_blocks(), Vec::<usize>::new());
    }

    proptest! {
        /// Pool accounting stays exact under random allocate / append / free / swap
        /// sequences: used + free == capacity on both pools, and the sum of logical tokens
        /// never exceeds used block capacity.
        #[test]
        fn prop_pool_accounting(ops in proptest::collection::vec((0u8..4, 1u64..6, 1usize..50), 1..120)) {
            let mut m = mgr(320, 640);
            for (op, id, n) in ops {
                match op {
                    0 => { let _ = m.allocate_sequence(id, n, Device::Gpu); }
                    1 => { let _ = m.allocate_sequence(id, n, Device::Cpu); }
                    2 => { let _ = m.append_tokens(id, n.min(8)); }
                    _ => {
                        if let Ok(dev) = m.device_of(id) {
                            let _ = m.swap(id, dev.other());
                        } else {
                            let _ = m.free_sequence(id);
                        }
                    }
                }
                for dev in [Device::Gpu, Device::Cpu] {
                    let p = m.pool(dev);
                    prop_assert_eq!(p.used_tokens() + p.free_tokens(), p.capacity_tokens());
                }
                let (gpu_logical, cpu_logical) = m.cached_tokens();
                prop_assert!(gpu_logical <= m.pool(Device::Gpu).used_tokens());
                prop_assert!(cpu_logical <= m.pool(Device::Cpu).used_tokens());
            }
            // Freeing everything returns both pools to pristine state.
            let ids: Vec<u64> = (1..6).collect();
            for id in ids {
                let _ = m.free_sequence(id);
            }
            prop_assert_eq!(m.pool(Device::Gpu).used_tokens(), 0);
            prop_assert_eq!(m.pool(Device::Cpu).used_tokens(), 0);
        }
    }
}
