//! Per-device KV pool: paged capacity accounting over a reference-counted block free list.
//!
//! Both the GPU-cache and the CPU-cache (and the disk tier) hand out fixed-size blocks of
//! `block_size` tokens. A pool keeps a LIFO list of released blocks (so recently freed —
//! likely cache-warm — blocks are reused first) and a per-block reference count, which
//! supports prefix sharing and catches double frees. Blocks never handed out yet need no
//! list entry: they sit above a watermark and are taken in ascending order once no
//! released block is left, so a pool costs memory for the blocks it uses, not for its
//! size.

use crate::error::KvCacheError;

/// The device a KV pool (or a request's cache) lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// GPU HBM — the "GPU-cache" of the paper.
    Gpu,
    /// Host DRAM — the "CPU-cache" of the paper.
    Cpu,
    /// Local NVMe/disk — cold third tier; sequences parked here cannot decode until
    /// promoted back to the CPU cache.
    Disk,
}

impl Device {
    /// The device one tier up or down: GPU↔CPU keep their historical pairing; disk's
    /// neighbour is the CPU cache (promotion target).
    pub fn other(self) -> Device {
        match self {
            Device::Gpu => Device::Cpu,
            Device::Cpu => Device::Gpu,
            Device::Disk => Device::Cpu,
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Gpu => write!(f, "GPU"),
            Device::Cpu => write!(f, "CPU"),
            Device::Disk => write!(f, "DISK"),
        }
    }
}

/// One device's paged KV pool.
#[derive(Debug, Clone)]
pub struct KvPool {
    device: Device,
    block_size: usize,
    /// Reference count of every block (0 when free).
    ref_counts: Vec<u32>,
    /// Released blocks, reused last-in first-out.
    released: Vec<usize>,
    /// Blocks `fresh..` have never been handed out.
    fresh: usize,
}

impl KvPool {
    /// Creates a pool able to hold `capacity_tokens` tokens in blocks of `block_size`.
    ///
    /// The capacity is rounded **down** to a whole number of blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(device: Device, capacity_tokens: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let num_blocks = capacity_tokens / block_size;
        Self { device, block_size, ref_counts: vec![0; num_blocks], released: Vec::new(), fresh: 0 }
    }

    /// Usable capacity in tokens (whole blocks).
    pub fn capacity_tokens(&self) -> usize {
        self.num_blocks() * self.block_size
    }

    /// Number of tokens that can still be stored (free blocks × block size).
    pub fn free_tokens(&self) -> usize {
        self.free_blocks() * self.block_size
    }

    /// Number of tokens' worth of blocks currently allocated (counting partially filled
    /// blocks as full — this is the allocation granularity, not the logical token count).
    pub fn used_tokens(&self) -> usize {
        (self.num_blocks() - self.free_blocks()) * self.block_size
    }

    /// Number of blocks needed to hold `n_tokens` tokens.
    pub fn blocks_for(&self, n_tokens: usize) -> usize {
        n_tokens.div_ceil(self.block_size)
    }

    /// Allocates enough blocks for `n_tokens` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfMemory`] if the pool cannot hold them; no blocks are
    /// taken in that case.
    pub fn allocate_tokens(&mut self, n_tokens: usize) -> Result<Vec<usize>, KvCacheError> {
        self.allocate_blocks(self.blocks_for(n_tokens))
    }

    /// Allocates exactly `n_blocks` blocks, all or none: each is the most recently
    /// released block, or else the lowest block never handed out.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfMemory`] if fewer than `n_blocks` are free; no blocks
    /// are taken in that case.
    pub fn allocate_blocks(&mut self, n_blocks: usize) -> Result<Vec<usize>, KvCacheError> {
        let available_blocks = self.free_blocks();
        if available_blocks < n_blocks {
            return Err(KvCacheError::OutOfMemory {
                device: self.device,
                requested_blocks: n_blocks,
                available_blocks,
            });
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let block = self.released.pop().unwrap_or_else(|| {
                self.fresh += 1;
                self.fresh - 1
            });
            self.ref_counts[block] = 1;
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Releases one reference to each block, returning a block to the free list when
    /// its count reaches zero.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices or double frees;
    /// blocks released before the failing one stay released.
    pub fn release_blocks(&mut self, blocks: &[usize]) -> Result<(), KvCacheError> {
        for &block in blocks {
            let count = self.live_count(block)?;
            *count -= 1;
            if *count == 0 {
                self.released.push(block);
            }
        }
        Ok(())
    }

    /// Adds one reference to an allocated block (shared-prefix adoption).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices or free blocks.
    pub fn retain(&mut self, block: usize) -> Result<(), KvCacheError> {
        *self.live_count(block)? += 1;
        Ok(())
    }

    /// Current reference count of a block (0 when free).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices.
    pub fn ref_count(&self, block: usize) -> Result<u32, KvCacheError> {
        match self.ref_counts.get(block) {
            Some(&count) => Ok(count),
            None => Err(KvCacheError::InvalidBlock { block, pool_blocks: self.num_blocks() }),
        }
    }

    /// Total number of blocks in the pool.
    pub fn num_blocks(&self) -> usize {
        self.ref_counts.len()
    }

    fn free_blocks(&self) -> usize {
        self.released.len() + (self.num_blocks() - self.fresh)
    }

    /// The reference count of an allocated block, for update.
    fn live_count(&mut self, block: usize) -> Result<&mut u32, KvCacheError> {
        let pool_blocks = self.num_blocks();
        match self.ref_counts.get_mut(block) {
            Some(count) if *count > 0 => Ok(count),
            _ => Err(KvCacheError::InvalidBlock { block, pool_blocks }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A pool of `n` one-token blocks, so its token counts are block counts.
    fn blocks(device: Device, n: usize) -> KvPool {
        KvPool::new(device, n, 1)
    }

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let p = KvPool::new(Device::Gpu, 100, 16);
        assert_eq!(p.num_blocks(), 6);
        assert_eq!(p.capacity_tokens(), 96);
    }

    #[test]
    fn allocate_tokens_uses_ceiling_blocks() {
        let mut p = KvPool::new(Device::Gpu, 160, 16);
        let blocks = p.allocate_tokens(17).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(p.used_tokens(), 32);
        p.release_blocks(&blocks).unwrap();
        assert_eq!(p.used_tokens(), 0);
    }

    #[test]
    fn zero_capacity_pool_is_benign() {
        let mut p = KvPool::new(Device::Cpu, 0, 16);
        assert_eq!((p.capacity_tokens(), p.num_blocks(), p.free_tokens()), (0, 0, 0));
        assert!(matches!(p.allocate_tokens(1), Err(KvCacheError::OutOfMemory { .. })));
        assert_eq!(p.allocate_tokens(0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn device_other_flips() {
        assert_eq!(Device::Gpu.other(), Device::Cpu);
        assert_eq!(Device::Cpu.other(), Device::Gpu);
        assert_eq!(Device::Disk.other(), Device::Cpu);
        assert_eq!(Device::Gpu.to_string(), "GPU");
        assert_eq!(Device::Disk.to_string(), "DISK");
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let _ = KvPool::new(Device::Gpu, 64, 0);
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut p = blocks(Device::Gpu, 4);
        assert_eq!(p.free_tokens(), 4);
        let b = p.allocate_blocks(1).unwrap();
        assert_eq!(p.used_tokens(), 1);
        p.release_blocks(&b).unwrap();
        assert_eq!(p.free_tokens(), 4);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut p = blocks(Device::Cpu, 2);
        p.allocate_blocks(2).unwrap();
        let err = p.allocate_blocks(1).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { device: Device::Cpu, .. }));
    }

    #[test]
    fn allocate_many_is_atomic() {
        let mut p = blocks(Device::Gpu, 3);
        let _one = p.allocate_blocks(1).unwrap();
        let err = p.allocate_blocks(3).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { available_blocks: 2, .. }));
        // Nothing was taken by the failed call.
        assert_eq!(p.free_tokens(), 2);
        assert_eq!(p.allocate_blocks(2).unwrap().len(), 2);
    }

    #[test]
    fn refcounted_blocks_survive_partial_release() {
        let mut p = blocks(Device::Gpu, 1);
        let b = p.allocate_blocks(1).unwrap();
        p.retain(b[0]).unwrap();
        assert_eq!(p.ref_count(b[0]).unwrap(), 2);
        p.release_blocks(&b).unwrap();
        assert_eq!(p.free_tokens(), 0);
        p.release_blocks(&b).unwrap();
        assert_eq!(p.free_tokens(), 1);
    }

    #[test]
    fn retain_and_ref_count_track_each_block() {
        let mut p = KvPool::new(Device::Gpu, 64, 16);
        let b = p.allocate_tokens(16).unwrap();
        assert_eq!(p.ref_count(b[0]).unwrap(), 1);
        p.retain(b[0]).unwrap();
        assert_eq!(p.ref_count(b[0]).unwrap(), 2);
        // The first release drops the extra reference; the block stays allocated.
        p.release_blocks(&b).unwrap();
        assert_eq!(p.used_tokens(), 16);
        p.release_blocks(&b).unwrap();
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.ref_count(b[0]).unwrap(), 0);
        assert!(p.retain(b[0]).is_err(), "retaining a free block is a typed error");
    }

    #[test]
    fn zero_capacity_pool_always_fails() {
        let mut p = blocks(Device::Gpu, 0);
        assert!(p.allocate_blocks(1).is_err());
        assert_eq!(p.num_blocks(), 0);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut p = blocks(Device::Gpu, 1);
        let b = p.allocate_blocks(1).unwrap();
        p.release_blocks(&b).unwrap();
        assert!(p.release_blocks(&b).is_err());
    }

    #[test]
    fn retain_free_block_is_rejected() {
        let mut p = blocks(Device::Gpu, 1);
        assert!(p.retain(0).is_err());
    }

    #[test]
    fn out_of_range_block_is_rejected() {
        let p = blocks(Device::Gpu, 1);
        assert!(matches!(p.ref_count(5), Err(KvCacheError::InvalidBlock { .. })));
    }

    #[test]
    fn exhaustion_error_carries_exact_counts() {
        let mut p = blocks(Device::Gpu, 3);
        p.allocate_blocks(1).unwrap();
        let err = p.allocate_blocks(5).unwrap_err();
        assert!(matches!(
            err,
            KvCacheError::OutOfMemory {
                device: Device::Gpu,
                requested_blocks: 5,
                available_blocks: 2
            }
        ));
        // Draining the rest makes even a single-block request fail typed, never panic.
        p.allocate_blocks(2).unwrap();
        let err = p.allocate_blocks(1).unwrap_err();
        assert!(matches!(
            err,
            KvCacheError::OutOfMemory { requested_blocks: 1, available_blocks: 0, .. }
        ));
    }

    #[test]
    fn allocate_many_zero_succeeds_even_when_exhausted() {
        let mut p = blocks(Device::Cpu, 1);
        p.allocate_blocks(1).unwrap();
        assert_eq!(p.allocate_blocks(0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn release_out_of_range_is_a_typed_error() {
        let mut p = blocks(Device::Gpu, 2);
        assert!(matches!(
            p.release_blocks(&[7]),
            Err(KvCacheError::InvalidBlock { block: 7, pool_blocks: 2 })
        ));
        assert!(matches!(p.retain(2), Err(KvCacheError::InvalidBlock { block: 2, .. })));
    }

    #[test]
    fn retained_blocks_are_never_rehanded_under_exhaustion() {
        // A fully retained pool must refuse new allocations rather than recycle a
        // shared block out from under its holders (the mid-eviction hazard).
        let mut p = blocks(Device::Gpu, 2);
        let b = p.allocate_blocks(2).unwrap();
        p.retain(b[0]).unwrap();
        // One release each: b[0] stays live (shared), b[1] frees.
        p.release_blocks(&b).unwrap();
        assert_eq!(p.allocate_blocks(1).unwrap(), [b[1]], "only the truly free block is reused");
        assert!(p.allocate_blocks(1).is_err(), "the shared block is not up for grabs");
        assert_eq!(p.ref_count(b[0]).unwrap(), 1);
    }

    #[test]
    fn free_list_is_lifo_with_block_zero_first() {
        let mut p = blocks(Device::Gpu, 3);
        assert_eq!(p.allocate_blocks(2).unwrap(), [0, 1]);
        p.release_blocks(&[0]).unwrap();
        // The most recently freed (cache-warm) block comes back first.
        assert_eq!(p.allocate_blocks(2).unwrap(), [0, 2]);
    }

    proptest! {
        /// Allocations never hand out the same block twice while it is live, and
        /// used + free always equals the capacity.
        #[test]
        fn prop_no_double_allocation(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut p = blocks(Device::Gpu, 16);
            let mut live: Vec<usize> = Vec::new();
            for op in ops {
                match op {
                    1 => {
                        if let Some(b) = live.pop() {
                            p.release_blocks(&[b]).unwrap();
                            prop_assert_eq!(p.ref_count(b).unwrap(), 0);
                        }
                    }
                    n => {
                        if let Ok(bs) = p.allocate_blocks(if n == 0 { 1 } else { 3 }) {
                            for b in bs {
                                prop_assert!(!live.contains(&b), "block {} handed out twice", b);
                                live.push(b);
                            }
                        }
                    }
                }
                prop_assert_eq!(p.used_tokens(), live.len());
                prop_assert_eq!(p.used_tokens() + p.free_tokens(), 16);
            }
        }
    }
}
