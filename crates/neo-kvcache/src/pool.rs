//! Per-device KV pool: capacity accounting on top of the block allocator.

use crate::allocator::BlockAllocator;
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
    allocator: BlockAllocator,
    block_size: usize,
    capacity_tokens: usize,
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
        Self {
            allocator: BlockAllocator::new(device, num_blocks),
            block_size,
            capacity_tokens: num_blocks * block_size,
        }
    }

    /// Device of this pool.
    pub fn device(&self) -> Device {
        self.allocator.device()
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Usable capacity in tokens (whole blocks).
    pub fn capacity_tokens(&self) -> usize {
        self.capacity_tokens
    }

    /// Number of tokens that can still be stored (free blocks × block size).
    pub fn free_tokens(&self) -> usize {
        self.allocator.num_free() * self.block_size
    }

    /// Number of tokens' worth of blocks currently allocated (counting partially filled
    /// blocks as full — this is the allocation granularity, not the logical token count).
    pub fn used_tokens(&self) -> usize {
        self.allocator.num_used() * self.block_size
    }

    /// Number of blocks needed to hold `n_tokens` tokens.
    pub fn blocks_for(&self, n_tokens: usize) -> usize {
        n_tokens.div_ceil(self.block_size)
    }

    /// Whether `n_tokens` more tokens could be allocated right now.
    pub fn can_allocate(&self, n_tokens: usize) -> bool {
        self.blocks_for(n_tokens) <= self.allocator.num_free()
    }

    /// Allocates enough blocks for `n_tokens` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfMemory`] if the pool cannot hold them; no blocks are
    /// taken in that case.
    pub fn allocate_tokens(&mut self, n_tokens: usize) -> Result<Vec<usize>, KvCacheError> {
        self.allocator.allocate_many(self.blocks_for(n_tokens))
    }

    /// Allocates exactly `n_blocks` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfMemory`] if fewer than `n_blocks` are free.
    pub fn allocate_blocks(&mut self, n_blocks: usize) -> Result<Vec<usize>, KvCacheError> {
        self.allocator.allocate_many(n_blocks)
    }

    /// Releases blocks back to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices or double frees;
    /// blocks released before the failing one stay released.
    pub fn release_blocks(&mut self, blocks: &[usize]) -> Result<(), KvCacheError> {
        for &b in blocks {
            self.allocator.release(b)?;
        }
        Ok(())
    }

    /// Adds one reference to an allocated block (shared-prefix adoption).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices or free blocks.
    pub fn retain(&mut self, block: usize) -> Result<(), KvCacheError> {
        self.allocator.retain(block)
    }

    /// Current reference count of a block.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices.
    pub fn ref_count(&self, block: usize) -> Result<u32, KvCacheError> {
        self.allocator.ref_count(block)
    }

    /// Total number of blocks in the pool.
    pub fn num_blocks(&self) -> usize {
        self.allocator.num_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn can_allocate_matches_allocate() {
        let mut p = KvPool::new(Device::Cpu, 64, 16);
        assert!(p.can_allocate(64));
        assert!(!p.can_allocate(65));
        p.allocate_tokens(48).unwrap();
        assert!(p.can_allocate(16));
        assert!(!p.can_allocate(17));
    }

    #[test]
    fn zero_capacity_pool_is_benign() {
        let p = KvPool::new(Device::Cpu, 0, 16);
        assert_eq!(p.capacity_tokens(), 0);
        assert!(!p.can_allocate(1));
        assert!(p.can_allocate(0));
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
    fn retain_and_ref_count_delegate_to_the_allocator() {
        let mut p = KvPool::new(Device::Gpu, 64, 16);
        let b = p.allocate_tokens(16).unwrap();
        assert_eq!(p.ref_count(b[0]).unwrap(), 1);
        p.retain(b[0]).unwrap();
        assert_eq!(p.ref_count(b[0]).unwrap(), 2);
        // First release drops the extra reference, the block stays allocated.
        p.release_blocks(&b).unwrap();
        assert_eq!(p.used_tokens(), 16);
        p.release_blocks(&b).unwrap();
        assert_eq!(p.used_tokens(), 0);
        assert!(p.retain(b[0]).is_err(), "retaining a free block is a typed error");
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let _ = KvPool::new(Device::Gpu, 64, 0);
    }
}
