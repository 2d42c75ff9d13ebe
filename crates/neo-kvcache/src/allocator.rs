//! Reference-counted free-list block allocator.
//!
//! Both the GPU-cache and the CPU-cache hand out fixed-size blocks of `block_size` tokens.
//! The allocator keeps a LIFO list of released blocks (so recently freed — likely
//! cache-warm — blocks are reused first) and a per-block reference count, which supports
//! prefix sharing and catches double frees. Blocks never handed out yet need no list
//! entry: they sit above a watermark and are taken in ascending order once no released
//! block is left, so a pool costs memory for the blocks it uses, not for its size.

use crate::error::KvCacheError;
use crate::pool::Device;

/// A fixed-capacity block allocator with reference counting.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    device: Device,
    ref_counts: Vec<u32>,
    /// Released blocks, reused last-in first-out.
    released: Vec<usize>,
    /// Blocks `fresh..` have never been handed out.
    fresh: usize,
}

impl BlockAllocator {
    /// Creates an allocator managing `num_blocks` blocks for `device`.
    pub fn new(device: Device, num_blocks: usize) -> Self {
        Self { device, ref_counts: vec![0; num_blocks], released: Vec::new(), fresh: 0 }
    }

    /// Total number of blocks managed.
    pub fn num_blocks(&self) -> usize {
        self.ref_counts.len()
    }

    /// Number of currently free blocks.
    pub fn num_free(&self) -> usize {
        self.released.len() + (self.num_blocks() - self.fresh)
    }

    /// Number of currently allocated blocks.
    pub fn num_used(&self) -> usize {
        self.num_blocks() - self.num_free()
    }

    /// Device this allocator belongs to.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Allocates one block: the most recently released one, or else the lowest block
    /// never handed out.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfMemory`] when no block is free.
    pub fn allocate(&mut self) -> Result<usize, KvCacheError> {
        let block = match self.released.pop() {
            Some(b) => b,
            None if self.fresh < self.num_blocks() => {
                self.fresh += 1;
                self.fresh - 1
            }
            None => {
                return Err(KvCacheError::OutOfMemory {
                    device: self.device,
                    requested_blocks: 1,
                    available_blocks: 0,
                })
            }
        };
        self.ref_counts[block] = 1;
        Ok(block)
    }

    /// Allocates `n` blocks atomically: either all succeed or none are taken.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfMemory`] when fewer than `n` blocks are free; the
    /// allocator state is unchanged in that case.
    pub fn allocate_many(&mut self, n: usize) -> Result<Vec<usize>, KvCacheError> {
        if self.num_free() < n {
            return Err(KvCacheError::OutOfMemory {
                device: self.device,
                requested_blocks: n,
                available_blocks: self.num_free(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.allocate()?);
        }
        Ok(out)
    }

    /// Increments the reference count of an allocated block (prefix sharing).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] if the block is out of range or currently free.
    pub fn retain(&mut self, block: usize) -> Result<(), KvCacheError> {
        self.check(block)?;
        if self.ref_counts[block] == 0 {
            return Err(KvCacheError::InvalidBlock { block, pool_blocks: self.num_blocks() });
        }
        self.ref_counts[block] += 1;
        Ok(())
    }

    /// Releases one reference to `block`, returning it to the released list when the
    /// count reaches zero. Returns `true` if the block became free.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range indices or double frees.
    pub fn release(&mut self, block: usize) -> Result<bool, KvCacheError> {
        self.check(block)?;
        if self.ref_counts[block] == 0 {
            return Err(KvCacheError::InvalidBlock { block, pool_blocks: self.num_blocks() });
        }
        self.ref_counts[block] -= 1;
        if self.ref_counts[block] == 0 {
            self.released.push(block);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reference count of `block` (0 when free).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] if `block` is out of range.
    pub fn ref_count(&self, block: usize) -> Result<u32, KvCacheError> {
        self.check(block)?;
        Ok(self.ref_counts[block])
    }

    fn check(&self, block: usize) -> Result<(), KvCacheError> {
        if block >= self.num_blocks() {
            Err(KvCacheError::InvalidBlock { block, pool_blocks: self.num_blocks() })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_and_release_round_trip() {
        let mut a = BlockAllocator::new(Device::Gpu, 4);
        assert_eq!(a.num_free(), 4);
        let b = a.allocate().unwrap();
        assert_eq!(a.num_used(), 1);
        assert!(a.release(b).unwrap());
        assert_eq!(a.num_free(), 4);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut a = BlockAllocator::new(Device::Cpu, 2);
        a.allocate().unwrap();
        a.allocate().unwrap();
        let err = a.allocate().unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { device: Device::Cpu, .. }));
    }

    #[test]
    fn allocate_many_is_atomic() {
        let mut a = BlockAllocator::new(Device::Gpu, 3);
        let _one = a.allocate().unwrap();
        let err = a.allocate_many(3).unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { available_blocks: 2, .. }));
        // Nothing was taken by the failed call.
        assert_eq!(a.num_free(), 2);
        assert_eq!(a.allocate_many(2).unwrap().len(), 2);
    }

    #[test]
    fn refcounted_blocks_survive_partial_release() {
        let mut a = BlockAllocator::new(Device::Gpu, 1);
        let b = a.allocate().unwrap();
        a.retain(b).unwrap();
        assert_eq!(a.ref_count(b).unwrap(), 2);
        assert!(!a.release(b).unwrap());
        assert_eq!(a.num_free(), 0);
        assert!(a.release(b).unwrap());
        assert_eq!(a.num_free(), 1);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a = BlockAllocator::new(Device::Gpu, 1);
        let b = a.allocate().unwrap();
        a.release(b).unwrap();
        assert!(a.release(b).is_err());
    }

    #[test]
    fn retain_free_block_is_rejected() {
        let mut a = BlockAllocator::new(Device::Gpu, 1);
        assert!(a.retain(0).is_err());
    }

    #[test]
    fn out_of_range_block_is_rejected() {
        let a = BlockAllocator::new(Device::Gpu, 1);
        assert!(matches!(a.ref_count(5), Err(KvCacheError::InvalidBlock { .. })));
    }

    #[test]
    fn zero_capacity_allocator_always_fails() {
        let mut a = BlockAllocator::new(Device::Gpu, 0);
        assert!(a.allocate().is_err());
        assert_eq!(a.num_blocks(), 0);
    }

    #[test]
    fn exhaustion_error_carries_exact_counts() {
        let mut a = BlockAllocator::new(Device::Gpu, 3);
        a.allocate().unwrap();
        let err = a.allocate_many(5).unwrap_err();
        assert!(matches!(
            err,
            KvCacheError::OutOfMemory {
                device: Device::Gpu,
                requested_blocks: 5,
                available_blocks: 2
            }
        ));
        // Draining the rest makes even a single-block request fail typed, never panic.
        a.allocate_many(2).unwrap();
        let err = a.allocate().unwrap_err();
        assert!(matches!(err, KvCacheError::OutOfMemory { requested_blocks: 1, .. }));
    }

    #[test]
    fn allocate_many_zero_succeeds_even_when_exhausted() {
        let mut a = BlockAllocator::new(Device::Cpu, 1);
        a.allocate().unwrap();
        assert_eq!(a.allocate_many(0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn release_out_of_range_is_a_typed_error() {
        let mut a = BlockAllocator::new(Device::Gpu, 2);
        assert!(matches!(
            a.release(7),
            Err(KvCacheError::InvalidBlock { block: 7, pool_blocks: 2 })
        ));
        assert!(matches!(a.retain(2), Err(KvCacheError::InvalidBlock { block: 2, .. })));
    }

    #[test]
    fn retained_blocks_are_never_rehanded_under_exhaustion() {
        // A fully retained pool must refuse new allocations rather than recycle a
        // shared block out from under its holders (the mid-eviction hazard).
        let mut a = BlockAllocator::new(Device::Gpu, 2);
        let b0 = a.allocate().unwrap();
        let b1 = a.allocate().unwrap();
        a.retain(b0).unwrap();
        // One release each: b0 stays live (shared), b1 frees.
        assert!(!a.release(b0).unwrap());
        assert!(a.release(b1).unwrap());
        let again = a.allocate().unwrap();
        assert_eq!(again, b1, "only the truly free block is reused");
        assert!(a.allocate().is_err(), "the shared block is not up for grabs");
        assert_eq!(a.ref_count(b0).unwrap(), 1);
    }

    #[test]
    fn free_list_is_lifo_with_block_zero_first() {
        let mut a = BlockAllocator::new(Device::Gpu, 3);
        assert_eq!(a.allocate().unwrap(), 0);
        assert_eq!(a.allocate().unwrap(), 1);
        a.release(0).unwrap();
        // The most recently freed (cache-warm) block comes back first.
        assert_eq!(a.allocate().unwrap(), 0);
        assert_eq!(a.allocate().unwrap(), 2);
    }

    proptest! {
        /// Allocations never hand out the same block twice while it is live, and
        /// used + free always equals the capacity.
        #[test]
        fn prop_no_double_allocation(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut a = BlockAllocator::new(Device::Gpu, 16);
            let mut live: Vec<usize> = Vec::new();
            for op in ops {
                match op {
                    0 => {
                        if let Ok(b) = a.allocate() {
                            prop_assert!(!live.contains(&b), "block {} handed out twice", b);
                            live.push(b);
                        }
                    }
                    1 => {
                        if let Some(b) = live.pop() {
                            prop_assert!(a.release(b).unwrap());
                        }
                    }
                    _ => {
                        if let Ok(bs) = a.allocate_many(3) {
                            for b in bs {
                                prop_assert!(!live.contains(&b));
                                live.push(b);
                            }
                        }
                    }
                }
                prop_assert_eq!(a.num_used(), live.len());
                prop_assert_eq!(a.num_used() + a.num_free(), 16);
            }
        }
    }
}
