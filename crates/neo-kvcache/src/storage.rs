//! Physical paged storage of KV vectors, used by the functional attention kernels.
//!
//! The simulation path of this reproduction only needs block *accounting*
//! ([`crate::manager::KvCacheManager`]); the functional path (`neo-kernels` / `neo-model`)
//! additionally needs the actual numbers. [`PagedStorage`] is that backing store: a flat
//! `f32` buffer per layer organised as `[block, slot, kv_head, head_dim]`, addressed
//! through the same block tables the manager maintains — exactly the layout the paper's
//! PACPU kernel reads.

use crate::blocktable::BlockTable;
use crate::error::KvCacheError;

/// Physical K/V storage for one transformer layer on one device.
#[derive(Debug, Clone)]
pub struct PagedStorage {
    num_blocks: usize,
    block_size: usize,
    n_kv_heads: usize,
    head_dim: usize,
    k: Vec<f32>,
    v: Vec<f32>,
}

impl PagedStorage {
    /// Allocates storage for `num_blocks` blocks of `block_size` tokens each, with
    /// `n_kv_heads` KV heads of dimension `head_dim`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(num_blocks: usize, block_size: usize, n_kv_heads: usize, head_dim: usize) -> Self {
        assert!(block_size > 0 && n_kv_heads > 0 && head_dim > 0, "dimensions must be positive");
        let elems = num_blocks * block_size * n_kv_heads * head_dim;
        Self {
            num_blocks,
            block_size,
            n_kv_heads,
            head_dim,
            k: vec![0.0; elems],
            v: vec![0.0; elems],
        }
    }

    /// Number of `f32` elements one token's K (or V) entry occupies.
    pub fn token_stride(&self) -> usize {
        self.n_kv_heads * self.head_dim
    }

    /// Number of `f32` elements one block's K (or V) entries occupy.
    pub fn block_stride(&self) -> usize {
        self.block_size * self.token_stride()
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of KV heads stored per token.
    pub fn n_kv_heads(&self) -> usize {
        self.n_kv_heads
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of physical blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    fn offset(&self, block: usize, slot: usize) -> Result<usize, KvCacheError> {
        if block >= self.num_blocks {
            return Err(KvCacheError::InvalidBlock { block, pool_blocks: self.num_blocks });
        }
        if slot >= self.block_size {
            return Err(KvCacheError::InvalidBlock { block: slot, pool_blocks: self.block_size });
        }
        Ok(block * self.block_stride() + slot * self.token_stride())
    }

    /// Writes one token's K and V vectors (each `n_kv_heads * head_dim` long) into
    /// physical `(block, slot)`.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `v` has the wrong length.
    pub fn write_token(
        &mut self,
        block: usize,
        slot: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), KvCacheError> {
        let stride = self.token_stride();
        assert_eq!(k.len(), stride, "k vector has wrong length");
        assert_eq!(v.len(), stride, "v vector has wrong length");
        let off = self.offset(block, slot)?;
        self.k[off..off + stride].copy_from_slice(k);
        self.v[off..off + stride].copy_from_slice(v);
        Ok(())
    }

    /// Reads one token's K vector.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range coordinates.
    pub fn read_k(&self, block: usize, slot: usize) -> Result<&[f32], KvCacheError> {
        let off = self.offset(block, slot)?;
        Ok(&self.k[off..off + self.token_stride()])
    }

    /// Reads one token's V vector.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] on out-of-range coordinates.
    pub fn read_v(&self, block: usize, slot: usize) -> Result<&[f32], KvCacheError> {
        let off = self.offset(block, slot)?;
        Ok(&self.v[off..off + self.token_stride()])
    }

    /// Copies a whole sequence's KV entries from `src` (read through `src_table`) into
    /// `self` (written through `dst_table`). This is the functional analogue of a PCIe
    /// swap: same logical content, different physical blocks / device.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] if either table addresses storage out of
    /// range, or if the tables have different logical lengths.
    pub fn copy_sequence_from(
        &mut self,
        src: &PagedStorage,
        src_table: &BlockTable,
        dst_table: &BlockTable,
    ) -> Result<(), KvCacheError> {
        if src_table.num_tokens() != dst_table.num_tokens() {
            return Err(KvCacheError::InvalidBlock {
                block: dst_table.num_tokens(),
                pool_blocks: src_table.num_tokens(),
            });
        }
        for i in 0..src_table.num_tokens() {
            let (sb, ss) = src_table.locate(i)?;
            let (db, ds) = dst_table.locate(i)?;
            let k: Vec<f32> = src.read_k(sb, ss)?.to_vec();
            let v: Vec<f32> = src.read_v(sb, ss)?.to_vec();
            self.write_token(db, ds, &k, &v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage() -> PagedStorage {
        PagedStorage::new(4, 2, 2, 3)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = storage();
        let k: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let v: Vec<f32> = (10..16).map(|x| x as f32).collect();
        s.write_token(1, 1, &k, &v).unwrap();
        assert_eq!(s.read_k(1, 1).unwrap(), &k[..]);
        assert_eq!(s.read_v(1, 1).unwrap(), &v[..]);
        // Other slots untouched.
        assert!(s.read_k(1, 0).unwrap().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn out_of_range_access_is_an_error() {
        let s = storage();
        assert!(s.read_k(4, 0).is_err());
        assert!(s.read_k(0, 2).is_err());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_vector_length_panics() {
        let mut s = storage();
        s.write_token(0, 0, &[1.0], &[1.0]).unwrap();
    }

    #[test]
    fn copy_sequence_between_storages_preserves_content() {
        let mut gpu = PagedStorage::new(8, 2, 2, 3);
        let mut cpu = PagedStorage::new(8, 2, 2, 3);
        let mut src_table = BlockTable::new(2);
        src_table.append(3, vec![5, 6]).unwrap();
        let mut dst_table = BlockTable::new(2);
        dst_table.append(3, vec![0, 1]).unwrap();

        for i in 0..3usize {
            let (b, s) = src_table.locate(i).unwrap();
            let k = vec![i as f32; 6];
            let v = vec![i as f32 + 100.0; 6];
            gpu.write_token(b, s, &k, &v).unwrap();
        }
        cpu.copy_sequence_from(&gpu, &src_table, &dst_table).unwrap();
        for i in 0..3usize {
            let (b, s) = dst_table.locate(i).unwrap();
            assert_eq!(cpu.read_k(b, s).unwrap()[0], i as f32);
            assert_eq!(cpu.read_v(b, s).unwrap()[0], i as f32 + 100.0);
        }
    }

    #[test]
    fn copy_sequence_length_mismatch_is_rejected() {
        let gpu = PagedStorage::new(2, 2, 2, 3);
        let mut cpu = PagedStorage::new(2, 2, 2, 3);
        let mut a = BlockTable::new(2);
        a.append(2, vec![0]).unwrap();
        let b = BlockTable::new(2);
        assert!(cpu.copy_sequence_from(&gpu, &a, &b).is_err());
    }

    #[test]
    fn strides_are_consistent() {
        let s = storage();
        assert_eq!(s.token_stride(), 6);
        assert_eq!(s.block_stride(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = PagedStorage::new(1, 0, 2, 3);
    }
}
