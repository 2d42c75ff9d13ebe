//! Per-sequence block table: the logical-token → physical-block mapping.

use crate::error::KvCacheError;

/// The block table of one sequence.
///
/// Logical token `i` of the sequence lives in physical block `blocks[i / block_size]` at
/// offset `i % block_size`. The table grows as the sequence decodes; the physical blocks
/// themselves come from a [`crate::pool::KvPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTable {
    block_size: usize,
    blocks: Vec<usize>,
    num_tokens: usize,
}

impl BlockTable {
    /// Creates an empty table with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self { block_size, blocks: Vec::new(), num_tokens: 0 }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of logical tokens stored.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Number of physical blocks backing the sequence.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The physical blocks, in logical order.
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// How many *additional* physical blocks are needed to append `n` more tokens.
    pub fn blocks_needed_for_append(&self, n: usize) -> usize {
        let total_needed = (self.num_tokens + n).div_ceil(self.block_size);
        total_needed.saturating_sub(self.blocks.len())
    }

    /// Number of free slots in the final (partially filled) block.
    pub fn slack(&self) -> usize {
        self.blocks.len() * self.block_size - self.num_tokens
    }

    /// Appends `n` tokens backed by `new_blocks` additional physical blocks.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] (with `pool_blocks == usize::MAX` as a
    /// sentinel) when the number of provided blocks does not match
    /// [`Self::blocks_needed_for_append`]; the table is unchanged in that case.
    pub fn append(&mut self, n: usize, new_blocks: Vec<usize>) -> Result<(), KvCacheError> {
        let needed = self.blocks_needed_for_append(n);
        if new_blocks.len() != needed {
            return Err(KvCacheError::InvalidBlock {
                block: new_blocks.len(),
                pool_blocks: usize::MAX,
            });
        }
        self.blocks.extend(new_blocks);
        self.num_tokens += n;
        Ok(())
    }

    /// Appends `n` tokens when they fit the final block's slack, so no new block is
    /// needed, and reports whether they did; the table is unchanged when they do not.
    pub(crate) fn append_in_slack(&mut self, n: usize) -> bool {
        let fits = n <= self.slack();
        if fits {
            self.num_tokens += n;
        }
        fits
    }

    /// Physical location `(block, offset)` of logical token `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidBlock`] when `idx` is out of range.
    pub fn locate(&self, idx: usize) -> Result<(usize, usize), KvCacheError> {
        if idx >= self.num_tokens {
            return Err(KvCacheError::InvalidBlock { block: idx, pool_blocks: self.num_tokens });
        }
        Ok((self.blocks[idx / self.block_size], idx % self.block_size))
    }

    /// Clears the table and returns the physical blocks that were backing it (for release).
    pub fn take_blocks(&mut self) -> Vec<usize> {
        self.num_tokens = 0;
        std::mem::take(&mut self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn append_and_locate() {
        let mut t = BlockTable::new(4);
        assert_eq!(t.blocks_needed_for_append(5), 2);
        t.append(5, vec![10, 11]).unwrap();
        assert_eq!(t.num_tokens(), 5);
        assert_eq!(t.locate(0).unwrap(), (10, 0));
        assert_eq!(t.locate(3).unwrap(), (10, 3));
        assert_eq!(t.locate(4).unwrap(), (11, 0));
        assert!(t.locate(5).is_err());
    }

    #[test]
    fn slack_fills_before_new_blocks() {
        let mut t = BlockTable::new(4);
        t.append(3, vec![7]).unwrap();
        assert_eq!(t.slack(), 1);
        // One more token fits in the slack.
        assert_eq!(t.blocks_needed_for_append(1), 0);
        t.append(1, vec![]).unwrap();
        assert_eq!(t.slack(), 0);
        assert_eq!(t.blocks_needed_for_append(1), 1);
    }

    #[test]
    fn append_with_wrong_block_count_is_rejected() {
        let mut t = BlockTable::new(4);
        assert!(t.append(5, vec![1]).is_err());
        assert_eq!(t.num_tokens(), 0);
        assert_eq!(t.num_blocks(), 0);
    }

    #[test]
    fn take_blocks_empties_the_table() {
        let mut t = BlockTable::new(2);
        t.append(4, vec![1, 2]).unwrap();
        let blocks = t.take_blocks();
        assert_eq!(blocks, vec![1, 2]);
        assert_eq!(t.num_tokens(), 0);
        assert_eq!(t.num_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let _ = BlockTable::new(0);
    }

    proptest! {
        /// Token count, block count and slack stay mutually consistent across arbitrary
        /// append patterns, and every token remains addressable.
        #[test]
        fn prop_table_consistency(appends in proptest::collection::vec(1usize..20, 1..40)) {
            let block_size = 4;
            let mut t = BlockTable::new(block_size);
            let mut next_block = 0usize;
            for n in appends {
                let needed = t.blocks_needed_for_append(n);
                let blocks: Vec<usize> = (next_block..next_block + needed).collect();
                next_block += needed;
                t.append(n, blocks).unwrap();

                prop_assert_eq!(t.num_blocks(), t.num_tokens().div_ceil(block_size));
                prop_assert!(t.slack() < block_size);
                // All tokens addressable, none beyond the end.
                prop_assert!(t.locate(t.num_tokens().saturating_sub(1)).is_ok());
                prop_assert!(t.locate(t.num_tokens()).is_err());
            }
        }
    }
}
