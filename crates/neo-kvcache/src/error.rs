//! Error types for the paged KV cache.

use crate::idtable::OutOfWindow;
use crate::pool::Device;

/// Errors returned by KV cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCacheError {
    /// A pool did not have enough free blocks to satisfy an allocation.
    OutOfMemory {
        /// Device whose pool was exhausted.
        device: Device,
        /// Blocks requested by the failed operation.
        requested_blocks: usize,
        /// Blocks that were actually free.
        available_blocks: usize,
    },
    /// The sequence id is not tracked by the manager.
    UnknownSequence(u64),
    /// The sequence id is already tracked (double allocation).
    DuplicateSequence(u64),
    /// The sequence id lies so far from the tracked ones that holding it would stretch
    /// the manager's id window past [`crate::MAX_ID_WINDOW`] ids.
    IdOutOfWindow {
        /// The refused sequence id.
        seq_id: u64,
        /// The oldest tracked sequence id.
        oldest: u64,
        /// The newest tracked sequence id.
        newest: u64,
    },
    /// A swap was requested to the device the sequence already lives on.
    AlreadyOnDevice {
        /// The sequence being swapped.
        seq_id: u64,
        /// The device it already resides on.
        device: Device,
    },
    /// A block index was outside the pool it was used with.
    InvalidBlock {
        /// The offending block index.
        block: usize,
        /// Number of blocks in the pool.
        pool_blocks: usize,
    },
}

impl std::fmt::Display for KvCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvCacheError::OutOfMemory { device, requested_blocks, available_blocks } => write!(
                f,
                "out of {device} KV cache memory: requested {requested_blocks} blocks, \
                 {available_blocks} free"
            ),
            KvCacheError::UnknownSequence(id) => write!(f, "unknown sequence {id}"),
            KvCacheError::DuplicateSequence(id) => {
                write!(f, "sequence {id} already has an allocation")
            }
            KvCacheError::IdOutOfWindow { seq_id, oldest, newest } => write!(
                f,
                "sequence {seq_id} lies too far from the tracked sequences {oldest}..={newest}"
            ),
            KvCacheError::AlreadyOnDevice { seq_id, device } => {
                write!(f, "sequence {seq_id} already resides on {device}")
            }
            KvCacheError::InvalidBlock { block, pool_blocks } => {
                write!(f, "block {block} out of range for pool of {pool_blocks} blocks")
            }
        }
    }
}

impl std::error::Error for KvCacheError {}

impl From<OutOfWindow> for KvCacheError {
    fn from(e: OutOfWindow) -> Self {
        KvCacheError::IdOutOfWindow { seq_id: e.id, oldest: e.oldest, newest: e.newest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = KvCacheError::OutOfMemory {
            device: Device::Gpu,
            requested_blocks: 4,
            available_blocks: 1,
        };
        let s = e.to_string();
        assert!(s.contains("out of"));
        assert!(s.contains('4') && s.contains('1'));
        assert!(!s.ends_with('.'));

        assert!(KvCacheError::UnknownSequence(9).to_string().contains('9'));
        assert!(KvCacheError::DuplicateSequence(3).to_string().contains('3'));
        let far = KvCacheError::from(OutOfWindow { id: 99, oldest: 4, newest: 7 });
        assert!(far.to_string().contains("99") && far.to_string().contains("4..=7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<KvCacheError>();
    }
}
