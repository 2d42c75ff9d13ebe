//! Paged KV cache for the NEO reproduction.
//!
//! NEO splits the KV cache into two components (§3.1 of the paper): a **GPU-cache** in GPU
//! HBM and a **CPU-cache** in host DRAM. Any prefilled request lives entirely in one of the
//! two — a *GPU-request* or a *CPU-request* — and the scheduler may swap a request between
//! the two pools across iterations. Both caches are paged (fixed-size token blocks) in the
//! style of vLLM's PagedAttention to avoid fragmentation.
//!
//! This crate provides:
//!
//! * [`idtable::IdTable`] — values keyed by request id with O(1) lookup and ascending-id
//!   iteration, indexed over the window of live ids; it holds the manager's sequences
//!   and the engine's requests.
//! * [`blocktable::BlockTable`] — the per-sequence logical-to-physical block mapping.
//! * [`pool::KvPool`] — one device's pool: capacity accounting over a free-list block
//!   allocator with reference counting.
//! * [`manager::KvCacheManager`] — the multi-tier manager: sequence allocation, growth,
//!   release, GPU↔CPU (and optional disk-tier) swaps with byte accounting, plus the
//!   shared-prefix adoption/insertion hooks.
//! * [`prefix::PrefixIndex`] — a block-granular radix tree over prompt token runs so
//!   requests sharing a prefix reuse cached KV copy-on-write instead of re-prefilling.
//! * [`storage::PagedStorage`] — a real `f32` backing store for the functional attention
//!   kernels in `neo-kernels` (the "PACPU" equivalent), addressed through block tables.
//!
//! The crate accounts for *where* KV lives and how many bytes a swap moves; how long a
//! swap takes, and how much of it hides behind compute, is priced in `neo_sim`
//! (`costmodel` and the layer-wise overlap in `transfer`).
//!
//! # Example
//!
//! ```
//! use neo_kvcache::manager::{KvCacheManager, KvCacheConfig};
//! use neo_kvcache::pool::Device;
//!
//! let config = KvCacheConfig { block_size: 16, gpu_capacity_tokens: 4096,
//!     cpu_capacity_tokens: 65536, kv_bytes_per_token: 128 * 1024 };
//! let mut mgr = KvCacheManager::new(config);
//! mgr.allocate_sequence(7, 100, Device::Gpu)?;
//! mgr.append_tokens(7, 1)?;
//! let swap = mgr.swap(7, Device::Cpu)?;
//! assert!(swap.bytes > 0);
//! # Ok::<(), neo_kvcache::error::KvCacheError>(())
//! ```

#![forbid(unsafe_code)]

pub mod blocktable;
pub mod error;
pub mod idtable;
pub mod manager;
pub mod pool;
pub mod prefix;
pub mod storage;

pub use blocktable::BlockTable;
pub use error::KvCacheError;
pub use idtable::{IdTable, OutOfWindow, MAX_ID_WINDOW};
pub use manager::{KvCacheConfig, KvCacheManager, PrefixAdoption, RankOccupancy};
pub use pool::{Device, KvPool};
pub use prefix::{expand, PrefixHit, PrefixIndex, Token, TokenRun};
pub use storage::PagedStorage;
