//! A minimal, functional LLaMa-style transformer over the paged KV cache.
//!
//! The paper's system serves real LLaMa checkpoints on GPUs; this reproduction cannot, so
//! the *functional* path is a small decoder-only transformer with randomly initialised
//! weights that exercises every moving part the serving engine touches: token embedding,
//! RMSNorm, rotary embeddings, grouped-query attention read from the **paged** KV cache
//! (GPU pool or CPU pool), SwiGLU FFN, and the LM head. Its purpose is not language
//! quality but *behavioural fidelity*: prefill vs decode paths, per-layer cache writes,
//! cache swaps that must not change the math, and the same kernels (`neo-kernels`) the
//! offloaded CPU attention uses.
//!
//! The architectural descriptors of the real models (7B/8B/70B) live in
//! [`neo_sim::ModelDesc`] and are shared with the cost model; this crate instantiates real
//! weights only for the tiny test-sized configurations.
//!
//! # Example
//!
//! ```
//! use neo_model::{Model, PagedKvCache};
//! use neo_sim::ModelDesc;
//! use neo_kvcache::Device;
//!
//! let desc = ModelDesc::tiny();
//! let model = Model::random(&desc, 42);
//! let mut cache = PagedKvCache::new(&desc, 16, 1024, 4096);
//! let logits = model.prefill(1, &[3, 17, 9], &mut cache, Device::Gpu)?;
//! assert_eq!(logits.len(), desc.vocab);
//! let next = model.decode(1, 42, &mut cache)?;
//! assert_eq!(next.len(), desc.vocab);
//! # Ok::<(), neo_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod linear;
pub mod model;
pub mod sampling;
pub mod weights;

pub use cache::PagedKvCache;
pub use model::{Model, ModelError};
pub use sampling::argmax;
pub use weights::{LayerWeights, ModelWeights};
