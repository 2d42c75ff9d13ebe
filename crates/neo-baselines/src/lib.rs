//! Baseline scheduling policies the paper compares NEO against.
//!
//! Every baseline implements the [`neo_core::SchedulerPolicy`] trait — the same
//! phase-decomposed policy seam `neo_core::NeoScheduler` is written against — and
//! therefore runs inside the exact same engine as NEO, so performance differences come
//! from policy alone:
//!
//! * [`gpu_only::GpuOnlyScheduler`] — vLLM-like / SwiftLLM-like GPU-only serving with
//!   iteration-level scheduling, paged KV and (optionally) chunked prefill. Never touches
//!   the CPU cache.
//! * [`fastdecode::FastDecodePlusScheduler`] — the paper's "FastDecode+": NEO's pipelining
//!   runtime but with *all* decode attention and KV offloaded to the CPU, no partial
//!   offload and no GPU-only fallback.
//! * [`strawmen::SimpleOffloadScheduler`] — strawman #1 (§3.1): full offload with no
//!   GPU/CPU overlap (the CPU attention sits serially after the GPU linear stage).
//! * [`strawmen::SymmetricPipelineScheduler`] — strawman #2 (§3.1): full offload with two
//!   *identical* decode sub-batches overlapped, prefill unintegrated.
//! * [`pipo::PipoScheduler`] — PIPO-style static pipelined offloading: all KV
//!   host-resident, decode attention on the GPU over a layer-by-layer KV stream
//!   double-buffered with compute (`neo_sim::transfer`).
//! * [`specoffload::SpecOffloadScheduler`] — SpecOffload-style speculative batch
//!   expansion: extra CPU-resident decodes are claimed optimistically to fill latent GPU
//!   capacity, with AIMD width control and mis-speculations paid as exposed CPU time.
//!
//! Per-baseline assumptions, cost-model terms and citations are catalogued in
//! `docs/BASELINES.md` at the repository root.
//!
//! # Example: constructing a policy and driving the engine
//!
//! Every policy plugs into [`neo_core::Engine`] through `Box<dyn Scheduler>`; nothing
//! about the engine changes between baselines:
//!
//! ```
//! use neo_baselines::PipoScheduler;
//! use neo_core::{Engine, EngineConfig, Request};
//! use neo_sim::{CostModel, ModelDesc, Testbed};
//!
//! let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
//! let mut engine = Engine::new(cost, EngineConfig::default(), Box::new(PipoScheduler::new()));
//! engine.submit(Request::new(0, 0.0, 256, 16));
//! engine.run_to_completion(100_000);
//! assert_eq!(engine.completed(), 1);
//! assert_eq!(engine.scheduler_name(), "pipo");
//! ```
//!
//! # Example: comparing two policies on the same workload
//!
//! Because the engine is shared, a comparison is two runs that differ only in the boxed
//! policy:
//!
//! ```
//! use neo_baselines::{GpuOnlyScheduler, SpecOffloadScheduler};
//! use neo_core::{Engine, EngineConfig, Request, Scheduler};
//! use neo_sim::{CostModel, ModelDesc, Testbed};
//!
//! let run = |sched: Box<dyn Scheduler>| {
//!     let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
//!     let mut engine = Engine::new(cost, EngineConfig::default(), sched);
//!     for id in 0..12 {
//!         engine.submit(Request::new(id, 0.0, 200, 16));
//!     }
//!     engine.run_to_completion(400_000);
//!     assert_eq!(engine.completed(), 12);
//!     engine.now() // makespan: lower is better
//! };
//! let gpu_only = run(Box::new(GpuOnlyScheduler::vllm_like()));
//! let spec = run(Box::new(SpecOffloadScheduler::new()));
//! assert!(gpu_only > 0.0 && spec > 0.0);
//! ```

#![forbid(unsafe_code)]

mod common;
pub mod fastdecode;
pub mod gpu_only;
pub mod pipo;
pub mod specoffload;
pub mod strawmen;

pub use fastdecode::FastDecodePlusScheduler;
pub use gpu_only::GpuOnlyScheduler;
pub use pipo::PipoScheduler;
pub use specoffload::SpecOffloadScheduler;
pub use strawmen::{SimpleOffloadScheduler, SymmetricPipelineScheduler};
