//! NEO core: the paper's contribution.
//!
//! This crate implements the two mechanisms that define NEO (Jiang et al., MLSys 2025):
//!
//! * **Asymmetric GPU–CPU pipelining** (§3.1) — every iteration runs two complementary
//!   sub-batches. *Batch-0* carries all prefill chunks, all GPU-resident decode requests
//!   and a few CPU-resident ones; *batch-1* carries the bulk of the CPU-resident decode
//!   requests. The GPU linear stages of one sub-batch overlap with the CPU attention of
//!   the other; newly produced KV destined for the CPU-cache is swapped out layer by
//!   layer, overlapped with compute. [`pipeline`] turns a candidate schedule into the
//!   paper's iteration-time estimate
//!   `T ≈ L·(max{Tl0, Tca1} + max{Tl1 + Tga0, Tca0})`.
//! * **Load-aware scheduling** (§3.2) — [`scheduler::NeoScheduler`] follows the paper's
//!   six-step per-iteration procedure (schedule GPU decodes, admit prefills, place CPU
//!   decodes under the balancing inequalities, shed prefills that force swap-outs, then
//!   greedily pick the better of the asymmetric and GPU-only schedules by estimated
//!   throughput).
//!
//! The crate also defines request progress ([`request`]), the sub-batch
//! abstraction ([`batch`]), the engine configuration ([`config`]), the [`Scheduler`]
//! trait (so the baselines in `neo-baselines` plug into the same engine), and the
//! iteration-level execution engine ([`engine::Engine`]) that applies scheduling
//! decisions to the paged KV cache and advances simulated time using the cost models
//! from `neo-sim`.
//!
//! The engine charges every iteration through the paper's closed forms ([`pipeline`]),
//! the one pricing path in the library. The event-ordered oracle they are checked
//! against lives beside its test, in `tests/event_oracle/`.
//!
//! # Example
//!
//! ```
//! use neo_core::config::EngineConfig;
//! use neo_core::engine::Engine;
//! use neo_core::request::Request;
//! use neo_core::scheduler::NeoScheduler;
//! use neo_sim::{CostModel, ModelDesc, Testbed};
//!
//! let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
//! let config = EngineConfig::default();
//! let mut engine = Engine::new(cost, config, Box::new(NeoScheduler::new()));
//! engine.submit(Request::new(0, 0.0, 128, 32)).unwrap();
//! while !engine.is_idle() {
//!     engine.step();
//! }
//! assert_eq!(engine.completed(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod admit;
pub mod batch;
pub mod config;
mod cpu_order;
pub mod engine;
pub mod pipeline;
pub mod policy;
pub mod request;
pub mod scheduler;

pub use admit::AdmitError;
pub use batch::{PrefillItem, ScheduleDecision, SubBatch};
pub use config::EngineConfig;
pub use engine::{Engine, IterationReport};
pub use pipeline::IterationEstimate;
pub use policy::{IterationPlan, SchedulerPolicy};
pub use request::Request;
pub use scheduler::{NeoScheduler, ScheduleContext, Scheduler};

/// Execution mode chosen for one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Plain GPU-only execution (what SwiftLLM/vLLM would do).
    GpuOnly,
    /// NEO's two-sub-batch asymmetric pipelining.
    Asymmetric,
    /// PIPO-style pipelined KV streaming: attention of CPU-resident decodes runs on the
    /// GPU over KV streamed in layer by layer, double-buffered with compute.
    Streamed,
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::GpuOnly => write!(f, "gpu-only"),
            ExecutionMode::Asymmetric => write!(f, "asymmetric"),
            ExecutionMode::Streamed => write!(f, "streamed"),
        }
    }
}
