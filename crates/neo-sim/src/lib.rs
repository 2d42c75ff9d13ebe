//! Hardware models, cost models and simulation primitives for the NEO reproduction.
//!
//! The original NEO system ([Jiang et al., MLSys 2025]) runs on real GPUs (T4, A10G, H100)
//! and offloads decoding attention to the local host CPU. This crate provides the
//! *performance substrate* of our reproduction:
//!
//! * [`hardware`] — datasheet-level specifications of every testbed in Table 1 of the
//!   paper (GPU memory size / bandwidth / FLOPS, CPU memory bandwidth / FLOPS, PCIe and
//!   NVLink links).
//! * [`model_desc`] — architectural descriptors of the evaluated models (LLaMa-2-7B,
//!   LLaMa-3.1-8B, LLaMa-3.1-70B) from which per-token FLOP and byte counts are derived.
//! * [`roofline`] — the roofline execution-time estimator (`max(compute, memory)` + launch
//!   overhead) used to model each operator on each device.
//! * [`costmodel`] — per-operator cost primitives (linear stage, GPU/CPU decode attention,
//!   prefill attention, PCIe swaps, tensor-parallel collectives) combined by the scheduler
//!   into the paper's iteration-time formula. Tensor parallelism is first-class: PCIe
//!   terms are priced per rank (`1/tp` of the bytes over each rank's own link) and
//!   [`costmodel::RankBudget`] exposes per-rank KV capacity so group-level decisions
//!   respect the tightest rank.
//! * [`profiler`] — the offline-profiling + piecewise-linear-interpolation layer the paper's
//!   load-aware scheduler uses instead of an exact analytical model (§3.2).
//! * [`transfer`] — double-buffered transfer/compute overlap terms used by the
//!   pipelined-offloading baselines (PIPO-style KV streaming) to reason about how much
//!   PCIe traffic hides behind per-layer compute.
//! * [`clock`] — the simulation clock used by the serving harness.
//! * [`event`] — serial resources in simulated time: the [`event::SerialLine`] FIFO link
//!   the cluster prices frontend→engine hops with, and the [`event::TaskGraph`] runner
//!   that executes job DAGs (layer compute, per-direction PCIe chunks) on serial
//!   resources so overlap falls out of event ordering instead of closed forms.
//!
//! # Example: per-operator costs
//!
//! ```
//! use neo_sim::hardware::Testbed;
//! use neo_sim::model_desc::ModelDesc;
//! use neo_sim::costmodel::CostModel;
//!
//! // A10G instance (g5.4xlarge) serving LLaMa-3.1-8B, as in Figure 6b of the paper.
//! let testbed = Testbed::g5_xlarge(4);
//! let model = ModelDesc::llama3_8b();
//! let cost = CostModel::new(model, testbed, 1);
//! // Per-layer linear-stage time for a 256-token batch is strictly positive and finite.
//! let t = cost.linear_time_gpu(256);
//! assert!(t > 0.0 && t.is_finite());
//! ```
//!
//! # Example: transfer/compute overlap
//!
//! A double-buffered pipeline hides PCIe traffic behind compute until the per-stage
//! transfer exceeds the per-stage compute, at which point the pipeline is transfer-bound:
//!
//! ```
//! use neo_sim::transfer::{double_buffered_time, transfer_bound};
//!
//! let layers = 32;
//! let compute = 1e-3; // seconds per layer
//! // A hidden transfer costs only the pipeline fill...
//! assert!(double_buffered_time(layers, compute, 0.5e-3) < layers as f64 * compute * 1.1);
//! // ...while a transfer-bound pipeline runs at the DMA engine's pace.
//! assert!(transfer_bound(compute, 2e-3));
//! assert!(double_buffered_time(layers, compute, 2e-3) > layers as f64 * 2e-3);
//! ```
//!
//! [Jiang et al., MLSys 2025]: https://arxiv.org/abs/2411.01142

#![forbid(unsafe_code)]

pub mod clock;
pub mod costmodel;
pub mod event;
pub mod hardware;
pub mod model_desc;
pub mod profiler;
pub mod roofline;
pub mod transfer;

pub use clock::SimClock;
pub use costmodel::{CostModel, RankBudget};
pub use event::{EventRecord, SerialLine, TaskGraph, TaskGraphRun};
pub use hardware::{CpuSpec, GpuSpec, InterconnectSpec, PcieSpec, Testbed};
pub use model_desc::ModelDesc;
pub use profiler::{Interpolator1d, ProfiledCostModel};
