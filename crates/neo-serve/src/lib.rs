//! Online and offline serving harnesses plus latency/throughput metrics.
//!
//! The paper's evaluation has two measurement modes:
//!
//! * **Online** (§5.2, Figures 6, 7, 8a): requests arrive over time following a Poisson
//!   process; the metric is the *average per-token latency* (request latency divided by
//!   its output length) as a function of the offered request rate.
//! * **Offline** (§5.4, §5.5, Figures 8b, 9, 10): the whole trace is fed at once; the
//!   metric is token throughput — total tokens processed (input + output) divided by the
//!   total elapsed time — usually reported relative to the GPU-only baseline.
//!
//! [`online::run_online`] and [`offline::run_offline`] drive a [`neo_core::Engine`]
//! (with any scheduler) over a [`neo_workload::Trace`] and collect those metrics.
//!
//! Underneath the online driver sits the event-driven serving loop ([`server::Server`]):
//! requests are submitted individually (returning a [`RequestHandle`]), can be cancelled
//! mid-decode (freeing their KV blocks immediately), and stream their tokens through
//! per-request callbacks — the surface a real client or HTTP front-end builds on. It also
//! measures the two streaming latency metrics the paper's CDF figures need: time to first
//! token (TTFT) and inter-token latency (ITL).
//!
//! # Example
//!
//! ```
//! use neo_core::{Engine, EngineConfig, NeoScheduler};
//! use neo_serve::run_offline;
//! use neo_sim::{CostModel, ModelDesc, Testbed};
//! use neo_workload::{synthetic, ArrivalProcess};
//!
//! let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
//! let engine = Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()));
//! let trace = synthetic(8, 300, 40, ArrivalProcess::AllAtOnce, 1);
//! let result = run_offline(engine, &trace, 1_000_000);
//! assert_eq!(result.completed, 8);
//! assert!(result.token_throughput > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod offline;
pub mod online;
pub mod server;

pub use metrics::{Cdf, LatencySummary};
pub use offline::{run_offline, OfflineResult};
pub use online::{run_online, run_sessions, OnlineResult, SessionsResult};
pub use server::{
    DropReason, RequestHandle, RequestStatus, Server, ServerCounts, ServerReport, TokenCallback,
    TokenEvent,
};
