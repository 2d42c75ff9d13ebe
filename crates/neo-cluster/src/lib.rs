//! Cluster-scale serving: a routed fleet of NEO engines under one simulated clock.
//!
//! The single-engine story ([`neo_serve::Server`] over [`neo_core::Engine`]) serves one
//! GPU node. Millions of users mean a *fleet*: N servers — possibly heterogeneous
//! (T4 + A10G + H100, each paired with the model it serves in the paper's Table 1) —
//! fronted by a router that decides, per request, which engine gets it. This crate runs
//! that fleet as one simulation under one clock:
//!
//! * each engine/server pair wakes at its [`neo_serve::Server::next_activity`] time and
//!   is advanced with [`neo_serve::Server::poll`];
//! * each frontend→engine network hop is a serial FIFO link
//!   ([`neo_sim::event::SerialLine`]);
//! * the router binds requests to engines at frontend arrival times under a pluggable
//!   [`Discipline`].
//!
//! # One settle order
//!
//! Routing is the classic place for event order to leak into outputs: a router reading
//! engine queue depths at instant *t* sees different depths depending on whether an
//! engine's same-instant completion was processed first. [`Cluster::run`] rules this
//! out with one loop: it takes the earliest instant at which anything has work and
//! settles it in a fixed global order — faults → deadlines → link deliveries → engine
//! steps → retry re-dispatch → frontend arrivals → central dispatch — then moves on to
//! the next instant. Every output (routing trace included) is therefore a function of
//! the trace, the fleet and the configuration alone; the `cluster_determinism`
//! integration suite pins one routing trace with exact literals.
//!
//! # Failure model
//!
//! Faults are data, not chaos: a [`FaultPlan`] schedules engine fail-stops and
//! recoveries and link degradations at exact simulated instants, applied in the same
//! fixed settle order as everything else — so a fault scenario is as bit-reproducible
//! as a faultless run (the `fault_determinism` suite pins one failure trace). When an
//! engine dies the router marks it down and, with failover enabled, re-dispatches its
//! orphaned requests to survivors under capped exponential backoff and a per-request
//! budget of [`RETRY_BUDGET`] retries; requests that exhaust the budget, miss an
//! [`neo_workload::SloPolicy`] deadline, or fit no engine are shed with a typed
//! [`neo_serve::DropReason`]. Every request ends in exactly one terminal state:
//! completed, or dropped with a recorded reason ([`ClusterReport::drops`]).
//!
//! # Example
//!
//! ```
//! use neo_cluster::{Cluster, ClusterConfig, Discipline};
//! use neo_core::{Engine, EngineConfig, NeoScheduler};
//! use neo_sim::{CostModel, ModelDesc, Testbed};
//! use neo_workload::{synthetic, ArrivalProcess};
//!
//! let engine = |_| {
//!     let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
//!     Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()))
//! };
//! let fleet = vec![("a10g-0".to_string(), engine(0)), ("a10g-1".to_string(), engine(1))];
//! let trace = synthetic(8, 300, 16, ArrivalProcess::Uniform { rate: 4.0 }, 7);
//! let config = ClusterConfig { discipline: Discipline::LeastKv, ..ClusterConfig::default() };
//! let report = Cluster::new(fleet, &trace, config).run();
//! assert_eq!(report.completed, 8);
//! assert_eq!(report.routes.len(), 8);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod discipline;
pub mod fault;

pub use cluster::{
    Cluster, ClusterConfig, ClusterReport, DropRecord, EngineSummary, RouteRecord, RETRY_BUDGET,
};
pub use discipline::Discipline;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
