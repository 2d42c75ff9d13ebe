//! Workload generation for the NEO reproduction.
//!
//! The paper evaluates on two real traces and a family of synthetic sweeps:
//!
//! * **Azure LLM inference trace for coding (AC)** — production coding-assistant requests
//!   with long prompts (roughly 1–4k tokens) and short-to-medium outputs, heavy-tailed.
//!   Used on the H100 and A10G testbeds (Figures 6a/6b, 7, 8, 10b).
//! * **OpenAI summarization comparison (OSC)** — chat summarisation requests with much
//!   shorter prompts and outputs. Used on the low-end T4 testbed (Figure 6c).
//! * **Synthetic workloads** — input and output lengths sampled independently and
//!   uniformly from `[0.9·l, 1.1·l]` for a target pair `(l_i, l_o)` (Figures 8b, 9, 10a).
//!
//! The original trace files are not redistributable, so [`datasets`] generates synthetic
//! traces whose length statistics match the published characteristics (documented on each
//! constructor); arrivals follow a Poisson process as in §5.2 of the paper.
//!
//! # Example
//!
//! ```
//! use neo_workload::{azure_code_like, ArrivalProcess};
//!
//! let trace = azure_code_like(100, ArrivalProcess::Poisson { rate: 1.0 }, 42);
//! let stats = trace.stats();
//! assert_eq!(stats.count, 100);
//! // Coding-assistant prompts dwarf their outputs.
//! assert!(stats.mean_prompt > stats.mean_output);
//! ```

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod datasets;
pub mod lengths;
pub mod sessions;
pub mod slo;
pub mod trace;

pub use arrivals::ArrivalProcess;
pub use datasets::{azure_code_like, fleet_mix, osc_like, synthetic};
pub use lengths::LengthDistribution;
pub use sessions::{
    agent_loop, multi_turn_chat, AgentConfig, ChatConfig, SessionRequest, SessionTrace,
};
pub use slo::SloPolicy;
pub use trace::{Trace, TraceRequest, TraceStats};
