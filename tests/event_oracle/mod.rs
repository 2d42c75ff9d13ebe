//! The event-ordered pricing oracle: a task-graph runner over serial resources
//! ([`task_graph`]) and the iteration pricing built on it ([`overlap`]). Only
//! `tests/event_determinism.rs` uses it, to check the closed forms the engine charges.

pub mod overlap;
pub mod task_graph;
