//! Queue disciplines: how the router binds frontend arrivals to engines.
//!
//! The taxonomy follows the multi-queue simulators used for NIC/core scheduling
//! (cFCFS vs dFCFS with an indirection table) extended with the offload-aware signal
//! this workspace is about: per-rank KV headroom.
//!
//! **Binding time** is the contract that separates them. `RoundRobin`, `DFcfs` and
//! `LeastKv` are *early binding*: the engine is chosen at the request's frontend
//! arrival and recorded then. `CFcfs` is *late binding*: arrivals queue centrally and
//! the engine is chosen at dispatch time, when an engine has room — its
//! [`crate::RouteRecord::time`] is the dispatch instant, not the arrival.

use serde::{Deserialize, Serialize};

/// A routing discipline for the cluster front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// Null baseline: engine `k mod N` for the `k`-th arrival. Ignores load and
    /// capacity entirely — the control every smarter discipline must beat.
    RoundRobin,
    /// Centralized FCFS: one central FIFO; a request is dispatched (FIFO order) to the
    /// least-outstanding engine as soon as some engine's outstanding work (server
    /// queue depth + requests in flight on its link) is below a dispatch window of 4
    /// requests. Late binding keeps the queue work-conserving, but the depth signal
    /// counts *requests*, not tokens — it cannot tell a T4 from an H100.
    CFcfs,
    /// Distributed FCFS: early binding through an indirection table — arrival `k`
    /// lands on `table[k mod E]`, the table (4 entries per engine) initialized
    /// round-robin over engines. Every 32 arrivals one table entry is remapped from
    /// the deepest to the shallowest engine, the RSS-style correction knob real
    /// distributed queues get.
    DFcfs,
    /// Least-KV-occupancy: early binding to the engine with the lowest KV pressure —
    /// its used GPU KV tokens plus the prompt tokens routed to it but not yet started
    /// (on its link or in [`neo_serve::Server::unstarted_prompt_tokens`]), over the KV
    /// capacity of its tightest rank. Every rank caches the same tokens, so the used
    /// tokens are the KV manager's `gpu_used_tokens`; the capacity is read once per
    /// engine from [`neo_core::Engine::rank_budgets`] when the cluster is built.
    /// Capacity-aware, so a heterogeneous fleet loads its T4 proportionally to the
    /// T4's cache, not to its share of the request count.
    LeastKv,
}

impl Discipline {
    /// Every discipline, in evaluation order. This is the registry the figure-JSON
    /// schema tests check `results/fig_cluster_sweep.json` labels against.
    pub const ALL: [Discipline; 4] =
        [Discipline::RoundRobin, Discipline::CFcfs, Discipline::DFcfs, Discipline::LeastKv];

    /// Display label used in figure JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            Discipline::RoundRobin => "round-robin",
            Discipline::CFcfs => "cFCFS",
            Discipline::DFcfs => "dFCFS",
            Discipline::LeastKv => "least-kv",
        }
    }

    /// Looks a discipline up by its display label.
    pub fn from_label(label: &str) -> Option<Discipline> {
        Discipline::ALL.into_iter().find(|d| d.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_resolvable() {
        let labels: Vec<&str> = Discipline::ALL.iter().map(|d| d.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        for d in Discipline::ALL {
            assert_eq!(Discipline::from_label(d.label()), Some(d));
        }
        assert_eq!(Discipline::from_label("fifo"), None);
    }

    #[test]
    fn serde_round_trip() {
        for d in Discipline::ALL {
            let json = serde_json::to_string(&d).unwrap();
            let back: Discipline = serde_json::from_str(&json).unwrap();
            assert_eq!(d, back);
        }
    }
}
