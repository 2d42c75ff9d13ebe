//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of timed [`FaultEvent`]s — engine fail-stop/recover, link
//! degradation and restoration — applied to the fleet at exact simulated instants.
//! The plan is data (serde-round-trippable), not callbacks, so a fault scenario is
//! reproducible byte-for-byte: the same plan on the same trace yields the same
//! [`crate::ClusterReport`], which `tests/fault_determinism.rs` pins for one failure
//! trace. Per-request completion deadlines are not faults: they come from
//! [`crate::ClusterConfig::slo`], and the cluster applies them right after the plan's
//! faults of the same instant.
//!
//! Plans are either hand-built (the builder methods) or sampled from a seed
//! ([`FaultPlan::seeded_outages`]) for sweep drivers that need *many* reproducible
//! fault patterns at a controlled rate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a [`FaultEvent`] does to the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail-stop `engine`: its KV is lost, every queued and in-flight request it held
    /// is orphaned (failed over or shed), and it accepts nothing until recovery.
    EngineFail,
    /// Bring `engine` back into service, empty.
    EngineRecover,
    /// Degrade `engine`'s frontend link: multiply bandwidth by `bandwidth_factor`
    /// and add `added_latency_s` of propagation latency.
    LinkDegrade,
    /// Restore `engine`'s frontend link to its base rates.
    LinkRestore,
}

/// One timed fault. A flat record: `bandwidth_factor` and `added_latency_s` are read
/// only by [`FaultKind::LinkDegrade`] and ignored (but still serialised) otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated instant the fault fires.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
    /// Target engine index.
    pub engine: usize,
    /// Bandwidth multiplier in `(0, 1]`-ish (`LinkDegrade`; 1.0 elsewhere).
    pub bandwidth_factor: f64,
    /// Added propagation latency in seconds (`LinkDegrade`; 0.0 elsewhere).
    pub added_latency_s: f64,
}

impl FaultEvent {
    fn new(at: f64, kind: FaultKind) -> Self {
        Self { at, kind, engine: 0, bandwidth_factor: 1.0, added_latency_s: 0.0 }
    }
}

/// A deterministic schedule of faults, applied by [`crate::Cluster`] as timed events
/// in its settle loop. The default plan is empty: with it, the fault
/// machinery is inert and every cluster output is byte-identical to a faultless run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, in insertion order (sorted by time when applied).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no faults, byte-identical outputs to a faultless run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules a fail-stop of `engine` at `at`.
    pub fn engine_fail(mut self, at: f64, engine: usize) -> Self {
        self.events.push(FaultEvent { engine, ..FaultEvent::new(at, FaultKind::EngineFail) });
        self
    }

    /// Schedules a recovery of `engine` at `at`.
    pub fn engine_recover(mut self, at: f64, engine: usize) -> Self {
        self.events.push(FaultEvent { engine, ..FaultEvent::new(at, FaultKind::EngineRecover) });
        self
    }

    /// Degrades `engine`'s link at `at`: bandwidth is multiplied by
    /// `bandwidth_factor` (must be positive) and `added_latency_s` is added to the
    /// propagation latency.
    pub fn link_degrade(
        mut self,
        at: f64,
        engine: usize,
        bandwidth_factor: f64,
        added_latency_s: f64,
    ) -> Self {
        self.events.push(FaultEvent {
            engine,
            bandwidth_factor,
            added_latency_s,
            ..FaultEvent::new(at, FaultKind::LinkDegrade)
        });
        self
    }

    /// Restores `engine`'s link to its base rates at `at`.
    pub fn link_restore(mut self, at: f64, engine: usize) -> Self {
        self.events.push(FaultEvent { engine, ..FaultEvent::new(at, FaultKind::LinkRestore) });
        self
    }

    /// Samples `outages` fail-stop/recover pairs over `engines` engines: each outage
    /// fail-stops a uniformly chosen engine at a uniform instant in `[0, horizon)`
    /// and recovers it `outage_s` later. Fully determined by `seed` — the workhorse
    /// of fault-rate sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is zero or `horizon`/`outage_s` are not positive finite.
    pub fn seeded_outages(
        engines: usize,
        horizon: f64,
        outages: usize,
        outage_s: f64,
        seed: u64,
    ) -> Self {
        assert!(engines > 0, "need at least one engine to fail");
        assert!(horizon.is_finite() && horizon > 0.0, "horizon must be positive and finite");
        assert!(outage_s.is_finite() && outage_s > 0.0, "outage must be positive and finite");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for _ in 0..outages {
            let at = rng.gen_range(0.0..horizon);
            let engine = rng.gen_range(0..engines);
            plan = plan.engine_fail(at, engine).engine_recover(at + outage_s, engine);
        }
        plan
    }

    /// The plan's events sorted by time (stable: same-instant events keep insertion
    /// order), the order the cluster applies them in.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_sorts_events() {
        let plan = FaultPlan::new()
            .engine_recover(8.0, 1)
            .engine_fail(2.0, 1)
            .link_degrade(2.0, 0, 0.1, 0.05)
            .link_restore(5.0, 3);
        assert_eq!(plan.events.len(), 4);
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].kind, FaultKind::EngineFail);
        assert_eq!(sorted[1].kind, FaultKind::LinkDegrade, "stable at same instant");
        assert_eq!(sorted[2].kind, FaultKind::LinkRestore);
        assert_eq!(sorted[2].engine, 3);
        assert_eq!(sorted[3].kind, FaultKind::EngineRecover);
    }

    #[test]
    fn seeded_outages_are_reproducible_and_paired() {
        let a = FaultPlan::seeded_outages(3, 100.0, 5, 10.0, 42);
        let b = FaultPlan::seeded_outages(3, 100.0, 5, 10.0, 42);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded_outages(3, 100.0, 5, 10.0, 43));
        assert_eq!(a.events.len(), 10);
        for pair in a.events.chunks(2) {
            assert_eq!(pair[0].kind, FaultKind::EngineFail);
            assert_eq!(pair[1].kind, FaultKind::EngineRecover);
            assert_eq!(pair[0].engine, pair[1].engine);
            assert!((pair[1].at - pair[0].at - 10.0).abs() < 1e-12);
            assert!(pair[0].at >= 0.0 && pair[0].at < 100.0);
        }
    }

    #[test]
    fn round_trips_through_serde() {
        let plan = FaultPlan::new().engine_fail(1.5, 2).link_degrade(3.0, 0, 0.25, 0.01);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn empty_plan_is_default() {
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::new().engine_fail(0.0, 0).is_empty());
    }
}
