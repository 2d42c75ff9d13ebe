//! Simulation clock.
//!
//! The serving harness in `neo-serve` advances time iteration by iteration: the scheduler
//! forms a batch, the cost model produces the iteration's duration, and the clock moves
//! forward.

use std::cmp::Ordering;

/// A simulated instant, in seconds, totally ordered by [`f64::total_cmp`] so it can key
/// ordered collections: the serving loop's event heap and the cluster's wake-up index.
#[derive(Debug, Clone, Copy)]
pub struct SimTime(pub f64);

impl PartialEq for SimTime {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Monotonically advancing simulated time, in seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `dt` seconds and returns the new time.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite — a negative iteration time always
    /// indicates a cost-model bug and must not be silently absorbed.
    pub fn advance(&mut self, dt: f64) -> f64 {
        assert!(dt.is_finite() && dt >= 0.0, "clock must advance by a non-negative amount");
        self.now += dt;
        self.now
    }

    /// Moves the clock directly to `t`, which must not be in the past.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: f64) -> f64 {
        assert!(t + 1e-12 >= self.now, "cannot move the clock backwards");
        self.now = self.now.max(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.0);
        c.advance(2.5);
        assert!((c.now() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_clamped_to_future() {
        let mut c = SimClock::new();
        c.advance(10.0);
        c.advance_to(10.0);
        c.advance_to(12.0);
        assert_eq!(c.now(), 12.0);
    }

    #[test]
    fn sim_time_orders_by_total_cmp() {
        let mut times = [SimTime(2.5), SimTime(0.0), SimTime(-0.0), SimTime(1e-9)];
        times.sort();
        assert_eq!(times.map(|t| t.0.to_bits()), [-0.0f64, 0.0, 1e-9, 2.5].map(f64::to_bits));
        assert_eq!(SimTime(1.0), SimTime(1.0));
        assert_ne!(SimTime(0.0), SimTime(-0.0), "total order tells the zeros apart");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_advance_panics() {
        SimClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_to_past_panics() {
        let mut c = SimClock::new();
        c.advance(5.0);
        c.advance_to(1.0);
    }
}
