//! The benchmark's one wall-clock seam.
//!
//! Every host-time number the benchmark reports is read through [`Stamp`]; nothing else
//! in the benchmark (and nothing in the simulator crates) touches the wall clock.

// neo-lint: allow(no-ambient-time) -- host wall time is what this benchmark measures, and this alias is its only clock
type HostClock = std::time::Instant;

/// One host wall-clock reading.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(HostClock);

impl Stamp {
    /// Reads the clock.
    pub fn now() -> Self {
        Self(HostClock::now())
    }

    /// Host seconds since this reading.
    pub fn elapsed_s(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Host nanoseconds since this reading.
    pub fn elapsed_ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
