//! Transfer/compute overlap models for pipelined offloading.
//!
//! The pipelined-offloading family (PIPO, and more generally any scheduler that streams
//! KV or weights over PCIe while the GPU computes) hides transfers behind compute with
//! *double buffering*: while the GPU processes layer `i` out of buffer A, the DMA engine
//! fills buffer B with layer `i + 1`'s data. With per-stage compute time `c` and per-stage
//! transfer time `t`, an `L`-stage pipeline then takes
//!
//! ```text
//! T = t + L × max(c, t)
//! ```
//!
//! — the first transfer cannot be hidden (the pipeline fill), and from then on each stage
//! advances at the pace of the slower of the two engines. When `t ≤ c` the transfers are
//! fully hidden after the fill; when `t > c` the pipeline is *transfer-bound* and the GPU
//! stalls `t − c` per stage. These helpers quantify both regimes so schedulers can reason
//! about how much offloaded state a double-buffered pipeline sustains.

/// Total wall-clock time of an `n_stages`-deep pipeline with per-stage compute time
/// `compute` and per-stage transfer time `transfer`, under double buffering.
///
/// Returns `n_stages × compute` when there is nothing to transfer, and
/// `transfer + n_stages × max(compute, transfer)` otherwise (pipeline fill plus the
/// steady-state stage cadence). A zero-stage pipeline does no work — and fills no
/// buffer — so it costs exactly zero regardless of the per-stage times.
pub fn double_buffered_time(n_stages: usize, compute: f64, transfer: f64) -> f64 {
    if n_stages == 0 {
        return 0.0;
    }
    let stages = n_stages as f64;
    if transfer <= 0.0 {
        return stages * compute.max(0.0);
    }
    transfer + stages * compute.max(transfer)
}

/// The part of the transfer traffic a double-buffered pipeline cannot hide behind
/// compute: `double_buffered_time − n_stages × compute`.
///
/// Zero-ish (just the pipeline fill) when `transfer ≤ compute`; grows linearly with the
/// per-stage transfer excess once the pipeline is transfer-bound.
pub fn double_buffered_exposed(n_stages: usize, compute: f64, transfer: f64) -> f64 {
    (double_buffered_time(n_stages, compute, transfer) - n_stages as f64 * compute.max(0.0))
        .max(0.0)
}

/// Whether a double-buffered pipeline with these stage times is transfer-bound (the DMA
/// engine, not the compute engine, sets the stage cadence).
pub fn transfer_bound(compute: f64, transfer: f64) -> bool {
    transfer > compute
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_transfer_is_pure_compute() {
        assert_eq!(double_buffered_time(10, 2.0, 0.0), 20.0);
        assert_eq!(double_buffered_exposed(10, 2.0, 0.0), 0.0);
    }

    #[test]
    fn hidden_transfer_costs_only_the_fill() {
        // t < c: steady state runs at compute pace; only the first transfer is exposed.
        let total = double_buffered_time(32, 4.0, 1.0);
        assert!((total - (1.0 + 32.0 * 4.0)).abs() < 1e-12);
        assert!((double_buffered_exposed(32, 4.0, 1.0) - 1.0).abs() < 1e-12);
        assert!(!transfer_bound(4.0, 1.0));
    }

    #[test]
    fn transfer_bound_pipeline_runs_at_transfer_pace() {
        // t > c: every stage advances at the transfer cadence.
        let total = double_buffered_time(32, 1.0, 4.0);
        assert!((total - (4.0 + 32.0 * 4.0)).abs() < 1e-12);
        let exposed = double_buffered_exposed(32, 1.0, 4.0);
        assert!((exposed - (4.0 + 32.0 * 3.0)).abs() < 1e-12);
        assert!(transfer_bound(1.0, 4.0));
    }

    #[test]
    fn budget_is_the_break_even_point() {
        let c = 2.5;
        assert!(!transfer_bound(c, c));
        assert!(transfer_bound(c, c + 1e-9));
    }

    #[test]
    fn exposed_never_negative() {
        assert!(double_buffered_exposed(0, 0.0, 0.0) >= 0.0);
        assert!(double_buffered_exposed(5, 10.0, 0.1) >= 0.0);
    }

    #[test]
    fn zero_stage_pipeline_is_free() {
        // A zero-stage pipeline never fills a buffer: no fill cost, no exposure.
        assert_eq!(double_buffered_time(0, 2.0, 4.0), 0.0);
        assert_eq!(double_buffered_time(0, 0.0, 4.0), 0.0);
        assert_eq!(double_buffered_exposed(0, 2.0, 4.0), 0.0);
    }
}
