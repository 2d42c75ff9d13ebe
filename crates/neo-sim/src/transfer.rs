//! Transfer/compute overlap models: the closed forms that price PCIe traffic riding
//! alongside per-layer compute.
//!
//! *Layer-wise swap-out* (§3.1 of the paper). NEO ships each layer's newly prefilled KV
//! to the CPU-cache "immediately after each layer's KV value is computed, rather than
//! deferring this process until the end of the entire iteration". Compute feeds the
//! link, so with per-layer compute time `c` and per-layer transfer time `t` an `L`-layer
//! iteration takes
//!
//! ```text
//! T = c + (L − 1) × max(c, t) + t
//! ```
//!
//! [`layerwise_exposed_time`] is the part of it compute alone would not take, and
//! [`deferred_exposed_time`] what the non-overlapped strawman exposes instead.
//!
//! *Double buffering* (PIPO, and more generally any scheduler that streams KV or weights
//! over PCIe while the GPU computes). While the GPU processes layer `i` out of buffer A,
//! the DMA engine fills buffer B with layer `i + 1`'s data. The link feeds compute, so an
//! `L`-stage pipeline takes
//!
//! ```text
//! T = t + L × max(c, t)
//! ```
//!
//! — the first transfer cannot be hidden (the pipeline fill), and from then on each stage
//! advances at the pace of the slower of the two engines. When `t ≤ c` the transfers are
//! fully hidden after the fill; when `t > c` the pipeline is *transfer-bound* and the GPU
//! stalls `t − c` per stage.

/// Completion time of a layer-wise two-stage pipeline with `n_layers` layers, where each
/// layer takes `compute_per_layer` seconds to produce its output and
/// `transfer_per_layer` seconds to ship it over PCIe, and transfers are serialized on the
/// link. Classic pipeline formula: `c + (L-1)·max(c, t) + t`.
fn layerwise_pipeline_time(
    n_layers: usize,
    compute_per_layer: f64,
    transfer_per_layer: f64,
) -> f64 {
    if n_layers == 0 {
        return 0.0;
    }
    let l = n_layers as f64;
    compute_per_layer + (l - 1.0) * compute_per_layer.max(transfer_per_layer) + transfer_per_layer
}

/// The transfer time that is **exposed** (adds to iteration latency) when transfers are
/// overlapped layer-by-layer with compute, compared to compute alone.
pub fn layerwise_exposed_time(
    n_layers: usize,
    compute_per_layer: f64,
    transfer_per_layer: f64,
) -> f64 {
    let total = layerwise_pipeline_time(n_layers, compute_per_layer, transfer_per_layer);
    (total - n_layers as f64 * compute_per_layer).max(0.0)
}

/// The transfer time exposed when the whole-iteration transfer is deferred to the end
/// (the non-overlapped strawman): the entire transfer is on the critical path.
pub fn deferred_exposed_time(n_layers: usize, transfer_per_layer: f64) -> f64 {
    n_layers as f64 * transfer_per_layer
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fast_link_hides_almost_all_transfer() {
        // Transfer much faster than compute: only the last layer's transfer is exposed.
        let exposed = layerwise_exposed_time(32, 1e-3, 1e-5);
        assert!((exposed - 1e-5).abs() < 1e-9, "exposed {exposed}");
    }

    #[test]
    fn slow_link_exposes_most_transfer() {
        // Transfer much slower than compute: pipeline is transfer-bound.
        let exposed = layerwise_exposed_time(32, 1e-5, 1e-3);
        let deferred = deferred_exposed_time(32, 1e-3);
        assert!(exposed > 0.9 * deferred);
        assert!(exposed < deferred);
    }

    #[test]
    fn layerwise_never_worse_than_deferred() {
        for &(c, t) in &[(1e-3, 1e-5), (1e-5, 1e-3), (5e-4, 5e-4), (0.0, 1e-4)] {
            let lw = layerwise_exposed_time(32, c, t);
            let def = deferred_exposed_time(32, t);
            assert!(lw <= def + 1e-12, "layerwise {lw} vs deferred {def}");
        }
    }

    #[test]
    fn zero_layers_is_zero_time() {
        assert_eq!(layerwise_pipeline_time(0, 1.0, 1.0), 0.0);
        assert_eq!(layerwise_exposed_time(0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn single_layer_pipeline_is_compute_plus_transfer() {
        let total = layerwise_pipeline_time(1, 3e-4, 7e-4);
        assert!((total - 1e-3).abs() < 1e-12);
        // With one layer nothing can be hidden: exposed == transfer.
        let exposed = layerwise_exposed_time(1, 3e-4, 7e-4);
        assert!((exposed - 7e-4).abs() < 1e-12);
    }

    #[test]
    fn zero_compute_exposes_the_entire_transfer() {
        // Under memory pressure an evicted (zero-compute) sequence's swap has no
        // compute to hide behind — the full deferred cost is on the critical path.
        let exposed = layerwise_exposed_time(32, 0.0, 1e-4);
        let deferred = deferred_exposed_time(32, 1e-4);
        assert!((exposed - deferred).abs() < 1e-12);
    }

    #[test]
    fn exposed_time_is_monotone_in_transfer_cost() {
        let mut last = 0.0;
        for t in [1e-6, 1e-5, 1e-4, 1e-3] {
            let e = layerwise_exposed_time(32, 1e-4, t);
            assert!(e >= last, "exposed time must grow with transfer cost");
            last = e;
        }
    }

    proptest! {
        /// The pipeline formula is bounded below by both pure-compute and pure-transfer
        /// time and above by their sum, and exposed time is non-negative.
        #[test]
        fn prop_pipeline_bounds(layers in 1usize..100, c in 0.0f64..1e-2, t in 0.0f64..1e-2) {
            let total = layerwise_pipeline_time(layers, c, t);
            let l = layers as f64;
            prop_assert!(total + 1e-15 >= l * c);
            prop_assert!(total + 1e-15 >= l * t);
            prop_assert!(total <= l * c + l * t + 1e-15);
            prop_assert!(layerwise_exposed_time(layers, c, t) >= 0.0);
        }
    }

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
    }

    #[test]
    fn transfer_bound_pipeline_runs_at_transfer_pace() {
        // t > c: every stage advances at the transfer cadence.
        let total = double_buffered_time(32, 1.0, 4.0);
        assert!((total - (4.0 + 32.0 * 4.0)).abs() < 1e-12);
        let exposed = double_buffered_exposed(32, 1.0, 4.0);
        assert!((exposed - (4.0 + 32.0 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn budget_is_the_break_even_point() {
        // Up to t = c only the fill is exposed; past it every stage exposes the excess.
        let c = 2.5;
        assert_eq!(double_buffered_exposed(8, c, c), c);
        assert!(double_buffered_exposed(8, c, c + 1e-3) > c + 8.0 * 1e-3);
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
