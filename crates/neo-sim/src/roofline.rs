//! Roofline execution-time estimation.
//!
//! Every operator in the cost model is estimated as the maximum of its compute time and
//! its memory time plus a fixed launch/dispatch overhead — the classic roofline model.
//! Decoding attention has arithmetic intensity of only a few FLOPs per byte, so on both
//! the GPU and the CPU it sits firmly on the memory-bound side of the roofline (§2.2 of
//! the paper); the linear stages are compute-bound at large batch sizes and weight-load
//! (memory) bound at small batch sizes, which is exactly why batching raises throughput.

/// Work performed by one operator invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpWork {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes moved to/from device memory.
    pub bytes: f64,
}

impl OpWork {
    /// Creates a work descriptor from FLOPs and bytes.
    pub fn new(flops: f64, bytes: f64) -> Self {
        Self { flops, bytes }
    }

    /// Component-wise sum of two work descriptors.
    pub fn combine(&self, other: &OpWork) -> OpWork {
        OpWork { flops: self.flops + other.flops, bytes: self.bytes + other.bytes }
    }
}

/// A device roofline: effective compute and bandwidth ceilings plus a launch overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Effective FLOP/s ceiling.
    pub flops: f64,
    /// Effective bytes/s ceiling.
    pub bandwidth: f64,
    /// Fixed overhead added to every estimate (kernel launch, dispatch), in seconds.
    pub overhead: f64,
}

impl Roofline {
    /// Creates a roofline from effective ceilings.
    ///
    /// # Panics
    ///
    /// Panics if either ceiling is not strictly positive.
    pub fn new(flops: f64, bandwidth: f64, overhead: f64) -> Self {
        assert!(flops > 0.0, "flops ceiling must be positive");
        assert!(bandwidth > 0.0, "bandwidth ceiling must be positive");
        assert!(overhead >= 0.0, "overhead must be non-negative");
        Self { flops, bandwidth, overhead }
    }

    /// Execution time of `work` on this device, in seconds.
    pub fn time(&self, work: OpWork) -> f64 {
        let compute = work.flops / self.flops;
        let memory = work.bytes / self.bandwidth;
        compute.max(memory) + self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Roofline {
        // A10G-like effective numbers.
        Roofline::new(60e12, 480e9, 8e-6)
    }

    fn cpu() -> Roofline {
        Roofline::new(0.3e12, 35e9, 30e-6)
    }

    #[test]
    fn decode_attention_is_memory_bound_everywhere() {
        // 1 decode token over 1000 ctx tokens of LLaMa-8B-like KV: ~0.5 MB read, ~2 MFLOP.
        let work = OpWork::new(2.0e6, 0.5e6);
        for r in [gpu(), cpu()] {
            assert_eq!(r.time(work), work.bytes / r.bandwidth + r.overhead);
        }
    }

    #[test]
    fn large_gemm_is_compute_bound_on_gpu() {
        // 4096x4096x4096 GEMM: 137 GFLOP over ~100 MB.
        let work = OpWork::new(137e9, 100e6);
        let r = gpu();
        assert_eq!(r.time(work), work.flops / r.flops + r.overhead);
    }

    #[test]
    fn time_is_monotone_in_work() {
        let r = gpu();
        let t1 = r.time(OpWork::new(1e9, 1e6));
        let t2 = r.time(OpWork::new(2e9, 2e6));
        assert!(t2 > t1);
    }

    #[test]
    fn overhead_is_additive() {
        let r = gpu();
        let w = OpWork::new(1e9, 1e6);
        let fused = Roofline { overhead: 0.0, ..r };
        assert!((r.time(w) - fused.time(w) - r.overhead).abs() < 1e-12);
    }

    #[test]
    fn ridge_point_separates_regimes() {
        // Below the ridge intensity (FLOPs per byte) the bytes set the time, above it
        // the FLOPs do.
        let r = gpu();
        let ridge = r.flops / r.bandwidth;
        let memory = OpWork::new(ridge * 0.5, 1.0);
        let compute = OpWork::new(ridge * 2.0, 1.0);
        assert_eq!(r.time(memory), 1.0 / r.bandwidth + r.overhead);
        assert_eq!(r.time(compute), compute.flops / r.flops + r.overhead);
    }

    #[test]
    fn combine_adds_components() {
        let a = OpWork::new(1.0, 2.0);
        let b = OpWork::new(3.0, 4.0);
        let c = a.combine(&b);
        assert_eq!(c.flops, 4.0);
        assert_eq!(c.bytes, 6.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_flops_ceiling_panics() {
        let _ = Roofline::new(0.0, 1.0, 0.0);
    }
}
