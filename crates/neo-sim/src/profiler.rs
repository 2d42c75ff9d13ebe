//! Offline profiling and piecewise-linear interpolation.
//!
//! The paper's load-aware scheduler does not evaluate an analytical cost model at run time.
//! Instead, NEO "does offline profiling for typical input/output lengths and uses linear
//! interpolation to approximate the values for other lengths" (§3.2). This module
//! reproduces that structure: a [`ProfiledCostModel`] samples the exact [`CostModel`] on a
//! grid of batch sizes / context lengths once ("profiling"), optionally perturbs the
//! samples with a deterministic error to emulate measurement noise, and then answers
//! scheduler queries purely by interpolation — including the slight inaccuracy the paper
//! blames for occasional sub-optimal scheduling decisions (§5.4).

use crate::costmodel::CostModel;

/// Piecewise-linear interpolator over a sorted one-dimensional grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Interpolator1d {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Interpolator1d {
    /// Builds an interpolator from `(x, y)` samples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples are given or if the `x` values are not strictly
    /// increasing.
    pub fn new(samples: &[(f64, f64)]) -> Self {
        assert!(samples.len() >= 2, "need at least two profiling samples");
        for w in samples.windows(2) {
            assert!(w[1].0 > w[0].0, "profiling grid must be strictly increasing");
        }
        Self {
            xs: samples.iter().map(|s| s.0).collect(),
            ys: samples.iter().map(|s| s.1).collect(),
        }
    }

    /// Evaluates the interpolant at `x`, extrapolating linearly beyond the grid ends.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        // Find the segment; clamp to the first/last for extrapolation.
        let i = match self.xs.iter().position(|&g| g >= x) {
            Some(0) => 0,
            Some(i) => i - 1,
            None => n - 2,
        };
        let i = i.min(n - 2);
        let (x0, x1) = (self.xs[i], self.xs[i + 1]);
        let (y0, y1) = (self.ys[i], self.ys[i + 1]);
        let t = (x - x0) / (x1 - x0);
        y0 + t * (y1 - y0)
    }
}

/// The cost queries the scheduler issues every iteration, answered by interpolation.
///
/// A trait so the scheduler can run against either the exact [`CostModel`] (oracle) or the
/// profiled/interpolated variant, mirroring the real system's reliance on offline profiles.
/// Besides the per-stage times it offers one bound, [`IterationCost::cpu_attn_floor`],
/// which lets NEO's offload split stop testing CPU candidates once none can fit; its
/// default bounds any model and keeps the full scan.
pub trait IterationCost: Send + Sync {
    /// Per-layer linear-stage time (`Tl`) of a sub-batch with `n_tokens` tokens.
    fn linear_time(&self, n_tokens: usize) -> f64;
    /// Per-layer GPU attention time (`Tga`) of a sub-batch with the given prefill chunks
    /// and decode context total.
    fn gpu_attn_time(
        &self,
        prefill: &[(usize, usize)],
        decode_ctx: usize,
        decode_reqs: usize,
    ) -> f64;
    /// Per-layer CPU attention time (`Tca`) of `n_reqs` offloaded requests totalling
    /// `ctx_total` cached tokens.
    fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64;
    /// A lower bound on [`IterationCost::cpu_attn_time`]`(c, n_reqs)` for every
    /// `c ≥ ctx_total`. The default, `0.0`, is valid for any model; a tighter bound lets
    /// NEO's offload split stop at the first CPU candidate it rules out, since the
    /// candidates ascend in context.
    fn cpu_attn_floor(&self, _ctx_total: usize, _n_reqs: usize) -> f64 {
        0.0
    }
    /// Per-layer KV swap-out time for `n_tokens` freshly prefilled tokens. Per-rank
    /// wall-clock: under tensor parallelism each rank moves its own `1/tp` KV shard over
    /// its own PCIe link in parallel with the others.
    fn swap_out_time(&self, n_tokens: usize) -> f64;
    /// Per-layer KV swap-in time for `n_tokens` tokens brought back to the GPU (per-rank
    /// wall-clock, like [`IterationCost::swap_out_time`]).
    fn swap_in_time(&self, n_tokens: usize) -> f64;
    /// Non-layer (embedding + LM head + sampling) time for the iteration.
    fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64;
    /// Number of transformer layers (to scale per-layer times).
    fn n_layers(&self) -> usize;
    /// Tensor-parallel degree of the modelled deployment (1 on single-GPU testbeds).
    /// PCIe terms returned by the `swap_*`/`cpu_attn` queries are already per-rank; this
    /// accessor lets consumers reason about group-level traffic when they need it.
    fn tp(&self) -> usize {
        1
    }
}

impl IterationCost for CostModel {
    fn linear_time(&self, n_tokens: usize) -> f64 {
        self.linear_time_gpu(n_tokens)
    }
    fn gpu_attn_time(
        &self,
        prefill: &[(usize, usize)],
        decode_ctx: usize,
        decode_reqs: usize,
    ) -> f64 {
        CostModel::gpu_attn_time(self, prefill, decode_ctx, decode_reqs)
    }
    fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        self.cpu_decode_attn_time(ctx_total, n_reqs)
    }
    /// The query itself: the roofline time is non-decreasing in context.
    fn cpu_attn_floor(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        self.cpu_decode_attn_time(ctx_total, n_reqs)
    }
    fn swap_out_time(&self, n_tokens: usize) -> f64 {
        self.swap_out_time_per_layer(n_tokens)
    }
    fn swap_in_time(&self, n_tokens: usize) -> f64 {
        self.swap_in_time_per_layer(n_tokens)
    }
    fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
        self.pre_post_layer_time(n_tokens, n_seqs)
    }
    fn n_layers(&self) -> usize {
        self.model().n_layers
    }
    fn tp(&self) -> usize {
        CostModel::tp(self)
    }
}

/// A cost model that answers queries by interpolating an offline-profiled grid, like the
/// real NEO scheduler.
#[derive(Debug, Clone)]
pub struct ProfiledCostModel {
    exact: CostModel,
    linear: Interpolator1d,
    gpu_decode_attn: Interpolator1d,
    cpu_attn: Interpolator1d,
    prefill_attn: Interpolator1d,
    /// Relative error injected into interpolated answers (e.g. 0.05 = ±5%), emulating
    /// profiling noise. The sign alternates deterministically with the query size.
    noise: f64,
}

impl ProfiledCostModel {
    /// Grid of batch-token counts profiled for the linear stage.
    const TOKEN_GRID: [usize; 10] = [1, 8, 32, 64, 128, 256, 512, 1024, 2048, 8192];
    /// Grid of total-context-token counts profiled for attention.
    const CTX_GRID: [usize; 10] =
        [64, 512, 2048, 8192, 16384, 32768, 65536, 131_072, 262_144, 1_048_576];
    /// Grid of prompt lengths profiled for prefill attention.
    const PREFILL_GRID: [usize; 8] = [16, 64, 128, 256, 512, 1024, 2048, 8192];

    /// Profiles `exact` on the built-in grids with no injected noise.
    pub fn new(exact: CostModel) -> Self {
        Self::with_noise(exact, 0.0)
    }

    /// Profiles `exact` and injects a deterministic relative error of magnitude `noise`
    /// into every interpolated answer.
    pub fn with_noise(exact: CostModel, noise: f64) -> Self {
        let linear = Interpolator1d::new(
            &Self::TOKEN_GRID
                .iter()
                .map(|&n| (n as f64, exact.linear_time_gpu(n)))
                .collect::<Vec<_>>(),
        );
        let gpu_decode_attn = Interpolator1d::new(
            &Self::CTX_GRID
                .iter()
                .map(|&c| (c as f64, exact.gpu_decode_attn_time(c, (c / 256).max(1))))
                .collect::<Vec<_>>(),
        );
        let cpu_attn = Interpolator1d::new(
            &Self::CTX_GRID
                .iter()
                .map(|&c| (c as f64, exact.cpu_decode_attn_time(c, (c / 256).max(1))))
                .collect::<Vec<_>>(),
        );
        let prefill_attn = Interpolator1d::new(
            &Self::PREFILL_GRID
                .iter()
                .map(|&l| (l as f64, CostModel::gpu_attn_time(&exact, &[(l, l)], 0, 0)))
                .collect::<Vec<_>>(),
        );
        Self { exact, linear, gpu_decode_attn, cpu_attn, prefill_attn, noise }
    }

    /// The exact cost model this profile was built from (memory accounting still uses it).
    pub fn exact(&self) -> &CostModel {
        &self.exact
    }

    fn perturb(&self, value: f64, seed: usize) -> f64 {
        if self.noise == 0.0 {
            return value;
        }
        // Deterministic pseudo-error in [-noise, +noise] keyed by the query size.
        let phase = ((seed as f64 * 0.618_033_988_75).fract() - 0.5) * 2.0;
        value * (1.0 + self.noise * phase)
    }
}

impl IterationCost for ProfiledCostModel {
    fn linear_time(&self, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        self.perturb(self.linear.eval(n_tokens as f64).max(0.0), n_tokens)
    }

    fn gpu_attn_time(
        &self,
        prefill: &[(usize, usize)],
        decode_ctx: usize,
        decode_reqs: usize,
    ) -> f64 {
        let mut t = 0.0;
        for &(new_tokens, _ctx) in prefill {
            if new_tokens > 0 {
                t += self.perturb(self.prefill_attn.eval(new_tokens as f64).max(0.0), new_tokens);
            }
        }
        if decode_reqs > 0 && decode_ctx > 0 {
            t += self.perturb(self.gpu_decode_attn.eval(decode_ctx as f64).max(0.0), decode_ctx);
        }
        t
    }

    fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        if n_reqs == 0 || ctx_total == 0 {
            return 0.0;
        }
        self.perturb(self.cpu_attn.eval(ctx_total as f64).max(0.0), ctx_total)
    }

    /// The interpolant, non-decreasing in context since the profiled times are, scaled
    /// by `1 − noise`: the query itself at noise 0, and below every perturbed answer.
    fn cpu_attn_floor(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        if n_reqs == 0 || ctx_total == 0 {
            return 0.0;
        }
        self.cpu_attn.eval(ctx_total as f64).max(0.0) * (1.0 - self.noise)
    }

    fn swap_out_time(&self, n_tokens: usize) -> f64 {
        self.exact.swap_out_time_per_layer(n_tokens)
    }

    fn swap_in_time(&self, n_tokens: usize) -> f64 {
        self.exact.swap_in_time_per_layer(n_tokens)
    }

    fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
        self.exact.pre_post_layer_time(n_tokens, n_seqs)
    }

    fn n_layers(&self) -> usize {
        self.exact.model().n_layers
    }

    fn tp(&self) -> usize {
        self.exact.tp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::Testbed;
    use crate::model_desc::ModelDesc;

    fn profiled() -> ProfiledCostModel {
        ProfiledCostModel::new(CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1))
    }

    #[test]
    fn interpolation_is_exact_at_grid_points() {
        let interp = Interpolator1d::new(&[(0.0, 0.0), (1.0, 2.0), (3.0, 6.0)]);
        assert_eq!(interp.eval(0.0), 0.0);
        assert_eq!(interp.eval(1.0), 2.0);
        assert_eq!(interp.eval(3.0), 6.0);
    }

    #[test]
    fn interpolation_is_linear_between_points() {
        let interp = Interpolator1d::new(&[(0.0, 0.0), (10.0, 100.0)]);
        assert!((interp.eval(5.0) - 50.0).abs() < 1e-12);
        assert!((interp.eval(2.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_continues_the_last_segment() {
        let interp = Interpolator1d::new(&[(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]);
        // Slope of the last segment is 2.
        assert!((interp.eval(3.0) - 5.0).abs() < 1e-12);
        // Slope of the first segment is 1.
        assert!((interp.eval(-1.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_grid_panics() {
        let _ = Interpolator1d::new(&[(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_grid_panics() {
        let _ = Interpolator1d::new(&[(1.0, 0.0)]);
    }

    #[test]
    fn profiled_close_to_exact_inside_domain() {
        let p = profiled();
        let exact = p.exact().clone();
        for n in [16usize, 100, 300, 700, 1500, 4000] {
            let a = p.linear_time(n);
            let b = exact.linear_time_gpu(n);
            let rel = (a - b).abs() / b;
            assert!(rel < 0.35, "linear_time({n}): profiled {a}, exact {b}, rel {rel}");
        }
        for c in [1000usize, 10_000, 50_000, 200_000] {
            let a = p.cpu_attn_time(c, (c / 256).max(1));
            let b = exact.cpu_decode_attn_time(c, (c / 256).max(1));
            let rel = (a - b).abs() / b;
            assert!(rel < 0.35, "cpu_attn_time({c}): rel {rel}");
        }
    }

    #[test]
    fn noise_perturbs_but_stays_bounded() {
        let exact = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let noisy = ProfiledCostModel::with_noise(exact.clone(), 0.1);
        let clean = ProfiledCostModel::new(exact);
        for n in [64usize, 123, 777, 3000] {
            let a = noisy.linear_time(n);
            let b = clean.linear_time(n);
            assert!(a > 0.0);
            assert!((a - b).abs() / b <= 0.1 + 1e-9);
        }
    }

    #[test]
    fn zero_queries_are_zero() {
        let p = profiled();
        assert_eq!(p.linear_time(0), 0.0);
        assert_eq!(p.cpu_attn_time(0, 0), 0.0);
        assert_eq!(p.gpu_attn_time(&[], 0, 0), 0.0);
    }

    #[test]
    fn n_layers_passthrough() {
        assert_eq!(profiled().n_layers(), 32);
    }

    /// Checks `cost`'s CPU-attention floor at every context of `contexts` and at `n_reqs`
    /// of 1, 8 and 64: it lies at or below the query there and never falls one token on,
    /// so it bounds the query at every larger context too. With `exact`, it is the query
    /// itself, bit for bit.
    fn assert_floor_bounds(cost: &dyn IterationCost, contexts: &[usize], exact: bool, at: &str) {
        for n_reqs in [1, 8, 64] {
            for &x in contexts {
                let (floor, query) =
                    (cost.cpu_attn_floor(x, n_reqs), cost.cpu_attn_time(x, n_reqs));
                assert!(floor <= query, "{at}, n_reqs {n_reqs}, ctx {x}: floor {floor} > {query}");
                let next = cost.cpu_attn_floor(x + 1, n_reqs);
                assert!(
                    floor <= next,
                    "{at}, n_reqs {n_reqs}: floor falls {floor} -> {next} at {x}"
                );
                if exact {
                    assert_eq!(floor.to_bits(), query.to_bits(), "{at}, n_reqs {n_reqs}, ctx {x}");
                }
            }
        }
    }

    #[test]
    fn cpu_attn_floors_bound_the_query_and_never_fall() {
        // Every context within 1,024 tokens of a profiling grid point, where the
        // interpolant changes segment, and a stride past the grid's end.
        let mut contexts: Vec<usize> = ProfiledCostModel::CTX_GRID
            .iter()
            .flat_map(|&g| g.saturating_sub(1_024)..=g + 1_024)
            .collect();
        contexts.extend((0..=1 << 22).step_by(4_099));
        let scenarios = [
            ("A10G-8B", CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)),
            ("T4-7B", CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1)),
            ("2xH100-70B TP2", CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(2), 2)),
        ];
        for (name, exact) in scenarios {
            assert_floor_bounds(&exact, &contexts, true, &format!("{name} exact"));
            for noise in [0.0, 0.05, 0.2, 0.5] {
                let profiled = ProfiledCostModel::with_noise(exact.clone(), noise);
                let at = format!("{name} profiled at noise {noise}");
                assert_floor_bounds(&profiled, &contexts, noise == 0.0, &at);
            }
        }
    }
}
