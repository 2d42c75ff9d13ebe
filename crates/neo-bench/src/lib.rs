//! Shared helpers for the NEO benchmark and figure harnesses.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary in `src/bin/`
//! (see the repository `README.md` for the experiment index).
//! This library provides the pieces they share: scenario presets matching the paper's
//! hardware/model pairings, scheduler construction by policy name, small table / JSON
//! output helpers, and ([`sim`]) the reduced benchmark workloads the simulator's
//! whole-run bench times and a test pins.

#![forbid(unsafe_code)]

pub mod sim;

use neo_baselines::{
    FastDecodePlusScheduler, GpuOnlyScheduler, PipoScheduler, SimpleOffloadScheduler,
    SpecOffloadScheduler, SymmetricPipelineScheduler,
};
use neo_core::{Engine, EngineConfig, NeoScheduler, Scheduler};
use neo_sim::{CostModel, ModelDesc, Testbed};
use serde::Serialize;

/// A hardware + model pairing used in the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short label used in figure output, e.g. `"2xH100 + LLaMa-3.1-70B"`.
    pub name: String,
    /// Hardware testbed.
    pub testbed: Testbed,
    /// Model descriptor.
    pub model: ModelDesc,
    /// Tensor-parallel degree.
    pub tp: usize,
}

impl Scenario {
    /// 2×H100 serving LLaMa-3.1-70B (Figures 6a, 8, 9a, 10b).
    pub fn h100_70b() -> Self {
        Self::h100_70b_tp(2)
    }

    /// The HGX H100 server serving LLaMa-3.1-70B at an arbitrary tensor-parallel degree:
    /// `tp` GPUs, `tp`-way sharding (the `fig_tp_sweep` driver sweeps tp ∈ {1, 2, 4, 8}).
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero or greater than 8 (the HGX box has 8 GPUs).
    pub fn h100_70b_tp(tp: usize) -> Self {
        Self {
            name: format!("{tp}xH100 + LLaMa-3.1-70B"),
            testbed: Testbed::hgx_h100(tp),
            model: ModelDesc::llama3_70b(),
            tp,
        }
    }

    /// A10G (g5.4xlarge) serving LLaMa-3.1-8B (Figures 6b, 7, 9b, 10).
    pub fn a10g_8b() -> Self {
        Self {
            name: "A10G + LLaMa-3.1-8B".to_string(),
            testbed: Testbed::g5_xlarge(4),
            model: ModelDesc::llama3_8b(),
            tp: 1,
        }
    }

    /// A10G on a specific `g5.nxlarge` size (Figure 10a sweeps n ∈ {2, 4, 8, 16}).
    pub fn a10g_8b_on(n: usize) -> Self {
        Self {
            name: format!("g5.{n}xlarge + LLaMa-3.1-8B"),
            testbed: Testbed::g5_xlarge(n),
            model: ModelDesc::llama3_8b(),
            tp: 1,
        }
    }

    /// T4 (g4dn.4xlarge) serving LLaMa-2-7B (Figures 6c, 9c).
    pub fn t4_7b() -> Self {
        Self {
            name: "T4 + LLaMa-2-7B".to_string(),
            testbed: Testbed::g4dn_4xlarge(),
            model: ModelDesc::llama2_7b(),
            tp: 1,
        }
    }

    /// Cost model of this scenario.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.model.clone(), self.testbed.clone(), self.tp)
    }

    /// Builds an engine running `policy` on this scenario with the default configuration.
    pub fn engine(&self, policy: Policy) -> Engine {
        self.engine_with_config(policy, EngineConfig::default())
    }

    /// Builds an engine with an explicit configuration.
    pub fn engine_with_config(&self, policy: Policy, config: EngineConfig) -> Engine {
        Engine::new(self.cost_model(), config, policy.scheduler())
    }
}

/// Scheduling policies compared across the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// NEO's load-aware asymmetric-pipelining scheduler.
    Neo,
    /// vLLM-like GPU-only baseline (chunked prefill).
    VllmLike,
    /// SwiftLLM-like GPU-only baseline (whole-prompt admission).
    SwiftLlmLike,
    /// FastDecode+ (full CPU offload).
    FastDecodePlus,
    /// Strawman #1: offloading without overlap.
    SimpleOffload,
    /// Strawman #2: symmetric pipelining.
    SymmetricPipeline,
    /// PIPO: static pipelined offloading (double-buffered KV streaming).
    Pipo,
    /// SpecOffload: speculative batch expansion with AIMD width control.
    SpecOffload,
}

impl Policy {
    /// Every registered policy, in evaluation order. This is the registry the
    /// results-regeneration tests check figure JSON against: a policy label appearing in
    /// `results/*.json` must map back to exactly one of these.
    pub const ALL: [Policy; 8] = [
        Policy::Neo,
        Policy::VllmLike,
        Policy::SwiftLlmLike,
        Policy::FastDecodePlus,
        Policy::SimpleOffload,
        Policy::SymmetricPipeline,
        Policy::Pipo,
        Policy::SpecOffload,
    ];

    /// Constructs the scheduler implementing this policy.
    pub fn scheduler(self) -> Box<dyn Scheduler> {
        match self {
            Policy::Neo => Box::new(NeoScheduler::new()),
            Policy::VllmLike => Box::new(GpuOnlyScheduler::vllm_like()),
            Policy::SwiftLlmLike => Box::new(GpuOnlyScheduler::swiftllm_like()),
            Policy::FastDecodePlus => Box::new(FastDecodePlusScheduler::new()),
            Policy::SimpleOffload => Box::new(SimpleOffloadScheduler::new()),
            Policy::SymmetricPipeline => Box::new(SymmetricPipelineScheduler::new()),
            Policy::Pipo => Box::new(PipoScheduler::new()),
            Policy::SpecOffload => Box::new(SpecOffloadScheduler::new()),
        }
    }

    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Neo => "NEO",
            Policy::VllmLike => "vLLM",
            Policy::SwiftLlmLike => "SwiftLLM",
            Policy::FastDecodePlus => "FastDecode+",
            Policy::SimpleOffload => "SimpleOffload",
            Policy::SymmetricPipeline => "SymmetricPipeline",
            Policy::Pipo => "PIPO",
            Policy::SpecOffload => "SpecOffload",
        }
    }

    /// Looks a policy up by its display label (the name recorded in `results/*.json`).
    pub fn from_label(label: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes any serialisable result as pretty JSON under `results/<name>.json` so reported
/// numbers can be regenerated and diffed.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(saved {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
    }
}

/// Returns a scale factor in (0, 1] for request counts: the `NEO_BENCH_SCALE` environment
/// variable (e.g. `0.2` for a quick smoke run) or 1.0.
pub fn bench_scale() -> f64 {
    std::env::var("NEO_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| *v > 0.0 && *v <= 1.0)
        .unwrap_or(1.0)
}

/// Scales a request count by [`bench_scale`], keeping at least 8 requests.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * bench_scale()).round() as usize).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_engines_for_every_policy() {
        for scenario in [Scenario::a10g_8b(), Scenario::t4_7b(), Scenario::h100_70b()] {
            for policy in Policy::ALL {
                let engine = scenario.engine(policy);
                assert!(engine.is_idle());
                assert!(!engine.scheduler_name().is_empty());
            }
        }
    }

    #[test]
    fn policy_labels_are_unique_and_resolvable() {
        let labels: Vec<&str> = Policy::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        for policy in Policy::ALL {
            assert_eq!(Policy::from_label(policy.label()), Some(policy));
        }
        assert_eq!(Policy::from_label("nope"), None);
    }

    #[test]
    fn scaled_has_a_floor() {
        assert!(scaled(100) >= 8);
        assert!(scaled(0) == 8);
    }
}
