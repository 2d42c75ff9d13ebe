//! Engine and scheduler configuration: the settings that vary between runs, and the
//! engine limits every run shares.

use serde::{Deserialize, Serialize};

/// Maximum number of sequences a single sub-batch may contain.
pub const MAX_BATCH_SEQS: usize = 256;

/// Prefill chunk size used when a prompt does not fit the remaining token budget of an
/// iteration (also the chunk of the vLLM-like baseline's chunked prefill).
pub const PREFILL_CHUNK: usize = 512;

/// Admission backpressure threshold: once this many requests sit in the prefill
/// waitqueue the engine reports itself as saturated ([`crate::Engine::can_admit`]
/// returns `false`) and the serving layer holds further arrivals in its own backlog
/// instead of submitting them. Requests are *delayed*, never dropped. High enough that
/// the paper-figure workloads are unaffected.
pub const MAX_WAITING_REQUESTS: usize = 1024;

/// Configuration shared by the engine and all schedulers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Maximum number of *new* tokens (prefill chunks + one per decode) a single sub-batch
    /// may contain; bounds activation memory and iteration latency.
    pub max_batch_tokens: usize,
    /// Fraction of free GPU KV tokens above which the scheduler tries to swap CPU-requests
    /// back to the GPU ("ample space" in step 2 of §3.2).
    pub swap_in_watermark: f64,
    /// Relative slack allowed when enforcing the balancing inequalities
    /// `Tca0 ≤ Tl1 + Tga0` and `Tca1 ≤ Tl0` (0.0 = strict).
    pub balance_slack: f64,
    /// Relative error injected into the profiled cost model the scheduler consults
    /// (0.0 = oracle profiling). Mirrors §5.4's "inevitable inaccuracy of the offline
    /// performance profiling".
    pub profile_noise: f64,
    /// Whether the engine models layer-wise swap overlap (true, NEO) or charges the whole
    /// transfer at the end of the iteration (false, the strawman in §3.1).
    pub layerwise_swap_overlap: bool,
    /// Whether the shared-prefix KV cache is enabled: prompt blocks of prefilled GPU
    /// sequences are indexed by token-run identity and later requests adopt matching
    /// prefixes copy-on-write instead of re-prefilling them. Off by default; with no
    /// shared prefixes in the trace the enabled cache is bit-identical to off
    /// (pay-for-what-you-use).
    pub prefix_cache: bool,
    /// Whether the disk/NVMe KV tier is enabled: when the CPU cache fills, the scheduler
    /// demotes CPU-resident sequences to disk (priced by the cost model's NVMe terms)
    /// instead of preempting them, and promotes them back under a free-space hysteresis.
    /// Off by default.
    pub disk_tier: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch_tokens: 2048,
            swap_in_watermark: 0.25,
            balance_slack: 0.05,
            profile_noise: 0.0,
            layerwise_swap_overlap: true,
            prefix_cache: false,
            disk_tier: false,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration, returning a list of human-readable problems
    /// (empty when valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.max_batch_tokens == 0 {
            problems.push("max_batch_tokens must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.swap_in_watermark) {
            problems.push("swap_in_watermark must be within [0, 1]".to_string());
        }
        if self.balance_slack < 0.0 {
            problems.push("balance_slack must be non-negative".to_string());
        }
        if self.profile_noise < 0.0 || self.profile_noise > 0.5 {
            problems.push("profile_noise must be within [0, 0.5]".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(EngineConfig::default().validate().is_empty());
    }

    #[test]
    fn invalid_fields_are_reported_individually() {
        let bad = EngineConfig {
            max_batch_tokens: 0,
            swap_in_watermark: 2.0,
            balance_slack: -1.0,
            profile_noise: 0.9,
            layerwise_swap_overlap: true,
            prefix_cache: true,
            disk_tier: true,
        };
        let problems = bad.validate();
        assert_eq!(problems.len(), 4);
    }

    #[test]
    fn kv_hierarchy_features_default_off_and_round_trip() {
        let c = EngineConfig::default();
        assert!(!c.prefix_cache);
        assert!(!c.disk_tier);
        let on = EngineConfig { prefix_cache: true, disk_tier: true, ..EngineConfig::default() };
        assert!(on.validate().is_empty(), "feature flags are always valid");
        let json = serde_json::to_string(&on).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(on, back);
    }

    #[test]
    fn serde_round_trip() {
        let c = EngineConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
