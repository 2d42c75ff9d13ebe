//! Architectural descriptors of the evaluated LLM models.
//!
//! Scheduling and cost estimation in NEO only depend on the *shape* of the model —
//! number of layers, attention heads (query and KV), head dimension, hidden and FFN sizes
//! and element width — because those determine how many bytes of KV cache a token
//! occupies and how many FLOPs each stage of a transformer layer performs. This module
//! captures exactly that information for the three models evaluated in the paper
//! (LLaMa-2-7B, LLaMa-3.1-8B and LLaMa-3.1-70B) plus tiny configurations used by the
//! functional tests.

use serde::{Deserialize, Serialize};

/// Architectural description of a decoder-only (LLaMa-style) transformer.
///
/// All derived quantities (weight bytes, KV bytes per token, FLOPs per token) are computed
/// from these fields; the struct itself carries no weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelDesc {
    /// Human-readable model name, e.g. `"llama-3.1-8b"`.
    pub name: String,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of query attention heads.
    pub n_heads: usize,
    /// Number of key/value heads (less than `n_heads` under grouped-query attention).
    pub n_kv_heads: usize,
    /// Dimension of each attention head. `hidden == n_heads * head_dim` for LLaMa models.
    pub head_dim: usize,
    /// FFN intermediate dimension (SwiGLU uses three `hidden × intermediate` matrices).
    pub intermediate: usize,
    /// Vocabulary size (drives the embedding and LM-head cost).
    pub vocab: usize,
    /// Bytes per weight / activation element (2 for fp16/bf16 as served in the paper).
    pub dtype_bytes: usize,
}

impl ModelDesc {
    /// LLaMa-2-7B, served on the T4 testbed in the paper (Figure 6c, Figure 9c).
    pub fn llama2_7b() -> Self {
        Self {
            name: "llama-2-7b".to_string(),
            n_layers: 32,
            hidden: 4096,
            n_heads: 32,
            n_kv_heads: 32,
            head_dim: 128,
            intermediate: 11008,
            vocab: 32000,
            dtype_bytes: 2,
        }
    }

    /// LLaMa-3.1-8B, served on the A10G testbed in the paper (Figures 6b, 7, 9b, 10).
    pub fn llama3_8b() -> Self {
        Self {
            name: "llama-3.1-8b".to_string(),
            n_layers: 32,
            hidden: 4096,
            n_heads: 32,
            n_kv_heads: 8,
            head_dim: 128,
            intermediate: 14336,
            vocab: 128256,
            dtype_bytes: 2,
        }
    }

    /// LLaMa-3.1-70B, served on the 2×H100 testbed in the paper (Figures 6a, 8, 9a).
    pub fn llama3_70b() -> Self {
        Self {
            name: "llama-3.1-70b".to_string(),
            n_layers: 80,
            hidden: 8192,
            n_heads: 64,
            n_kv_heads: 8,
            head_dim: 128,
            intermediate: 28672,
            vocab: 128256,
            dtype_bytes: 2,
        }
    }

    /// A tiny model used by functional tests and examples (runs real math quickly).
    pub fn tiny() -> Self {
        Self {
            name: "tiny".to_string(),
            n_layers: 2,
            hidden: 64,
            n_heads: 4,
            n_kv_heads: 2,
            head_dim: 16,
            intermediate: 128,
            vocab: 256,
            dtype_bytes: 4,
        }
    }

    /// A small-but-not-trivial model for integration tests (GQA, several layers).
    pub fn small() -> Self {
        Self {
            name: "small".to_string(),
            n_layers: 4,
            hidden: 256,
            n_heads: 8,
            n_kv_heads: 4,
            head_dim: 32,
            intermediate: 512,
            vocab: 1024,
            dtype_bytes: 4,
        }
    }

    /// Dimension of the concatenated KV vectors appended to the cache per token
    /// (`2 × n_kv_heads × head_dim` elements).
    pub fn kv_elems_per_token_per_layer(&self) -> usize {
        2 * self.n_kv_heads * self.head_dim
    }

    /// Bytes of KV cache one token occupies in one layer.
    pub fn kv_bytes_per_token_per_layer(&self) -> usize {
        self.kv_elems_per_token_per_layer() * self.dtype_bytes
    }

    /// Bytes of KV cache one token occupies across all layers.
    ///
    /// This is the unit the paper's memory accounting works in: e.g. LLaMa-3.1-8B stores
    /// 128 KiB per token in fp16.
    pub fn kv_bytes_per_token(&self) -> usize {
        self.kv_bytes_per_token_per_layer() * self.n_layers
    }

    /// Total parameter bytes (weights only, no KV cache or activations).
    pub fn weight_bytes(&self) -> u64 {
        let per_layer = self.linear_weight_elems_per_layer() as u64;
        let embed = (self.vocab * self.hidden) as u64;
        // Embedding + LM head (not tied in LLaMa-3) + final norm (negligible).
        (per_layer * self.n_layers as u64 + 2 * embed) * self.dtype_bytes as u64
    }

    /// Number of weight elements touched by the linear stages of a single layer
    /// (QKV projection, output projection, SwiGLU FFN).
    pub fn linear_weight_elems_per_layer(&self) -> usize {
        let qkv = self.hidden * (self.n_heads + 2 * self.n_kv_heads) * self.head_dim;
        let out = self.n_heads * self.head_dim * self.hidden;
        let ffn = 3 * self.hidden * self.intermediate;
        qkv + out + ffn
    }

    /// Bytes of weights loaded by the linear stages of a single layer.
    pub fn linear_weight_bytes_per_layer(&self) -> u64 {
        (self.linear_weight_elems_per_layer() * self.dtype_bytes) as u64
    }

    /// FLOPs performed by the linear stages of one layer for one token
    /// (2 FLOPs per multiply-accumulate).
    pub fn linear_flops_per_token_per_layer(&self) -> f64 {
        2.0 * self.linear_weight_elems_per_layer() as f64
    }

    /// FLOPs of the pre-projection (QKV) part of one layer for one token.
    pub fn pre_projection_flops_per_token(&self) -> f64 {
        2.0 * (self.hidden * (self.n_heads + 2 * self.n_kv_heads) * self.head_dim) as f64
    }

    /// FLOPs of the post-projection + FFN part of one layer for one token.
    pub fn post_projection_flops_per_token(&self) -> f64 {
        self.linear_flops_per_token_per_layer() - self.pre_projection_flops_per_token()
    }

    /// FLOPs of decoding attention for one token attending over `ctx` cached tokens,
    /// in one layer (QKᵀ and attention-weighted V, over all query heads).
    pub fn decode_attn_flops(&self, ctx: usize) -> f64 {
        4.0 * (ctx * self.n_heads * self.head_dim) as f64
    }

    /// Bytes of KV cache read by decoding attention for one token attending over `ctx`
    /// cached tokens, in one layer. This is the quantity that makes decode attention
    /// memory-bandwidth bound (§2.2 of the paper).
    pub fn decode_attn_bytes(&self, ctx: usize) -> u64 {
        (ctx * self.kv_bytes_per_token_per_layer()) as u64
    }

    /// FLOPs of causal prefill (self-)attention over a chunk of `new_tokens` tokens whose
    /// total context (cached + new) is `ctx_total`, in one layer.
    pub fn prefill_attn_flops(&self, new_tokens: usize, ctx_total: usize) -> f64 {
        // Each new token attends to on average (ctx_total - new_tokens/2) positions.
        let avg_ctx = ctx_total as f64 - new_tokens as f64 / 2.0;
        4.0 * new_tokens as f64 * avg_ctx.max(1.0) * (self.n_heads * self.head_dim) as f64
    }

    /// FLOPs of the pre-layer stage (token embedding lookup ≈ free) and post-layer stage
    /// (final norm + LM head) for `n` tokens.
    pub fn lm_head_flops(&self, n: usize) -> f64 {
        2.0 * (n * self.hidden * self.vocab) as f64
    }

    /// Bytes occupied by runtime activations for a batch of `n` tokens (a conservative
    /// estimate covering residual streams, QKV and FFN intermediates for one layer at a
    /// time, double-buffered).
    pub fn activation_bytes(&self, n: usize) -> u64 {
        let per_token = 2
            * (2 * self.hidden
                + 2 * self.intermediate
                + (self.n_heads + 2 * self.n_kv_heads) * self.head_dim);
        (n * per_token * self.dtype_bytes) as u64
    }

    /// Bytes of the *down-leg* (device→host) of one CPU-offloaded decode token per layer:
    /// the Q vector for all query heads plus the freshly produced K/V entries that join
    /// the host-resident cache.
    pub fn qkv_down_bytes_per_token_per_layer(&self) -> u64 {
        let q = self.n_heads * self.head_dim;
        let kv = 2 * self.n_kv_heads * self.head_dim;
        ((q + kv) * self.dtype_bytes) as u64
    }

    /// Bytes of the *up-leg* (host→device) of one CPU-offloaded decode token per layer:
    /// the attention output `O` (one vector per query head) returning to the GPU for the
    /// output projection.
    pub fn o_up_bytes_per_token_per_layer(&self) -> u64 {
        (self.n_heads * self.head_dim * self.dtype_bytes) as u64
    }
}

impl std::fmt::Display for ModelDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} layers, hidden {}, {}q/{}kv heads)",
            self.name, self.n_layers, self.hidden, self.n_heads, self.n_kv_heads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_bytes_are_in_expected_range() {
        // ~7B params * 2 bytes ≈ 13-14 GB.
        let w7 = ModelDesc::llama2_7b().weight_bytes() as f64 / 1e9;
        assert!(w7 > 12.0 && w7 < 15.0, "7B weights {w7} GB");
        // 8B ≈ 15-17 GB.
        let w8 = ModelDesc::llama3_8b().weight_bytes() as f64 / 1e9;
        assert!(w8 > 14.0 && w8 < 18.0, "8B weights {w8} GB");
        // 70B ≈ 135-145 GB.
        let w70 = ModelDesc::llama3_70b().weight_bytes() as f64 / 1e9;
        assert!(w70 > 130.0 && w70 < 150.0, "70B weights {w70} GB");
    }

    #[test]
    fn kv_bytes_per_token_matches_known_values() {
        // LLaMa-2-7B (MHA): 2 * 32 heads * 128 dim * 2 bytes * 32 layers = 512 KiB / token.
        assert_eq!(ModelDesc::llama2_7b().kv_bytes_per_token(), 512 * 1024);
        // LLaMa-3.1-8B (GQA 8 kv heads): 2 * 8 * 128 * 2 * 32 = 128 KiB / token.
        assert_eq!(ModelDesc::llama3_8b().kv_bytes_per_token(), 128 * 1024);
    }

    #[test]
    fn gqa_reduces_kv_but_not_linear_flops() {
        let mha = ModelDesc::llama2_7b();
        let gqa = ModelDesc::llama3_8b();
        assert!(gqa.kv_bytes_per_token_per_layer() < mha.kv_bytes_per_token_per_layer());
        // Query-head count equal, so decode attention FLOPs per ctx token are equal.
        assert_eq!(mha.decode_attn_flops(100), gqa.decode_attn_flops(100));
        // But bytes read differ by the GQA ratio (4x).
        assert_eq!(mha.decode_attn_bytes(100), 4 * gqa.decode_attn_bytes(100));
    }

    #[test]
    fn prefill_flops_grow_quadratically() {
        let m = ModelDesc::llama3_8b();
        let f1 = m.prefill_attn_flops(100, 100);
        let f2 = m.prefill_attn_flops(200, 200);
        // Roughly 4x for 2x the length.
        let ratio = f2 / f1;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn decode_attn_scales_linearly_with_context() {
        let m = ModelDesc::llama3_70b();
        assert_eq!(m.decode_attn_bytes(2000), 2 * m.decode_attn_bytes(1000));
        assert!((m.decode_attn_flops(2000) - 2.0 * m.decode_attn_flops(1000)).abs() < 1e-6);
    }

    #[test]
    fn qkvo_legs_sum_to_the_round_trip() {
        // The directional split must conserve the historical round-trip total: for
        // LLaMa-3.1-8B, Q (32×128) + K/V (2×8×128) down and O (32×128) up, 2 bytes each.
        let m = ModelDesc::llama3_8b();
        assert_eq!(m.qkv_down_bytes_per_token_per_layer(), (4096 + 2048) * 2);
        assert_eq!(m.o_up_bytes_per_token_per_layer(), 4096 * 2);
    }

    #[test]
    fn display_contains_name() {
        let s = ModelDesc::tiny().to_string();
        assert!(s.contains("tiny"));
    }

    #[test]
    fn pre_plus_post_projection_equals_linear_total() {
        let m = ModelDesc::llama3_8b();
        let total = m.pre_projection_flops_per_token() + m.post_projection_flops_per_token();
        assert!((total - m.linear_flops_per_token_per_layer()).abs() < 1.0);
    }
}
