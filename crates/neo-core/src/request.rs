//! Inference request progress.

use neo_kvcache::TokenRun;
use serde::{Deserialize, Serialize};

/// One inference request and its progress.
///
/// `output_len` is the ground-truth number of output tokens the request will produce
/// (drawn by the workload generator). The *scheduler* never reads it — real systems do not
/// know output lengths in advance; only the engine uses it to decide when the request has
/// finished, emulating the model emitting EOS.
///
/// Where a request is — waiting, on the GPU, on the CPU, on disk — is the engine's
/// queues' business, and when its tokens came is the serving layer's timeline: the
/// request records only how far it has got.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique request id.
    pub id: u64,
    /// Arrival time in seconds (simulation clock).
    pub arrival_time: f64,
    /// Prompt (input) length in tokens.
    pub prompt_len: usize,
    /// Ground-truth output length in tokens (hidden from the scheduler).
    pub output_len: usize,
    /// Prompt tokens prefilled so far.
    pub prefilled: usize,
    /// Output tokens generated so far.
    pub generated: usize,
    /// Prompt token identity as runs, for shared-prefix caching. Empty means the prompt
    /// is opaque (shares with nothing); when non-empty the run lengths sum to
    /// `prompt_len`.
    pub prompt_runs: Vec<TokenRun>,
}

impl Request {
    /// Creates a new request with nothing prefilled or generated.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` or `output_len` is zero — the paper's workloads always have
    /// at least one input and one output token.
    pub fn new(id: u64, arrival_time: f64, prompt_len: usize, output_len: usize) -> Self {
        assert!(prompt_len > 0, "prompt length must be positive");
        assert!(output_len > 0, "output length must be positive");
        Self {
            id,
            arrival_time,
            prompt_len,
            output_len,
            prefilled: 0,
            generated: 0,
            prompt_runs: Vec::new(),
        }
    }

    /// Creates a request whose prompt identity is given as token runs (for shared-prefix
    /// caching). An empty `runs` is equivalent to [`Request::new`].
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` or `output_len` is zero, or if non-empty `runs` do not sum
    /// to `prompt_len`.
    pub fn with_runs(
        id: u64,
        arrival_time: f64,
        prompt_len: usize,
        output_len: usize,
        runs: Vec<TokenRun>,
    ) -> Self {
        assert!(
            runs.is_empty() || runs.iter().map(|r| r.len).sum::<usize>() == prompt_len,
            "prompt runs must cover the prompt length exactly"
        );
        let mut r = Self::new(id, arrival_time, prompt_len, output_len);
        r.prompt_runs = runs;
        r
    }

    /// Prompt tokens not yet prefilled.
    pub fn remaining_prefill(&self) -> usize {
        self.prompt_len - self.prefilled
    }

    /// Whether the whole prompt has been prefilled.
    pub fn prefill_complete(&self) -> bool {
        self.prefilled == self.prompt_len
    }

    /// Tokens currently held in the KV cache (prefilled prompt + generated output).
    pub fn context_len(&self) -> usize {
        self.prefilled + self.generated
    }

    /// Whether the request has produced all of its output tokens.
    pub fn is_finished(&self) -> bool {
        self.generated >= self.output_len
    }

    /// Total tokens (prompt + full output) this request will process when complete.
    pub fn total_tokens(&self) -> usize {
        self.prompt_len + self.output_len
    }

    /// Records the prefill of `n` more prompt tokens.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the remaining prefill.
    pub fn advance_prefill(&mut self, n: usize) {
        assert!(n <= self.remaining_prefill(), "prefilled past the end of the prompt");
        self.prefilled += n;
    }

    /// Records the generation of one output token.
    ///
    /// # Panics
    ///
    /// Panics if called on a request that has not completed prefill or already finished.
    pub fn advance_decode(&mut self) {
        assert!(self.prefill_complete(), "cannot decode before prefill completes");
        assert!(!self.is_finished(), "request already produced all output tokens");
        self.generated += 1;
    }

    /// Preempts the request: its KV cache has been discarded, so the whole prompt must be
    /// recomputed. Already-generated output tokens are kept (recomputing them is folded
    /// into the prompt recomputation cost).
    ///
    /// # Panics
    ///
    /// Panics if the request already finished.
    pub fn preempt(&mut self) {
        assert!(!self.is_finished(), "cannot preempt a finished request");
        self.prefilled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_progresses_through_states() {
        let mut r = Request::new(1, 0.5, 10, 3);
        assert_eq!(r.remaining_prefill(), 10);

        r.advance_prefill(6);
        assert!(!r.prefill_complete());
        r.advance_prefill(4);
        assert!(r.prefill_complete());
        assert_eq!(r.context_len(), 10);

        r.advance_decode();
        r.advance_decode();
        assert!(!r.is_finished());
        r.advance_decode();
        assert!(r.is_finished());
        assert_eq!(r.context_len(), 13);
    }

    #[test]
    fn preemption_resets_prefill_but_keeps_output() {
        let mut r = Request::new(1, 0.0, 10, 5);
        r.advance_prefill(10);
        r.advance_decode();
        r.preempt();
        assert_eq!(r.prefilled, 0);
        assert_eq!(r.generated, 1);
        assert_eq!(r.remaining_prefill(), 10);
        // Recomputation then continues decoding where it left off.
        r.advance_prefill(10);
        r.advance_decode();
        assert_eq!(r.generated, 2);
    }

    #[test]
    #[should_panic(expected = "finished")]
    fn preempting_finished_request_panics() {
        let mut r = Request::new(1, 0.0, 2, 1);
        r.advance_prefill(2);
        r.advance_decode();
        r.preempt();
    }

    #[test]
    fn total_tokens_counts_prompt_and_output() {
        let r = Request::new(1, 0.0, 100, 20);
        assert_eq!(r.total_tokens(), 120);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn overshooting_prefill_panics() {
        let mut r = Request::new(1, 0.0, 3, 1);
        r.advance_prefill(4);
    }

    #[test]
    #[should_panic(expected = "before prefill")]
    fn decoding_before_prefill_panics() {
        let mut r = Request::new(1, 0.0, 3, 1);
        r.advance_decode();
    }

    #[test]
    #[should_panic(expected = "already produced")]
    fn decoding_past_the_end_panics() {
        let mut r = Request::new(1, 0.0, 1, 1);
        r.advance_prefill(1);
        r.advance_decode();
        r.advance_decode();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_prompt_panics() {
        let _ = Request::new(1, 0.0, 0, 1);
    }

    #[test]
    fn runs_carry_the_prompt_identity() {
        let runs = vec![TokenRun { id: 7, len: 30 }, TokenRun { id: 9, len: 70 }];
        let r = Request::with_runs(1, 0.0, 100, 5, runs.clone());
        assert_eq!(r.prompt_runs, runs);
        assert_eq!(r.prompt_len, 100);
        // Empty runs degrade to a plain request.
        let plain = Request::with_runs(2, 0.0, 100, 5, Vec::new());
        assert!(plain.prompt_runs.is_empty());
    }

    #[test]
    #[should_panic(expected = "cover the prompt")]
    fn mismatched_runs_panic() {
        let _ = Request::with_runs(1, 0.0, 100, 5, vec![TokenRun { id: 7, len: 99 }]);
    }
}
