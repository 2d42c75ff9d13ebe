//! Inference request state machine.

use neo_kvcache::TokenRun;
use serde::{Deserialize, Serialize};

/// Lifecycle state of a request inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// Waiting in the prefill waitqueue; no KV cache allocated yet.
    Waiting,
    /// Being prefilled (chunked prefill may take several iterations).
    Prefilling,
    /// Decoding with its KV cache resident on the GPU (a "GPU-request").
    RunningGpu,
    /// Decoding with its KV cache resident on the CPU (a "CPU-request").
    RunningCpu,
    /// All output tokens produced; KV cache released.
    Finished,
    /// Cancelled by the serving layer before finishing; KV cache released. Terminal, like
    /// [`RequestState::Finished`], but the request never counts as completed.
    Cancelled,
}

/// One inference request and its progress.
///
/// `output_len` is the ground-truth number of output tokens the request will produce
/// (drawn by the workload generator). The *scheduler* never reads it — real systems do not
/// know output lengths in advance; only the engine uses it to decide when the request has
/// finished, emulating the model emitting EOS.
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
    /// Current lifecycle state.
    pub state: RequestState,
    /// Time the request finished, if it has.
    pub finish_time: Option<f64>,
    /// Prompt token identity as runs, for shared-prefix caching. Empty means the prompt
    /// is opaque (shares with nothing); when non-empty the run lengths sum to
    /// `prompt_len`.
    pub prompt_runs: Vec<TokenRun>,
}

impl Request {
    /// Creates a new request in the [`RequestState::Waiting`] state.
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
            state: RequestState::Waiting,
            finish_time: None,
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

    /// Whether the request is in one of the decoding states.
    pub fn is_running(&self) -> bool {
        matches!(self.state, RequestState::RunningGpu | RequestState::RunningCpu)
    }

    /// Whether the request was cancelled by the serving layer.
    pub fn is_cancelled(&self) -> bool {
        self.state == RequestState::Cancelled
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
        self.state = RequestState::Prefilling;
    }

    /// Records the generation of one output token at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if called on a request that has not completed prefill or already finished.
    pub fn advance_decode(&mut self, now: f64) {
        assert!(self.prefill_complete(), "cannot decode before prefill completes");
        assert!(!self.is_finished(), "request already produced all output tokens");
        self.generated += 1;
        if self.is_finished() {
            self.state = RequestState::Finished;
            self.finish_time = Some(now);
        }
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
        self.state = RequestState::Waiting;
    }

    /// End-to-end latency (finish − arrival), if finished.
    pub fn latency(&self) -> Option<f64> {
        self.finish_time.map(|t| t - self.arrival_time)
    }

    /// Average per-token latency: full latency divided by the number of output tokens,
    /// the metric Figure 6 and Figure 7 of the paper report.
    pub fn per_token_latency(&self) -> Option<f64> {
        self.latency().map(|l| l / self.output_len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_progresses_through_states() {
        let mut r = Request::new(1, 0.5, 10, 3);
        assert_eq!(r.state, RequestState::Waiting);
        assert_eq!(r.remaining_prefill(), 10);

        r.advance_prefill(6);
        assert_eq!(r.state, RequestState::Prefilling);
        assert!(!r.prefill_complete());
        r.advance_prefill(4);
        assert!(r.prefill_complete());
        assert_eq!(r.context_len(), 10);

        r.state = RequestState::RunningGpu;
        r.advance_decode(1.0);
        r.advance_decode(1.5);
        r.advance_decode(2.0);
        assert!(r.is_finished());
        assert_eq!(r.state, RequestState::Finished);
        assert_eq!(r.finish_time, Some(2.0));
        assert_eq!(r.context_len(), 13);
    }

    #[test]
    fn latency_metrics_match_definition() {
        let mut r = Request::new(1, 2.0, 4, 2);
        r.advance_prefill(4);
        r.advance_decode(3.0);
        r.advance_decode(5.0);
        assert_eq!(r.latency(), Some(3.0));
        assert_eq!(r.per_token_latency(), Some(1.5));
    }

    #[test]
    fn unfinished_request_has_no_latency() {
        let r = Request::new(1, 0.0, 4, 2);
        assert_eq!(r.latency(), None);
        assert_eq!(r.per_token_latency(), None);
        assert!(!r.is_running());
    }

    #[test]
    fn preemption_resets_prefill_but_keeps_output() {
        let mut r = Request::new(1, 0.0, 10, 5);
        r.advance_prefill(10);
        r.advance_decode(1.0);
        r.preempt();
        assert_eq!(r.prefilled, 0);
        assert_eq!(r.generated, 1);
        assert_eq!(r.state, RequestState::Waiting);
        assert_eq!(r.remaining_prefill(), 10);
        // Recomputation then continues decoding where it left off.
        r.advance_prefill(10);
        r.advance_decode(2.0);
        assert_eq!(r.generated, 2);
    }

    #[test]
    #[should_panic(expected = "finished")]
    fn preempting_finished_request_panics() {
        let mut r = Request::new(1, 0.0, 2, 1);
        r.advance_prefill(2);
        r.advance_decode(0.5);
        r.preempt();
    }

    #[test]
    fn cancelled_state_is_terminal_and_not_finished() {
        let mut r = Request::new(1, 0.0, 10, 5);
        r.advance_prefill(10);
        r.advance_decode(1.0);
        r.state = RequestState::Cancelled;
        assert!(r.is_cancelled());
        assert!(!r.is_running());
        assert!(!r.is_finished(), "cancelled requests never count as completed");
        assert_eq!(r.latency(), None);
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
        r.advance_decode(0.0);
    }

    #[test]
    #[should_panic(expected = "already produced")]
    fn decoding_past_the_end_panics() {
        let mut r = Request::new(1, 0.0, 1, 1);
        r.advance_prefill(1);
        r.advance_decode(0.0);
        r.advance_decode(0.1);
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
