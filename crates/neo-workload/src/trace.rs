//! Request traces and their statistics.

use serde::{Deserialize, Serialize};

/// One request of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Arrival time in seconds from the start of the trace.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output length in tokens.
    pub output_len: usize,
}

/// A workload trace: requests ordered by arrival time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<TraceRequest>,
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of requests.
    pub count: usize,
    /// Mean prompt length in tokens.
    pub mean_prompt: f64,
    /// Mean output length in tokens.
    pub mean_output: f64,
    /// 95th-percentile prompt length.
    pub p95_prompt: usize,
    /// 95th-percentile output length.
    pub p95_output: usize,
    /// Total tokens (prompt + output) across the trace.
    pub total_tokens: u64,
    /// Trace duration (last arrival time), in seconds.
    pub duration: f64,
}

impl Trace {
    /// Builds a trace, sorting the requests by arrival time.
    pub fn new(mut requests: Vec<TraceRequest>) -> Self {
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Self { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[TraceRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Returns a copy of the trace with all arrival times set to zero ("feed the whole
    /// trace at once"), as the offline-throughput experiments do (§5.5).
    pub fn as_offline(&self) -> Trace {
        Trace {
            requests: self.requests.iter().map(|r| TraceRequest { arrival: 0.0, ..*r }).collect(),
        }
    }

    /// Returns a copy truncated to the first `n` requests.
    pub fn take(&self, n: usize) -> Trace {
        Trace { requests: self.requests.iter().take(n).copied().collect() }
    }

    /// Merges two traces into one arrival stream, re-sorted by arrival time.
    ///
    /// This is how fleet-level workloads are assembled: each user population (e.g. an
    /// AC-like coding stream and an OSC-like chat stream) is generated independently
    /// and the router sees their interleaving. The sort is stable, so same-instant
    /// arrivals keep `self`-before-`other` order and the merge is deterministic.
    pub fn merge(&self, other: &Trace) -> Trace {
        let mut requests = self.requests.clone();
        requests.extend_from_slice(&other.requests);
        Trace::new(requests)
    }

    /// Summary statistics.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn stats(&self) -> TraceStats {
        assert!(!self.requests.is_empty(), "cannot compute statistics of an empty trace");
        let count = self.requests.len();
        let mut prompts: Vec<usize> = self.requests.iter().map(|r| r.prompt_len).collect();
        let mut outputs: Vec<usize> = self.requests.iter().map(|r| r.output_len).collect();
        prompts.sort_unstable();
        outputs.sort_unstable();
        let p95 = |v: &[usize]| v[((v.len() as f64 * 0.95) as usize).min(v.len() - 1)];
        TraceStats {
            count,
            mean_prompt: prompts.iter().sum::<usize>() as f64 / count as f64,
            mean_output: outputs.iter().sum::<usize>() as f64 / count as f64,
            p95_prompt: p95(&prompts),
            p95_output: p95(&outputs),
            total_tokens: self.requests.iter().map(|r| (r.prompt_len + r.output_len) as u64).sum(),
            duration: self.requests.last().map(|r| r.arrival).unwrap_or(0.0),
        }
    }
}

impl FromIterator<TraceRequest> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRequest>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            TraceRequest { arrival: 2.0, prompt_len: 100, output_len: 10 },
            TraceRequest { arrival: 0.5, prompt_len: 300, output_len: 30 },
            TraceRequest { arrival: 1.0, prompt_len: 200, output_len: 20 },
        ])
    }

    #[test]
    fn requests_are_sorted_by_arrival() {
        let t = sample();
        let arrivals: Vec<f64> = t.requests().iter().map(|r| r.arrival).collect();
        assert_eq!(arrivals, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn stats_are_correct() {
        let s = sample().stats();
        assert_eq!(s.count, 3);
        assert!((s.mean_prompt - 200.0).abs() < 1e-9);
        assert!((s.mean_output - 20.0).abs() < 1e-9);
        assert_eq!(s.total_tokens, 660);
        assert_eq!(s.duration, 2.0);
        assert_eq!(s.p95_prompt, 300);
    }

    #[test]
    fn offline_variant_zeroes_arrivals() {
        let t = sample().as_offline();
        assert!(t.requests().iter().all(|r| r.arrival == 0.0));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn take_truncates() {
        let t = sample().take(2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(sample().take(0).is_empty());
    }

    #[test]
    fn merge_interleaves_two_traces_in_arrival_order() {
        let a = Trace::new(vec![
            TraceRequest { arrival: 0.0, prompt_len: 10, output_len: 1 },
            TraceRequest { arrival: 2.0, prompt_len: 20, output_len: 2 },
        ]);
        let b = Trace::new(vec![TraceRequest { arrival: 1.0, prompt_len: 30, output_len: 3 }]);
        let merged = a.merge(&b);
        assert_eq!(merged.len(), 3);
        let arrivals: Vec<f64> = merged.requests().iter().map(|r| r.arrival).collect();
        assert_eq!(arrivals, vec![0.0, 1.0, 2.0]);
        assert_eq!(merged.requests()[1].prompt_len, 30);
        // Stable on ties: self's request comes first.
        let tie = a.merge(&Trace::new(vec![TraceRequest {
            arrival: 0.0,
            prompt_len: 99,
            output_len: 9,
        }]));
        assert_eq!(tie.requests()[0].prompt_len, 10);
        assert_eq!(tie.requests()[1].prompt_len, 99);
    }

    #[test]
    fn from_iterator_collects() {
        let t: Trace = (0..5)
            .map(|i| TraceRequest { arrival: i as f64, prompt_len: 10, output_len: 5 })
            .collect();
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn stats_of_empty_trace_panics() {
        let _ = Trace::default().stats();
    }
}
