//! Latency and throughput metrics, and the one fold of token streams into them.
//!
//! A server records each request's streamed tokens as runs of consecutive indices into
//! the server's list of emitting-iteration end times. A request's token times are a
//! subsequence of those end times, and mostly a contiguous one, so the streams cost
//! O(iterations + runs) rather than one `f64` per token. [`LatencyFold`] folds them into
//! the same TTFT and ITL summaries a per-token fold gives, bit for bit.

use serde::{Deserialize, Serialize};

/// Index of the `q`-quantile among `count > 0` ascending samples: the one rank rule
/// of [`Cdf::quantile`] and [`LatencySummary`].
fn rank(count: usize, q: f64) -> usize {
    ((count - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize
}

/// An empirical cumulative distribution function over latency samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (order does not matter).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|s| s.is_finite());
        samples.sort_by(|a, b| a.total_cmp(b));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` for an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[rank(self.sorted.len(), q)])
    }

    /// Mean of the samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// Summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of requests measured.
    pub count: usize,
    /// Mean latency in seconds.
    pub mean: f64,
    /// Median (p50) latency.
    pub p50: f64,
    /// 90th percentile latency.
    pub p90: f64,
    /// 99th percentile latency.
    pub p99: f64,
    /// Maximum observed latency.
    pub max: f64,
}

impl LatencySummary {
    /// Summarises a set of latency samples; returns `None` when empty.
    pub fn from_samples(samples: Vec<f64>) -> Option<Self> {
        Self::from_weighted(samples.into_iter().map(|s| (s, 1)).collect())
    }

    /// Summarises `(value, weight)` pairs, each standing for `weight` samples of
    /// `value`, exactly as [`LatencySummary::from_samples`] summarises the samples
    /// written out: non-finite values are dropped, quantiles walk the cumulative
    /// weights of the ascending values, and the mean adds each value `weight` times in
    /// ascending order — the additions of the sorted per-sample sum, so the same bits.
    pub(crate) fn from_weighted(mut pairs: Vec<(f64, usize)>) -> Option<Self> {
        pairs.retain(|&(value, weight)| value.is_finite() && weight > 0);
        // Equal under `total_cmp` means equal bits, so an unstable sort gives the
        // order a stable one would, without the scratch buffer.
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let count: usize = pairs.iter().map(|&(_, weight)| weight).sum();
        if count == 0 {
            return None;
        }
        let sum: f64 =
            pairs.iter().flat_map(|&(value, weight)| std::iter::repeat(value).take(weight)).sum();
        let quantile = |q: f64| {
            let target = rank(count, q);
            let mut seen = 0;
            pairs
                .iter()
                .find(|&&(_, weight)| {
                    seen += weight;
                    seen > target
                })
                .map(|&(value, _)| value)
        };
        Some(Self {
            count,
            mean: sum / count as f64,
            p50: quantile(0.5)?,
            p90: quantile(0.9)?,
            p99: quantile(0.99)?,
            max: quantile(1.0)?,
        })
    }
}

/// Consecutive emitting iterations `first..first + len` of a server, one token of a
/// request at each.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: usize,
    len: usize,
}

impl Run {
    fn last(&self) -> usize {
        self.first + self.len - 1
    }
}

/// One request's streamed tokens, as runs over its server's emitting-iteration end
/// times: token `k` was emitted at the end of the `k`-th index the runs cover.
#[derive(Debug, Default)]
pub(crate) struct Stream {
    runs: Vec<Run>,
    /// Tokens the runs cover, so the count needs no fold.
    tokens: usize,
}

impl Stream {
    /// Records `tokens` tokens emitted by emitting iteration `index` (no earlier than
    /// the last one recorded). The first extends the last run when that run ended at
    /// the previous iteration; every other token opens a run of its own at `index`, so
    /// a request emitting several tokens in one iteration keeps one index per token
    /// and a zero gap between them.
    pub(crate) fn record(&mut self, index: usize, tokens: usize) {
        self.tokens += tokens;
        for _ in 0..tokens {
            match self.runs.last_mut() {
                Some(run) if run.first + run.len == index => run.len += 1,
                _ => self.runs.push(Run { first: index, len: 1 }),
            }
        }
    }

    /// Number of tokens streamed.
    pub(crate) fn len(&self) -> usize {
        self.tokens
    }

    /// Whether no token has streamed.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Emitting-iteration index of the last token.
    pub(crate) fn last(&self) -> Option<usize> {
        self.runs.last().map(Run::last)
    }

    /// Emitting-iteration index of every token, in order.
    pub(crate) fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|run| run.first..run.first + run.len)
    }

    /// Number of runs the stream is stored as.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        self.runs.len()
    }
}

/// Time to first token and inter-token latency, folded from token streams one server
/// at a time; [`LatencyFold::summaries`] gives the two summaries a per-token fold over
/// the same streams gives.
///
/// Each request adds one TTFT sample, its first token's time minus its arrival. Its
/// inter-token gaps inside a run are durations between consecutive emitting
/// iterations, so each duration enters once, weighted by the number of folded runs
/// that span it; each boundary between two runs adds one gap of its own.
#[derive(Debug, Default)]
pub struct LatencyFold {
    ttft: Vec<f64>,
    itl: Vec<(f64, usize)>,
}

impl LatencyFold {
    /// Folds `streams`, each with the arrival its TTFT counts from, over the
    /// emitting-iteration end times `ends` of the server that holds them.
    pub(crate) fn add<'a>(
        &mut self,
        ends: &[f64],
        streams: impl IntoIterator<Item = (f64, &'a Stream)>,
    ) {
        // opens[i] (closes[i]): folded runs whose span of gaps starts (ends) with the
        // gap into iteration i.
        let mut opens = vec![0usize; ends.len()];
        let mut closes = vec![0usize; ends.len()];
        for (arrival, stream) in streams {
            let Some(head) = stream.runs.first() else { continue };
            self.ttft.push(ends[head.first] - arrival);
            for run in stream.runs.iter().filter(|run| run.len > 1) {
                opens[run.first + 1] += 1;
                closes[run.last()] += 1;
            }
            for pair in stream.runs.windows(2) {
                self.itl.push((ends[pair[1].first] - ends[pair[0].last()], 1));
            }
        }
        let mut depth = 0;
        for i in 1..ends.len() {
            depth += opens[i];
            if depth > 0 {
                self.itl.push((ends[i] - ends[i - 1], depth));
            }
            depth -= closes[i];
        }
    }

    /// The TTFT and ITL summaries of everything folded; either is `None` when it has
    /// no samples. The order of the folds does not matter.
    pub fn summaries(self) -> (Option<LatencySummary>, Option<LatencySummary>) {
        (LatencySummary::from_samples(self.ttft), LatencySummary::from_weighted(self.itl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let cdf = Cdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.len(), 100);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        let median = cdf.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0);
    }

    #[test]
    fn empty_cdf_is_handled() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.mean(), None);
        assert!(LatencySummary::from_samples(Vec::new()).is_none());
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let cdf = Cdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
        let s = LatencySummary::from_samples(vec![1.0, f64::NAN, 2.0, f64::NEG_INFINITY]);
        assert_eq!(s.map(|s| s.count), Some(2));
    }

    #[test]
    fn summary_orders_percentiles() {
        let samples: Vec<f64> = (1..=1000).map(|i| (i as f64).sqrt()).collect();
        let s = LatencySummary::from_samples(samples).unwrap();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean > 0.0);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn summary_agrees_with_the_cdf_of_its_samples() {
        let samples: Vec<f64> = (0..997).map(|i| ((i * 7919) % 1009) as f64 * 0.1).collect();
        let cdf = Cdf::new(samples.clone());
        let s = LatencySummary::from_samples(samples).unwrap();
        assert_eq!(s.count, cdf.len());
        assert_eq!(s.mean.to_bits(), cdf.mean().unwrap().to_bits());
        for (value, q) in [(s.p50, 0.5), (s.p90, 0.9), (s.p99, 0.99), (s.max, 1.0)] {
            assert_eq!(value.to_bits(), cdf.quantile(q).unwrap().to_bits(), "q = {q}");
        }
    }

    #[test]
    fn a_multi_token_iteration_opens_runs_at_the_same_index() {
        let mut stream = Stream::default();
        stream.record(3, 1);
        stream.record(4, 2);
        stream.record(5, 1);
        stream.record(7, 3);
        assert_eq!(stream.indices().collect::<Vec<_>>(), [3, 4, 4, 5, 7, 7, 7]);
        assert_eq!(stream.runs(), 5);
        assert_eq!((stream.len(), stream.last()), (7, Some(7)));
    }

    proptest! {
        /// The kept count is the number of token indices the runs cover, after any
        /// sequence of records, zero-token ones included.
        #[test]
        fn prop_len_counts_the_recorded_tokens(
            records in proptest::collection::vec((0usize..3, 0usize..4), 0..60),
        ) {
            let mut stream = Stream::default();
            let mut index = 0;
            for (step, tokens) in records {
                index += step;
                stream.record(index, tokens);
                prop_assert_eq!(stream.len(), stream.indices().count());
            }
        }
    }

    /// The per-token fold the runs replace: TTFT per request and every gap between
    /// consecutive tokens of one request, from `(arrival, token times)` timelines.
    fn per_token_oracle<'a>(
        timelines: impl IntoIterator<Item = (f64, &'a [f64])>,
    ) -> (Option<LatencySummary>, Option<LatencySummary>) {
        let mut ttfts = Vec::new();
        let mut gaps = Vec::new();
        for (arrival, times) in timelines {
            if let Some(&first) = times.first() {
                ttfts.push(first - arrival);
            }
            gaps.extend(times.windows(2).map(|w| w[1] - w[0]));
        }
        (LatencySummary::from_samples(ttfts), LatencySummary::from_samples(gaps))
    }

    fn bits(summary: Option<LatencySummary>) -> Option<(usize, [u64; 5])> {
        summary.map(|s| (s.count, [s.mean, s.p50, s.p90, s.p99, s.max].map(f64::to_bits)))
    }

    /// Iteration durations drawn from a small palette, so equal gaps recur: dyadic
    /// ones tie exactly, the others round.
    const DURATIONS: [f64; 7] = [0.25, 0.5, 0.1, 0.03, 0.07, 1e-6, 0.013];

    /// How far a stream moves per token: 0 is another token of the same iteration, 1
    /// the next iteration (the run goes on, most often), more a new run.
    const STEPS: [usize; 8] = [0, 1, 1, 1, 1, 1, 2, 4];

    /// One server: its emitting-iteration end times, and per request an arrival and
    /// the emitting iteration of each token.
    type ServerCase = (Vec<f64>, Vec<(f64, Vec<usize>)>);

    /// Builds a server from generated draws. Each stream starts at a drawn iteration
    /// and moves by a drawn [`STEPS`] entry per token, stopping at the last iteration.
    fn server_case(
        start: f64,
        durations: &[usize],
        streams: &[(usize, Vec<usize>, usize)],
    ) -> ServerCase {
        let mut ends = vec![start];
        for &d in durations {
            let last = ends[ends.len() - 1];
            ends.push(last + DURATIONS[d % DURATIONS.len()]);
        }
        let streams = streams
            .iter()
            .map(|&(first, ref steps, lead)| {
                let mut indices = Vec::new();
                if lead > 0 {
                    let mut at = first % ends.len();
                    indices.push(at);
                    for &step in steps {
                        at += STEPS[step];
                        if at >= ends.len() {
                            break;
                        }
                        indices.push(at);
                    }
                }
                // A lead of 0 is a request that never streamed.
                let arrival = ends[indices.first().copied().unwrap_or(0)] - lead as f64 * 0.07;
                (arrival, indices)
            })
            .collect();
        (ends, streams)
    }

    /// Records the tokens the way the server does: once per emitting iteration, with
    /// the number of tokens the request emitted in it.
    fn stream_of(indices: &[usize]) -> Stream {
        let mut stream = Stream::default();
        for tokens in indices.chunk_by(|a, b| a == b) {
            stream.record(tokens[0], tokens.len());
        }
        stream
    }

    proptest! {
        /// Folding runs over two servers gives the per-token fold's summaries bit for
        /// bit, across tied gaps, multi-token iterations, restarted runs, one-token
        /// streams and empty streams.
        #[test]
        fn prop_run_fold_matches_the_per_token_fold(
            a_durations in proptest::collection::vec(0usize..7, 0..30),
            a_streams in proptest::collection::vec(
                (0usize..40, proptest::collection::vec(0usize..8, 0..30), 0usize..4),
                0..12,
            ),
            b_durations in proptest::collection::vec(0usize..7, 0..30),
            b_streams in proptest::collection::vec(
                (0usize..40, proptest::collection::vec(0usize..8, 0..30), 0usize..4),
                0..12,
            ),
        ) {
            let servers =
                [server_case(0.0, &a_durations, &a_streams), server_case(3.7, &b_durations, &b_streams)];
            let mut fold = LatencyFold::default();
            let mut timelines: Vec<(f64, Vec<f64>)> = Vec::new();
            for (ends, streams) in &servers {
                let built: Vec<(f64, Stream)> =
                    streams.iter().map(|(arrival, indices)| (*arrival, stream_of(indices))).collect();
                for ((_, stream), (_, indices)) in built.iter().zip(streams) {
                    prop_assert!(stream.indices().eq(indices.iter().copied()));
                }
                fold.add(ends, built.iter().map(|(arrival, stream)| (*arrival, stream)));
                timelines.extend(streams.iter().map(|(arrival, indices)| {
                    (*arrival, indices.iter().map(|&i| ends[i]).collect())
                }));
            }
            let (ttft, itl) = fold.summaries();
            let (want_ttft, want_itl) =
                per_token_oracle(timelines.iter().map(|(arrival, times)| (*arrival, &times[..])));
            prop_assert_eq!(bits(ttft), bits(want_ttft));
            prop_assert_eq!(bits(itl), bits(want_itl));
        }
    }
}
