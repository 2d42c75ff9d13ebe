//! Latency and throughput metrics.

use serde::{Deserialize, Serialize};

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
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
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
        let cdf = Cdf::new(samples);
        if cdf.is_empty() {
            return None;
        }
        Some(Self {
            count: cdf.len(),
            mean: cdf.mean()?,
            p50: cdf.quantile(0.5)?,
            p90: cdf.quantile(0.9)?,
            p99: cdf.quantile(0.99)?,
            max: cdf.quantile(1.0)?,
        })
    }
}

/// Streaming-latency summaries over per-request token timelines, given as
/// `(arrival, token times)` pairs: time to first token (first token − arrival) and
/// inter-token latency (gaps between consecutive tokens of one request). Samples are
/// taken in the order given. Either summary is `None` when it has no samples.
pub fn stream_latency<'a>(
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

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn summary_orders_percentiles() {
        let samples: Vec<f64> = (1..=1000).map(|i| (i as f64).sqrt()).collect();
        let s = LatencySummary::from_samples(samples).unwrap();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean > 0.0);
        assert_eq!(s.count, 1000);
    }
}
