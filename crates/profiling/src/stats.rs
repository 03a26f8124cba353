//! Sample statistics for measured durations.
//!
//! Mirrors what the paper reports per measurement: mean, median, min, max,
//! standard deviation over ≥100 samples (its Figure 7 caption), plus a
//! probability-density histogram for distribution plots.
//!
//! A [`SampleSet`] keeps every sample, so the median and the histogram
//! Figure 7 needs are available, and folds each one into a [`Welford`]
//! accumulator, which gives the moments in O(1) without a second pass.

use bband_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Streaming moment accumulator (Welford's algorithm): numerically stable
/// running mean and variance plus min/max, in constant space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (÷n, matching the paper's reports;
    /// 0 when empty).
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A collection of duration samples with summary statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<SimDuration>,
    stats: Welford,
}

/// Summary of a [`SampleSet`], all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub std_dev: f64,
}

impl SampleSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn push(&mut self, d: SimDuration) {
        self.stats.push(d.as_ns_f64());
        self.samples.push(d);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.stats.count() as usize
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.count() == 0
    }

    /// Raw samples, in recording order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// Moments (count, mean, σ, min, max), accumulated as samples arrive.
    pub fn stats(&self) -> &Welford {
        &self.stats
    }

    /// Arithmetic mean in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.stats.mean()
    }

    /// Mean with a fixed per-sample overhead deducted (the paper's
    /// calibrated-timer correction). Clamps at zero.
    pub fn mean_ns_minus(&self, overhead_ns: f64) -> f64 {
        (self.mean_ns() - overhead_ns).max(0.0)
    }

    /// Full summary (count, mean, median, min, max, σ). Moments come from
    /// the accumulator; the median sorts a copy of the samples.
    pub fn summary(&self) -> Summary {
        let n = self.stats.count() as usize;
        let median = if n == 0 {
            self.stats.mean()
        } else {
            let mut sorted: Vec<f64> = self.samples.iter().map(|d| d.as_ns_f64()).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            }
        };
        Summary {
            count: n,
            mean: self.stats.mean(),
            median,
            min: self.stats.min(),
            max: self.stats.max(),
            std_dev: self.stats.std_dev(),
        }
    }

    /// Probability-density histogram over `[lo, hi)` with `bins` bins;
    /// returns (bin_center_ns, density) pairs. Samples outside the range
    /// are clamped into the end bins (the paper's Figure 7 does the same —
    /// its 34.9 µs max is "not shown due to the large value").
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
        assert!(bins > 0 && hi > lo, "invalid histogram spec");
        let mut counts = vec![0usize; bins];
        let width = (hi - lo) / bins as f64;
        for d in &self.samples {
            let x = d.as_ns_f64();
            let idx = (((x - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        let n = self.samples.len().max(1) as f64;
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (lo + (i as f64 + 0.5) * width, c as f64 / (n * width)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set_of(ns: &[f64]) -> SampleSet {
        let mut s = SampleSet::new();
        for &x in ns {
            s.push(SimDuration::from_ns_f64(x));
        }
        s
    }

    #[test]
    fn summary_of_known_values() {
        let s = set_of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert!((sum.mean - 3.0).abs() < 1e-9);
        assert!((sum.median - 3.0).abs() < 1e-9);
        assert!((sum.min - 1.0).abs() < 1e-9);
        assert!((sum.max - 5.0).abs() < 1e-9);
        assert!((sum.std_dev - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn even_count_median_averages() {
        let s = set_of(&[1.0, 2.0, 3.0, 10.0]);
        assert!((s.summary().median - 2.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = SampleSet::new();
        assert_eq!(s.summary().count, 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.summary().min, 0.0);
        assert_eq!(s.summary().std_dev, 0.0);
    }

    #[test]
    fn overhead_deduction() {
        let s = set_of(&[100.0, 110.0, 90.0]);
        assert!((s.mean_ns_minus(49.69) - (100.0 - 49.69)).abs() < 1e-9);
        // Deduction never goes negative.
        assert_eq!(s.mean_ns_minus(1e9), 0.0);
    }

    #[test]
    fn histogram_integrates_to_one() {
        let s = set_of(&[10.0, 20.0, 20.0, 30.0, 90.0]);
        let h = s.histogram(0.0, 100.0, 10);
        let width = 10.0;
        let total: f64 = h.iter().map(|(_, d)| d * width).sum();
        assert!((total - 1.0).abs() < 1e-9, "density must integrate to 1");
    }

    #[test]
    fn histogram_clamps_outliers() {
        // A 34.9 µs outlier in a 0–500 ns window lands in the last bin.
        let s = set_of(&[100.0, 34951.7]);
        let h = s.histogram(0.0, 500.0, 5);
        assert!(h[4].1 > 0.0, "outlier clamped into last bin");
    }

    #[test]
    fn single_sample_statistics() {
        let s = set_of(&[42.0]);
        let sum = s.summary();
        assert_eq!(sum.count, 1);
        assert!((sum.mean - 42.0).abs() < 1e-9);
        assert!((sum.median - 42.0).abs() < 1e-9);
        assert!((sum.std_dev - 0.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let s = set_of(&[1.0, 2.5, 3.75]);
        let json = serde_json::to_string(&s).unwrap();
        let back: SampleSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.summary(), s.summary());
    }

    proptest! {
        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(0.0f64..1e6, 1..100)) {
            let s = set_of(&xs);
            let sum = s.summary();
            prop_assert!(sum.mean >= sum.min - 1e-6);
            prop_assert!(sum.mean <= sum.max + 1e-6);
            prop_assert!(sum.median >= sum.min - 1e-6);
            prop_assert!(sum.median <= sum.max + 1e-6);
        }
    }
}
