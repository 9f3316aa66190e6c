//! Score histograms — the auxiliary data of Sec. 5.3.
//!
//! The paper observes that users cannot state an absolute relevance-score
//! threshold for Pick "since they have no idea of the distribution of the
//! scores for a given query", and proposes a histogram "of the number of
//! data IR-nodes matching a query IR-node with respect to the score" so
//! thresholds can be given as quantiles.

use crate::scoring::count_f64;

/// An equi-width histogram over non-negative scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreHistogram {
    buckets: Vec<usize>,
    bucket_width: f64,
    min: f64,
    max: f64,
    count: usize,
}

impl ScoreHistogram {
    /// Build a histogram with `buckets` equal-width buckets over the
    /// observed score range.
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn build(scores: impl IntoIterator<Item = f64>, buckets: usize) -> Self {
        assert!(buckets > 0, "at least one bucket required");
        let scores: Vec<f64> = scores.into_iter().filter(|s| s.is_finite()).collect();
        let (min, max) = scores
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        if scores.is_empty() {
            return ScoreHistogram {
                buckets: vec![0; buckets],
                bucket_width: 1.0,
                min: 0.0,
                max: 0.0,
                count: 0,
            };
        }
        let width = ((max - min) / count_f64(buckets)).max(f64::MIN_POSITIVE);
        let mut hist = vec![0usize; buckets];
        for &s in &scores {
            // lint:allow(no-as-cast): float→usize truncation is the bucket rule; clamped below
            let idx = (((s - min) / width) as usize).min(buckets - 1);
            // lint:allow(no-slice-index): idx clamped to buckets - 1 above
            hist[idx] += 1;
        }
        ScoreHistogram {
            buckets: hist,
            bucket_width: width,
            min,
            max,
            count: scores.len(),
        }
    }

    /// Total observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Smallest observed score.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed score.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The bucket counts.
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// Approximate score at quantile `q ∈ [0, 1]` (q = 0.9 → "a score
    /// higher than 90 % of matching IR-nodes"). Linear interpolation within
    /// the containing bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if self.count == 0 {
            return 0.0;
        }
        let target = q * count_f64(self.count);
        let mut acc = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            let next = acc + count_f64(c);
            if next >= target && c > 0 {
                let within = if c > 0 {
                    (target - acc) / count_f64(c)
                } else {
                    0.0
                };
                return self.min + (count_f64(i) + within.clamp(0.0, 1.0)) * self.bucket_width;
            }
            acc = next;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = ScoreHistogram::build(std::iter::empty(), 8);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn uniform_quantiles() {
        let scores: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let h = ScoreHistogram::build(scores, 100);
        assert_eq!(h.count(), 1000);
        let median = h.quantile(0.5);
        assert!((median - 0.5).abs() < 0.05, "median {median}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 0.9).abs() < 0.05, "p90 {p90}");
    }

    #[test]
    fn single_value() {
        let h = ScoreHistogram::build([2.5, 2.5, 2.5], 4);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 2.5);
        assert_eq!(h.max(), 2.5);
    }

    #[test]
    fn non_finite_filtered() {
        let h = ScoreHistogram::build([1.0, f64::NAN, 2.0, f64::INFINITY], 4);
        assert_eq!(h.count(), 2);
    }
}
