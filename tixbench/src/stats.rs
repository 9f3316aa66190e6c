//! Exact order statistics over client-side samples (sorted vectors, not
//! the server's log₂ histogram) and the repeatability figures `--repeat`
//! prints.

/// A percentile is reported only with at least this many samples beyond
/// it; with fewer, the value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort samples for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The exact `q`-quantile (nearest rank) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether `n` samples support quantile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond its rank.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The highest of the usual tail percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&q| supported(n, q))
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
/// Needs two values; fewer give the one value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Sort `(seconds since phase start, value)` samples into `windows` equal
/// slices of `span` seconds.
fn into_windows(samples: &[(f64, f64)], span: f64, windows: usize) -> Vec<Vec<f64>> {
    let windows = windows.max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, value) in samples {
        let slot = ((at / span * windows as f64) as usize).min(windows - 1);
        buckets[slot].push(value);
    }
    buckets
}

/// Median of the per-window `q`-quantiles of `samples`. Windows without
/// samples are skipped. A disturbance from outside the benchmark lasts a
/// few windows and moves the median of the windows far less than it moves
/// one percentile over the whole phase.
pub fn windowed_percentile(samples: &[(f64, f64)], span: f64, windows: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = into_windows(samples, span, windows)
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(&sorted(b), q))
        .collect();
    median(&per_window)
}

/// The `q`-quantile of the per-window completion rates (events per
/// second) of events at `times` seconds since the phase began. A
/// disturbance can only lower a window's rate, so an upper quantile is
/// the rate the system sustains when left alone.
pub fn windowed_rate(times: &[f64], span: f64, windows: usize, q: f64) -> f64 {
    let samples: Vec<(f64, f64)> = times.iter().map(|&at| (at, 0.0)).collect();
    let window_s = span / windows.max(1) as f64;
    let rates: Vec<f64> = into_windows(&samples, span, windows)
        .into_iter()
        .map(|b| b.len() as f64 / window_s)
        .collect();
    percentile(&sorted(rates), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_samples() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Not a bucket edge: the value is one of the inputs.
        let odd = sorted(vec![0.3, 7.25, 1.5]);
        assert_eq!(percentile(&odd, 0.5), 1.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples has rank 190, so exactly 10 beyond it.
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(!supported(0, 0.5));
        assert_eq!(highest_supported(150), Some(0.9));
        assert_eq!(highest_supported(250), Some(0.95));
        assert_eq!(highest_supported(5000), Some(0.99));
        assert_eq!(highest_supported(20_000), Some(0.999));
        assert_eq!(highest_supported(50), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(relative_spread(&v), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_the_windows() {
        // Three windows over 3 s: medians 1, 100 (a stall), 3.
        let samples = [(0.1, 1.0), (0.5, 1.0), (1.2, 100.0), (2.2, 3.0), (2.9, 3.0)];
        assert_eq!(windowed_percentile(&samples, 3.0, 3, 0.5), 3.0);
        // A sample exactly at the end falls into the last window.
        assert_eq!(windowed_percentile(&[(3.0, 7.0)], 3.0, 3, 0.5), 7.0);
    }

    #[test]
    fn windowed_rate_ignores_the_disturbed_windows() {
        // Four windows of 0.5 s: 10, 10, 2 (disturbed) and 10 events.
        let mut times = Vec::new();
        for (window, events) in [10, 10, 2, 10].into_iter().enumerate() {
            for i in 0..events {
                times.push(window as f64 * 0.5 + i as f64 * 0.01);
            }
        }
        assert_eq!(windowed_rate(&times, 2.0, 4, 0.75), 20.0);
        assert_eq!(windowed_rate(&times, 2.0, 4, 0.25), 4.0);
        assert_eq!(windowed_rate(&[], 2.0, 4, 0.75), 0.0);
    }
}
