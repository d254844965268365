//! Percentiles, the sample-count rule and geometric means.

/// A pool of timing samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// The `p`-th percentile (nearest rank on the sorted samples), or 0
    /// for an empty pool.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, p)
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n >= 1` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= 10
}

/// Geometric mean of the positive values; 0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).p50(), 2.0);
        assert_eq!(Samples::default().p50(), 0.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert!(!percentile_supported(400, 99.0));
        assert!(percentile_supported(1000, 99.0));
    }

    #[test]
    fn geomean_skips_non_positive() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }
}
