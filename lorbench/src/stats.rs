//! Order statistics over small sample sets.

/// Median of `values` (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`quantile` in `[0, 1]`) of `values`, sorting them
/// in place; 0 when empty.
pub fn percentile(values: &mut [u64], quantile: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((quantile * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// `numerator / denominator`, or 0 for an empty denominator (a metric that
/// does not apply to the workload reads 0).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
