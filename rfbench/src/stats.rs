//! Latency summaries. Percentiles are nearest-rank, and a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so
//! no figure rests on a handful of tail samples.

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// The smallest sample count that supports percentile `q` (in `(0, 1)`).
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| n - rank(n, q) >= MIN_BEYOND).expect("some count supports q")
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `q` of `samples`, or an error naming `what` when fewer
/// than [`min_samples`] samples support it.
pub fn percentile(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let need = min_samples(q);
    if samples.len() < need {
        return Err(format!(
            "{what}: {} samples cannot support p{:.0} (needs {need})",
            samples.len(),
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(sorted.len(), q) - 1])
}

/// Median of a non-empty slice (nearest rank, no support requirement):
/// for set-up repetitions and other small samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), 0.5) - 1]
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_rule_matches_ten_beyond() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9, "x").unwrap(), 90.0);
        assert_eq!(percentile(&v, 0.5, "x").unwrap(), 50.0);
        assert!(percentile(&v[..99], 0.9, "x").is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
