//! Order statistics for per-operation timings.
//!
//! The benchmark host switches between two speeds about 1.7x apart, so
//! whole-run means and medians of closed-loop timings jump between them.
//! Low and high percentiles of per-operation samples each stay within one
//! speed; they are what the end-to-end metrics report.

/// Samples that must lie beyond the highest percentile reported, so a
/// tail percentile is never read off one or two stray values.
pub const MIN_TAIL: usize = 10;

/// The `p`-quantile (`p` in `[0, 1]`) of `values`, interpolating linearly
/// between closest ranks. Errors when fewer than [`MIN_TAIL`] samples lie
/// beyond it (ranked above the interpolation point).
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("percentile {p} outside [0, 1]"));
    }
    if n == 0 {
        return Err("no samples".into());
    }
    let rank = p * (n - 1) as f64;
    // Absorb representation error (0.9 · 99 is 89.10000000000001).
    let lo = (rank + 1e-9).floor() as usize;
    let beyond = n - 1 - lo.min(n - 1);
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it, needs {MIN_TAIL}",
            p * 100.0
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let hi = (lo + 1).min(n - 1);
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64).max(0.0))
}

/// The median of `values` (no tail rule: used for repeated set-up and
/// build timings, never for a tail).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0).unwrap(), 1.0);
        assert!((percentile(&v, 0.5).unwrap() - 50.5).abs() < 1e-12);
        assert!((percentile(&v, 0.9).unwrap() - 90.1).abs() < 1e-12);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let mut s = v.clone();
        s.sort_by(f64::total_cmp);
        assert_eq!(percentile(&v, 0.1).unwrap(), percentile(&s, 0.1).unwrap());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 90 samples sits between ranks 80 and 81: nine beyond.
        let v: Vec<f64> = (0..90).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_ok());
        // p99 needs about a thousand samples.
        assert!(percentile(&v, 0.99).is_err());
        let v: Vec<f64> = (0..900).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_err());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_ok());
        // Even the minimum needs ten samples above it.
        assert!(percentile(&v[..10], 0.0).is_err());
        assert!(percentile(&v[..11], 0.0).is_ok());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
