//! Inaccuracy metrics (paper §5): "we measure the inaccuracy incurred for
//! each of the techniques by averaging the absolute difference between the
//! attribute values of the vertices for the exact and the approximate
//! versions" — for SSSP/PR/BC. For SCC the metric is the difference in
//! component counts; for MST the difference in spanning-forest weight.

/// Relative L1 distance between per-vertex attribute vectors:
/// `Σ|a − e| / Σ|e|`. Pairs where the exact value is non-finite are
/// compared specially: both non-finite → no contribution; exactly one
/// non-finite → counts as a full unit of the mean exact magnitude (a
/// shortcut edge made an unreachable node reachable, or vice versa).
pub fn relative_l1(approx: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(approx.len(), exact.len(), "vector length mismatch");
    if exact.is_empty() {
        return 0.0;
    }
    let finite: Vec<f64> = exact.iter().copied().filter(|v| v.is_finite()).collect();
    let denom: f64 = finite.iter().map(|v| v.abs()).sum();
    let mean_mag = if finite.is_empty() {
        1.0
    } else {
        (denom / finite.len() as f64).max(f64::MIN_POSITIVE)
    };
    let mut num = 0.0;
    for (&a, &e) in approx.iter().zip(exact) {
        match (a.is_finite(), e.is_finite()) {
            (true, true) => num += (a - e).abs(),
            (false, false) => {}
            _ => num += mean_mag,
        }
    }
    if denom <= 0.0 {
        if num == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        num / denom
    }
}

/// Largest per-vertex absolute error. Pairs follow the same non-finite
/// rules as [`relative_l1`]: both non-finite contribute nothing, a
/// finite/non-finite mismatch counts as the mean exact magnitude.
pub fn max_abs_error(approx: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(approx.len(), exact.len(), "vector length mismatch");
    let finite: Vec<f64> = exact.iter().copied().filter(|v| v.is_finite()).collect();
    let mean_mag = if finite.is_empty() {
        1.0
    } else {
        (finite.iter().map(|v| v.abs()).sum::<f64>() / finite.len() as f64).max(f64::MIN_POSITIVE)
    };
    let mut max = 0.0f64;
    for (&a, &e) in approx.iter().zip(exact) {
        let err = match (a.is_finite(), e.is_finite()) {
            (true, true) => (a - e).abs(),
            (false, false) => 0.0,
            _ => mean_mag,
        };
        max = max.max(err);
    }
    max
}

/// Relative difference between two scalar outcomes (SCC count, MST weight):
/// `|a − e| / max(|e|, 1)`.
pub fn scalar_inaccuracy(approx: f64, exact: f64) -> f64 {
    (approx - exact).abs() / exact.abs().max(1.0)
}

/// Geometric mean of a slice of finite, positive values (the tables'
/// speedup averages); 0 for an empty slice. Panics on any other value: a
/// zero or a negative has no logarithm, and clamping it would hand back a
/// mean of numbers nobody measured.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v.is_finite() && v > 0.0, "geomean of {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_zero() {
        assert_eq!(relative_l1(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn ten_percent_error() {
        let exact = vec![10.0, 10.0];
        let approx = vec![11.0, 9.0];
        assert!((relative_l1(&approx, &exact) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn both_unreachable_ignored() {
        let exact = vec![1.0, f64::INFINITY];
        let approx = vec![1.0, f64::INFINITY];
        assert_eq!(relative_l1(&approx, &exact), 0.0);
    }

    #[test]
    fn newly_reachable_penalized() {
        let exact = vec![4.0, f64::INFINITY];
        let approx = vec![4.0, 7.0];
        // One mismatch of mean exact magnitude (4) over denom 4 = 1.0.
        assert!((relative_l1(&approx, &exact) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_exact_vector() {
        assert_eq!(relative_l1(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(relative_l1(&[1.0, 0.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn max_abs_error_basics() {
        assert_eq!(max_abs_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(max_abs_error(&[11.0, 9.5], &[10.0, 10.0]), 1.0);
        // Both non-finite: ignored. Mismatch: mean exact magnitude (4).
        assert_eq!(
            max_abs_error(&[4.0, f64::INFINITY], &[4.0, f64::INFINITY]),
            0.0
        );
        assert_eq!(max_abs_error(&[4.0, 7.0], &[4.0, f64::INFINITY]), 4.0);
        assert_eq!(max_abs_error(&[], &[]), 0.0);
    }

    #[test]
    fn scalar_metric() {
        assert!((scalar_inaccuracy(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(scalar_inaccuracy(0.0, 0.0), 0.0);
        // Small exact values fall back to an absolute difference.
        assert!((scalar_inaccuracy(0.5, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.16]) - 1.16).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "geomean of 0")]
    fn geomean_of_a_zero_panics() {
        geomean(&[1.2, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        relative_l1(&[1.0], &[1.0, 2.0]);
    }
}
