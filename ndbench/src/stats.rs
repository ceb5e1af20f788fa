//! Small order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between
/// closest ranks; `+∞` samples (failed requests) sort last. Returns
/// `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[hi] == v[lo] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_sort_failures_last() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        let with_fail = [1.0, f64::INFINITY, 2.0];
        assert_eq!(quantile(&with_fail, 1.0), f64::INFINITY);
        assert_eq!(median(&with_fail), 2.0);
        assert!(median(&[]).is_nan());
    }
}
