//! Order statistics shared by the run report and `compare`.

/// Linear-interpolated percentile (`p` in `0..=100`) of `xs`; `None` when
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// spreads `compare` prints match the ones the acceptance check computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |j: usize| {
        // Python: m = n + 1; j-th cut point at position j·m/4 (1-based).
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&xs), Some(5.5));
        assert_eq!(percentile(&[4.0], 90.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
