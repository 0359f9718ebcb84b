//! Order statistics for trial values and latency samples.

/// The median of `v`; sorts it in place.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of `v`, interpolated between the two
/// nearest ranks.
pub fn quantile_f64(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = (s.len() - 1) as f64 * q;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

/// Median absolute deviation as a percentage of the median: the noise
/// figure printed beside every metric.
pub fn mad_pct(v: &[f64]) -> f64 {
    let m = median(&mut v.to_vec());
    if m == 0.0 {
        return 0.0;
    }
    let mut dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    100.0 * median(&mut dev) / m.abs()
}

/// The value at quantile `q` of an ascending slice (nearest rank below).
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// The highest of p99, p99.9, p99.99, p99.999 that still has at least
/// ten samples beyond it, as `(label, value, rank from the top)`.
/// `None` under 1000 samples, where even p99 has fewer than ten.
pub fn top_percentile(sorted: &[u32]) -> Option<(&'static str, u32, usize)> {
    let n = sorted.len();
    [
        ("p99.999", 1e-5),
        ("p99.99", 1e-4),
        ("p99.9", 1e-3),
        ("p99", 1e-2),
    ]
    .into_iter()
    .map(|(label, tail)| (label, (n as f64 * tail) as usize))
    .find(|&(_, beyond)| beyond >= 10)
    .map(|(label, beyond)| (label, sorted[n - 1 - beyond], beyond))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // deviations from the median, 10: 0, 1, 1, 0, 90 -> MAD 1 -> 10%
        assert!((mad_pct(&[10.0, 9.0, 11.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile_f64(&v, 0.0), 10.0);
        assert_eq!(quantile_f64(&v, 0.5), 30.0);
        assert!((quantile_f64(&v, 0.1) - 14.0).abs() < 1e-9);
        assert!((quantile_f64(&v, 0.9) - 46.0).abs() < 1e-9);
    }

    #[test]
    fn top_percentile_needs_ten_beyond() {
        let v: Vec<u32> = (0..5000).collect();
        assert_eq!(quantile(&v, 0.5), 2499);
        // 5000 * 1e-3 = 5 < 10, so p99 (50 beyond) is the highest.
        assert_eq!(top_percentile(&v), Some(("p99", 4949, 50)));
        assert_eq!(top_percentile(&v[..500]), None);
    }
}
