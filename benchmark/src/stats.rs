//! Sample statistics: the percentile rule of the reported latencies and
//! the quartile spread the repeatability check uses.

/// Nearest-rank percentile of an ascending sample (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The tail percentiles a report may quote, ascending, each with the
/// share of samples beyond it in parts per 10 000.
const TAILS: [(f64, usize); 4] = [(90.0, 1000), (95.0, 500), (99.0, 100), (99.9, 10)];

/// The highest percentile a sample of `n` supports: the one that still
/// has at least ten samples beyond it (`None` below 100 samples).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
        .next_back()
}

/// Median and p95 of a latency sample. p95 is the benchmark's fixed tail,
/// so a sample that cannot support it (fewer than 200 values) is an
/// error rather than a quietly weaker number.
pub fn p50_p95(samples: &[f64]) -> Result<(f64, f64), String> {
    match highest_supported_tail(samples.len()) {
        Some(p) if p >= 95.0 => {
            let v = sorted(samples);
            Ok((median(&v), percentile(&v, 95.0)))
        }
        _ => Err(format!(
            "{} samples cannot support p95 (needs 200)",
            samples.len()
        )),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn p95_refuses_small_samples() {
        let small: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(p50_p95(&small).is_err());
        let enough: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(p50_p95(&enough), Ok((100.5, 190.0)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
