//! Order statistics over per-unit samples.
//!
//! Quantiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles` (its default), so the quartiles this benchmark
//! reports are the ones a reader recomputes from the raw samples.

/// The `i`-th of the `n`-quantiles of `samples` (`0 < i < n`), by the
/// exclusive method: position `i·(len+1)/n` in the sorted data, linearly
/// interpolated between its neighbours. As in Python, the neighbour pair
/// is clamped to the first and last pair, so a position beyond the data
/// extrapolates along the end pair. A single sample is every quantile of
/// itself; an empty slice has none.
pub fn quantile(samples: &[f64], i: usize, n: usize) -> Option<f64> {
    assert!(0 < i && i < n, "quantile index {i} outside 1..{n}");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => None,
        1 => Some(data[0]),
        _ => {
            let m = len + 1;
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            Some((data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64)
        }
    }
}

/// The median (the middle sample, or the mean of the middle two).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 2, 4)
}

/// First quartile, median and third quartile.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    Some((
        quantile(samples, 1, 4)?,
        quantile(samples, 2, 4)?,
        quantile(samples, 3, 4)?,
    ))
}

/// The 90th percentile (the ninth of the 10-quantiles).
pub fn p90(samples: &[f64]) -> Option<f64> {
    quantile(samples, 9, 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&xs).unwrap();
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let (q1, q2, q3) = quartiles(&[4.0, 2.0, 1.0, 3.0]).unwrap();
        assert!(close(q1, 1.25) && close(q2, 2.5) && close(q3, 3.75));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_interpolates_and_extrapolates_like_python() {
        // statistics.quantiles(range(1, 21), n=10)[8] == 18.9
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(close(p90(&xs).unwrap(), 18.9));
        // Too few samples for a tail: Python extrapolates along the last
        // pair, statistics.quantiles([1, 2, 3], n=10)[8] == 3.6.
        assert!(close(p90(&[1.0, 2.0, 3.0]).unwrap(), 3.6));
    }
}
