//! Percentiles, slice medians and quartile spreads.
//!
//! Every timing metric the benchmark reports is the **median over
//! slices** of a per-slice statistic (README, noise rule 2), so the
//! functions here refuse to invent a number when the sample cannot
//! support the statistic asked for.

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatError {
    /// No samples at all.
    Empty,
    /// The sample has fewer than `need` points beyond the percentile.
    TooFewBeyond { have: usize, need: usize },
}

impl std::fmt::Display for StatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatError::Empty => write!(f, "no samples"),
            StatError::TooFewBeyond { have, need } => {
                write!(f, "{have} samples beyond the percentile, {need} needed")
            }
        }
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of an ascending-sorted
/// sample, demanding at least `beyond` samples strictly above the
/// returned rank. The per-slice p50/p75 use `beyond = 1`; whole-phase
/// p99 uses 10, as the choosing-metrics guide asks.
pub fn percentile(sorted: &[f64], q: f64, beyond: usize) -> Result<f64, StatError> {
    if sorted.is_empty() {
        return Err(StatError::Empty);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let have = sorted.len() - rank;
    if have < beyond {
        return Err(StatError::TooFewBeyond { have, need: beyond });
    }
    Ok(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the two middle points when the
/// count is even).
pub fn median(values: &[f64]) -> Result<f64, StatError> {
    if values.is_empty() {
        return Err(StatError::Empty);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Ok(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The median over slices of a per-slice statistic: `per_slice` is
/// applied to every slice and any slice that cannot support it fails
/// the whole metric.
pub fn slice_median<T>(
    slices: &[T],
    per_slice: impl Fn(&T) -> Result<f64, StatError>,
) -> Result<f64, StatError> {
    let stats: Vec<f64> = slices.iter().map(per_slice).collect::<Result<_, _>>()?;
    median(&stats)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method) — the driver's spread measure.
pub fn quartiles(values: &[f64]) -> Result<(f64, f64), StatError> {
    if values.len() < 2 {
        return Err(StatError::TooFewBeyond {
            have: values.len(),
            need: 2,
        });
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Ok((at(1), at(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Result<f64, StatError> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    Ok(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50, 1), Ok(50.0));
        assert_eq!(percentile(&v, 0.75, 1), Ok(75.0));
        assert_eq!(percentile(&v, 0.99, 1), Ok(99.0));
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&four, 0.75, 1), Ok(3.0));
    }

    #[test]
    fn percentile_refuses_unsupported_samples() {
        assert_eq!(percentile(&[], 0.5, 1), Err(StatError::Empty));
        // p75 of three points is the top point: nothing lies beyond it.
        assert_eq!(
            percentile(&[1.0, 2.0, 3.0], 0.75, 1),
            Err(StatError::TooFewBeyond { have: 0, need: 1 })
        );
        // p99 with ten beyond needs a thousand samples.
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.99, 10),
            Err(StatError::TooFewBeyond { have: 9, need: 10 })
        );
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99, 10), Ok(989.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatError::Empty));
    }

    #[test]
    fn slice_median_takes_the_median_of_slice_statistics() {
        let slices = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![10.0, 20.0, 30.0, 40.0],
            vec![5.0, 6.0, 7.0, 8.0],
        ];
        let p50 = slice_median(&slices, |s| percentile(s, 0.5, 1));
        assert_eq!(p50, Ok(6.0));
        // One starved slice poisons the metric instead of skewing it.
        let starved = vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0]];
        assert!(slice_median(&starved, |s| percentile(s, 0.75, 1)).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
        let (q1, q3) = quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0]).unwrap();
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 6.0).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
