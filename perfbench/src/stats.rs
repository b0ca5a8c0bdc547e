//! Median and quartiles of repeated samples.

/// Median, quartiles and sample count of one metric over a run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (which must not be empty). Quartiles use the
    /// exclusive method of Python's `statistics.quantiles(n=4)`, so the
    /// figures here match a Python analysis of the same samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        if v.len() == 1 {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n: 1,
            };
        }
        Summary {
            median: quantile(&v, 2),
            q1: quantile(&v, 1),
            q3: quantile(&v, 3),
            n: v.len(),
        }
    }
}

/// The `k`-th quartile of sorted `v` (at least two values), exactly as
/// Python's exclusive method computes it: position `k (n + 1) / 4`, the
/// index clamped to the data but the weight not (so the outer quartiles
/// of a tiny sample extrapolate).
fn quantile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    let m = k * (n + 1);
    let j = (m / 4).clamp(1, n - 1);
    let delta = m as f64 - 4.0 * j as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        let s = Summary::of(&[5.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.0, 3.0, 6.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }
}
