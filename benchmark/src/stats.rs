//! Order statistics over repeated timings.

/// `n` values summarised the way every timing is printed: the median
/// with the extremes and the count beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Summary of `values`; all zero for an empty slice. An even count takes
/// the mean of the two middle values.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary {
            n: 0,
            median: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        n,
        median,
        min: sorted[0],
        max: sorted[n - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (4, 2.5, 1.0, 4.0));
        assert_eq!(summarize(&[7.5]).median, 7.5);
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
