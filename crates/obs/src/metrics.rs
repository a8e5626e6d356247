//! The fixed-bucket [`Histogram`] behind the master's control-plane
//! latency telemetry (`gridsat::MasterTelemetry`): quantiles, mean and a
//! lossless merge, nothing rendered.

/// A fixed-bucket histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// `counts[i]` observations fell in bucket `i`; the final slot is
    /// the +Inf overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Doubling latency bounds from 100 µs to ~104 s — the right scale
    /// for the control-plane latencies (split request → grant waits) this
    /// codebase measures in seconds.
    pub fn latency_s() -> Histogram {
        Histogram::with_bounds((0..=20).map(|i| 1e-4 * f64::from(1u32 << i)).collect())
    }

    pub fn with_bounds(bounds: Vec<f64>) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
        }
    }

    pub fn observe(&mut self, v: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum += v;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts,
    /// interpolating linearly within the bucket that crosses the target
    /// rank (the standard Prometheus `histogram_quantile` estimate). An
    /// empty histogram (or a NaN `q`) reports the 0.0 sentinel — never
    /// NaN, never a panic — so summaries over idle components (e.g. a
    /// sub-master that brokered nothing) stay finite. A one-sample
    /// histogram reports the exact observed value rather than an
    /// interpolated bucket position; a quantile landing in the +Inf
    /// overflow bucket is clamped to the highest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }

    /// [`quantile`](Histogram::quantile) without the sentinel: `None`
    /// when there is nothing to summarize (no observations, or a NaN
    /// `q`), so callers can distinguish "idle" from "fast".
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        if self.count == 1 {
            // one observation: `sum` is that value, exactly — better
            // than interpolating a rank through a single-entry bucket
            return Some(self.sum);
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = acc;
            acc += c;
            if (acc as f64) < rank || c == 0 {
                continue;
            }
            return Some(match self.bounds.get(i) {
                Some(&hi) => {
                    let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                    lo + (hi - lo) * ((rank - prev as f64) / c as f64)
                }
                // +Inf bucket: no upper edge to interpolate toward
                None => self.bounds.last().copied().unwrap_or(0.0),
            });
        }
        self.bounds.last().copied()
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Fold another histogram's observations into this one. Both sides
    /// must share the same bucket bounds (true for the fixed
    /// constructors); merging is how a promoted standby absorbs the old
    /// master's telemetry.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "merge needs equal bounds");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::with_bounds(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5060.5);
        // cumulative counts 1, 3, 4, 5: the quantile at each bucket's
        // cumulative share is that bucket's upper bound, and the
        // overflow bucket clamps to the last finite one
        for (q, bound) in [(0.2, 1.0), (0.6, 10.0), (0.8, 100.0), (1.0, 100.0)] {
            assert!(
                (h.quantile(q) - bound).abs() < 1e-9,
                "q={q}: {}",
                h.quantile(q)
            );
        }
    }

    #[test]
    fn quantiles_on_a_uniform_distribution() {
        // 100 observations spread evenly over (0, 100] with bounds every
        // 10: the quantile estimate should match the ideal value exactly
        // because interpolation is linear and the buckets are uniform.
        let mut h = Histogram::with_bounds((1..=10).map(|i| f64::from(i) * 10.0).collect());
        for i in 1..=100 {
            h.observe(f64::from(i));
        }
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p90(), 90.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.mean(), 50.5);
    }

    #[test]
    fn quantiles_on_a_skewed_distribution() {
        // 90 fast observations in (0, 1], 10 slow ones in (9, 10].
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 5.0, 10.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(9.5);
        }
        // p50 lands mid-bucket-one: rank 50 of 90 in (0, 1]
        assert!((h.p50() - 50.0 / 90.0).abs() < 1e-12);
        // p90 is exactly the edge of the fast bucket
        assert_eq!(h.p90(), 1.0);
        // p99 interpolates within (5, 10]: rank 99, bucket holds 91..=100
        assert!((h.p99() - (5.0 + 5.0 * (99.0 - 90.0) / 10.0)).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = Histogram::latency_s();
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.mean(), 0.0);
        // everything in the +Inf overflow bucket clamps to the highest
        // finite bound rather than reporting infinity
        let mut over = Histogram::with_bounds(vec![1.0, 2.0]);
        over.observe(100.0);
        over.observe(100.0);
        assert_eq!(over.p50(), 2.0);
        assert_eq!(over.p99(), 2.0);
    }

    #[test]
    fn empty_and_one_sample_histograms_never_yield_nan() {
        // an idle sub-master's latency summary folds an empty histogram;
        // every quantile must come back as the finite 0.0 sentinel
        let empty = Histogram::latency_s();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0, f64::NAN] {
            let v = empty.quantile(q);
            assert_eq!(v, 0.0, "empty histogram, q={q}: got {v}");
            assert!(empty.try_quantile(q).is_none());
        }

        // one observation: every quantile is that exact value, not an
        // interpolated bucket position and never NaN — even when the
        // sample overflows into the +Inf bucket
        for v in [0.0007, 1.0, 3.5e5] {
            let mut one = Histogram::latency_s();
            one.observe(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(one.quantile(q), v, "one sample {v}, q={q}");
                assert_eq!(one.try_quantile(q), Some(v));
            }
            assert!(one.try_quantile(f64::NAN).is_none(), "NaN q is refused");
        }

        // a degenerate histogram with no buckets at all still stays finite
        let mut bare = Histogram::with_bounds(vec![]);
        bare.observe(5.0);
        bare.observe(7.0);
        assert_eq!(bare.quantile(0.5), 0.0);
        assert!(bare.quantile(0.5).is_finite());
    }

    #[test]
    fn merge_folds_counts_sum_and_quantiles() {
        let mut a = Histogram::latency_s();
        let mut b = Histogram::latency_s();
        for _ in 0..10 {
            a.observe(0.001);
        }
        for _ in 0..10 {
            b.observe(0.1);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert!((a.sum() - (10.0 * 0.001 + 10.0 * 0.1)).abs() < 1e-9);
        // half the mass is at ~1ms, half at ~100ms: p90 lands high
        assert!(a.p90() > 0.05, "p90 = {}", a.p90());
        assert!(a.p50() <= 0.0512, "p50 = {}", a.p50());
    }
}
