//! Time-series forecasting in the style of the Network Weather Service.
//!
//! NWS (Wolski et al.) runs a battery of cheap predictors over each
//! resource measurement series and, for every forecast, reports the value
//! produced by whichever predictor has the lowest accumulated error so
//! far — *dynamic predictor selection*. GridSAT's master consumes these
//! forecasts to rank resources (paper Section 3.3).

/// Samples the battery keeps: its longest window, the median's over 21.
const RING: usize = 21;
/// Windows of the two sliding means.
const MEAN_WINDOWS: [usize; 2] = [5, 20];

/// NWS-style dynamic predictor selection over a fixed battery (the window
/// sizes NWS ships by default are of this order). It tracks each member's
/// accumulated absolute forecast error and answers with the current best.
/// The members read one ring of recent samples, so the battery is a value.
#[derive(Clone, Copy, Debug)]
pub struct Adaptive {
    /// The last `RING` samples; sample `i` sits at `i % RING`.
    ring: [f64; RING],
    /// Samples seen.
    n: usize,
    /// Sum of every sample.
    sum: f64,
    /// Sums over the last `MEAN_WINDOWS` samples.
    means: [f64; 2],
    /// Exponential smoothing states at gains 0.25 and 0.05.
    smooth: [f64; 2],
    /// Accumulated absolute error per member.
    errors: [f64; 8],
}

impl Adaptive {
    /// The standard battery, with no sample seen.
    pub fn standard() -> Adaptive {
        Adaptive {
            ring: [0.0; RING],
            n: 0,
            sum: 0.0,
            means: [0.0; 2],
            smooth: [0.0; 2],
            errors: [0.0; 8],
        }
    }

    /// Incorporate a new measurement: charge every member its forecast's
    /// error, then slide the windows.
    pub fn update(&mut self, value: f64) {
        if let Some(forecasts) = self.forecasts() {
            for (e, f) in self.errors.iter_mut().zip(forecasts) {
                *e += (f - value).abs();
            }
        }
        let n = self.n;
        // overwrites sample n - 21, which no window holds any more
        self.ring[n % RING] = value;
        self.n += 1;
        self.sum += value;
        for (sum, window) in self.means.iter_mut().zip(MEAN_WINDOWS) {
            *sum += value;
            if n >= window {
                *sum -= self.ring[(n - window) % RING];
            }
        }
        for (s, alpha) in self.smooth.iter_mut().zip([0.25, 0.05]) {
            *s = match n {
                0 => value,
                _ => alpha * value + (1.0 - alpha) * *s,
            };
        }
    }

    /// Forecast the next measurement: the best member's. `None` until a
    /// sample is seen.
    pub fn predict(&self) -> Option<f64> {
        self.forecasts().map(|f| f[self.best()])
    }

    /// The first member with the smallest accumulated error.
    fn best(&self) -> usize {
        let mut best = 0;
        for i in 1..self.errors.len() {
            if self.errors[i] < self.errors[best] {
                best = i;
            }
        }
        best
    }

    /// Every member's forecast, `None` until a sample is seen: last value,
    /// running mean, the sliding means, the medians over 5 and 21 samples,
    /// the smoothers at 0.25 and 0.05.
    fn forecasts(&self) -> Option<[f64; 8]> {
        let n = self.n;
        (n > 0).then(|| {
            [
                self.ring[(n - 1) % RING],
                self.sum / n as f64,
                self.means[0] / n.min(MEAN_WINDOWS[0]) as f64,
                self.means[1] / n.min(MEAN_WINDOWS[1]) as f64,
                self.median(5),
                self.median(RING),
                self.smooth[0],
                self.smooth[1],
            ]
        })
    }

    /// Median of the last `window` samples, or of all while fewer are seen.
    fn median(&self, window: usize) -> f64 {
        let len = self.n.min(window);
        let mut v = [0.0; RING];
        for (k, x) in v[..len].iter_mut().enumerate() {
            *x = self.ring[(self.n - 1 - k) % RING];
        }
        let v = &mut v[..len];
        v.sort_unstable_by(f64::total_cmp);
        let mid = len / 2;
        if len % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::{LoadTrace, TraceConfig};

    /// The battery's members, in the order [`Adaptive`] keeps them.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) enum Member {
        LastValue,
        RunningMean,
        Mean5,
        Mean20,
        Median5,
        Median21,
        Smooth25,
        Smooth05,
    }

    pub(crate) const MEMBERS: [Member; 8] = [
        Member::LastValue,
        Member::RunningMean,
        Member::Mean5,
        Member::Mean20,
        Member::Median5,
        Member::Median21,
        Member::Smooth25,
        Member::Smooth05,
    ];

    impl Adaptive {
        /// One member's forecast, as the battery would answer were it best.
        pub(crate) fn member(&self, m: Member) -> Option<f64> {
            self.forecasts().map(|f| f[m as usize])
        }
    }

    /// The battery has no heap behind it: a copy is all of it.
    const _: () = {
        const fn copy<T: Copy>() {}
        copy::<Adaptive>()
    };

    fn fed(xs: &[f64]) -> Adaptive {
        let mut a = Adaptive::standard();
        for &x in xs {
            a.update(x);
        }
        a
    }

    #[test]
    fn last_value() {
        assert_eq!(Adaptive::standard().member(Member::LastValue), None);
        assert_eq!(fed(&[1.0, 3.0, 2.0]).member(Member::LastValue), Some(2.0));
    }

    #[test]
    fn running_mean() {
        let a = fed(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.member(Member::RunningMean), Some(2.5));
    }

    #[test]
    fn sliding_mean_window() {
        // only the last five: 1..=5; the 20-sample mean still holds the 10
        let a = fed(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.member(Member::Mean5), Some(3.0));
        assert_eq!(a.member(Member::Mean20), Some(25.0 / 6.0));
    }

    #[test]
    fn sliding_median_odd_even() {
        let mut a = fed(&[5.0, 1.0]);
        assert_eq!(a.member(Member::Median5), Some(3.0)); // even count: midpoint
        a.update(9.0);
        assert_eq!(a.member(Member::Median5), Some(5.0)); // odd: middle of {1,5,9}
        a.update(2.0);
        assert_eq!(a.member(Member::Median5), Some(3.5)); // {1,2,5,9}
        a.update(7.0);
        assert_eq!(a.member(Member::Median5), Some(5.0)); // {1,2,5,7,9}
        a.update(0.0);
        assert_eq!(a.member(Member::Median5), Some(2.0)); // window {1,9,2,7,0}
        assert_eq!(a.member(Member::Median21), Some(3.5)); // all six
    }

    #[test]
    fn exp_smoothing_converges() {
        let mut xs = vec![0.0];
        xs.extend([1.0; 20]);
        let a = fed(&xs);
        let fast = a.member(Member::Smooth25).unwrap();
        let slow = a.member(Member::Smooth05).unwrap();
        assert!(fast > 0.99 && fast <= 1.0, "{fast}");
        assert!(slow > 0.5 && slow < fast, "{slow}");
    }

    #[test]
    fn adaptive_tracks_constant_series_exactly() {
        assert_eq!(fed(&[7.0; 30]).predict(), Some(7.0));
    }

    #[test]
    fn adaptive_prefers_last_value_on_a_trend() {
        // On a steadily rising series, last-value beats the long means:
        // the forecast is the last sample, not a mean lagging behind it.
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        assert_eq!(fed(&xs).predict(), Some(199.0));
    }

    #[test]
    fn adaptive_prefers_median_under_spikes() {
        // Stable series with rare large spikes: the sliding median wins
        // over last-value (which is wrong right after every spike).
        let xs: Vec<f64> = (0..300)
            .map(|i| if i % 10 == 9 { 100.0 } else { 1.0 })
            .collect();
        let a = fed(&xs);
        // the series ends on a spike: last-value would forecast it again,
        // the median of the last five samples forecasts the stable level
        assert_eq!(xs.last(), Some(&100.0));
        assert_eq!(MEMBERS[a.best()], Member::Median5);
        assert_eq!(a.member(Member::LastValue), Some(100.0));
        assert_eq!(a.predict(), Some(1.0));
    }

    /// Every output of the battery, bit for bit, folded over seeded load
    /// traces with and without a day/night swing, then the spike, constant
    /// and ramp series of the tests above. The constant was cut from an
    /// implementation with one object per member; a change to any member's
    /// arithmetic, or to the order it sums in, moves it.
    #[test]
    fn forecasts_are_pinned_bit_for_bit() {
        let diurnal = TraceConfig {
            diurnal_period: 96.0,
            ..TraceConfig::diurnal(0.8, 0.5)
        };
        let mut series = Vec::new();
        for seed in 0..6 {
            series.push(LoadTrace::new(TraceConfig::default(), seed).take(400));
            series.push(LoadTrace::new(diurnal, seed).take(400));
        }
        series.push(
            (0..300)
                .map(|i| if i % 10 == 9 { 100.0 } else { 1.0 })
                .collect(),
        );
        series.push(vec![7.0; 30]);
        series.push((0..200).map(|i| i as f64).collect());
        let (mut updates, mut h) = (0, 0u64);
        for xs in series {
            let mut a = Adaptive::standard();
            for x in xs {
                a.update(x);
                let bits = a.predict().map_or(u64::MAX, f64::to_bits);
                h = (h.rotate_left(23) ^ bits).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                updates += 1;
            }
        }
        assert_eq!((updates, h), (5330, 0x73c0_24ca_6458_8b32));
    }

    #[test]
    fn the_battery_is_a_fixed_size_value() {
        assert_eq!(std::mem::size_of::<Adaptive>(), 280);
    }
}
